"""The one-shot ``locate`` with its pipeline memo agrees with a fresh pipeline.

``reference_locate`` is the build-per-call body kept verbatim: a new
``Pipeline`` (and so new B and C sub-trace indexes) on every call. A random
sequence of operations runs on one list holding the fixture corpus:
locating a fixture crash with its app model, a deeper app model or none;
appending, popping or replacing an entry with an equal copy or a different
crash; dropping every crash of one category in place (which empties that
pool); swapping between a categorizer trained on the whole corpus and one
trained on half of it; and changing the depth. After every locate, the
memoized result must serialize exactly as the reference's, and a
``LocateError`` must carry the same phase and message.

The fixture app models have no call chain longer than one hop, so the
linkage depth never changes a fixture ranking. ``DEEP`` adds a four-hop
chain from ``MainActivity#onCreate`` to a second ``bindService`` invoker,
which the search finds only at depth 4 or more.
"""
from __future__ import annotations

import dataclasses
import json

from hypothesis import example, given, settings, strategies as st

from crashloc import localizer
from crashloc.appmodel import app_model_from_json, load_app_model
from crashloc.config import Config
from crashloc.corpus import load_corpus
from crashloc.errors import CrashLocError, LocateError
from crashloc.evaluation import fit
from crashloc.localizer import Pipeline, locate
from crashloc.nb import Category
from crashloc.trace import FrameworkMatcher

from conftest import APP_MODELS, CORPUS_PATH


def reference_locate(report, model, corpus, nb, depth=5):
    """Full pipeline for one crash: categorize, then dispatch the locator."""
    if nb.selected_vocab is None:
        raise LocateError("categorize", "model bundle carries no vocabulary")
    pipeline = Pipeline(nb, tuple(corpus), depth)
    try:
        category = pipeline.categorize(report)
    except CrashLocError as exc:
        raise LocateError("categorize", str(exc)) from exc
    try:
        return pipeline.locate_as(category, report, model)
    except LocateError:
        raise
    except CrashLocError as exc:
        raise LocateError("locate", str(exc)) from exc


def _deep_geography():
    obj = json.loads((APP_MODELS / "geography.json").read_text(encoding="utf-8"))
    package = "com.yamlearning.geographylearning"
    chain = [f"{package}.Binder#step{i}()" for i in range(1, 5)]
    obj["classes"].append({"name": f"{package}.Binder", "superclasses": ["java.lang.Object"],
                           "active_methods": chain, "non_overridden_callbacks": []})
    callers = [f"{package}.MainActivity#onCreate(android.os.Bundle)", *chain]
    bind = ("android.content.ContextWrapper#bindService"
            "(android.content.Intent,android.content.ServiceConnection,int)")
    for caller, callee in zip(callers, [*chain, bind]):
        obj["invocations"].append({"caller": caller, "callees": [callee]})
    return app_model_from_json(obj)


CORPUS = tuple(load_corpus(CORPUS_PATH, FrameworkMatcher()))
NB_MODELS = (fit(CORPUS, Config()).nb, fit(CORPUS[::2], Config()).nb)
OWN_MODELS = {path: load_app_model(path) for path in {c.app_model for c in CORPUS} if path}
DEEP = _deep_geography()
# A Category-B crash whose ranking against DEEP is one method at depths 1-3
# and two at depths 4-5.
DEEP_QUERY = next(i for i, c in enumerate(CORPUS)
                  if c.true_location.endswith("geographylearning.MainActivity#onCreate"))
C_QUERY = next(i for i, c in enumerate(CORPUS) if c.category is Category.C)
# A crash the two categorizers put in different categories.
NB_QUERY = next(i for i, c in enumerate(CORPUS)
                if len({Pipeline(nb, CORPUS).categorize(c.report) for nb in NB_MODELS}) > 1)

_index = st.integers(0, len(CORPUS) - 1)
# A locate is drawn as often as each kind of change, and two thirds of the
# locates ask one of the queries whose result depends on the depth or the
# categorizer.
_locate = st.tuples(st.just("locate"), st.one_of(
    st.just((DEEP_QUERY, "deep")),
    st.just((NB_QUERY, "own")),
    st.tuples(_index, st.sampled_from(["own", "deep", "none"])),
))
_operation = st.one_of(
    _locate, _locate, _locate,
    st.tuples(st.just("append"), _index, st.booleans()),
    st.tuples(st.just("pop"), st.integers(0, 10 * len(CORPUS))),
    st.tuples(st.just("replace"), st.integers(0, 10 * len(CORPUS)), _index, st.booleans()),
    st.tuples(st.just("drop"), st.sampled_from(list(Category))),
    st.tuples(st.just("nb"), st.integers(0, len(NB_MODELS) - 1)),
    st.tuples(st.just("depth"), st.integers(1, 5)),
)


def _equal_copy(crash):
    """A crash equal to ``crash`` that shares no object with it but its leaves."""
    return dataclasses.replace(crash, report=dataclasses.replace(crash.report))


def _outcome(function, report, model, corpus, nb, depth):
    try:
        return function(report, model, corpus, nb, depth).to_json_obj()
    except LocateError as exc:
        return ("LocateError", exc.phase, str(exc))


@settings(max_examples=400, deadline=None)
@given(operations=st.lists(_operation, min_size=1, max_size=40))
@example(operations=[("depth", 3), ("locate", (DEEP_QUERY, "deep")),
                     ("depth", 4), ("locate", (DEEP_QUERY, "deep"))])
@example(operations=[("locate", (C_QUERY, "own")), ("drop", Category.C),
                     ("locate", (C_QUERY, "own"))])
@example(operations=[("locate", (NB_QUERY, "own")), ("nb", 1), ("locate", (NB_QUERY, "own"))])
def test_memoized_locate_matches_a_fresh_pipeline(operations):
    localizer._last_pipeline = None
    corpus = list(CORPUS)
    nb, depth = NB_MODELS[0], 5
    for operation, *args in operations:
        if operation == "locate":
            index, model_choice = args[0]
            query = CORPUS[index]
            model = {"own": OWN_MODELS.get(query.app_model), "deep": DEEP, "none": None}[model_choice]
            expected = _outcome(reference_locate, query.report, model, corpus, nb, depth)
            assert _outcome(locate, query.report, model, corpus, nb, depth) == expected
        elif operation == "append":
            crash = CORPUS[args[0]]
            corpus.append(_equal_copy(crash) if args[1] else crash)
        elif operation == "pop" and corpus:
            corpus.pop(args[0] % len(corpus))
        elif operation == "replace" and corpus:
            target = args[0] % len(corpus)
            corpus[target] = _equal_copy(corpus[target]) if args[2] else CORPUS[args[1]]
        elif operation == "drop":
            corpus[:] = [c for c in corpus if c.category is not args[0]]
        elif operation == "nb":
            nb = NB_MODELS[args[0]]
        elif operation == "depth":
            depth = args[0]
