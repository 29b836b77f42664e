"""The indexed call-graph queries, the load-time callback order and the
one-pass loader agree with the direct computations they replaced.

``reference_invokers_of`` and ``reference_links`` scan ``model.invocations``
and ``model.param_flows`` on every call; they are kept here, unchanged, as
the oracle for ``appmodel.invokers_of`` and ``appmodel.links``. Since
``links`` is the one-pair case of ``appmodel.link_scores``, which alone
states the linkage rule, ``reference_links`` is the independent oracle of
that rule.
``reference_non_overridden_callbacks`` is the sort the Category-B locator
once ran per query; applied to a class's callbacks in their listed order,
it is the oracle for the order in which loading keeps them.
``reference_locate_category_b`` is the Category-B locator that called
``links`` once per (invoker, active method), kept verbatim; it is the
oracle for ``link_scores``, which the locator now calls: its float order
and the reachability memo's keys. Run on a fresh model per query, it is
also the oracle for one loaded model answering a sequence of queries from
its link counts, which must then search nothing again for a repeated query.
``reference_parse_method_ref`` is the regex-only reference parser, and
``reference_app_model_from_json`` the loader that parsed every reference
occurrence with it, kept verbatim but for the names of the parsers it
calls; they are the oracles for ``parse_method_ref``, which splits with
``str.partition`` alone, and for the loader that parses each distinct
callback text and each distinct resolved reference text once.
``checked_app_model_from_json`` is that loader as it was before its shape
checks ran inline: it sends every value through ``expect`` and
``expect_items`` and builds each pointer up front. It is kept verbatim but
for its name and its API parser, ``reference_api_from_json_obj``, which is
``ApiRef.from_json_obj`` as it was when it re-raised through ``within``,
the context manager that the error module then held, kept here verbatim.
The loader must agree with both loaders on every input, down to which of
several bad values it reports.
"""
from __future__ import annotations

import copy
import json
import re
from contextlib import contextmanager
from functools import reduce
from operator import getitem

import pytest
from hypothesis import example, given, settings, strategies as st

from crashloc.appmodel import (
    API_KIND_CALL_IN,
    DEFAULT_LINKS_DEPTH,
    ApiRef,
    AppModel,
    CallGraph,
    ClassDef,
    MethodRef,
    _undeclared,
    app_model_from_json,
    inherits_from,
    invokers_of,
    links,
    load_app_model,
    parse_method_ref,
)
from crashloc.corpus import Category, LabeledCrash
from crashloc.errors import ArtifactError, DanglingRef, SchemaError, expect, expect_items
from crashloc.localizer import (
    LocalizationResult,
    Location,
    _known_frames,
    infer_handled_api,
    locate_category_b,
)
from crashloc.similarity import Pool
from crashloc.trace import CrashReport

from conftest import APP_MODELS, json_fields, make_report

DEPTHS = range(7)


def reference_invokers_of(model: AppModel, api: ApiRef) -> list[MethodRef]:
    """Developer methods with an invocation edge to the API, in model order."""
    found = []
    seen = set()
    for caller, callees in model.invocations:
        if caller.canonical() in seen:
            continue
        for callee in callees:
            if callee.class_name == api.class_name and callee.method_name == api.method_name:
                found.append(caller)
                seen.add(caller.canonical())
                break
    return found


def reference_links(model: AppModel, s: MethodRef, am: MethodRef, depth: int = 5) -> bool:
    """True when the two developer methods are plausibly related.

    Any of: (1) ``am`` reaches ``s`` through invocation edges within
    ``depth`` hops, (2) both are declared in the same class, (3) an
    instance of ``s``'s declaring class flows into ``am`` as a parameter.
    """
    if s.class_name == am.class_name:
        return True
    for callee, _, class_name in model.param_flows:
        if callee.same_method(am) and class_name == s.class_name:
            return True
    edges: dict = {}
    for caller, callees in model.invocations:
        edges.setdefault(caller.canonical(), []).extend(
            c for c in callees if c.is_developer
        )
    frontier = [am]
    visited = {am.canonical()}
    for _ in range(depth):
        next_frontier = []
        for method in frontier:
            for callee in edges.get(method.canonical(), []):
                if callee.same_method(s):
                    return True
                if callee.canonical() not in visited:
                    visited.add(callee.canonical())
                    next_frontier.append(callee)
        if not next_frontier:
            break
        frontier = next_frontier
    return False


def reference_locate_category_b(
    report: CrashReport,
    model: AppModel,
    training_b: Pool,
    depth: int = DEFAULT_LINKS_DEPTH,
) -> LocalizationResult:
    """Rank out-of-trace developer methods for the inferred handled API.

    Stack-frame classes missing from the app model are skipped with a
    warning rather than failing the whole localization.
    """
    api, provenance = infer_handled_api(report, training_b)

    ranked: list[tuple[Location, float]]
    if api.kind == API_KIND_CALL_IN:
        invokers = invokers_of(model, api)
        # Invokers are unique by canonical name, so one score per position.
        scores = [0.0] * len(invokers)
        for d, _, cdef in _known_frames(report, model):
            for i, s in enumerate(invokers):
                for am in cdef.active_methods:
                    if links(model, s, am, depth):
                        scores[i] += 1.0 / d
        ranked = sorted(
            ((s, score) for s, score in zip(invokers, scores) if score > 0),
            key=lambda pair: -pair[1],
        )
    else:
        ranked = []
        seen = set()
        for d, frame, cdef in _known_frames(report, model):
            for nc in cdef.non_overridden_callbacks:
                if not inherits_from(model, nc, api):
                    continue
                suggestion = MethodRef(
                    class_name=frame.class_name,
                    method_name=nc.method_name,
                    signature=nc.signature,
                )
                if suggestion.canonical() in seen:
                    continue
                seen.add(suggestion.canonical())
                ranked.append((suggestion, 1.0 / d))

    return LocalizationResult(
        predicted_category=Category.B,
        ranked=tuple(ranked),
        provenance=provenance,
    )


def reference_non_overridden_callbacks(
    superclasses: tuple[str, ...], callbacks: list[MethodRef]
) -> list[MethodRef]:
    """The class's inherited-but-not-overridden callbacks, nearest superclass first."""
    chain_pos = {name: i for i, name in enumerate(superclasses)}
    return sorted(
        callbacks,
        key=lambda nc: chain_pos.get(nc.class_name, len(superclasses)),
    )


# Method slots a class may declare: (method, signature text or None). Their
# canonical strings are pairwise distinct, so any subset is a valid class.
# The same method name recurs with several signatures (overloads) and with
# none at all.
SLOTS = (
    ("run", None),
    ("run", ""),
    ("run", "int"),
    ("run", "int,java.lang.String"),
    ("stop", None),
    ("stop", "long"),
    ("onClick", ""),
)
CLASS_NAMES = ("com.app.Main", "com.app.Helper", "com.app.Store", "com.lib.Util")
# Superclass chains draw 1-3 of these, repeats allowed. Callback names are
# used by no slot, so a callback never clashes with an active method.
SUPER_NAMES = ("android.app.Activity", "android.app.Fragment", "java.lang.Object")
CALLBACK_TEXTS = ("onStart()", "onPause()", "onResume", "onEvent(int)")
API_REFS = (
    ("android.app.Service", "bindService", "call-in"),
    ("android.content.Context", "run", "call-in"),
    ("android.app.Activity", "onResume", "callback"),
    # Shares a developer class and method name: callees of this name whose
    # signature no class declares resolve to the API, not to a developer.
    ("com.app.Main", "run", "call-in"),
)


def _spellings(cls: str, method: str, sig: str | None) -> list[str]:
    """Texts that load as a reference to the declared method ``cls#method(sig)``."""
    if sig is None:
        return [f"{cls}#{method}"]
    texts = [f"{cls}#{method}({sig})"]
    if "," in sig:
        texts.append(f"{cls}#{method}({sig.replace(',', ', ')})")
    if sig == "":
        # A blank signature parses to (), like ``m()``.
        texts.append(f"{cls}#{method}( )")
    return texts


@st.composite
def app_model_json(draw):
    n_classes = draw(st.integers(1, len(CLASS_NAMES)))
    declared = []
    classes = []
    for name in CLASS_NAMES[:n_classes]:
        slots = draw(st.lists(st.sampled_from(SLOTS), min_size=1, max_size=4, unique=True))
        declared.extend((name, method, sig) for method, sig in slots)
        supers = draw(st.lists(st.sampled_from(SUPER_NAMES), min_size=1, max_size=3))
        callbacks = draw(st.lists(
            st.tuples(st.sampled_from(supers), st.sampled_from(CALLBACK_TEXTS)), max_size=5))
        classes.append({
            "name": name,
            "superclasses": supers,
            "active_methods": [_spellings(name, m, sig)[0] for m, sig in slots],
            "non_overridden_callbacks": [f"{cls}#{text}" for cls, text in callbacks],
        })
    apis = draw(st.lists(st.sampled_from(API_REFS), max_size=len(API_REFS), unique=True))
    declared_texts = {_spellings(*d)[0] for d in declared}
    api_callees = [
        text
        for cls, method, _ in apis
        for text in (f"{cls}#{method}", f"{cls}#{method}(int)", f"{cls}#{method}(zzz)")
        if text not in declared_texts
    ]
    declared_refs = st.sampled_from(declared).flatmap(
        lambda d: st.sampled_from(_spellings(*d)))
    callee = declared_refs | st.sampled_from(api_callees) if api_callees else declared_refs
    # Callers repeat (duplicate entries), call themselves and form cycles.
    invocations = draw(st.lists(
        st.fixed_dictionaries({"caller": declared_refs,
                               "callees": st.lists(callee, max_size=4)}),
        max_size=12,
    ))
    param_flows = draw(st.lists(
        st.fixed_dictionaries({
            "callee": declared_refs,
            "position": st.integers(0, 2),
            "class_name": st.sampled_from(CLASS_NAMES + ("com.other.Gone",)),
        }),
        max_size=4,
    ))
    return {
        "classes": classes,
        "invocations": invocations,
        "param_flows": param_flows,
        "apis": [{"class_name": c, "method_name": m, "kind": k} for c, m, k in apis],
    }


def _query_refs(model: AppModel) -> list[MethodRef]:
    """Every method reference the model holds, plus refs it does not declare."""
    refs = [ref for cdef in model.classes.values() for ref in cdef.active_methods]
    for caller, callees in model.invocations:
        refs.append(caller)
        refs.extend(callees)
    refs.extend(callee for callee, _, _ in model.param_flows)
    for cls in CLASS_NAMES[:2] + ("com.other.Gone",):
        for text in ("run", "run()", "run( )", "run(int)", "run(double)", "stop", "absent"):
            refs.append(parse_method_ref(f"{cls}#{text}"))
    return list(dict.fromkeys(refs))


def _query_apis(model: AppModel) -> list[ApiRef]:
    extra = [ApiRef("com.app.Helper", "stop", "call-in"), ApiRef("x.Y", "z", "call-in")]
    return list(model.apis) + extra


def _assert_agrees(model: AppModel) -> None:
    refs = _query_refs(model)
    for s in refs:
        for am in refs:
            for depth in DEPTHS:
                assert links(model, s, am, depth) == reference_links(model, s, am, depth), (
                    s, am, depth)
    for api in _query_apis(model):
        assert invokers_of(model, api) == reference_invokers_of(model, api), api


@settings(max_examples=60, deadline=None)
@given(app_model_json())
def test_indexed_queries_match_reference_on_random_models(obj):
    _assert_agrees(app_model_from_json(obj))


@settings(max_examples=60, deadline=None)
@given(app_model_json(), st.data())
def test_memoized_links_match_reference_in_any_query_order(obj, data):
    # One loaded model answers every query, so later answers come from memo
    # entries that earlier queries filled. Each drawn pair is asked at every
    # depth in a drawn order and then in its reverse, so each depth is asked
    # both before and after each shallower one.
    model = app_model_from_json(obj)
    # Declared methods are drawn more often: only they start or end a search.
    declared = [ref for cdef in model.classes.values() for ref in cdef.active_methods]
    ref = st.one_of(st.sampled_from(declared), st.sampled_from(declared),
                    st.sampled_from(_query_refs(model)))
    pairs = data.draw(st.lists(st.tuples(ref, ref), min_size=1, max_size=12))
    for s, am in pairs:
        order = data.draw(st.permutations(DEPTHS))
        for depth in order + order[::-1]:
            assert links(model, s, am, depth) == reference_links(model, s, am, depth), (
                s, am, depth)


@pytest.mark.parametrize("name", ["fengshui.json", "geography.json"])
def test_indexed_queries_match_reference_on_fixtures(name):
    _assert_agrees(load_app_model(APP_MODELS / name))


def _assert_callbacks_in_reference_order(obj: dict) -> None:
    model = app_model_from_json(obj)
    for centry in obj["classes"]:
        listed = [parse_method_ref(text, False) for text in centry["non_overridden_callbacks"]]
        expected = reference_non_overridden_callbacks(tuple(centry["superclasses"]), listed)
        assert list(model.classes[centry["name"]].non_overridden_callbacks) == expected, centry


# A superclass listed twice sorts by its last position: Activity ranks after
# Fragment here, so the Fragment callback comes first.
_REPEATED_SUPER = {
    "classes": [{
        "name": "com.app.Main",
        "superclasses": ["android.app.Activity", "android.app.Fragment", "android.app.Activity"],
        "active_methods": [],
        "non_overridden_callbacks": ["android.app.Activity#onStart()",
                                     "android.app.Fragment#onPause()"],
    }],
    "invocations": [],
    "param_flows": [],
    "apis": [],
}


@settings(max_examples=60, deadline=None)
@given(app_model_json())
@example(_REPEATED_SUPER)
def test_loaded_callbacks_match_reference_order_on_random_models(obj):
    _assert_callbacks_in_reference_order(obj)


@pytest.mark.parametrize("name", ["fengshui.json", "geography.json"])
def test_loaded_callbacks_match_reference_order_on_fixtures(name):
    _assert_callbacks_in_reference_order(
        json.loads((APP_MODELS / name).read_text(encoding="utf-8")))


def test_respelled_callee_is_its_declaration():
    # "m( )" loads as a callee of the declared "m()" and is the same method,
    # under every spelling of the query.
    model = app_model_from_json({
        "classes": [
            {"name": "a.A", "superclasses": [], "active_methods": ["a.A#go()"],
             "non_overridden_callbacks": []},
            {"name": "b.B", "superclasses": [], "active_methods": ["b.B#m()"],
             "non_overridden_callbacks": []},
        ],
        "invocations": [{"caller": "a.A#go()", "callees": ["b.B#m( )"]}],
        "param_flows": [],
        "apis": [],
    })
    go = parse_method_ref("a.A#go()")
    for text in ("b.B#m()", "b.B#m( )", "b.B#m"):
        s = parse_method_ref(text)
        assert links(model, s, go, 1) is True is reference_links(model, s, go, 1)


def test_call_graph_is_built_on_first_query_and_left_out_of_equality():
    obj = json.loads((APP_MODELS / "geography.json").read_text(encoding="utf-8"))
    model = app_model_from_json(obj)
    assert "call_graph" not in vars(model)
    api = model.apis[0]
    invokers_of(model, api)
    graph = model.call_graph
    assert "call_graph" in vars(model)
    assert model == app_model_from_json(obj)
    for s in invokers_of(model, api):
        links(model, s, s, 5)
    assert model.call_graph is graph


# ---------------------------------------------------------------------------
# Category-B scoring
# ---------------------------------------------------------------------------

# Frame classes: the model's, one it never declares, and repeats of both,
# so that one class sits at several distances d.
FRAME_CLASSES = CLASS_NAMES + ("com.other.Gone",)

# ``com.app.Main#run()`` invokes the API. It is linked to the frame at d = 1
# by its class, and to each of the three active methods of the class at
# d = 3 by one invocation hop. The frame at d = 2 is skipped. Its score adds
# 1 + 1/3 + 1/3 + 1/3 in that order, which is 1.9999999999999998; adding
# the thirds first would give 2.0.
_THIRDS = {
    "classes": [
        {"name": "com.app.Main", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Main#run()"], "non_overridden_callbacks": []},
        {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Helper#run()", "com.app.Helper#run(int)",
                            "com.app.Helper#stop(long)"],
         "non_overridden_callbacks": []},
    ],
    "invocations": [
        {"caller": "com.app.Main#run()", "callees": ["android.app.Service#bindService"]},
        {"caller": "com.app.Helper#run()", "callees": ["com.app.Main#run()"]},
        {"caller": "com.app.Helper#run(int)", "callees": ["com.app.Main#run()"]},
        {"caller": "com.app.Helper#stop(long)", "callees": ["com.app.Main#run()"]},
    ],
    "param_flows": [],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}

# A Helper instance flows into ``Main#run(int)`` only: ``Helper#stop(long)``
# is linked to that active method of the frame class, and not to
# ``Main#run()``, which shares its class and name but not its signature.
_OVERLOAD_FLOW = {
    "classes": [
        {"name": "com.app.Main", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Main#run()", "com.app.Main#run(int)"],
         "non_overridden_callbacks": []},
        {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Helper#stop(long)"], "non_overridden_callbacks": []},
    ],
    "invocations": [
        {"caller": "com.app.Helper#stop(long)", "callees": ["android.app.Service#bindService"]},
    ],
    "param_flows": [{"callee": "com.app.Main#run(int)", "position": 0,
                     "class_name": "com.app.Helper"}],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}


@settings(max_examples=200, deadline=None)
@given(obj=app_model_json(),
       frame_classes=st.lists(st.sampled_from(FRAME_CLASSES), min_size=1, max_size=6),
       api=st.sampled_from(API_REFS + (("x.Y", "z", "call-in"),)),
       depth=st.integers(1, 6))
@example(obj=_THIRDS, frame_classes=["com.app.Main", "com.other.Gone", "com.app.Helper"],
         api=API_REFS[0], depth=1)
@example(obj=_OVERLOAD_FLOW, frame_classes=["com.app.Main"], api=API_REFS[0], depth=1)
def test_category_b_scores_match_the_links_loop(obj, frame_classes, api, depth):
    report = make_report(developer=tuple(f"{cls}.run" for cls in frame_classes))
    pool = [LabeledCrash(report=make_report(), category=Category.B, true_location="x#y",
                         api_h=ApiRef(*api))]
    # Each side gets its own loaded model, so each fills its own memo.
    reference_model, model = app_model_from_json(obj), app_model_from_json(obj)
    expected = reference_locate_category_b(report, reference_model, pool, depth)
    actual = locate_category_b(report, model, pool, depth)
    assert json.dumps(actual.to_json_obj()) == json.dumps(expected.to_json_obj())
    assert set(model.call_graph.reach) == set(reference_model.call_graph.reach)


@st.composite
def call_in_sequences(draw):
    """A sequence of Category-B queries (frame classes, API, depth), each
    drawn from a few distinct ones, so that queries repeat and interleave."""
    queries = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(FRAME_CLASSES), min_size=1, max_size=6).map(tuple),
        st.sampled_from(API_REFS + (("x.Y", "z", "call-in"),)),
        st.integers(1, 6),
    ), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(queries) - 1), min_size=1, max_size=10))
    return [queries[i] for i in picks]


_MAIN_THEN_HELPER = (("com.app.Main", "com.app.Helper"), API_REFS[0], 1)
_HELPER_AT_DEPTH_2 = (("com.app.Helper",), API_REFS[0], 2)

# ``Main#run()`` invokes ``Service#bindService`` and is linked to the frame
# class Main; ``Helper#stop(long)`` invokes ``Service#startService``, an API
# of the same class, and ``Context#bindService``, one of the same method
# name, and is not. Link counts kept for one API must not answer a query on
# another.
_START_SERVICE = ("android.app.Service", "startService", "call-in")
_CONTEXT_BIND = ("android.content.Context", "bindService", "call-in")
_THREE_SERVICE_CALLS = {
    "classes": [
        {"name": "com.app.Main", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Main#run()"], "non_overridden_callbacks": []},
        {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Helper#stop(long)"], "non_overridden_callbacks": []},
    ],
    "invocations": [
        {"caller": "com.app.Main#run()", "callees": ["android.app.Service#bindService"]},
        {"caller": "com.app.Helper#stop(long)",
         "callees": ["android.app.Service#startService", "android.content.Context#bindService"]},
    ],
    "param_flows": [],
    "apis": [{"class_name": c, "method_name": m, "kind": k}
             for c, m, k in (API_REFS[0], _START_SERVICE, _CONTEXT_BIND)],
}


@settings(max_examples=100, deadline=None)
@given(obj=app_model_json(), sequence=call_in_sequences())
@example(obj=_THIRDS, sequence=[_MAIN_THEN_HELPER, _HELPER_AT_DEPTH_2, _MAIN_THEN_HELPER,
                                _HELPER_AT_DEPTH_2, _HELPER_AT_DEPTH_2])
@example(obj=_THREE_SERVICE_CALLS, sequence=[(("com.app.Main",), api, 1)
                                             for api in (API_REFS[0], _START_SERVICE,
                                                         _CONTEXT_BIND)])
def test_one_model_answers_a_query_sequence_like_fresh_models(obj, sequence):
    # One loaded model answers every query, so later queries read link counts
    # that earlier ones filled; each answer must be the per-pair loop's on a
    # fresh model, and a repeated query must search nothing.
    model = app_model_from_json(obj)
    graph = model.call_graph
    requests = []
    reachable = CallGraph.reachable

    def counted(self, start, depth):
        requests.append((start, depth))
        return reachable(self, start, depth)

    expected_reach = set()
    apis, depths = set(), set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CallGraph, "reachable", counted)
        for n, (frame_classes, api, depth) in enumerate(sequence):
            report = make_report(developer=tuple(f"{cls}.run" for cls in frame_classes))
            pool = [LabeledCrash(report=make_report(), category=Category.B,
                                 true_location="x#y", api_h=ApiRef(*api))]
            reference_model = app_model_from_json(obj)
            expected = reference_locate_category_b(report, reference_model, pool, depth)
            expected_reach |= set(reference_model.call_graph.reach)
            requests.clear()
            actual = locate_category_b(report, model, pool, depth)
            assert json.dumps(actual.to_json_obj()) == json.dumps(expected.to_json_obj()), n
            if sequence[n] in sequence[:n]:
                assert requests == [], n
            apis.add(api[:2])
            depths.add(depth)
            assert len(graph.link_counts) <= len(apis) * len(model.classes) * len(depths), n
    assert set(graph.reach) == expected_reach
    fresh = app_model_from_json(obj)
    assert fresh.call_graph.link_counts == {}
    assert graph == fresh.call_graph
    assert repr(graph) == repr(fresh.call_graph)
    assert model == fresh


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_METHOD_REF_RE = re.compile(
    r"^(?P<cls>[^#()]+)#(?P<method>[^#()]+)(?:\((?P<sig>[^()]*)\))?$"
)


def reference_parse_method_ref(text: str, is_developer: bool = True,
                               pointer: str = "") -> MethodRef:
    m = _METHOD_REF_RE.match(text)
    if m is None:
        raise SchemaError(f"bad method reference {text!r}, expected class#method(sig)", pointer)
    sig_text = m.group("sig")
    if sig_text is None:
        signature = None
    elif not sig_text.strip():
        signature = ()
    else:
        signature = tuple(part.strip() for part in sig_text.split(","))
    return MethodRef(
        class_name=m.group("cls"),
        method_name=m.group("method"),
        signature=signature,
        is_developer=is_developer,
    )


@contextmanager
def within(pointer: str):
    """Re-raises a SchemaError from the block as one at ``pointer`` + its own pointer."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(exc.message, pointer + exc.pointer) from exc


def reference_api_from_json_obj(obj: dict, pointer: str = "") -> ApiRef:
    values = [expect(obj, key, str, pointer) for key in ("class_name", "method_name", "kind")]
    with within(pointer):
        return ApiRef(*values)


def reference_app_model_from_json(obj: dict) -> AppModel:
    classes: dict = {}
    declared: set = set()  # canonical strings of the active methods
    for ci, centry in enumerate(expect(obj, "classes", list, "")):
        ptr = f"/classes/{ci}"
        name = expect(centry, "name", str, ptr)
        if name in classes:
            raise SchemaError(f"class {name!r} declared twice", f"{ptr}/name")
        supers = tuple(expect_items(expect(centry, "superclasses", list, ptr), str,
                                    f"{ptr}/superclasses"))
        active = []
        active_texts = expect_items(expect(centry, "active_methods", list, ptr), str,
                                    f"{ptr}/active_methods")
        for mi, mtext in enumerate(active_texts):
            mptr = f"{ptr}/active_methods/{mi}"
            ref = reference_parse_method_ref(mtext, True, mptr)
            if ref.class_name != name:
                raise SchemaError(f"active method {ref.canonical()!r} is not declared in {name!r}",
                                  mptr)
            if ref.canonical() in declared:
                raise SchemaError(f"method {ref.canonical()!r} declared twice", mptr)
            declared.add(ref.canonical())
            active.append(ref)
        # A superclass listed twice ranks at its last position.
        chain_pos = {cls: i for i, cls in enumerate(supers)}
        ncs = []
        nc_texts = expect_items(expect(centry, "non_overridden_callbacks", list, ptr), str,
                                f"{ptr}/non_overridden_callbacks")
        for mi, mtext in enumerate(nc_texts):
            nptr = f"{ptr}/non_overridden_callbacks/{mi}"
            ref = reference_parse_method_ref(mtext, False, nptr)
            if ref.class_name not in chain_pos:
                raise DanglingRef(
                    f"callback {ref.canonical()!r} is defined outside the "
                    f"superclass chain of {name!r}",
                    nptr,
                )
            ncs.append(ref)
        overlap = {(m.method_name, m.signature) for m in active} & {
            (m.method_name, m.signature) for m in ncs
        }
        if overlap:
            raise SchemaError(f"methods both active and non-overridden in {name!r}: "
                              f"{sorted(overlap, key=str)}", ptr)
        classes[name] = ClassDef(
            name=name,
            superclasses=supers,
            active_methods=tuple(active),
            non_overridden_callbacks=tuple(
                sorted(ncs, key=lambda nc: chain_pos[nc.class_name])),
        )

    apis = tuple(
        reference_api_from_json_obj(a, f"/apis/{ai}")
        for ai, a in enumerate(expect(obj, "apis", list, ""))
    )
    api_names = {(a.class_name, a.method_name) for a in apis}

    def declared_method(text: str, what: str, pointer: str) -> MethodRef:
        ref = reference_parse_method_ref(text, True, pointer)
        if ref.canonical() not in declared:
            raise DanglingRef(f"{what} {ref.canonical()!r} is not a declared method", pointer)
        return ref

    def resolve_callee(ref: MethodRef, pointer: str) -> MethodRef:
        if ref.canonical() in declared:
            return ref
        if (ref.class_name, ref.method_name) in api_names:
            return MethodRef(ref.class_name, ref.method_name, ref.signature, is_developer=False)
        raise DanglingRef(
            f"callee {ref.canonical()!r} resolves to neither a declared method "
            "nor a declared API",
            pointer,
        )

    invocations = []
    for ii, ientry in enumerate(expect(obj, "invocations", list, "")):
        ptr = f"/invocations/{ii}"
        caller = declared_method(expect(ientry, "caller", str, ptr), "caller", f"{ptr}/caller")
        callee_texts = expect_items(expect(ientry, "callees", list, ptr), str, f"{ptr}/callees")
        callees = tuple(
            resolve_callee(reference_parse_method_ref(c, True, f"{ptr}/callees/{ci}"),
                           f"{ptr}/callees/{ci}")
            for ci, c in enumerate(callee_texts)
        )
        invocations.append((caller, callees))

    param_flows = []
    for pi, pentry in enumerate(expect(obj, "param_flows", list, "")):
        ptr = f"/param_flows/{pi}"
        callee = declared_method(expect(pentry, "callee", str, ptr), "param flow callee",
                                 f"{ptr}/callee")
        position = expect(pentry, "position", int, ptr)
        if position < 0:
            raise SchemaError("position must be >= 0", f"{ptr}/position")
        param_flows.append((callee, position, expect(pentry, "class_name", str, ptr)))

    return AppModel(
        classes=classes,
        invocations=tuple(invocations),
        param_flows=tuple(param_flows),
        apis=apis,
    )


def checked_app_model_from_json(obj: dict) -> AppModel:
    # A callback text and a resolved reference text are each parsed once
    # per load; a reference's pointer is built only for its error.
    callbacks: dict = {}  # text -> the non-overridden callback it names
    resolved: dict = {}  # text -> the declared method, or the API a callee names
    classes: dict = {}
    declared: set = set()  # canonical strings of the active methods
    for ci, centry in enumerate(expect(obj, "classes", list, "")):
        ptr = f"/classes/{ci}"
        name = expect(centry, "name", str, ptr)
        if name in classes:
            raise SchemaError(f"class {name!r} declared twice", f"{ptr}/name")
        supers = tuple(expect_items(expect(centry, "superclasses", list, ptr), str,
                                    f"{ptr}/superclasses"))
        active = []
        aptr = f"{ptr}/active_methods"
        for mi, mtext in enumerate(expect_items(expect(centry, "active_methods", list, ptr),
                                                str, aptr)):
            ref = _parse_at(mtext, True, aptr, mi)
            canonical = ref.canonical()
            if ref.class_name != name:
                raise SchemaError(f"active method {canonical!r} is not declared in {name!r}",
                                  f"{aptr}/{mi}")
            if canonical in declared:
                raise SchemaError(f"method {canonical!r} declared twice", f"{aptr}/{mi}")
            declared.add(canonical)
            resolved[mtext] = ref
            active.append(ref)
        # A superclass listed twice ranks at its last position.
        chain_pos = {cls: i for i, cls in enumerate(supers)}
        ncs = []
        nptr = f"{ptr}/non_overridden_callbacks"
        for mi, mtext in enumerate(expect_items(
                expect(centry, "non_overridden_callbacks", list, ptr), str, nptr)):
            ref = callbacks.get(mtext)
            if ref is None:
                ref = callbacks[mtext] = _parse_at(mtext, False, nptr, mi)
            if ref.class_name not in chain_pos:
                raise DanglingRef(
                    f"callback {ref.canonical()!r} is defined outside the "
                    f"superclass chain of {name!r}",
                    f"{nptr}/{mi}",
                )
            ncs.append(ref)
        overlap = {(m.method_name, m.signature) for m in active} & {
            (m.method_name, m.signature) for m in ncs
        }
        if overlap:
            raise SchemaError(f"methods both active and non-overridden in {name!r}: "
                              f"{sorted(overlap, key=str)}", ptr)
        classes[name] = ClassDef(
            name=name,
            superclasses=supers,
            active_methods=tuple(active),
            non_overridden_callbacks=tuple(
                sorted(ncs, key=lambda nc: chain_pos[nc.class_name])),
        )

    apis = tuple(
        reference_api_from_json_obj(a, f"/apis/{ai}")
        for ai, a in enumerate(expect(obj, "apis", list, ""))
    )
    api_names = {(a.class_name, a.method_name) for a in apis}

    def resolve(text: str, what: str, pointer: str, key) -> MethodRef:
        """The declared method ``text`` names; for a callee, else the API it names."""
        ref = resolved.get(text)
        if ref is None:
            ref = _parse_at(text, True, pointer, key)
            if ref.canonical() not in declared:
                if (ref.class_name, ref.method_name) not in api_names:
                    raise _undeclared(ref, what, f"{pointer}/{key}")
                ref = MethodRef(ref.class_name, ref.method_name, ref.signature, False)
            resolved[text] = ref
        if not ref.is_developer and what != "callee":
            raise _undeclared(ref, what, f"{pointer}/{key}")
        return ref

    invocations = []
    for ii, ientry in enumerate(expect(obj, "invocations", list, "")):
        ptr = f"/invocations/{ii}"
        caller = resolve(expect(ientry, "caller", str, ptr), "caller", ptr, "caller")
        cptr = f"{ptr}/callees"
        callees = tuple(
            resolve(c, "callee", cptr, ci)
            for ci, c in enumerate(expect_items(expect(ientry, "callees", list, ptr), str, cptr))
        )
        invocations.append((caller, callees))

    param_flows = []
    for pi, pentry in enumerate(expect(obj, "param_flows", list, "")):
        ptr = f"/param_flows/{pi}"
        callee = resolve(expect(pentry, "callee", str, ptr), "param flow callee", ptr, "callee")
        position = expect(pentry, "position", int, ptr)
        if position < 0:
            raise SchemaError("position must be >= 0", f"{ptr}/position")
        param_flows.append((callee, position, expect(pentry, "class_name", str, ptr)))

    return AppModel(
        classes=classes,
        invocations=tuple(invocations),
        param_flows=tuple(param_flows),
        apis=apis,
    )


def _parse_at(text: str, is_developer: bool, pointer: str, key) -> MethodRef:
    """``parse_method_ref``, raising at ``pointer``/``key``."""
    try:
        return parse_method_ref(text, is_developer)
    except SchemaError as exc:
        raise SchemaError(exc.message, f"{pointer}/{key}") from None


def _outcome(function, *args):
    """The function's result, or its error's type, text and pointer."""
    try:
        return function(*args)
    except Exception as exc:  # any error type, so that a stray TypeError shows too
        return type(exc), str(exc), getattr(exc, "pointer", None)


def assert_loads_like_reference(obj) -> None:
    expected = _outcome(reference_app_model_from_json, copy.deepcopy(obj))
    checked = _outcome(checked_app_model_from_json, copy.deepcopy(obj))
    actual = _outcome(app_model_from_json, obj)
    assert checked == expected
    assert actual == expected
    if isinstance(expected, AppModel):
        assert actual.call_graph == expected.call_graph


_DELETE = object()
# Small edits of a text found in the model: each turns a reference into one
# that is malformed, respelled, renamed or undeclared, or leaves it as it is.
_TEXT_EDITS = (
    lambda t: t,
    lambda t: t + "\n",
    lambda t: t + ")",
    lambda t: t.replace("(", "((", 1),
    lambda t: t.replace("(", "(x#", 1),
    lambda t: t.replace("#", "##", 1),
    lambda t: t.replace("#", "", 1),
    lambda t: t.partition("(")[0],
    lambda t: t.replace(")", " )"),
    lambda t: t.replace("com.app.Main", "com.app.Helper"),
)
_REF_CHARS = "abAB#(), \n"


@st.composite
def corrupted_app_model_json(draw, edits: int = 1):
    """An ``app_model_json`` model with ``edits`` times one member or item
    deleted or replaced: a text mostly by an edit of itself or by another
    text of the model, anything by a value of any JSON type."""
    obj = draw(app_model_json())
    for _ in range(edits):
        # Deepest first, as the draw favours the first path: the reference texts.
        paths = sorted(json_fields(obj), key=len, reverse=True)
        values = [reduce(getitem, path, obj) for path in paths]
        i = draw(st.integers(0, len(paths) - 1))
        path, current = paths[i], values[i]
        text = st.text(_REF_CHARS, max_size=10)
        value = st.one_of(text, st.integers(-2, 3), st.booleans(), st.none(),
                          st.lists(text, max_size=2), st.just({}), st.just(_DELETE))
        if isinstance(current, str):
            texts = sorted({v for v in values if isinstance(v, str)})
            value = st.sampled_from(_TEXT_EDITS).map(
                lambda edit: edit(current)) | st.sampled_from(texts) | value
        value = draw(value)
        parent = reduce(getitem, path[:-1], obj)
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


# A text that a callee resolved to an API names the caller of a later entry.
_API_AS_CALLER = {
    "classes": [{"name": "com.app.Main", "superclasses": ["java.lang.Object"],
                 "active_methods": ["com.app.Main#run()"], "non_overridden_callbacks": []}],
    "invocations": [{"caller": "com.app.Main#run()",
                     "callees": ["android.app.Service#bindService"]},
                    {"caller": "android.app.Service#bindService", "callees": []}],
    "param_flows": [],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}
# Helper extends the developer class Main and inherits its method without
# overriding it: one text is an active method and a callback.
_ACTIVE_AS_CALLBACK = {
    "classes": [{"name": "com.app.Main", "superclasses": ["java.lang.Object"],
                 "active_methods": ["com.app.Main#onStart()"], "non_overridden_callbacks": []},
                {"name": "com.app.Helper", "superclasses": ["com.app.Main"],
                 "active_methods": [], "non_overridden_callbacks": ["com.app.Main#onStart()"]}],
    "invocations": [],
    "param_flows": [],
    "apis": [],
}


@settings(max_examples=150, deadline=None)
@given(app_model_json())
@example(_API_AS_CALLER)
@example(_ACTIVE_AS_CALLBACK)
def test_loader_matches_reference_on_random_models(obj):
    assert_loads_like_reference(obj)


@settings(max_examples=400, deadline=None)
@given(corrupted_app_model_json())
def test_loader_matches_reference_on_single_field_corruptions(obj):
    assert_loads_like_reference(obj)


# A valid model that the two-fault cases below break in two places.
_TWO_FAULT_BASE = {
    "classes": [{"name": "com.app.Main", "superclasses": ["android.app.Activity"],
                 "active_methods": ["com.app.Main#run()", "com.app.Main#stop(long)"],
                 "non_overridden_callbacks": ["android.app.Activity#onStart()"]},
                {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
                 "active_methods": ["com.app.Helper#run(int)"], "non_overridden_callbacks": []}],
    "invocations": [{"caller": "com.app.Main#run()",
                     "callees": ["com.app.Helper#run(int)", "android.app.Service#bindService"]},
                    {"caller": "com.app.Helper#run(int)", "callees": []}],
    "param_flows": [{"callee": "com.app.Helper#run(int)", "position": 0,
                     "class_name": "com.app.Main"}],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}
# case -> (two (path, value) edits of the base model, the pointer of the
# error that fires first). _DELETE deletes the member.
_TWO_FAULTS = {
    "entry-not-object-after-bad-api-kind": (
        [(("invocations", 0), "com.app.Main#run()"), (("apis", 0, "kind"), "weird")],
        "/apis/0/kind"),
    "class-not-object-after-callback-outside-chain": (
        [(("classes", 1), "com.app.Helper"),
         (("classes", 0, "non_overridden_callbacks", 0), "android.app.Service#onStart()")],
        "/classes/0/non_overridden_callbacks/0"),
    "superclass-number-before-bad-active-method": (
        [(("classes", 0, "superclasses"), ["android.app.Activity", 5]),
         (("classes", 0, "active_methods", 0), "com.app.Main#run(")],
        "/classes/0/superclasses/1"),
    "active-method-number-before-bad-earlier-item": (
        [(("classes", 0, "active_methods"), ["com.app.Main#run(", 5]),
         (("classes", 1, "name"), "com.app.Main")],
        "/classes/0/active_methods/1"),
    "callees-string-after-undeclared-caller": (
        [(("invocations", 0, "callees"), "com.app.Helper#run(int)"),
         (("invocations", 0, "caller"), "com.app.Gone#x()")],
        "/invocations/0/caller"),
    "callees-string-before-later-undeclared-caller": (
        [(("invocations", 0, "callees"), "com.app.Helper#run(int)"),
         (("invocations", 1, "caller"), "com.app.Gone#x()")],
        "/invocations/0/callees"),
    "position-true-after-undeclared-callee": (
        [(("param_flows", 0, "position"), True), (("param_flows", 0, "callee"), "com.app.Gone#x")],
        "/param_flows/0/callee"),
    "position-true-before-missing-class-name": (
        [(("param_flows", 0, "position"), True), (("param_flows", 0, "class_name"), _DELETE)],
        "/param_flows/0/position"),
    "missing-caller-before-number-callee": (
        [(("invocations", 0, "caller"), _DELETE), (("invocations", 0, "callees", 0), 5)],
        "/invocations/0"),
}


def _two_faults(case: str) -> dict:
    obj = copy.deepcopy(_TWO_FAULT_BASE)
    for path, value in _TWO_FAULTS[case][0]:
        parent = reduce(getitem, path[:-1], obj)
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


def _at_each_two_fault_case(test):
    for case in _TWO_FAULTS:
        test = example(_two_faults(case))(test)
    return test


# When more than one value is bad, the error that fires is the first one in
# load order, as in both oracles.
@settings(max_examples=300, deadline=None)
@given(corrupted_app_model_json(edits=2))
@_at_each_two_fault_case
def test_loader_matches_reference_on_two_field_corruptions(obj):
    assert_loads_like_reference(obj)


@pytest.mark.parametrize("case", _TWO_FAULTS)
def test_first_of_two_faults_is_reported(case):
    with pytest.raises(ArtifactError) as exc:
        app_model_from_json(_two_faults(case))
    assert exc.value.pointer == _TWO_FAULTS[case][1]


@pytest.mark.parametrize("name", ["fengshui.json", "geography.json"])
def test_loader_matches_reference_on_fixtures(name):
    assert_loads_like_reference(json.loads((APP_MODELS / name).read_text(encoding="utf-8")))


# One text per guard of the partition parser: without that guard, the text
# would be split where the regex rejects it or matches it otherwise. The
# last three are the regex's quirks: its ``$`` also matches before a final
# "\n", and its signature group allows "#".
_GUARD_TEXTS = (
    "(a#b", "a)#b", "#b", "a#", "a#(b)", "a#b#c", "a#b#c(d)", "a#b)c", "a#b)(c)",
    "a#b(c", "a#b)", "a#b((c)", "a#b(c))", "a#b(c)\n", "a#b(c#d)", "a#b\n",
)


def _at_each_guard(test):
    for text in _GUARD_TEXTS:
        test = example(text, True, "/a/0")(test)
    return test


@settings(max_examples=1000)
@given(st.text(_REF_CHARS, max_size=14), st.booleans(), st.sampled_from(("", "/a/0")))
@_at_each_guard
def test_parse_method_ref_matches_the_regex(text, is_developer, pointer):
    assert (_outcome(parse_method_ref, text, is_developer, pointer)
            == _outcome(reference_parse_method_ref, text, is_developer, pointer))
