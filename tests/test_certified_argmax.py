"""``Pipeline.categorize`` picks ``predict``'s category through the certified argmax.

``certified_argmax`` answers from a report's set bits when the winner's
margin exceeds the rounding bounds of both sums, and returns None otherwise,
so that ``categorize`` falls back to ``predict`` on the dense vector.
Fallbacks are counted by wrapping ``crashloc.localizer.predict``. Near ties
come from duplicated class columns, equal priors and conditionals a few
ulps apart, whose margins lie inside the bound.
"""
from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

import crashloc.localizer
from crashloc.cli import _bundle_from_obj, main
from crashloc.config import Config
from crashloc.errors import CrashLocError, DimensionMismatch, parse_json, read_text
from crashloc.evaluation import evaluate
from crashloc.features import SelectedVocabulary, Vocabulary, set_bits, vectorize
from crashloc.localizer import Pipeline
from crashloc.nb import Category, NBModel, certified_argmax, predict
from crashloc.trace import parse_and_split

from conftest import CORPUS_PATH, make_report


@contextmanager
def counting_fallbacks():
    """Yields a list with one entry per ``predict`` call ``categorize`` falls back to."""
    calls: list = []

    def counting(model, vector):
        calls.append(vector)
        return predict(model, vector)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crashloc.localizer, "predict", counting)
        yield calls


@pytest.fixture
def fallbacks():
    with counting_fallbacks() as calls:
        yield calls


def _model(priors, columns) -> NBModel:
    """A model over words w0, w1, ... with ``columns[k]`` the conditionals of class k."""
    words = tuple(f"w{i}" for i in range(len(columns[0])))
    sel = SelectedVocabulary(base=Vocabulary(words), selected=words, ratio=1.0,
                             scores=(0.0,) * len(words))
    return NBModel(priors=tuple(priors), cond=tuple(zip(*columns)), smoothing=1.0,
                   selected_vocab=sel)


def _report(bits):
    return make_report(message=" ".join(f"w{i}" for i, bit in enumerate(bits) if bit))


def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return value


probabilities = st.floats(min_value=1e-6, max_value=1 - 1e-6)


@st.composite
def near_tie_models(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    first = draw(st.lists(probabilities, min_size=n, max_size=n))
    columns = [first]
    for _ in range(2):
        kind = draw(st.sampled_from(("same", "ulps", "fresh")))
        column = list(draw(st.sampled_from(columns)))
        if kind == "ulps" and n:
            i = draw(st.integers(min_value=0, max_value=n - 1))
            column[i] = min(max(_nudge(column[i], draw(st.integers(-3, 3))), 1e-6), 1 - 1e-6)
        elif kind == "fresh":
            column = draw(st.lists(probabilities, min_size=n, max_size=n))
        columns.append(column)
    if draw(st.booleans()):
        priors = (1 / 3,) * 3
    else:
        priors = draw(st.lists(st.floats(min_value=0.01, max_value=0.98), min_size=3, max_size=3))
    return _model(priors, columns)


@settings(max_examples=300, deadline=None)
@given(model=near_tie_models(), data=st.data())
def test_categorize_equals_predict_on_random_and_near_tie_models(model, data):
    bits = data.draw(st.lists(st.booleans(), min_size=model.n_features,
                              max_size=model.n_features))
    report = _report(bits)
    assert vectorize(report, model.selected_vocab) == [int(b) for b in bits]
    want, scores = predict(model, [int(b) for b in bits])
    with counting_fallbacks() as fallbacks:
        assert Pipeline(model, ()).categorize(report) is want
    assert len(fallbacks) <= 1
    top = max(scores.values())
    if sum(score == top for score in scores.values()) > 1:
        assert len(fallbacks) == 1  # an exact tie is never certified
    event(f"fallbacks: {len(fallbacks)}")


@pytest.mark.parametrize(
    "priors, columns, want",
    [
        ((1 / 3,) * 3, [[0.2, 0.7]] * 3, Category.A),
        ((1 / 3,) * 3, [[0.1, 0.5], [0.9, 0.5], [0.9, 0.5]], Category.B),
        ((0.2, 0.4, 0.4), [[0.1, 0.5], [0.3, 0.6], [0.3, 0.6]], Category.B),
        ((0.5, 0.2, 0.5), [[0.3, 0.6], [0.9, 0.9], [0.3, 0.6]], Category.A),
    ],
    ids=["three-way", "b-c", "b-c-priors", "a-c"],
)
def test_exact_ties_fall_back_and_resolve_a_then_b_then_c(priors, columns, want, fallbacks):
    model = _model(priors, columns)
    report = _report([1, 0])
    scores = predict(model, [1, 0])[1]
    assert max(scores.values()) == scores[want]
    assert certified_argmax(model, set_bits(report, model.selected_vocab)) is None
    assert Pipeline(model, ()).categorize(report) is want
    assert len(fallbacks) == 1
    assert predict(model, vectorize(report, model.selected_vocab))[0] is want


def test_margin_inside_the_bound_falls_back(fallbacks):
    column = [0.3, 0.6, 0.25]
    model = _model((1 / 3,) * 3, [column, [_nudge(column[0], 40), *column[1:]], [0.9, 0.9, 0.9]])
    report = _report([1, 1, 0])
    scores = predict(model, [1, 1, 0])[1]
    bounds = model.argmax_tables[2]
    assert 0 < scores[Category.B] - scores[Category.A] <= bounds[0] + bounds[1]
    assert Pipeline(model, ()).categorize(report) is Category.B
    assert len(fallbacks) == 1


def test_clear_margin_is_certified_without_predict(fallbacks):
    model = _model((0.3, 0.3, 0.4), [[0.9, 0.1], [0.1, 0.1], [0.1, 0.9]])
    for bits, want in (([1, 0], Category.A), ([0, 1], Category.C), ([0, 0], Category.B)):
        assert Pipeline(model, ()).categorize(_report(bits)) is want
    assert fallbacks == []


def test_dimension_mismatch_still_raises_through_predict():
    model = _model((1 / 3,) * 3, [[0.5, 0.5]] * 3)
    short = dataclasses.replace(model, cond=model.cond[:1])
    with pytest.raises(DimensionMismatch):
        Pipeline(short, ()).categorize(_report([1, 1]))


def test_evaluate_on_the_fixture_corpus_rarely_falls_back(corpus, fallbacks):
    evaluate(corpus, Config())
    assert len(fallbacks) <= 3


def test_bundle_loaded_as_locate_loads_it_certifies_predicts_category(corpus, crash_logs,
                                                                     matcher, tmp_path):
    bundle = tmp_path / "bundle.json"
    assert main(["train", "--corpus", str(CORPUS_PATH), "--model", str(bundle)]) == 0
    nb, _ = _bundle_from_obj(parse_json(read_text(bundle, "model bundle"), "model bundle"))
    reports = [crash.report for crash in corpus]
    for text in crash_logs.values():
        try:
            reports.append(parse_and_split(text, matcher))
        except CrashLocError:
            pass  # logs made to fail parsing
    pipeline = Pipeline(nb, tuple(corpus))
    certified = 0
    for report in reports:
        want = predict(nb, vectorize(report, nb.selected_vocab))[0]
        fast = certified_argmax(nb, set_bits(report, nb.selected_vocab))
        assert fast in (None, want)
        certified += fast is not None
        assert pipeline.categorize(report) is want
    assert certified >= len(reports) - 3
