"""``Pipeline.categorize`` picks ``predict``'s category through the certified argmax.

``certified_argmax`` answers from a report's set bits when the winner's
margin exceeds the rounding bounds of both sums, and returns None otherwise,
so that ``categorize`` falls back to ``predict`` on the dense vector.
Fallbacks are counted by wrapping ``crashloc.localizer.predict``. Near ties
come from duplicated class columns, equal priors and conditionals a few
ulps apart, whose margins lie inside the bound.

``reference_log_tables`` and ``reference_argmax_tables`` are the tables'
former code, kept verbatim: it takes every logarithm of every feature,
where ``NBModel`` takes each once per distinct probability. Both must give
equal tables (``==`` on floats) on models whose columns repeat a few
values, as ``fit`` gives them, on all-distinct columns, as a loaded bundle
can carry, with no features, and on models ``fit`` built on random corpora.
"""
from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from operator import sub

import pytest
from hypothesis import event, given, settings, strategies as st

import crashloc.localizer
from crashloc.cli import _bundle_from_obj, main
from crashloc.config import Config
from crashloc.corpus import LabeledCrash
from crashloc.errors import CrashLocError, DimensionMismatch, parse_json, read_text
from crashloc.evaluation import evaluate, fit
from crashloc.features import SelectedVocabulary, Vocabulary, set_bits, vectorize
from crashloc.localizer import Pipeline
from crashloc.nb import CATEGORIES, Category, NBModel, certified_argmax, predict
from crashloc.trace import parse_and_split

from conftest import CORPUS_PATH, make_report

_UNIT_ROUNDOFF = 2.0 ** -53


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


def reference_log_tables(self) -> tuple:
    """``(log priors, log(1 - cond) rows, log(cond) rows)``, taken on the
    first ``predict``."""
    return (
        tuple(math.log(p) for p in self.priors),
        tuple((math.log(1.0 - row[0]), math.log(1.0 - row[1]), math.log(1.0 - row[2]))
              for row in self.cond),
        tuple((math.log(row[0]), math.log(row[1]), math.log(row[2]))
              for row in self.cond),
    )


def reference_argmax_tables(self) -> tuple:
    """``(base, delta columns, bounds)`` per class for ``certified_argmax``,
    taken on its first call. Its logarithms are those of ``log_tables``;
    the bounds follow Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 4, with gamma_N = N u / (1 - N u).

    ``base[c]`` is log prior(c) + sum_i log(1 - cond(i, c)), correctly
    rounded by ``math.fsum``, and ``delta[c][i]`` is log cond(i, c) -
    log(1 - cond(i, c)). With F features, N = F + 1 and M_c = |log prior(c)|
    + sum_i (|log cond(i, c)| + |log(1 - cond(i, c))|), ``predict``'s
    sequential sum of F + 1 terms errs by at most gamma_N M_c, and the
    certified score (base, one rounding per delta, an fsum over the set
    bits) by at most 2 gamma_N M_c. ``bounds[c]`` is 4 gamma_N M_c: the
    fourth share covers the roundings of the bound and of the comparison.
    """
    columns = tuple(zip(*self.cond)) or ((), (), ())  # also for no features
    log_priors = tuple(map(math.log, self.priors))
    absent = [tuple(map(math.log, map((1.0).__sub__, col))) for col in columns]
    present = [tuple(map(math.log, col)) for col in columns]
    n = self.n_features + 1
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return (
        tuple(math.fsum((lp, *acol)) for lp, acol in zip(log_priors, absent)),
        tuple(tuple(map(sub, pcol, acol)) for pcol, acol in zip(present, absent)),
        # Every logarithm here is <= 0, so M_c is minus their sum.
        tuple(-4.0 * gamma * math.fsum((lp, *acol, *pcol))
              for lp, acol, pcol in zip(log_priors, absent, present)),
    )


@st.composite
def repeating_columns(draw, n):
    """A column of ``n`` conditionals drawn from a pool of one to four values."""
    pool = draw(st.lists(probabilities, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def table_models(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    distinct = st.lists(probabilities, min_size=n, max_size=n, unique=True)
    columns = [draw(repeating_columns(n) | distinct) for _ in CATEGORIES]
    priors = draw(st.lists(st.floats(min_value=0.01, max_value=0.98), min_size=3, max_size=3))
    return _model(priors, columns)


TABLE_WORDS = ("alpha", "beta", "gamma", "delta", "Main", "View")


@st.composite
def fitted_models(draw):
    """``fit``'s model on a random corpus, so that its columns repeat as in evaluate."""
    messages = st.lists(st.sampled_from(TABLE_WORDS), max_size=5).map(" ".join)
    labeled = st.tuples(messages, st.sampled_from(CATEGORIES)).map(
        lambda pair: LabeledCrash(report=make_report(message=pair[0]), category=pair[1],
                                  true_location="x#y"))
    corpus = draw(st.lists(labeled, min_size=1, max_size=12))
    ratio = draw(st.sampled_from((1.0, 0.5, 1e-9)))
    smoothing = draw(st.sampled_from((1.0, 0.5, 1e-3)))
    return fit(corpus, Config(chi2_ratio=ratio, nb_smoothing=smoothing)).nb


def _assert_tables_match_reference(model: NBModel) -> None:
    model = dataclasses.replace(model)  # a copy whose tables have not been taken
    want = reference_argmax_tables(model)
    base, delta, bounds = model.argmax_tables
    assert base == want[0]
    assert delta == want[1]
    assert bounds == want[2]
    assert model.log_tables == reference_log_tables(model)


@settings(max_examples=300, deadline=None)
@given(model=table_models() | near_tie_models())
def test_tables_equal_the_reference_tables(model):
    event(f"features: {'none' if model.n_features == 0 else 'some'}")
    _assert_tables_match_reference(model)


@settings(max_examples=100, deadline=None)
@given(model=fitted_models())
def test_tables_of_fitted_models_equal_the_reference_tables(model):
    _assert_tables_match_reference(model)


def test_tables_of_the_fixture_folds_equal_the_reference_tables(corpus):
    for train_part in (corpus[: len(corpus) // 2], corpus[len(corpus) // 2:], corpus):
        _assert_tables_match_reference(fit(train_part, Config()).nb)
