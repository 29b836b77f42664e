"""The Phase-1 kernels agree exactly with the versions they replaced.

``reference_iter_tokens``, ``reference_chi_square_select``,
``reference_vectorize``, ``reference_train`` and ``reference_predict`` are
kept verbatim: chi-square tests every word against every crash of every
category, ``vectorize`` tests every selected word against the report's
token set, ``train`` visits every bit and ``predict`` takes two logarithms
per feature on each call. On random corpora the counting chi-square, the
sparse ``vectorize`` and ``train`` and the log-table ``predict`` must return
the same tokens, scores, selected words, vectors, models and posteriors
(``==`` on floats, never approx). ``CrashReport.tokens`` must hold the
reference tokens once each, and ``evaluation.fit``, which reads its NB
counts from a document-frequency table, must build the model of the dense
chain, and reject with the same message a model the dense chain rejects.

``TwoPassNBModel`` is ``NBModel``'s check and tables as they were when the
logarithms were a second pass over the distinct conditionals (``_logs``),
kept verbatim but for the tables' docstrings. On random ``train_counts`` models, with counts that tie
within and across classes and conditionals that equal a prior, the
one-pass ``NBModel`` must give bit-identical ``log_tables`` and
``argmax_tables``; on models holding probabilities outside (0, 1) it must
name the same first bad value.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from crashloc.config import Config
from crashloc.corpus import LabeledCrash
from crashloc.errors import DimensionMismatch, EmptyCorpus
from crashloc.evaluation import fit
from crashloc.features import (
    FeatureVector,
    SelectedVocabulary,
    Vocabulary,
    _rank_and_cut,
    build_vocabulary,
    chi2_stat,
    chi_square_select,
    vectorize,
)
from crashloc.nb import CATEGORIES, Category, NBModel, predict, train, train_counts
from crashloc.trace import CrashReport

from conftest import make_report


def reference_iter_tokens(report: CrashReport) -> Iterator[str]:
    """Tokens in deterministic first-occurrence order, duplicates included."""
    for part in report.exception_type.split("."):
        if part:
            yield part
    for part in report.message.split():
        yield part
    for name in report.subtrace_key:
        for part in name.split("."):
            if part:
                yield part


def reference_chi_square_select(
    vocab: Vocabulary, corpus: Sequence["LabeledCrash"], ratio: float
) -> SelectedVocabulary:
    """Keep the ceil(ratio * |vocab|) words with the highest chi2 score.

    The multiclass score of a word is the max over the three one-vs-rest
    2x2 tables. Ties keep earlier vocabulary order, so selection is
    deterministic for a fixed corpus.
    """
    if not corpus:
        raise EmptyCorpus("cannot select features from an empty corpus")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    categories = sorted({crash.category for crash in corpus}, key=lambda c: c.value)
    doc_tokens = [set(reference_iter_tokens(crash.report)) for crash in corpus]
    scores = []
    for word in vocab.words:
        best = 0.0
        for cat in categories:
            o11 = o12 = o21 = o22 = 0
            for crash, tokens in zip(corpus, doc_tokens):
                present = word in tokens
                in_cat = crash.category == cat
                if present and in_cat:
                    o11 += 1
                elif present:
                    o12 += 1
                elif in_cat:
                    o21 += 1
                else:
                    o22 += 1
            best = max(best, chi2_stat(o11, o12, o21, o22))
        scores.append(best)
    scores = tuple(scores)
    return SelectedVocabulary(
        base=vocab,
        selected=_rank_and_cut(vocab.words, scores, ratio),
        ratio=ratio,
        scores=scores,
    )


def reference_vectorize(report: CrashReport, sel: SelectedVocabulary) -> FeatureVector:
    """Binary membership vector of the report's tokens in the selected words."""
    tokens = set(reference_iter_tokens(report))
    return [1 if word in tokens else 0 for word in sel.selected]


def reference_train(
    corpus: Sequence[tuple[FeatureVector, Category]],
    smoothing: float = 1.0,
    selected_vocab: SelectedVocabulary | None = None,
) -> NBModel:
    """Fit priors and per-feature conditionals with additive smoothing.

    prior(c) = (count(c) + s) / (N + 3s)
    cond(i, c) = (count(bit i = 1 and c) + s) / (count(c) + 2s)
    """
    if not corpus:
        raise EmptyCorpus("cannot train on an empty corpus")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be > 0, got {smoothing}")
    n_features = len(corpus[0][0])
    for vec, _ in corpus:
        if len(vec) != n_features:
            raise DimensionMismatch(
                f"inconsistent vector lengths: {len(vec)} vs {n_features}"
            )
    if selected_vocab is not None and len(selected_vocab) != n_features:
        raise DimensionMismatch(
            f"vectors have {n_features} features but vocabulary selects {len(selected_vocab)}"
        )

    n = len(corpus)
    counts = [0, 0, 0]
    ones = [[0] * n_features for _ in CATEGORIES]
    for vec, category in corpus:
        k = CATEGORIES.index(category)
        counts[k] += 1
        row = ones[k]
        for i, bit in enumerate(vec):
            if bit:
                row[i] += 1

    priors = tuple((counts[k] + smoothing) / (n + 3 * smoothing) for k in range(3))
    cond = tuple(
        tuple(
            (ones[k][i] + smoothing) / (counts[k] + 2 * smoothing)
            for k in range(3)
        )
        for i in range(n_features)
    )
    return NBModel(priors=priors, cond=cond, smoothing=smoothing,
                   selected_vocab=selected_vocab)


def reference_predict(model: NBModel, vector: FeatureVector) -> tuple[Category, dict[Category, float]]:
    """Most probable category plus the per-category log posteriors.

    score(c) = log prior(c) + sum_i [v_i log cond(i,c) + (1-v_i) log(1-cond(i,c))]
    """
    if len(vector) != model.n_features:
        raise DimensionMismatch(
            f"vector has {len(vector)} features, model expects {model.n_features}"
        )
    scores = [math.log(p) for p in model.priors]
    for i, bit in enumerate(vector):
        row = model.cond[i]
        for k in range(3):
            scores[k] += math.log(row[k]) if bit else math.log(1.0 - row[k])
    best = max(range(3), key=lambda k: (scores[k], -k))
    return CATEGORIES[best], dict(zip(CATEGORIES, scores))


_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class TwoPassNBModel:
    """``NBModel``'s probability check and log tables with ``_logs`` as a
    second pass over the distinct conditionals."""

    priors: tuple[float, float, float]
    cond: tuple[tuple[float, float, float], ...]
    smoothing: float

    @property
    def n_features(self) -> int:
        return len(self.cond)

    def __post_init__(self):
        # predict takes log(p) and log(1 - p) of every probability. Equal values
        # pass or fail alike, so each distinct one is checked, in first-occurrence
        # order: the first bad value named is the first bad one in the model.
        for p in dict.fromkeys(chain(self.priors, chain.from_iterable(self.cond))):
            if not 0.0 < p < 1.0:
                raise ValueError(f"NB probability {p!r} is outside (0, 1) under smoothing "
                                 f"{self.smoothing!r}: a smoothing too small rounds it to 0 "
                                 "or 1, and one so large that a smoothed total overflows "
                                 "rounds it to 0")

    @cached_property
    def _logs(self) -> tuple[dict, dict]:
        """``({p: log p}, {p: log(1 - p)})`` over the distinct conditionals:
        a class column holds few distinct values, so each logarithm is taken
        once per value."""
        distinct = set(chain.from_iterable(self.cond))
        return ({p: math.log(p) for p in distinct},
                {p: math.log(1.0 - p) for p in distinct})

    @cached_property
    def log_tables(self) -> tuple:
        log_present, log_absent = self._logs
        return (
            tuple(math.log(p) for p in self.priors),
            tuple((log_absent[p0], log_absent[p1], log_absent[p2]) for p0, p1, p2 in self.cond),
            tuple((log_present[p0], log_present[p1], log_present[p2]) for p0, p1, p2 in self.cond),
        )

    @cached_property
    def argmax_tables(self) -> tuple:
        columns = tuple(zip(*self.cond)) or ((), (), ())  # also for no features
        log_present, log_absent = self._logs
        log_delta = {p: lp - log_absent[p] for p, lp in log_present.items()}
        log_priors = tuple(map(math.log, self.priors))
        absent = [tuple(map(log_absent.__getitem__, col)) for col in columns]
        present = [tuple(map(log_present.__getitem__, col)) for col in columns]
        n = self.n_features + 1
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        return (
            tuple(math.fsum((lp, *acol)) for lp, acol in zip(log_priors, absent)),
            tuple(tuple(map(log_delta.__getitem__, col)) for col in columns),
            # Every logarithm here is <= 0, so M_c is minus their sum.
            tuple(-4.0 * gamma * math.fsum((lp, *acol, *pcol))
                  for lp, acol, pcol in zip(log_priors, absent, present)),
        )


# -- corpora ------------------------------------------------------------------

# A small alphabet, so that words repeat across crashes, categories and
# token sources; "java" and "lang" are in every crash's exception type.
WORDS = ("alpha", "beta", "gamma", "delta", "Main", "View", "onCreate", "run")


def _crash(exception: str, message: str, framework: tuple, category: Category) -> LabeledCrash:
    report = make_report(exception=exception, message=message, framework=framework)
    return LabeledCrash(report=report, category=category, true_location="x#y")


messages = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join) | st.lists(
    st.sampled_from(WORDS + ("", " ", "\t", "a.b", ".")), max_size=6).map("  ".join)
frames = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(
        lambda pair: f"android.{pair[0].lower()}.{pair[1]}.call"),
    max_size=3,
).map(tuple)
exceptions = st.sampled_from(
    ("java.lang.IllegalStateException", "java.lang.NullPointerException", "java.lang.alpha"))
crashes = st.builds(_crash, exceptions, messages, frames, st.sampled_from(CATEGORIES))
# Ratios on the cut's edges as well as between them.
ratios = st.sampled_from((1.0, 0.5, 1 / 3, 1e-9)) | st.floats(min_value=1e-6, max_value=1.0)


def _assert_selections_equal(corpus, vocab, ratio) -> SelectedVocabulary:
    got = chi_square_select(vocab, corpus, ratio)
    want = reference_chi_square_select(vocab, corpus, ratio)
    assert got.scores == want.scores
    assert got.selected == want.selected
    assert got == want
    return got


def _assert_fit_equal(corpus, ratio, smoothing=1.0) -> None:
    """``fit``'s model, selected vocabulary included, is the dense chain's."""
    for crash in corpus:
        assert crash.report.tokens == tuple(dict.fromkeys(reference_iter_tokens(crash.report)))
    vocab = build_vocabulary(corpus)
    assert vocab.words == tuple(dict.fromkeys(
        token for crash in corpus for token in reference_iter_tokens(crash.report)))
    sel = reference_chi_square_select(vocab, corpus, ratio)
    pairs = [(vectorize(crash.report, sel), crash.category) for crash in corpus]
    want = train(pairs, smoothing, sel)
    got = fit(corpus, Config(chi2_ratio=ratio, nb_smoothing=smoothing)).nb
    assert got.selected_vocab == want.selected_vocab
    assert got.selected_vocab.selected == want.selected_vocab.selected
    assert got == want


def _assert_phase1_equal(corpus, vocab, ratio, queries=(), smoothing=1.0) -> None:
    """Selection, vectors, model and posteriors all equal the references, and
    so does ``fit`` on ``corpus``."""
    _assert_fit_equal(corpus, ratio, smoothing)
    sel = _assert_selections_equal(corpus, vocab, ratio)
    reports = [crash.report for crash in corpus] + [crash.report for crash in queries]
    vectors = [vectorize(report, sel) for report in reports]
    assert vectors == [reference_vectorize(report, sel) for report in reports]
    pairs = [(vec, crash.category) for vec, crash in zip(vectors, corpus)]
    model = train(pairs, smoothing, sel)
    assert model == reference_train(pairs, smoothing, sel)
    for vec in vectors:
        assert predict(model, vec) == reference_predict(model, vec)


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.lists(crashes, min_size=1, max_size=12),
    queries=st.lists(crashes, max_size=3),
    absent=st.lists(st.sampled_from(("zeta", "eta", "theta")), unique=True, max_size=3),
    ratio=ratios,
    smoothing=st.sampled_from((1.0, 0.5, 1e-3)),
)
def test_phase1_matches_reference_on_random_corpora(corpus, queries, absent, ratio, smoothing):
    base = build_vocabulary(corpus).words
    vocab = Vocabulary(tuple(w for w in absent if w not in base) + base)
    _assert_phase1_equal(corpus, vocab, ratio, queries, smoothing)


def test_category_absent_from_corpus():
    corpus = [_crash("java.lang.IllegalStateException", "alpha beta", (), Category.A),
              _crash("java.lang.NullPointerException", "gamma", (), Category.C),
              _crash("java.lang.NullPointerException", "beta", (), Category.A)]
    _assert_phase1_equal(corpus, build_vocabulary(corpus), 0.5)


def test_empty_messages():
    corpus = [_crash("java.lang.IllegalStateException", "", (), Category.A),
              _crash("java.lang.NullPointerException", "", ("android.app.View.call",), Category.B),
              _crash("java.lang.NullPointerException", "", (), Category.C)]
    _assert_phase1_equal(corpus, build_vocabulary(corpus), 1.0)


def test_word_present_in_every_crash():
    corpus = [_crash("java.lang.alpha", "alpha", (), category) for category in CATEGORIES]
    corpus.append(_crash("java.lang.alpha", "alpha beta", (), Category.B))
    sel = _assert_selections_equal(corpus, build_vocabulary(corpus), 1.0)
    assert sel.scores[sel.base.words.index("alpha")] == 0.0
    _assert_phase1_equal(corpus, build_vocabulary(corpus), 1.0)


def test_vocabulary_words_absent_from_corpus():
    corpus = [_crash("java.lang.IllegalStateException", "alpha", (), Category.A),
              _crash("java.lang.NullPointerException", "beta", (), Category.B)]
    vocab = Vocabulary(("zeta",) + build_vocabulary(corpus).words + ("eta",))
    sel = _assert_selections_equal(corpus, vocab, 1.0)
    assert sel.scores[0] == sel.scores[-1] == 0.0
    _assert_phase1_equal(corpus, vocab, 1.0)


def test_one_crash_corpus():
    corpus = [_crash("java.lang.IllegalStateException", "alpha", ("android.app.View.call",),
                     Category.B)]
    for ratio in (1.0, 0.5, 1e-9):
        _assert_phase1_equal(corpus, build_vocabulary(corpus), ratio)


def test_ratio_one_keeps_every_word_in_reference_order():
    corpus = [_crash("java.lang.IllegalStateException", "alpha beta", (), Category.A),
              _crash("java.lang.NullPointerException", "beta gamma", (), Category.B),
              _crash("java.lang.alpha", "delta", (), Category.C)]
    vocab = build_vocabulary(corpus)
    sel = _assert_selections_equal(corpus, vocab, 1.0)
    assert sorted(sel.selected) == sorted(vocab.words)
    _assert_phase1_equal(corpus, vocab, 1.0)


@given(exception=st.text(".ab", max_size=6), message=st.text(" .\t\nab", max_size=8))
def test_tokens_of_names_with_empty_parts(exception, message):
    # The parser gives no empty dotted parts; a report built directly can.
    report = dataclasses.replace(make_report(), exception_type=exception, message=message)
    assert report.tokens == tuple(dict.fromkeys(reference_iter_tokens(report)))


def test_many_words_share_one_count_tuple():
    # Every crash holds words no other crash holds: all of a category's
    # private words have the count tuple (1, 0, 0), (0, 1, 0) or (0, 0, 1).
    corpus = [_crash("java.lang.alpha", " ".join(f"w{i}x{j}" for j in range(30)), (), category)
              for i, category in enumerate(CATEGORIES * 3)]
    corpus.append(_crash("java.lang.IllegalStateException", "", (), Category.A))
    for ratio in (1.0, 0.5, 0.1, 1e-9):
        _assert_phase1_equal(corpus, build_vocabulary(corpus), ratio)


@settings(max_examples=60, deadline=None)
@given(
    n_words=st.integers(min_value=1, max_value=40),
    categories=st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=10),
    ratio=ratios,
)
def test_fit_matches_dense_chain_when_count_tuples_repeat(n_words, categories, ratio):
    # Crash j holds words 0..(j mod 4) of a shared pool plus n_words private
    # ones, so count tuples repeat across words and some categories may be absent.
    corpus = [_crash("java.lang.alpha",
                     " ".join([*WORDS[:j % 4], *(f"p{j}w{i}" for i in range(n_words))]),
                     (), category)
              for j, category in enumerate(categories)]
    _assert_fit_equal(corpus, ratio)


@pytest.mark.parametrize("bit", [2, -1, True, 0.5, "x", [0]])
def test_truthy_bits_other_than_one(bit):
    corpus = [_crash("java.lang.IllegalStateException", "alpha beta", (), Category.A),
              _crash("java.lang.NullPointerException", "gamma", (), Category.B),
              _crash("java.lang.alpha", "beta delta", (), Category.C)]
    sel = chi_square_select(build_vocabulary(corpus), corpus, 1.0)
    vectors = [[bit if b else 0 for b in vectorize(c.report, sel)] for c in corpus]
    pairs = [(vec, crash.category) for vec, crash in zip(vectors, corpus)]
    model = train(pairs, 1.0, sel)
    assert model == reference_train(pairs, 1.0, sel)
    for vec in vectors:
        assert predict(model, vec) == reference_predict(model, vec)


def test_model_whose_probabilities_reach_zero_or_one_is_rejected():
    # With the smallest subnormal smoothing a bit set in every A crash has
    # cond == 1.0 under A and one set in none of them cond == 0.0, which
    # have no logarithm: neither training builds such a model.
    pairs = [([1, 0], Category.A), ([1, 0], Category.A), ([0, 1], Category.B),
             ([1, 0], Category.B), ([0, 1], Category.C), ([1, 0], Category.C)]
    for fit_nb in (train, reference_train):
        with pytest.raises(ValueError, match=r"outside \(0, 1\) under smoothing 5e-324"):
            fit_nb(pairs, 5e-324)


@pytest.mark.parametrize("smoothing", [5e-324, 1e-15])
def test_fit_rejects_the_model_the_dense_chain_rejects(smoothing):
    # "java" and "alpha" are in every crash, and each class has 40 crashes:
    # at 1e-15 a word held by a whole class rounds its conditional to 1.0,
    # at 5e-324 a word held by none of a class also rounds its one to 0.0.
    corpus = [_crash("java.lang.alpha", WORDS[j % 5], (), CATEGORIES[j % 3]) for j in range(120)]
    vocab = build_vocabulary(corpus)
    sel = reference_chi_square_select(vocab, corpus, 0.5)
    pairs = [(vectorize(crash.report, sel), crash.category) for crash in corpus]
    with pytest.raises(ValueError, match=r"outside \(0, 1\)") as dense:
        train(pairs, smoothing, sel)
    with pytest.raises(ValueError) as fitted:
        fit(corpus, Config(chi2_ratio=0.5, nb_smoothing=smoothing))
    assert str(fitted.value) == str(dense.value)


# -- one-pass logarithms -------------------------------------------------------

def _bits(table) -> list[str]:
    """Every float of a nested tuple table, exactly (``-0.0`` too), in order."""
    if isinstance(table, float):
        return [table.hex()]
    return [bit for item in table for bit in _bits(item)]


@st.composite
def count_models(draw):
    """``train_counts`` arguments whose counts tie within and across classes:
    bit counts from a pool of at most three values per class, class counts
    from 0 to 4, so that equal columns and conditionals equal to a prior
    (counts (1, 1, 1) give 1/3 for both) are common."""
    counts = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3))
    n = draw(st.integers(min_value=0, max_value=12))
    ones = []
    for count in counts:
        pool = draw(st.lists(st.integers(min_value=0, max_value=count), min_size=1, max_size=3))
        ones.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    smoothing = draw(st.sampled_from((1.0, 0.5, 2.0, 1e-15, 5e-324, 1e308))
                     | st.floats(min_value=1e-3, max_value=10.0))
    return counts, ones, smoothing


@settings(max_examples=300, deadline=None)
@given(args=count_models())
def test_one_pass_logs_match_the_two_pass_oracle(args):
    counts, ones, smoothing = args
    # train_counts's formulas, so that a model it rejects still has fields.
    n = sum(counts)
    priors = tuple((count + smoothing) / (n + 3 * smoothing) for count in counts)
    cond = tuple(zip(*[[(c + smoothing) / (count + 2 * smoothing) for c in column]
                       for count, column in zip(counts, ones)]))
    try:
        want = TwoPassNBModel(priors, cond, smoothing)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            train_counts(counts, ones, smoothing)
        assert str(raised.value) == str(exc)
        return
    got = train_counts(counts, ones, smoothing)
    assert (got.priors, got.cond) == (priors, cond)
    assert _bits(got.log_tables) == _bits(want.log_tables)
    assert _bits(got.argmax_tables) == _bits(want.argmax_tables)


# Probabilities inside (0, 1) and outside it, so that a model holds several bad
# values, repeated, before and after good ones.
mixed_probabilities = st.sampled_from(
    (0.25, 0.5, 1 / 3, 0.0, -0.0, 1.0, -0.5, 1.5, math.nan, math.inf, 5e-324))


@settings(max_examples=300, deadline=None)
@given(priors=st.lists(mixed_probabilities, min_size=3, max_size=3),
       cond=st.lists(st.lists(mixed_probabilities, min_size=3, max_size=3).map(tuple),
                     max_size=6))
def test_one_pass_check_names_the_first_bad_probability(priors, cond):
    try:
        TwoPassNBModel(tuple(priors), tuple(cond), 1.0)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            NBModel(tuple(priors), tuple(cond), 1.0)
        assert str(raised.value) == str(exc)
    else:
        model = NBModel(tuple(priors), tuple(cond), 1.0)
        assert _bits(model.log_tables) == _bits(TwoPassNBModel(tuple(priors), tuple(cond),
                                                               1.0).log_tables)


def test_logarithms_are_held_outside_the_fields():
    model = train_counts([2, 1, 1], [[2, 0], [1, 1], [0, 1]], 1.0)
    assert "_logs" not in repr(model)
    assert [f.name for f in dataclasses.fields(model)] == [
        "priors", "cond", "smoothing", "selected_vocab"]
