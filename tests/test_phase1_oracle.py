"""The Phase-1 kernels agree exactly with the versions they replaced.

``reference_chi_square_select``, ``reference_vectorize``, ``reference_train``
and ``reference_predict`` are kept verbatim: chi-square tests every word
against every crash of every category, ``vectorize`` tests every selected
word against the report's token set, ``train`` visits every bit and
``predict`` takes two logarithms per feature on each call. On random
corpora the counting chi-square, the sparse ``vectorize`` and ``train`` and
the log-table ``predict`` must return the same scores, selected words,
vectors, models and posteriors (``==`` on floats, never approx).
"""
from __future__ import annotations

import math
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from crashloc.corpus import LabeledCrash
from crashloc.errors import DimensionMismatch, EmptyCorpus
from crashloc.features import (
    FeatureVector,
    SelectedVocabulary,
    Vocabulary,
    _rank_and_cut,
    build_vocabulary,
    chi2_stat,
    chi_square_select,
    tokenize,
    vectorize,
)
from crashloc.nb import CATEGORIES, Category, NBModel, predict, train
from crashloc.trace import CrashReport

from conftest import make_report


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
    doc_tokens = [tokenize(crash.report) for crash in corpus]
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
    tokens = tokenize(report)
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


# -- corpora ------------------------------------------------------------------

# A small alphabet, so that words repeat across crashes, categories and
# token sources; "java" and "lang" are in every crash's exception type.
WORDS = ("alpha", "beta", "gamma", "delta", "Main", "View", "onCreate", "run")


def _crash(exception: str, message: str, framework: tuple, category: Category) -> LabeledCrash:
    report = make_report(exception=exception, message=message, framework=framework)
    return LabeledCrash(report=report, category=category, true_location="x#y")


messages = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)
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


def _assert_phase1_equal(corpus, vocab, ratio, queries=(), smoothing=1.0) -> None:
    """Selection, vectors, model and posteriors all equal the references."""
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
    assert sel.scores[sel.base.index["alpha"]] == 0.0
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
