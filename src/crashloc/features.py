"""Binary feature extraction for crash categorization.

A crash contributes three token sources: the exception type and the
qualified names of the framework sub-trace frames (split on "."), and the
crash message (split on whitespace). Tokens are case-preserved, never
stemmed or lower-cased; ``CrashReport.tokens`` takes them once per report.
Vocabulary words are scored with a chi-square test against the category
labels and only the top fraction is kept. ``document_frequencies`` counts
each crash's tokens once into per-category document counts; a word's
score depends only on its tuple of those counts, so each distinct tuple
is scored once. ``set_bits`` gives the feature positions of a report's
tokens, which ``vectorize`` spreads into a dense vector.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

from .corpus import CATEGORIES, LabeledCrash
from .errors import NUMBER, EmptyCorpus, SchemaError, expect, expect_between, expect_items
from .trace import CrashReport

# A feature vector is a plain list of 0/1 ints, aligned with the selected words.
FeatureVector = list

_CUT_EPS = 1e-9  # guards ceil() against float noise in ratio * n


def tokenize(report: CrashReport) -> set[str]:
    return set(report.tokens)


@dataclass(frozen=True)
class Vocabulary:
    words: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SelectedVocabulary:
    """Top-ranked subset of a vocabulary, with the per-word chi2 scores.

    ``position`` maps each selected word to its bit in a feature vector.
    """

    base: Vocabulary
    selected: tuple[str, ...]
    ratio: float
    scores: tuple[float, ...]
    position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = {w: i for i, w in enumerate(self.selected)}
        if len(position) != len(self.selected):
            raise ValueError("selected vocabulary contains duplicate words")
        object.__setattr__(self, "position", position)

    def __len__(self) -> int:
        return len(self.selected)

    def to_json_obj(self) -> dict:
        return {
            "ratio": self.ratio,
            "words": list(self.base.words),
            "chi2": list(self.scores),
        }

    @classmethod
    def from_json_obj(cls, obj: dict, pointer: str = "") -> "SelectedVocabulary":
        words = tuple(expect_items(expect(obj, "words", list, pointer), str, f"{pointer}/words"))
        try:
            base = Vocabulary(words)
        except ValueError as exc:
            raise SchemaError(str(exc), f"{pointer}/words") from None
        chi2 = expect(obj, "chi2", list, pointer)
        expect_items(chi2, NUMBER, f"{pointer}/chi2", len(words))
        scores = tuple(expect_between(chi2, i, f"{pointer}/chi2") for i in range(len(chi2)))
        expect(obj, "ratio", NUMBER, pointer)
        ratio = expect_between(obj, "ratio", pointer)
        if not 0.0 < ratio <= 1.0:
            raise SchemaError(f"ratio must be in (0, 1], got {ratio}", f"{pointer}/ratio")
        return cls(base=base, selected=_rank_and_cut(base.words, scores, ratio),
                   ratio=ratio, scores=scores)


def build_vocabulary(corpus: Sequence[LabeledCrash]) -> Vocabulary:
    """Union of corpus tokens, ordered by first occurrence."""
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    return Vocabulary(tuple(dict.fromkeys(chain.from_iterable(c.report.tokens for c in corpus))))


def chi2_stat(o11: int, o12: int, o21: int, o22: int) -> float:
    """Chi-square of a 2x2 contingency table; 0 when any marginal is zero.

    Rows are word presence/absence, columns category membership:
    n * (o11*o22 - o12*o21)^2 / product of the four marginals.
    """
    n = o11 + o12 + o21 + o22
    denom = (o11 + o12) * (o21 + o22) * (o11 + o21) * (o12 + o22)
    if denom == 0:
        return 0.0
    return n * (o11 * o22 - o12 * o21) ** 2 / denom


def _rank_and_cut(words: Sequence[str], scores: Sequence[float], ratio: float) -> tuple[str, ...]:
    keep = max(1, math.ceil(ratio * len(words) - _CUT_EPS))
    # Sorting is stable under reverse=True too: equal scores keep vocabulary order.
    order = sorted(range(len(words)), key=scores.__getitem__, reverse=True)
    return tuple(words[i] for i in order[:keep])


def document_frequencies(corpus: Sequence[LabeledCrash]) -> tuple[list[int], list[Counter]]:
    """``(totals, doc_freq)`` in ``CATEGORIES`` order: ``totals[k]`` counts the
    crashes of category k and ``doc_freq[k][word]`` those of them holding
    ``word``. Each crash's token tuple is read once."""
    tokens = {category: [] for category in CATEGORIES}
    for crash in corpus:
        tokens[crash.category].append(crash.report.tokens)
    return ([len(tokens[c]) for c in CATEGORIES],
            [Counter(chain.from_iterable(tokens[c])) for c in CATEGORIES])


def chi_square_select(
    vocab: Vocabulary, corpus: Sequence[LabeledCrash], ratio: float,
    *, doc_freq: tuple[list[int], list[Counter]] | None = None,
) -> SelectedVocabulary:
    """Keep the ceil(ratio * |vocab|) words with the highest chi2 score.

    The multiclass score of a word is the max over the three one-vs-rest
    2x2 tables (a category absent from ``corpus`` scores 0). Ties keep
    earlier vocabulary order, so selection is deterministic for a fixed
    corpus. ``doc_freq`` is ``document_frequencies(corpus)`` when the
    caller has it.
    """
    if not corpus:
        raise EmptyCorpus("cannot select features from an empty corpus")
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    totals, freqs = doc_freq or document_frequencies(corpus)
    n = len(corpus)
    # Equal count tuples give equal scores, and many words share one: score each tuple once.
    counts = list(zip(*(map(freq.get, vocab.words, repeat(0)) for freq in freqs)))
    score_of = {}
    for in_cat in set(counts):
        present = sum(in_cat)
        best = 0.0
        for o11, total in zip(in_cat, totals):
            o21 = total - o11
            best = max(best, chi2_stat(o11, present - o11, o21, n - present - o21))
        score_of[in_cat] = best
    scores = tuple(map(score_of.__getitem__, counts))
    return SelectedVocabulary(
        base=vocab,
        selected=_rank_and_cut(vocab.words, scores, ratio),
        ratio=ratio,
        scores=scores,
    )


def set_bits(report: CrashReport, sel: SelectedVocabulary) -> list[int]:
    """Distinct feature positions of the report's tokens among the selected
    words, in token order."""
    return [i for i in map(sel.position.get, report.tokens) if i is not None]


def vectorize(report: CrashReport, sel: SelectedVocabulary) -> FeatureVector:
    """Binary membership vector of the report's tokens in the selected words."""
    vector = [0] * len(sel.selected)
    for i in set_bits(report, sel):
        vector[i] = 1
    return vector
