"""Binary feature extraction for crash categorization.

A crash contributes three token sources: the exception type and the
qualified names of the framework sub-trace frames (split on "."), and the
crash message (split on whitespace). Tokens are case-preserved, never
stemmed or lower-cased. Vocabulary words are scored with a chi-square test
against the category labels and only the top fraction is kept.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .corpus import LabeledCrash
from .errors import NUMBER, EmptyCorpus, SchemaError, expect, expect_between, expect_items
from .trace import CrashReport

# A feature vector is a plain list of 0/1 ints, aligned with the selected words.
FeatureVector = list

_CUT_EPS = 1e-9  # guards ceil() against float noise in ratio * n


def iter_tokens(report: CrashReport) -> Iterator[str]:
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


def tokenize(report: CrashReport) -> set[str]:
    return set(iter_tokens(report))


@dataclass(frozen=True)
class Vocabulary:
    words: tuple[str, ...]
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = {w: i for i, w in enumerate(self.words)}
        if len(idx) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")
        object.__setattr__(self, "index", idx)

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
    seen: dict = {}
    for crash in corpus:
        for token in iter_tokens(crash.report):
            if token not in seen:
                seen[token] = None
    return Vocabulary(tuple(seen))


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
    order = sorted(range(len(words)), key=lambda i: (-scores[i], i))
    return tuple(words[i] for i in order[:keep])


def chi_square_select(
    vocab: Vocabulary, corpus: Sequence[LabeledCrash], ratio: float
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
    # One pass over each crash's token set: doc_freq[k][word] counts the
    # crashes of categories[k] holding word, totals[k] the crashes of it.
    by_category = {cat: Counter() for cat in categories}
    for crash in corpus:
        by_category[crash.category].update(tokenize(crash.report))
    doc_freq = [by_category[cat] for cat in categories]
    totals = [sum(1 for crash in corpus if crash.category == cat) for cat in categories]
    n = len(corpus)
    scores = []
    for word in vocab.words:
        in_cat = [counts.get(word, 0) for counts in doc_freq]
        present = sum(in_cat)
        best = 0.0
        for o11, total in zip(in_cat, totals):
            o21 = total - o11
            best = max(best, chi2_stat(o11, present - o11, o21, n - present - o21))
        scores.append(best)
    scores = tuple(scores)
    return SelectedVocabulary(
        base=vocab,
        selected=_rank_and_cut(vocab.words, scores, ratio),
        ratio=ratio,
        scores=scores,
    )


def vectorize(report: CrashReport, sel: SelectedVocabulary) -> FeatureVector:
    """Binary membership vector of the report's tokens in the selected words."""
    position = sel.position
    vector = [0] * len(sel.selected)
    for token in iter_tokens(report):
        i = position.get(token)
        if i is not None:
            vector[i] = 1
    return vector
