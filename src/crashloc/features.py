"""Binary feature extraction for crash categorization.

A crash contributes three token sources: the exception type and the
qualified names of the framework sub-trace frames (split on "."), and the
crash message (split on whitespace). Tokens are case-preserved, never
stemmed or lower-cased. Vocabulary words are scored with a chi-square test
against the category labels and only the top fraction is kept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import NUMBER, EmptyCorpus, SchemaError, expect, expect_items
from .trace import CrashReport

if TYPE_CHECKING:
    from .corpus import LabeledCrash

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
    if report.framework_subtrace is None:
        raise ValueError("report is not split; run split_frames first")
    for frame in report.framework_subtrace:
        for part in frame.qualified_name.split("."):
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
    """Top-ranked subset of a vocabulary, with the per-word chi2 scores."""

    base: Vocabulary
    selected: tuple[str, ...]
    ratio: float
    scores: tuple[float, ...]

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
        scores = tuple(float(s) for s in expect_items(chi2, NUMBER, f"{pointer}/chi2", len(words)))
        ratio = float(expect(obj, "ratio", NUMBER, pointer))
        if not 0.0 < ratio <= 1.0:
            raise SchemaError(f"ratio must be in (0, 1], got {ratio}", f"{pointer}/ratio")
        return cls(base=base, selected=_rank_and_cut(base.words, scores, ratio),
                   ratio=ratio, scores=scores)


def build_vocabulary(corpus: Sequence["LabeledCrash"]) -> Vocabulary:
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


def vectorize(report: CrashReport, sel: SelectedVocabulary) -> FeatureVector:
    """Binary membership vector of the report's tokens in the selected words."""
    tokens = tokenize(report)
    return [1 if word in tokens else 0 for word in sel.selected]
