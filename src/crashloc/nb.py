"""Phase-1 categorizer: Bernoulli Naive Bayes over binary feature vectors.

Categories are the labels of ``corpus.Category``: A (in the stack trace),
B (outside the trace but in the code), C (outside the code). Training uses
additive smoothing on both priors and conditionals; prediction runs fully
in log space and breaks ties in favor of A, then B, then C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Sequence

from .corpus import CATEGORIES, Category
from .errors import NUMBER, DimensionMismatch, EmptyCorpus, expect, expect_between, expect_items
from .features import FeatureVector, SelectedVocabulary


@dataclass(frozen=True)
class NBModel:
    """Trained categorizer.

    ``cond[i][k]`` is P(bit i = 1 | category k), rows by feature, columns
    in A, B, C order. ``selected_vocab`` is carried for vectorizing new
    crashes; it may be None for models trained on raw vectors. Every
    prior and conditional lies in (0, 1), so each has a finite logarithm
    and so does its complement; a model that breaks this does not build.
    """

    priors: tuple[float, float, float]
    cond: tuple[tuple[float, float, float], ...]
    smoothing: float
    selected_vocab: SelectedVocabulary | None = None

    @property
    def n_features(self) -> int:
        return len(self.cond)

    def prior(self, category: Category) -> float:
        return self.priors[CATEGORIES.index(category)]

    def __post_init__(self):
        # predict takes log(p) and log(1 - p) of every probability.
        for p in (*self.priors, *(p for row in self.cond for p in row)):
            if not 0.0 < p < 1.0:
                raise ValueError(f"NB probability {p!r} is outside (0, 1) under smoothing "
                                 f"{self.smoothing!r}; use a larger smoothing")

    @cached_property
    def log_tables(self) -> tuple:
        """``(log priors, log(1 - cond) rows, log(cond) rows)``, taken on the
        first ``predict``."""
        return (
            tuple(math.log(p) for p in self.priors),
            tuple((math.log(1.0 - row[0]), math.log(1.0 - row[1]), math.log(1.0 - row[2]))
                  for row in self.cond),
            tuple((math.log(row[0]), math.log(row[1]), math.log(row[2]))
                  for row in self.cond),
        )

    def to_json_obj(self) -> dict:
        return {
            "smoothing": self.smoothing,
            "priors": {c.value: p for c, p in zip(CATEGORIES, self.priors)},
            "conditionals": [list(row) for row in self.cond],
        }

    @classmethod
    def from_json_obj(
        cls, obj: dict, selected_vocab: SelectedVocabulary | None = None, pointer: str = ""
    ) -> "NBModel":
        """Priors and conditionals must be probabilities in (0, 1), as the model
        requires; each is checked here so that a bad one carries its pointer."""
        priors = expect(obj, "priors", dict, pointer)
        for c in CATEGORIES:
            expect(priors, c.value, NUMBER, f"{pointer}/priors")
        priors = tuple(expect_between(priors, c.value, f"{pointer}/priors", 0.0, 1.0)
                       for c in CATEGORIES)
        n_rows = None if selected_vocab is None else len(selected_vocab)  # one per selected word
        rows = expect_items(expect(obj, "conditionals", list, pointer), list,
                            f"{pointer}/conditionals", n_rows)
        cond = []
        for i, row in enumerate(rows):
            row_pointer = f"{pointer}/conditionals/{i}"
            expect_items(row, NUMBER, row_pointer, 3)
            cond.append(tuple(expect_between(row, k, row_pointer, 0.0, 1.0) for k in range(3)))
        expect(obj, "smoothing", NUMBER, pointer)
        smoothing = expect_between(obj, "smoothing", pointer, 0.0)
        return cls(priors=priors, cond=tuple(cond), smoothing=smoothing,
                   selected_vocab=selected_vocab)


def train(
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
        for i in compress(range(n_features), vec):
            row[i] += 1

    priors = tuple((counts[k] + smoothing) / (n + 3 * smoothing) for k in range(3))
    columns = [[(c + smoothing) / (counts[k] + 2 * smoothing) for c in ones[k]] for k in range(3)]
    cond = tuple(zip(*columns))
    return NBModel(priors=priors, cond=cond, smoothing=smoothing,
                   selected_vocab=selected_vocab)


def predict(model: NBModel, vector: FeatureVector) -> tuple[Category, dict[Category, float]]:
    """Most probable category plus the per-category log posteriors.

    score(c) = log prior(c) + sum_i [v_i log cond(i,c) + (1-v_i) log(1-cond(i,c))]
    """
    if len(vector) != model.n_features:
        raise DimensionMismatch(
            f"vector has {len(vector)} features, model expects {model.n_features}"
        )
    # One term per feature in index order, as the sum is defined.
    log_priors, log_absent, log_present = model.log_tables
    s0, s1, s2 = log_priors
    for bit, absent, present in zip(vector, log_absent, log_present):
        t0, t1, t2 = present if bit else absent
        s0 += t0
        s1 += t1
        s2 += t2
    scores = [s0, s1, s2]
    best = max(range(3), key=lambda k: (scores[k], -k))
    return CATEGORIES[best], dict(zip(CATEGORIES, scores))
