"""Phase-1 categorizer: Bernoulli Naive Bayes over binary feature vectors.

Categories are the labels of ``corpus.Category``: A (in the stack trace),
B (outside the trace but in the code), C (outside the code). Training uses
additive smoothing on both priors and conditionals; prediction runs fully
in log space and breaks ties in favor of A, then B, then C.

``train_counts`` builds the model from per-class crash counts and
per-class counts of each set bit: ``train`` counts them from dense
vectors, ``evaluation.fit`` reads them from its document-frequency table.
A class column holds few distinct counts, and so few distinct
probabilities: each conditional is taken once per distinct count, and
each logarithm of the log tables once per distinct probability, with the
expression of the per-feature formula, so every float is the same.

``predict`` defines the category. ``certified_argmax`` finds it in time
proportional to the set bits, or returns None on a near tie, where only
``predict`` can tell; its rounding-error bounds are explained at
``NBModel.argmax_tables``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Sequence

from .corpus import CATEGORIES, Category
from .errors import NUMBER, DimensionMismatch, EmptyCorpus, expect, expect_between, expect_items
from .features import FeatureVector, SelectedVocabulary

_UNIT_ROUNDOFF = 2.0 ** -53


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
        # predict takes log(p) and log(1 - p) of every probability. Equal values
        # pass or fail alike, so each distinct one is checked, in first-occurrence
        # order: the first bad value named is the first bad one in the model. The
        # same pass takes each distinct value's logarithms, once, into ``_logs``:
        # ({p: log p}, {p: log(1 - p)}), held outside the fields, so not in ``==``.
        log_present, log_absent = {}, {}
        for p in dict.fromkeys(chain(self.priors, chain.from_iterable(self.cond))):
            if not 0.0 < p < 1.0:
                raise ValueError(f"NB probability {p!r} is outside (0, 1) under smoothing "
                                 f"{self.smoothing!r}: a smoothing too small rounds it to 0 "
                                 "or 1, and one so large that a smoothed total overflows "
                                 "rounds it to 0")
            log_present[p] = math.log(p)
            log_absent[p] = math.log(1.0 - p)
        object.__setattr__(self, "_logs", (log_present, log_absent))

    @cached_property
    def log_tables(self) -> tuple:
        """``(log priors, log(1 - cond) rows, log(cond) rows)``, taken on the
        first ``predict``."""
        log_present, log_absent = self._logs
        return (
            tuple(math.log(p) for p in self.priors),
            tuple((log_absent[p0], log_absent[p1], log_absent[p2]) for p0, p1, p2 in self.cond),
            tuple((log_present[p0], log_present[p1], log_present[p2]) for p0, p1, p2 in self.cond),
        )

    @cached_property
    def argmax_tables(self) -> tuple:
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

        Each logarithm and each difference is taken once per distinct
        conditional; the fsums run over every term.
        """
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
    """Fit priors and per-feature conditionals with additive smoothing, as
    ``train_counts`` defines them, from the set bits of dense vectors."""
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
    counts = [0, 0, 0]
    ones = [[0] * n_features for _ in CATEGORIES]
    for vec, category in corpus:
        k = CATEGORIES.index(category)
        counts[k] += 1
        row = ones[k]
        for i in compress(range(n_features), vec):
            row[i] += 1
    return train_counts(counts, ones, smoothing, selected_vocab)


def train_counts(
    counts: Sequence[int],
    ones: Sequence[Sequence[int]],
    smoothing: float,
    selected_vocab: SelectedVocabulary | None = None,
) -> NBModel:
    """The model of ``counts[k]`` crashes of class k, ``ones[k][i]`` of which
    set bit i, classes in A, B, C order. ``smoothing`` is positive, as
    ``train`` checks.

    prior(c) = (count(c) + s) / (N + 3s)
    cond(i, c) = (count(bit i = 1 and c) + s) / (count(c) + 2s)

    A class column holds few distinct counts, so each conditional is taken
    once per distinct count of its class.
    """
    n = sum(counts)
    priors = tuple((count + smoothing) / (n + 3 * smoothing) for count in counts)
    columns = []
    for count, column in zip(counts, ones):
        cond_of = {c: (c + smoothing) / (count + 2 * smoothing) for c in set(column)}
        columns.append(map(cond_of.__getitem__, column))
    return NBModel(priors=priors, cond=tuple(zip(*columns)), smoothing=smoothing,
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


def certified_argmax(model: NBModel, bits: Sequence[int]) -> Category | None:
    """``predict``'s category for the vector whose set bits are the distinct
    positions ``bits``, or None when the margin certificate fails (an exact
    or near tie) and only ``predict`` can tell."""
    base, delta, bounds = model.argmax_tables
    scores = [math.fsum((b, *map(col.__getitem__, bits))) for b, col in zip(base, delta)]
    best = max(range(3), key=scores.__getitem__)
    for k in range(3):
        if k != best and scores[best] - scores[k] <= bounds[best] + bounds[k]:
            return None
    return CATEGORIES[best]
