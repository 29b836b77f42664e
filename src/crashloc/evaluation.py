"""Evaluation harness: bucketing, k-fold cross-validation, Recall@k, MRR.

Each fold trains the vocabulary, feature selection, and categorizer on the
training split, then categorizes every test crash and runs the locator of
each distinct category among its predicted and its true one. The outcomes
form one table in corpus order, read by two protocols: end to end takes the
outcome under the predicted category, perfect categorization the one under
the true category (isolating Phase 2). A correctly categorized crash is thus
localized once for both. Metrics are pooled over all folds. Per-case
failures are recorded in the report, never dropped.

Shuffling uses an explicitly specified PRNG so splits replicate across
implementations: xorshift64* with shift triple (12, 25, 27) and output
multiplier 0x2545F4914F6CDD1D, state seeded as ``seed XOR
0x9E3779B97F4A7C15`` (the constant itself when that is zero), driving a
Fisher-Yates shuffle where ``j = next() mod (i + 1)`` for i from n-1 down
to 1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .appmodel import load_app_model
from .config import Config
from .corpus import CATEGORIES, Category, LabeledCrash
from .errors import CorpusTooSmall, CrashLocError, EmptySet
from .features import build_vocabulary, chi_square_select, vectorize
from .localizer import Pipeline
from .nb import train as train_nb
from .similarity import group_by_subtrace

# Unused here: bound only so that bench/tracer.py can wrap them under these names.
from .localizer import locate_category_a, locate_category_b, locate_category_c  # noqa: F401
from .nb import predict  # noqa: F401

PROTOCOLS = ("end_to_end", "perfect_categorization")
RECALL_KS = (1, 5, 10)

_SEED_MIX = 0x9E3779B97F4A7C15
_OUT_MULT = 0x2545F4914F6CDD1D
_MASK64 = (1 << 64) - 1


class XorShift64Star:
    """xorshift64* generator; parameters documented in the module docstring."""

    def __init__(self, seed: int):
        self.state = (seed ^ _SEED_MIX) & _MASK64
        if self.state == 0:
            self.state = _SEED_MIX

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _OUT_MULT) & _MASK64


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by xorshift64*."""
    rng = XorShift64Star(seed)
    indices = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    return indices


def kfold_indices(n: int, k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Seeded shuffle, then k near-equal contiguous test slices."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise CorpusTooSmall(f"corpus of {n} cannot be split into {k} folds")
    order = shuffled_indices(n, seed)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        test = order[start : start + size]
        train = order[:start] + order[start + size :]
        folds.append((train, test))
        start += size
    return folds


def kfold_split(items: Sequence, k: int, seed: int) -> list[tuple[list, list]]:
    return [
        ([items[i] for i in train], [items[i] for i in test])
        for train, test in kfold_indices(len(items), k, seed)
    ]


# ---------------------------------------------------------------------------
# Rank metrics
# ---------------------------------------------------------------------------

def recall_at_k(results: Sequence[int | None], k: int) -> float:
    """Fraction of cases whose true location ranks within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not results:
        return 0.0
    return sum(1 for r in results if r is not None and r <= k) / len(results)


def mrr(results: Sequence[int | None]) -> float:
    """Mean reciprocal rank; a case with no rank contributes 0."""
    if not results:
        raise EmptySet("MRR of an empty result set is undefined")
    return sum(1.0 / r for r in results if r is not None) / len(results)


def _rank_stats(ranks: Sequence[int | None]) -> dict:
    """Recall@k for each reported k and the MRR (0.0 for no cases)."""
    return {
        "recall_at": {str(k): recall_at_k(ranks, k) for k in RECALL_KS},
        "mrr": mrr(ranks) if ranks else 0.0,
    }


# ---------------------------------------------------------------------------
# Bucketing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bucket:
    """Crashes sharing an identical framework sub-trace."""

    key: tuple[str, ...]
    members: tuple[LabeledCrash, ...]


def bucketize(corpus: Sequence[LabeledCrash]) -> list[Bucket]:
    return [Bucket(key=key, members=tuple(corpus[i] for i in positions))
            for key, positions in group_by_subtrace(corpus).items()]


def score_summary_by_bucket(
    corpus: Sequence[LabeledCrash], results: Sequence[int | None]
) -> dict:
    """Rank metrics treating each bucket as one unit (first member represents)."""
    if len(results) != len(corpus):
        raise ValueError("results must align with the corpus, one rank per crash")
    bucket_ranks = [results[positions[0]] for positions in group_by_subtrace(corpus).values()]
    return {"buckets": len(bucket_ranks), **_rank_stats(bucket_ranks)}


# ---------------------------------------------------------------------------
# Cross-validated evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    fold_count: int
    seed: int
    protocol: str
    corpus_size: int
    confusion: dict  # predicted -> actual -> count
    per_category: dict  # category -> {"precision", "recall"}
    accuracy: float
    recall_at: dict  # str(k) -> fraction, for the selected protocol
    mrr: float
    localization: dict  # protocol -> {"per_category": ..., "total": ...}
    case_ranks: dict  # protocol -> per-case rank (or None), corpus order
    failures: tuple

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        return obj | {"failures": list(self.failures)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def fit(train: Sequence[LabeledCrash], config: Config) -> Pipeline:
    """Train Phase 1 (vocabulary, chi-square selection, NB) and keep the Phase-2 pools."""
    vocab = build_vocabulary(train)
    selected = chi_square_select(vocab, train, config.chi2_ratio)
    pairs = [(vectorize(c.report, selected), c.category) for c in train]
    nb_model = train_nb(pairs, config.nb_smoothing, selected)
    return Pipeline(nb_model, tuple(train), config.links_depth)


def _outcome(
    pipeline: Pipeline, category: Category, crash: LabeledCrash, app_model: Callable
) -> dict:
    """``category``'s locator on ``crash``: ``{"rank": r}``, or rank None and the
    error when a CrashLocError stops it. ``app_model()`` gives a B locator its model."""
    try:
        model = app_model() if category is Category.B else None
        result = pipeline.locate_as(category, crash.report, model)
        return {"rank": result.rank_of(crash.true_location)}
    except CrashLocError as exc:
        error = {"phase": "locate", "error": type(exc).__name__, "message": str(exc)}
        return {"rank": None, "error": error}


def _rank_block(actual: Sequence[Category], ranks: Sequence[int | None]) -> dict:
    """Rank metrics per true category and in total, ``ranks`` aligned with ``actual``."""
    ranks_by_category: dict = {}
    for category, rank in zip(actual, ranks):
        ranks_by_category.setdefault(category, []).append(rank)
    all_ranks = [r for ranks in ranks_by_category.values() for r in ranks]
    per_category = {}
    for category in CATEGORIES:
        ranks = ranks_by_category.get(category, [])
        per_category[category.value] = {"cases": len(ranks), **_rank_stats(ranks)}
    return {
        "per_category": per_category,
        "total": {"cases": len(all_ranks), **_rank_stats(all_ranks)},
    }


def evaluate(
    corpus: Sequence[LabeledCrash],
    config: Config,
    fallback_model: str | Path | None = None,
    protocol: str = "end_to_end",
) -> EvalReport:
    """k-fold cross-validated evaluation of the whole pipeline.

    ``protocol`` selects which localization variant feeds the top-level
    recall/MRR fields; both variants are always present in the report.
    ``fallback_model`` is used for crashes that carry no app-model path.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    fallback = Path(fallback_model) if fallback_model else None
    loaded: dict = {}  # path -> its app model, or the error loading it raised: one read each

    def load(path):
        if path not in loaded:
            try:
                loaded[path] = load_app_model(path)
            except CrashLocError as exc:
                loaded[path] = exc
        model = loaded[path]
        if isinstance(model, CrashLocError):
            raise model.with_traceback(None)  # so raising it again does not grow its traceback
        return model

    predicted: list = [None] * len(corpus)
    outcomes: list = [None] * len(corpus)  # per crash: category -> its locator's outcome
    for train, test in kfold_indices(len(corpus), config.kfold_k, config.seed):
        pipeline = fit([corpus[i] for i in train], config)
        for i in test:
            crash = corpus[i]
            path = crash.app_model or fallback
            predicted[i] = pipeline.categorize(crash.report)
            outcomes[i] = {
                category: _outcome(pipeline, category, crash, lambda: load(path) if path else None)
                for category in dict.fromkeys((predicted[i], crash.category))
            }
        del pipeline  # so that the next fold's fit does not hold two pipelines at once
    actual = [crash.category for crash in corpus]

    confusion = {p.value: {a.value: 0 for a in CATEGORIES} for p in CATEGORIES}
    for p, a in zip(predicted, actual):
        confusion[p.value][a.value] += 1

    per_category = {}
    for category in CATEGORIES:
        c = category.value
        row_total = sum(confusion[c].values())
        col_total = sum(confusion[p.value][c] for p in CATEGORIES)
        diag = confusion[c][c]
        per_category[c] = {
            "precision": diag / row_total if row_total else 0.0,
            "recall": diag / col_total if col_total else 0.0,
        }
    accuracy = sum(confusion[c.value][c.value] for c in CATEGORIES) / len(corpus)

    # End to end reads each crash's outcome under its predicted category,
    # perfect categorization the one under its true category.
    picked = {
        proto: [outcomes[i][category] for i, category in enumerate(chosen)]
        for proto, chosen in zip(PROTOCOLS, (predicted, actual))
    }
    case_ranks = {proto: [outcome["rank"] for outcome in picks] for proto, picks in picked.items()}
    localization = {proto: _rank_block(actual, ranks) for proto, ranks in case_ranks.items()}
    failures = tuple(
        {"index": i, "protocol": proto, **picks[i]["error"]}
        for i in range(len(corpus))
        for proto, picks in picked.items()
        if "error" in picks[i]
    )

    selected_block = localization[protocol]["total"]
    return EvalReport(
        fold_count=config.kfold_k,
        seed=config.seed,
        protocol=protocol,
        corpus_size=len(corpus),
        confusion=confusion,
        per_category=per_category,
        accuracy=accuracy,
        recall_at=selected_block["recall_at"],
        mrr=selected_block["mrr"],
        localization=localization,
        case_ranks=case_ranks,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Plain-text tables
# ---------------------------------------------------------------------------

def _format_rank_row(label: str, block: dict) -> str:
    cells = [f"{label:<9}"]
    cases = block["cases"]
    for k in RECALL_KS:
        frac = block["recall_at"][str(k)]
        hits = round(frac * cases) if cases else 0
        cells.append(f"{frac:.2f} ({hits}/{cases})".ljust(16))
    cells.append(f"{block['mrr']:.2f}")
    return "  ".join(cells)


def render_text(report: EvalReport) -> str:
    lines = [
        "Crash localization evaluation",
        f"corpus: {report.corpus_size} crashes | folds: {report.fold_count} | "
        f"seed: {report.seed} | protocol: {report.protocol}",
        "",
        "Categorization (rows = predicted, columns = actual)",
        "             " + "".join(f"{'actual ' + c.value:>10}" for c in CATEGORIES) + f"{'total':>10}",
    ]
    for p in CATEGORIES:
        row = report.confusion[p.value]
        lines.append(
            f"predicted {p.value}  "
            + "".join(f"{row[a.value]:>10}" for a in CATEGORIES)
            + f"{sum(row.values()):>10}"
        )
    lines.append(
        "total        "
        + "".join(
            f"{sum(report.confusion[p.value][a.value] for p in CATEGORIES):>10}"
            for a in CATEGORIES
        )
        + f"{report.corpus_size:>10}"
    )
    lines.append("")
    lines.append("Category   Precision   Recall")
    for c in CATEGORIES:
        stats = report.per_category[c.value]
        lines.append(f"{c.value:<10} {stats['precision']:<11.2f} {stats['recall']:.2f}")
    lines.append(f"accuracy: {report.accuracy:.3f}")

    titles = {
        "perfect_categorization": "Localization under perfect categorization",
        "end_to_end": "Localization end to end",
    }
    for proto in ("perfect_categorization", "end_to_end"):
        block = report.localization[proto]
        lines.append("")
        lines.append(titles[proto])
        header = ["Category "] + [f"Recall@{k}".ljust(16) for k in RECALL_KS] + ["MRR"]
        lines.append("  ".join(header))
        for c in CATEGORIES:
            lines.append(_format_rank_row(c.value, block["per_category"][c.value]))
        lines.append(_format_rank_row("Total", block["total"]))
    lines.append("")
    lines.append(f"failures: {len(report.failures)}")
    for failure in report.failures:
        lines.append(
            f"  case {failure['index']} [{failure['protocol']}] "
            f"{failure['error']}: {failure['message']}"
        )
    return "\n".join(lines) + "\n"


def render_bucket_summary(corpus: Sequence[LabeledCrash], report: EvalReport) -> str:
    """Recall@k and MRR per protocol, counting each bucket of ``corpus`` once."""
    lines = ["", "Bucket-level summary (one unit per identical framework sub-trace)"]
    for proto, ranks in report.case_ranks.items():
        summary = score_summary_by_bucket(corpus, ranks)
        recalls = "  ".join(f"Recall@{k}={summary['recall_at'][str(k)]:.2f}" for k in RECALL_KS)
        lines.append(f"{proto}: buckets={summary['buckets']}  {recalls}  MRR={summary['mrr']:.2f}")
    return "\n".join(lines) + "\n"
