#!/usr/bin/env python3
"""Run the cross-validated evaluation on a corpus and print the text tables.

Convenience wrapper around the library for experiment runs; equivalent to
``crashloc evaluate --corpus ... --pretty`` plus a bucket-level summary
(each bucket of identical framework sub-traces counted once).

Usage:
    python scripts/run_crossval.py [--corpus PATH] [--seed N] [--folds K]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crashloc.config import Config  # noqa: E402
from crashloc.corpus import load_corpus  # noqa: E402
from crashloc.evaluation import evaluate, render_text, score_summary_by_bucket  # noqa: E402
from crashloc.trace import FrameworkMatcher  # noqa: E402

DEFAULT_CORPUS = (
    Path(__file__).resolve().parents[1] / "fixtures" / "corpus" / "synthetic_corpus.jsonl"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=str(DEFAULT_CORPUS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--folds", type=int, default=5)
    args = parser.parse_args()

    config = Config(seed=args.seed, kfold_k=args.folds)
    corpus = load_corpus(args.corpus, FrameworkMatcher(config.framework_prefixes))
    report = evaluate(corpus, config)
    print(render_text(report), end="")

    print()
    print("Bucket-level summary (one unit per identical framework sub-trace)")
    for protocol, ranks in report.case_ranks.items():
        summary = score_summary_by_bucket(corpus, ranks)
        recalls = "  ".join(
            f"Recall@{k}={summary['recall_at'][str(k)]:.2f}" for k in (1, 5, 10)
        )
        print(f"{protocol}: buckets={summary['buckets']}  {recalls}  MRR={summary['mrr']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
