#!/usr/bin/env python3
"""Record the output digests that bench/run.py checks each run against.

For every workload and seed it runs the traced run's fixed work (set-up,
one evaluate, one pass over the held-out queries) without tracing, and
stores the SHA-256 of the evaluate report JSON and of the locate result
stream in bench/digests.json. Record only on a commit whose outputs are
right: a later commit that changes any output then fails the check.

Usage: python3 bench/record_digests.py --seeds 0-31 [--workload NAME ...]
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import gen
import run


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", nargs="*", default=list(gen.WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))

    table = json.loads(run.DIGESTS.read_text())
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for workload in args.workload:
        for seed in range(first, last + 1):
            workdir = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=tmp_root))
            try:
                bench = run.Run(workload, seed, workdir)
                bench.outputs = run.OutputCheck(None)
                run.unit_of_work(bench)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if bench.failed:
                print(f"{workload} seed {seed}: not recorded: {bench.notes}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = bench.outputs.seen
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {bench.outputs.seen}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
