"""A fixed reference task that measures how fast the machine runs right now.

A shared machine changes speed by tens of percent over seconds and
minutes, for every program on it alike. An end-to-end run therefore runs
``reference_slice()`` between its timed steps and scales its times by
``REFERENCE_SLICE_S / median(slice times)``: the times read as on a machine
where one slice takes ``REFERENCE_SLICE_S``. The task uses only the
standard library, never crashloc, so no change to crashloc changes it.

Its work is of the kinds crashloc spends its time on, over a working set
of several megabytes as crashloc's is: dict lookups and counts keyed by
frame strings, and edit distance over lists of distinct frame strings. A
task on a few kilobytes of data tracked the machine worse: alternated
with a small evaluate for 90 s on 2 shared cores (Python 3.11), its log
time moved 0.69 times as far as the evaluate's, where this task's moved
0.99 times as far (correlation 0.87).
"""
from __future__ import annotations

import random
import time

# What one slice takes on the reference machine (2 shared cores, Python 3.11).
REFERENCE_SLICE_S = 0.04

_rng = random.Random("crashloc-bench/reference")
_FRAMES = [f"android.pkg{_rng.randrange(999)}.Cls{_rng.randrange(99999)}.m{i}"
           for i in range(60000)]
_INDEX = {frame: i for i, frame in enumerate(_FRAMES)}
_LOOKUPS = [_rng.randrange(len(_FRAMES)) for _ in range(20000)]
_PAIRS = [([_rng.choice(_FRAMES) for _ in range(12)], [_rng.choice(_FRAMES) for _ in range(12)])
          for _ in range(120)]


def _edit_distance(a: list, b: list) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def reference_slice() -> float:
    """Wall seconds of one slice of the fixed task."""
    start = time.perf_counter()
    counts: dict = {}
    for i in _LOOKUPS:
        frame = _FRAMES[i]
        key = frame[:12]
        counts[key] = counts.get(key, 0) + _INDEX[frame]
    for a, b in _PAIRS:
        _edit_distance(a, b)
    return time.perf_counter() - start
