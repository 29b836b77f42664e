"""Crash-to-crash similarity over framework sub-trace frame sequences.

Distance is token-level Levenshtein (whole frames are the tokens, compared
for equality only), normalized to a similarity in [0, 1] by the longer
sequence length. Similarity depends on the sub-traces alone, so a pool of
labeled crashes is compared through its ``SubtraceIndex``: each distinct
sub-trace once, whatever the number of crashes sharing it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import EmptyPool
from .trace import CrashReport

if TYPE_CHECKING:
    from .corpus import LabeledCrash


def frame_seq(report: CrashReport) -> tuple[str, ...]:
    """Qualified frame names of the framework sub-trace, topmost first."""
    return report.subtrace_key


def group_by_subtrace(crashes: Iterable["LabeledCrash"]) -> dict[tuple[str, ...], list[int]]:
    """Positions of the crashes per distinct framework sub-trace (the paper's
    bucketing); keys and positions in first-occurrence order."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for position, crash in enumerate(crashes):
        groups.setdefault(frame_seq(crash.report), []).append(position)
    return groups


@dataclass(frozen=True, slots=True)
class SubtraceIndex:
    """A pool of labeled crashes grouped by framework sub-trace.

    ``first`` maps each distinct sub-trace to the pool position of its
    first crash, in first-occurrence order; ``key_ids[i]`` is the ordinal
    in ``first`` of pool entry i's sub-trace.
    """

    pool: tuple["LabeledCrash", ...]
    first: dict[tuple[str, ...], int]
    key_ids: tuple[int, ...]

    @classmethod
    def of(cls, pool: Pool) -> SubtraceIndex:
        """The index of ``pool``, or ``pool`` itself when it is one."""
        if isinstance(pool, cls):
            return pool
        groups = group_by_subtrace(pool)
        key_ids = [0] * len(pool)
        for key_id, positions in enumerate(groups.values()):
            for position in positions:
                key_ids[position] = key_id
        return cls(
            pool=tuple(pool),
            first={key: positions[0] for key, positions in groups.items()},
            key_ids=tuple(key_ids),
        )


# What the locators accept as a pool: the crashes, or their index.
Pool = Union[Sequence["LabeledCrash"], SubtraceIndex]


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Levenshtein distance with unit-cost insert/delete/substitute."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, tok_b in enumerate(b, 1):
            if tok_a == tok_b:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j - 1], prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def seq_similarity(a: Sequence, b: Sequence) -> float:
    """1 - distance / max length; two empty sequences count as identical."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest


def crash_similarity(c1: CrashReport, c2: CrashReport) -> float:
    return seq_similarity(frame_seq(c1), frame_seq(c2))


def most_similar(query: CrashReport, pool: Pool) -> tuple["LabeledCrash", float]:
    """Pool element with the highest similarity; ties keep the earliest.

    Each distinct sub-trace is scored once, through its first crash; as
    keys run in first-occurrence order, the first strict maximum is the
    earliest crash of the best score.
    """
    index = SubtraceIndex.of(pool)
    if not index.pool:
        raise EmptyPool("cannot pick the most similar crash from an empty pool")
    best, best_score = None, -1.0
    for position in index.first.values():
        score = crash_similarity(query, index.pool[position].report)
        if score > best_score:
            best, best_score = position, score
    return index.pool[best], best_score
