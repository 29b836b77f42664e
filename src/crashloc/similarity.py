"""Crash-to-crash similarity over framework sub-trace frame sequences.

Distance is token-level Levenshtein (whole frames are the tokens, compared
for equality only), normalized to a similarity in [0, 1] by the longer
sequence length. Similarity depends on the sub-traces alone, so a pool of
labeled crashes is compared through its ``SubtraceIndex``: each distinct
sub-trace once, whatever the number of crashes sharing it, and only when
the index's frame bags and postings cannot prove the score beforehand.
"""
from __future__ import annotations

from collections import Counter
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


def shared_frames(a: Counter, b: Counter) -> int:
    """Size of the multiset intersection of two frame bags (frame -> count)."""
    return sum(min(a[frame], b[frame]) for frame in a.keys() & b.keys())


@dataclass(frozen=True, slots=True)
class SubtraceIndex:
    """A pool of labeled crashes grouped by framework sub-trace.

    ``first`` maps each distinct sub-trace (a key) to the pool position of
    its first crash, in first-occurrence order; a key's id is its ordinal
    in ``first``, and ``key_ids[i]`` is the id of pool entry i's key.
    ``bags[k]`` is key k's frame multiset, and ``postings`` maps each frame
    to the ids of the keys holding it, ascending.
    """

    pool: tuple["LabeledCrash", ...]
    first: dict[tuple[str, ...], int]
    key_ids: tuple[int, ...]
    bags: tuple[Counter, ...]
    postings: dict[str, list[int]]

    @classmethod
    def of(cls, pool: Pool) -> SubtraceIndex:
        """The index of ``pool``, or ``pool`` itself when it is one."""
        if isinstance(pool, cls):
            return pool
        groups = group_by_subtrace(pool)
        key_ids = [0] * len(pool)
        bags = []
        postings: dict[str, list[int]] = {}
        for key_id, (key, positions) in enumerate(groups.items()):
            for position in positions:
                key_ids[position] = key_id
            bag = Counter(key)
            bags.append(bag)
            for frame in bag:
                postings.setdefault(frame, []).append(key_id)
        return cls(
            pool=tuple(pool),
            first={key: positions[0] for key, positions in groups.items()},
            key_ids=tuple(key_ids),
            bags=tuple(bags),
            postings=postings,
        )

    def sharing(self, query: Sequence[str]) -> list[int]:
        """Ids of the keys that share a frame with ``query``, ascending; for
        an empty query, the id of the empty key if there is one. Every
        other key's similarity to ``query`` is exactly 0.0: with no token
        in common the distance is the longer length."""
        if not query:
            return [self.key_ids[self.first[()]]] if () in self.first else []
        return sorted({key_id for frame in set(query) for key_id in self.postings.get(frame, ())})


# What the locators accept as a pool: the crashes, or their index.
Pool = Union[Sequence["LabeledCrash"], SubtraceIndex]


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Levenshtein distance with unit-cost insert/delete/substitute.

    The common prefix and suffix are stripped, as they cost nothing; the
    rest runs Myers' bit-vector algorithm (JACM 46(3), 1999) in Hyyrö's
    global-distance form (2001), one Python int per column of the DP:
    bit i of ``pv``/``mv`` says that cell i+1 of the column is one more or
    one less than cell i. The shorter side is the pattern, so each column
    is one word-parallel step over at most min(|a|, |b|) bits.
    """
    end_a, end_b = len(a), len(b)
    start = 0
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    text, pattern = a[start:end_a], b[start:end_b]
    if len(text) < len(pattern):
        text, pattern = pattern, text
    if not pattern:
        return len(text)
    masks: dict = {}
    bit = 1
    for token in pattern:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    width = bit - 1  # the pattern's bits; ``~`` is negative, so mask after it
    top = bit >> 1  # the last cell of the column, where the distance is read
    pv, mv, distance = width, 0, len(pattern)
    for token in text:
        eq = masks.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            distance += 1
        elif mh & top:
            distance -= 1
        ph = (ph << 1) | 1  # row 0 grows by one per text token
        mh <<= 1
        pv = (mh | ~(xv | ph)) & width
        mv = ph & xv
    return distance


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
    earliest crash of the best score. A key is skipped when an upper bound
    on its score cannot beat the best so far: the length difference, then
    the bag distance (Bartolini, Ciaccia and Patella, SPIRE 2002), are
    lower bounds on the edit distance, and ``1.0 - d / longest`` is
    monotone in d under float rounding, so no skipped key could win.
    """
    index = SubtraceIndex.of(pool)
    if not index.pool:
        raise EmptyPool("cannot pick the most similar crash from an empty pool")
    seq = frame_seq(query)
    bag = Counter(seq)
    best, best_score = None, -1.0
    for key_bag, (key, position) in zip(index.bags, index.first.items()):
        longest = max(len(seq), len(key))
        if longest and (
            1.0 - abs(len(seq) - len(key)) / longest <= best_score
            or 1.0 - (longest - shared_frames(bag, key_bag)) / longest <= best_score
        ):
            continue
        score = crash_similarity(query, index.pool[position].report)
        if score > best_score:
            best, best_score = position, score
    return index.pool[best], best_score
