"""Crash-to-crash similarity over framework sub-trace frame sequences.

Distance is token-level Levenshtein (whole frames are the tokens, compared
for equality only), normalized to a similarity in [0, 1] by the longer
sequence length. Similarity depends on the sub-traces alone, so a pool of
labeled crashes is compared through its ``SubtraceIndex``: each distinct
sub-trace once, whatever the number of crashes sharing it, and only when
the index's postings and lengths cannot prove the score beforehand.
``PackedKeys`` compares one text with many keys in a single bit-parallel
pass, for a locator that needs every key's score; ``edit_distance``, which
compares two sequences, is its one-key case, and both run the same column
steps (``_last_column``).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Sequence, Union

from .corpus import LabeledCrash
from .errors import EmptyPool
from .trace import CrashReport


def frame_seq(report: CrashReport) -> tuple[str, ...]:
    """Qualified frame names of the framework sub-trace, topmost first."""
    return report.subtrace_key


def group_by_subtrace(crashes: Iterable[LabeledCrash]) -> dict[tuple[str, ...], list[int]]:
    """Positions of the crashes per distinct framework sub-trace (the paper's
    bucketing); keys and positions in first-occurrence order."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for position, crash in enumerate(crashes):
        groups.setdefault(frame_seq(crash.report), []).append(position)
    return groups


@dataclass(frozen=True, slots=True)
class SubtraceIndex:
    """A pool of labeled crashes grouped by framework sub-trace.

    ``first`` maps each distinct sub-trace (a key) to the pool position of
    its first crash, in first-occurrence order; a key's id is its ordinal
    in ``first``, ``heads[k]`` is the pool position of key k's first
    crash, ``key_ids[i]`` is the id of pool entry i's key and
    ``lengths[k]`` is key k's length. ``postings`` maps each frame to the
    ids of the keys holding it, and ``repeats[frame][j]`` to the ids of the
    keys holding it at least j + 2 times, only for the frames some key
    holds more than once; all id lists ascending.
    """

    pool: tuple[LabeledCrash, ...]
    first: dict[tuple[str, ...], int]
    heads: tuple[int, ...]
    key_ids: tuple[int, ...]
    lengths: tuple[int, ...]
    postings: dict[str, list[int]]
    repeats: dict[str, list[list[int]]]

    @classmethod
    def of(cls, pool: Pool) -> SubtraceIndex:
        """The index of ``pool``, or ``pool`` itself when it is one."""
        if isinstance(pool, cls):
            return pool
        groups = group_by_subtrace(pool)
        key_ids = [0] * len(pool)
        postings: dict[str, list[int]] = {}
        repeats: dict[str, list[list[int]]] = {}
        for key_id, (key, positions) in enumerate(groups.items()):
            for position in positions:
                key_ids[position] = key_id
            for frame, count in Counter(key).items():
                postings.setdefault(frame, []).append(key_id)
                if count > 1:
                    levels = repeats.setdefault(frame, [])
                    levels.extend([] for _ in range(count - 1 - len(levels)))
                    for ids in levels[:count - 1]:
                        ids.append(key_id)
        return cls(
            pool=tuple(pool),
            first={key: positions[0] for key, positions in groups.items()},
            heads=tuple(positions[0] for positions in groups.values()),
            key_ids=tuple(key_ids),
            lengths=tuple(map(len, groups)),
            postings=postings,
            repeats=repeats,
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
Pool = Union[Sequence[LabeledCrash], SubtraceIndex]


def edit_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Levenshtein distance with unit-cost insert/delete/substitute. The
    common prefix and suffix cost nothing and are stripped; the rest is the
    one-key case of ``PackedKeys``, with the shorter side as the key, packed
    at offset 0 without building the record."""
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
    for position, token in enumerate(pattern):
        masks[token] = masks.get(token, 0) | 1 << position
    pv, mv = _last_column(text, masks, 1, (1 << len(pattern)) - 1)
    return len(text) + pv.bit_count() - mv.bit_count()


def _last_column(text: Sequence[Hashable], masks: dict, lows: int, width: int) -> tuple[int, int]:
    """``pv`` and ``mv`` of the last DP column after one column step per
    token of ``text``, for keys packed as ``PackedKeys`` describes."""
    pv, mv = width, 0
    for token in text:
        eq = masks.get(token, 0)
        xv = eq | mv
        xh = ((((eq & pv) + pv) & width) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) & width) << 1 | lows
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & width
        mv = ph & xv
    return pv, mv


@dataclass(frozen=True, slots=True)
class PackedKeys:
    """Sequences packed side by side into Python ints, so that one pass over
    a text gives its edit distance to each: Myers' bit-vector algorithm
    (JACM 46(3), 1999) in Hyyrö's global-distance form (2001), in the
    multiple-pattern form of Hyyrö, Fredriksson and Navarro ("Increased
    bit-parallelism for approximate and multiple string matching", ACM JEA
    10, 2005). Bit i of ``pv``/``mv`` says that cell i+1 of a key's DP
    column is one more or one less than cell i; the ints have no fixed
    width, so a key of any length is exact.

    Key k owns a segment of ``len(k)`` bits starting at ``offsets[k]``,
    followed by one guard bit. ``masks`` maps each token to the bits of the
    positions holding it, ``lows`` has the lowest bit of each non-empty
    segment set and ``width`` every segment bit but no guard bit.
    """

    lengths: tuple[int, ...]
    offsets: tuple[int, ...]
    masks: dict[Hashable, int]
    lows: int
    width: int

    @classmethod
    def of(cls, keys: Iterable[Sequence[Hashable]]) -> PackedKeys:
        lengths, offsets, masks = [], [], {}
        lows = width = offset = 0
        for key in keys:
            lengths.append(len(key))
            offsets.append(offset)
            for position, token in enumerate(key, offset):
                masks[token] = masks.get(token, 0) | 1 << position
            if key:
                lows |= 1 << offset
                width |= ((1 << len(key)) - 1) << offset
            offset += len(key) + 1
        return cls(tuple(lengths), tuple(offsets), masks, lows, width)

    def distances(self, text: Sequence[Hashable], key_ids: Iterable[int]) -> list[int]:
        """Edit distance of ``text`` to each key of ``key_ids``, in that order.

        One column step per token of ``text`` advances every key at once.
        The carry out of a segment's addition stops at its guard bit; that
        carry and ``ph``'s guard bit are masked off before they could shift
        into the next segment, and the row-0 ``+1`` enters at each segment's
        lowest bit. Bits of ``pv``/``mv`` are the +1/-1 vertical differences
        of the final column, so key k's distance is row 0's ``len(text)``
        plus the popcount of ``pv`` minus that of ``mv`` over its segment.
        """
        pv, mv = _last_column(text, self.masks, self.lows, self.width)
        n = len(text)
        lengths, offsets = self.lengths, self.offsets
        out = []
        for key_id in key_ids:
            offset, segment = offsets[key_id], (1 << lengths[key_id]) - 1
            out.append(n + ((pv >> offset) & segment).bit_count()
                       - ((mv >> offset) & segment).bit_count())
        return out


def seq_similarity(a: Sequence, b: Sequence) -> float:
    """1 - distance / max length; two empty sequences count as identical."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest


def crash_similarity(c1: CrashReport, c2: CrashReport) -> float:
    return seq_similarity(frame_seq(c1), frame_seq(c2))


def most_similar(query: CrashReport, pool: Pool) -> tuple[LabeledCrash, float]:
    """Pool element with the highest similarity; ties keep the earliest.

    Each distinct sub-trace is scored once, through its first crash. The
    keys that share a frame with the query get their shared-frame count
    from the postings, plus the repeats for frames the query holds more
    than once, and with it the bag-distance bound on their score
    (Bartolini, Ciaccia and Patella, SPIRE 2002): the edit distance is at
    least ``longest - shared``, and ``1.0 - d / longest`` is monotone in d
    under float rounding. They are visited in decreasing bound, ties by key
    id, until the bound falls below the best score, or equals it at a later
    key id than the best's: no key left could then win or tie earlier
    (the threshold algorithm of Fagin, Lotem and Naor, PODS 2001). A key
    sharing no frame scores exactly 0.0, so when no sharing key scores
    above 0.0 every key scores 0.0 and the first crash wins, except that an
    empty query matches the empty key, if there is one, at 1.0.
    """
    index = SubtraceIndex.of(pool)
    if not index.pool:
        raise EmptyPool("cannot pick the most similar crash from an empty pool")
    seq = frame_seq(query)
    postings, repeats, lengths = index.postings, index.repeats, index.lengths
    rows = []  # per query frame f held c times: postings[f], then repeats[f][:c - 1]
    for frame in set(seq):
        if frame in postings:
            rows.append(postings[frame])
            if frame in repeats:
                rows += repeats[frame][:seq.count(frame) - 1]
    n = len(seq)
    order = []  # (negated bound, key id)
    for key_id, common in Counter(chain.from_iterable(rows)).items():
        longest = lengths[key_id]
        if longest < n:
            longest = n
        order.append((-(1.0 - (longest - common) / longest), key_id))
    order.sort()
    best, best_score = None, -1.0
    for negated, key_id in order:
        bound = -negated
        if bound < best_score or (bound == best_score and key_id > best):
            break
        score = crash_similarity(query, index.pool[index.heads[key_id]].report)
        if score > best_score or (score == best_score and key_id < best):
            best, best_score = key_id, score
    if best_score > 0.0:
        return index.pool[index.heads[best]], best_score
    if not seq and () in index.first:
        return index.pool[index.first[()]], 1.0
    return index.pool[0], 0.0
