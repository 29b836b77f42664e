"""The fast similarity paths agree exactly with the code they replaced.

``reference_edit_distance`` is the row DP kept verbatim; on sequences over
small alphabets with heavy repetition and lengths around the word size,
the bit-parallel ``edit_distance`` must return the same distance, and the
bag distance that the nearest-crash search uses to skip keys must never
exceed it.

``reference_linear_most_similar``, ``reference_infer_handled_api`` and
``reference_locate_category_c`` are the linear versions kept verbatim: one
similarity per pool entry, the nearest crash found by value with
``list.index``, the Category-C sums built entry by entry. On random pools
with repeated, permuted and near-duplicate sub-traces, empty sub-traces,
sub-traces sharing no frame with the query, ties and duplicate crashes,
the indexed locators must return the same nearest crash,
``training_index``, score and every Category-C mean (``==`` on floats).

``reference_most_similar`` is the bounded scan kept verbatim: every key in
id order, skipped when its length or bag bound cannot beat the best so
far. ``most_similar``, which visits the sharing keys in decreasing bound,
stops early and answers in closed form when no sharing key scores above
0.0, must return the same crash and score.

``reference_indexed_locate_category_c`` is the Category-C locator that
scored each sharing sub-trace with its own ``crash_similarity`` call and
checked the labels on every query, kept verbatim. On random pools over
small alphabets, with repeated and empty keys and keys of 63, 64, 65 and
more frames, the packed pass (``PackedKeys``) must give every key the
distance ``edit_distance`` gives it, and ``locate_category_c`` the same
means, ranking and provenance as both references.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from functools import reduce
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from crashloc.appmodel import ApiRef
from crashloc.corpus import LabeledCrash
from crashloc.errors import EmptyPool, SchemaError
from crashloc.localizer import (
    SUB_CATEGORIES,
    IndexB,
    IndexC,
    LocalizationResult,
    Pipeline,
    SubCategory,
    infer_handled_api,
    locate_category_c,
)
from crashloc.nb import Category
from crashloc.similarity import (
    Pool,
    SubtraceIndex,
    crash_similarity,
    edit_distance,
    frame_seq,
    group_by_subtrace,
    most_similar,
)
from crashloc.trace import CrashReport

from conftest import make_report


def reference_edit_distance(a: Sequence, b: Sequence) -> int:
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


def reference_linear_most_similar(query: CrashReport, pool: Sequence["LabeledCrash"]) -> tuple["LabeledCrash", float]:
    """Pool element with the highest similarity; ties keep the earliest."""
    if not pool:
        raise EmptyPool("cannot pick the most similar crash from an empty pool")
    best, best_score = pool[0], crash_similarity(query, pool[0].report)
    for candidate in pool[1:]:
        score = crash_similarity(query, candidate.report)
        if score > best_score:
            best, best_score = candidate, score
    return best, best_score


def shared_frames(a: Counter, b: Counter) -> int:
    """Size of the multiset intersection of two frame bags (frame -> count)."""
    return sum(min(a[frame], b[frame]) for frame in a.keys() & b.keys())


def reference_most_similar(query: CrashReport, pool: Pool) -> tuple[LabeledCrash, float]:
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


def reference_infer_handled_api(
    report: CrashReport, training_b: Sequence["LabeledCrash"]
) -> tuple[ApiRef, dict]:
    """Wrongly handled API of the most similar Category-B training crash."""
    if not training_b:
        raise EmptyPool("no Category-B training crashes to infer the handled API from")
    for i, crash in enumerate(training_b):
        if crash.api_h is None:
            raise ValueError(f"training crash {i} carries no handled-API label")
    nearest, score = reference_linear_most_similar(report, training_b)
    provenance = {
        "strategy": "nearest_crash",
        "api_h": nearest.api_h.to_json_obj(),
        "similarity": score,
        "training_index": training_b.index(nearest),
        "low_confidence": score == 0.0,
    }
    return nearest.api_h, provenance


def reference_locate_category_c(
    report: CrashReport, training_c: Sequence["LabeledCrash"]
) -> LocalizationResult:
    """Rank sub-categories by mean similarity to their training crashes."""
    if not training_c:
        raise EmptyPool("no Category-C training crashes to compare against")
    sums: dict[SubCategory, float] = {}
    counts: dict[SubCategory, int] = {}
    for i, crash in enumerate(training_c):
        if crash.sub_category is None:
            raise ValueError(f"training crash {i} carries no sub-category label")
        score = crash_similarity(report, crash.report)
        sums[crash.sub_category] = sums.get(crash.sub_category, 0.0) + score
        counts[crash.sub_category] = counts.get(crash.sub_category, 0) + 1
    means = {sub: sums[sub] / counts[sub] for sub in sums}
    ranked = tuple(
        (sub, means[sub])
        for sub in sorted(means, key=lambda s: (-means[s], SUB_CATEGORIES.index(s)))
    )
    return LocalizationResult(
        predicted_category=Category.C,
        ranked=ranked,
        provenance={
            "strategy": "subcategory_mean",
            "means": {sub.value: means[sub] for sub in SUB_CATEGORIES if sub in means},
        },
    )


def reference_indexed_locate_category_c(report: CrashReport, training_c: Pool) -> LocalizationResult:
    """Rank sub-categories by mean similarity to their training crashes.

    Each distinct sub-trace that shares a frame with the query is scored
    once; every other one scores exactly 0.0. The sums still add one score
    per training crash in pool order, so the means are those of the
    per-crash loop to the last bit.
    """
    index = SubtraceIndex.of(training_c)
    if not index.pool:
        raise EmptyPool("no Category-C training crashes to compare against")
    key_scores = [0.0] * len(index.heads)
    for key_id in index.sharing(frame_seq(report)):
        key_scores[key_id] = crash_similarity(report, index.pool[index.heads[key_id]].report)
    sums: dict[SubCategory, float] = {}
    counts: dict[SubCategory, int] = {}
    for i, (crash, key_id) in enumerate(zip(index.pool, index.key_ids)):
        if crash.sub_category is None:
            raise SchemaError(f"training crash {i} carries no sub-category label")
        sums[crash.sub_category] = sums.get(crash.sub_category, 0.0) + key_scores[key_id]
        counts[crash.sub_category] = counts.get(crash.sub_category, 0) + 1
    means = {sub: sums[sub] / counts[sub] for sub in sums}
    ranked = tuple(
        (sub, means[sub])
        for sub in sorted(means, key=lambda s: (-means[s], SUB_CATEGORIES.index(s)))
    )
    return LocalizationResult(
        predicted_category=Category.C,
        ranked=ranked,
        provenance={
            "strategy": "subcategory_mean",
            "means": {sub.value: means[sub] for sub in SUB_CATEGORIES if sub in means},
        },
    )


# ---------------------------------------------------------------------------
# Edit distance
# ---------------------------------------------------------------------------

@st.composite
def token_pairs(draw):
    """Two sequences over one alphabet of 1-5 tokens, lengths 0-70; the
    second is often an edited copy of the first, so that long common
    prefixes and suffixes occur."""
    alphabet = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    tokens = st.sampled_from(alphabet)
    a = draw(st.lists(tokens, max_size=70))
    if draw(st.booleans()):
        return tuple(a), tuple(draw(st.lists(tokens, max_size=70)))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(b)))
        edit = draw(st.sampled_from(("insert", "delete", "substitute")))
        if edit == "insert" or at == len(b):
            b.insert(at, draw(tokens))
        elif edit == "delete":
            del b[at]
        else:
            b[at] = draw(tokens)
    return tuple(a), tuple(b)


# Patterns of 63, 64 and 65 tokens left once the common prefix and suffix
# are stripped: one short of, exactly, and one past a 64-bit word, where a
# fixed-width kernel would carry into a second word.
WORD_EDGES = [
    (("f1",) + ("f0",) * 62, ("f0", "f1") * 32),
    (("f0", "f1") * 32, ("f1", "f0") * 32 + ("f2",)),
    (("f2",) + ("f0", "f1") * 32, ("f1", "f0") * 32 + ("f0",)),
    (("f2",) + ("f0", "f1") * 32, ("f0",) * 65 + ("f2",)),
]


def _with_word_edges(test):
    for pair in WORD_EDGES:
        test = example(pair=pair)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(pair=token_pairs())
@_with_word_edges
def test_edit_distance_matches_row_dp(pair):
    a, b = pair
    expected = reference_edit_distance(a, b)
    assert edit_distance(a, b) == expected
    assert edit_distance(b, a) == expected
    assert edit_distance(list(a), list(b)) == expected


@settings(max_examples=300, deadline=None)
@given(pair=token_pairs())
@_with_word_edges
def test_bag_distance_never_exceeds_edit_distance(pair):
    a, b = pair
    bag_distance = max(len(a), len(b)) - shared_frames(Counter(a), Counter(b))
    assert abs(len(a) - len(b)) <= bag_distance <= reference_edit_distance(a, b)


# ---------------------------------------------------------------------------
# Random pools
# ---------------------------------------------------------------------------

FRAMES = ("android.a.A.a", "android.b.B.b", "android.c.C.c", "android.d.D.d")
# Frames no query holds, so that some keys share no frame with the query.
POOL_ONLY = ("android.e.E.e", "android.f.F.f")
APIS = tuple(ApiRef(f"android.x.{name}", "m", "call-in") for name in "PQR")


def _subtraces(frames) -> st.SearchStrategy:
    # Up to 6 frames, so scores include sixths, whose sums depend on their order.
    return st.lists(st.sampled_from(frames), max_size=6).map(tuple)


subtraces = _subtraces(FRAMES)
keys = st.one_of(subtraces, _subtraces(POOL_ONLY), _subtraces(FRAMES[:1] + POOL_ONLY))


def _crash(subtrace, api, sub) -> LabeledCrash:
    """A crash carrying both labels, so one pool serves the B and C locators."""
    return LabeledCrash(report=make_report(framework=subtrace), category=Category.C,
                        true_location="Manifest", api_h=api, sub_category=sub)


@st.composite
def pools(draw):
    """Pools in which sub-traces repeat, nearly repeat, reappear permuted (a
    distinct key of the same length and frame bag, so scores tie) or are
    empty, and crashes reappear as the same object or as an equal copy."""
    pool: list[LabeledCrash] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("new", "new", "same", "copy", "same-subtrace", "permuted")))
        if kind == "new" or not pool:
            pool.append(_crash(draw(keys), draw(st.sampled_from(APIS)),
                               draw(st.sampled_from(SUB_CATEGORIES))))
            continue
        earlier = draw(st.sampled_from(pool))
        if kind == "same":
            pool.append(earlier)
        elif kind == "copy":
            pool.append(_crash(earlier.report.subtrace_key, earlier.api_h, earlier.sub_category))
        else:
            subtrace = earlier.report.subtrace_key
            if kind == "permuted":
                subtrace = tuple(draw(st.permutations(subtrace)))
            pool.append(_crash(subtrace, draw(st.sampled_from(APIS)),
                               draw(st.sampled_from(SUB_CATEGORIES))))
    return pool


@settings(max_examples=300, deadline=None)
@given(pool=pools(), query=subtraces)
@example(pool=[_crash(FRAMES[:1], APIS[0], SubCategory.HARDWARE),
               _crash((), APIS[1], SubCategory.HARDWARE),
               _crash(POOL_ONLY, APIS[2], SubCategory.ASSET)], query=())
def test_index_agrees_with_per_entry_scans(pool, query):
    report = make_report(framework=query)
    index = SubtraceIndex.of(pool)

    ref_best, ref_score = reference_linear_most_similar(report, pool)
    for given_pool in (pool, index):
        best, score = most_similar(report, given_pool)
        assert best is ref_best and score == ref_score

    ref_api, ref_provenance = reference_infer_handled_api(report, pool)
    api, provenance = infer_handled_api(report, index)
    assert api is ref_api and provenance == ref_provenance
    assert provenance["training_index"] == pool.index(ref_best)

    expected = reference_locate_category_c(report, pool)
    actual = locate_category_c(report, index)
    assert actual == expected
    assert actual.provenance["means"] == expected.provenance["means"]


def _pool_of(*subtraces) -> list[LabeledCrash]:
    return [_crash(subtrace, APIS[i % len(APIS)], SubCategory.HARDWARE)
            for i, subtrace in enumerate(subtraces)]


A, B, C, D = FRAMES
X, Y = POOL_ONLY


@settings(max_examples=500, deadline=None)
@given(pool=pools(), query=subtraces)
# Key 1's bound (1.0) is visited first and scores 1/3; key 0's bound equals
# that score, and key 0 ties it at an earlier id, so the search must not
# stop at an equal bound.
@example(pool=_pool_of((A, X, Y), (A, C, B)), query=(A, B, C))
# Permuted keys: equal bags, so equal bounds, visited by key id.
@example(pool=_pool_of((B, A), (A, B), (A, B), (B, A)), query=(A, B))
# Every sharing key scores 0.0, so a key sharing no frame, earlier in the
# pool, is the nearest crash.
@example(pool=_pool_of((X,), (B, A)), query=(A, C))
@example(pool=_pool_of((X, Y), (Y,)), query=(A,))
# An empty key and an empty query; an empty query and no empty key.
@example(pool=_pool_of((A,), (), ()), query=())
@example(pool=_pool_of((A,), (B,)), query=())
@example(pool=_pool_of((), (A,)), query=(A,))
def test_threshold_search_matches_the_bounded_scan(pool, query):
    report = make_report(framework=query)
    ref_best, ref_score = reference_most_similar(report, pool)
    for given_pool in (pool, SubtraceIndex.of(pool)):
        best, score = most_similar(report, given_pool)
        assert best is ref_best and score == ref_score


@given(pool=pools())
def test_index_is_the_bucketing_of_its_pool(pool):
    index = SubtraceIndex.of(pool)
    groups = group_by_subtrace(pool)
    assert list(index.first) == list(groups)
    assert list(index.first.values()) == [positions[0] for positions in groups.values()]
    assert index.heads == tuple(index.first.values())
    for key_id, positions in enumerate(groups.values()):
        assert [index.key_ids[p] for p in positions] == [key_id] * len(positions)
    for key_id, key in enumerate(groups):
        assert index.bags[key_id] == Counter(key)
    frames = {frame for key in groups for frame in key}
    assert index.postings == {
        frame: [key_id for key_id, key in enumerate(groups) if frame in key] for frame in frames
    }
    assert SubtraceIndex.of(index) is index


def test_category_c_means_add_one_score_per_crash_in_pool_order():
    # Sixths do not add associatively: 1/6 + 1/2 + 1/2 + 1/6 differs in its
    # last bit from 2 * (1/6) + 2 * (1/2), so only the per-crash order gives
    # the reference's mean.
    query = tuple(f"android.q.Q.f{i}" for i in range(6))
    sixth = query[:1] + tuple(f"android.x.X.f{i}" for i in range(5))
    half = query[:3] + tuple(f"android.x.X.f{i}" for i in range(3))
    pool = [_crash(s, APIS[0], SubCategory.HARDWARE) for s in (sixth, half, half, sixth)]
    report = make_report(framework=query)
    expected = reference_locate_category_c(report, pool)
    grouped = 2 * (1 - 5 / 6) + 2 * (1 - 3 / 6)
    assert expected.provenance["means"]["Hardware"] != grouped / 4
    assert locate_category_c(report, pool) == expected


def test_category_c_means_add_left_to_right_not_compensated():
    # Six scores of 1 - 2/3 add left to right to 2.0000000000000004, and to
    # 2.0 exactly rounded, as the built-in sum gives from Python 3.12 on,
    # when it began to compensate float sums.
    query = tuple(f"android.q.Q.f{i}" for i in range(3))
    third = query[:1] + ("android.x.X.f1", "android.x.X.f2")
    pool = [_crash(third, APIS[0], SubCategory.HARDWARE)] * 6
    scores = [1.0 - 2 / 3] * 6
    left_to_right = reduce(operator.add, scores)
    assert left_to_right != math.fsum(scores)
    report = make_report(framework=query)
    mean = locate_category_c(report, pool).provenance["means"]["Hardware"]
    assert mean == left_to_right / 6 != math.fsum(scores) / 6
    assert locate_category_c(report, pool) == reference_locate_category_c(report, pool)


# Keys around a 64-bit word and well past it, so that segments straddle
# word boundaries of the packed ints.
_LONG = (63, 64, 65, 130)


@st.composite
def packed_pools(draw):
    """A pool over an alphabet of 1-4 frames, so frames repeat within and
    across keys, and a query over the same alphabet plus a frame no key
    holds. Keys repeat (as the same crash or a new one under another
    sub-category), are empty, or run to 63, 64, 65 and 130 frames."""
    alphabet = FRAMES[:draw(st.integers(1, len(FRAMES)))]

    def sequence(extra=()):
        length = draw(st.one_of(st.integers(0, 8), st.sampled_from(_LONG)))
        return tuple(draw(st.lists(st.sampled_from(alphabet + extra),
                                   min_size=length, max_size=length)))

    pool: list[LabeledCrash] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("new", "new", "same", "same-subtrace", "empty")))
        sub = draw(st.sampled_from(SUB_CATEGORIES))
        if kind == "same" and pool:
            pool.append(draw(st.sampled_from(pool)))
        elif kind == "same-subtrace" and pool:
            pool.append(_crash(draw(st.sampled_from(pool)).report.subtrace_key, APIS[0], sub))
        else:
            pool.append(_crash(() if kind == "empty" else sequence(), APIS[0], sub))
    return pool, sequence(POOL_ONLY[:1])


@settings(max_examples=200, deadline=None)
@given(drawn=packed_pools())
@example(drawn=(_pool_of((A,) * 64, (), (B,) * 65), ()))
@example(drawn=(_pool_of((A, B) * 32 + (A,), (B,) * 63, (), (B,) * 63), (B, A) * 33))
def test_packed_pass_matches_edit_distance_and_both_references(drawn):
    pool, query = drawn
    training = IndexC.of(pool)
    keys = list(training.index.first)
    ids = list(reversed(range(len(keys))))
    assert training.packed.distances(query, ids) == [edit_distance(query, keys[k]) for k in ids]
    assert training.packed.lengths == tuple(map(len, keys))

    report = make_report(framework=query)
    expected = reference_locate_category_c(report, pool)
    assert reference_indexed_locate_category_c(report, pool) == expected
    for given_pool in (pool, training):
        assert locate_category_c(report, given_pool) == expected


def test_each_index_checks_its_labels_when_built():
    pool = _pool_of((A,), (B,), (C,))
    pool[2:] = [LabeledCrash(report=pool[2].report, category=Category.C,
                             true_location="Manifest")]
    for build, label in ((IndexB.of, "handled-API"), (IndexC.of, "sub-category")):
        with pytest.raises(SchemaError, match=f"^training crash 2 carries no {label} label$"):
            build(pool)
        with pytest.raises(SchemaError, match=f"^training crash 2 carries no {label} label$"):
            build(SubtraceIndex.of(pool))
    for build in (IndexB.of, IndexC.of):
        index = build(pool[:2])
        assert index.pool == tuple(pool[:2])
        assert build(index) is index


def test_pipeline_indexes_each_pool_once_and_only_when_used(corpus):
    pipeline = Pipeline(nb=None, corpus=tuple(corpus))
    query = corpus[0].report
    pipeline.locate_as(Category.A, query, None)
    assert "index_b" not in vars(pipeline) and "index_c" not in vars(pipeline)
    first = pipeline.locate_as(Category.C, query, None)
    assert "index_b" not in vars(pipeline)
    index_c = pipeline.index_c
    assert pipeline.locate_as(Category.C, query, None) == first
    assert pipeline.index_c is index_c
    assert pipeline.index_c.pool == tuple(c for c in corpus if c.category is Category.C)
