"""The sub-trace index agrees exactly with the per-entry scans it replaced.

``reference_most_similar``, ``reference_infer_handled_api`` and
``reference_locate_category_c`` are the linear versions kept verbatim: one
similarity per pool entry, the nearest crash found by value with
``list.index``, the Category-C sums built entry by entry. On random pools
with repeated and near-duplicate sub-traces, empty sub-traces, ties and
duplicate crashes, the indexed locators must return the same nearest crash,
``training_index``, score and every Category-C mean (``==`` on floats).
"""
from __future__ import annotations

from typing import Sequence

from hypothesis import given, settings, strategies as st

from crashloc.appmodel import ApiRef
from crashloc.corpus import LabeledCrash
from crashloc.errors import EmptyPool
from crashloc.localizer import (
    SUB_CATEGORIES,
    LocalizationResult,
    Pipeline,
    SubCategory,
    _require_split,
    infer_handled_api,
    locate_category_c,
)
from crashloc.nb import Category
from crashloc.similarity import SubtraceIndex, crash_similarity, group_by_subtrace, most_similar
from crashloc.trace import CrashReport

from conftest import make_report


def reference_most_similar(query: CrashReport, pool: Sequence["LabeledCrash"]) -> tuple["LabeledCrash", float]:
    """Pool element with the highest similarity; ties keep the earliest."""
    if not pool:
        raise EmptyPool("cannot pick the most similar crash from an empty pool")
    best, best_score = pool[0], crash_similarity(query, pool[0].report)
    for candidate in pool[1:]:
        score = crash_similarity(query, candidate.report)
        if score > best_score:
            best, best_score = candidate, score
    return best, best_score


def reference_infer_handled_api(
    report: CrashReport, training_b: Sequence["LabeledCrash"]
) -> tuple[ApiRef, dict]:
    """Wrongly handled API of the most similar Category-B training crash."""
    if not training_b:
        raise EmptyPool("no Category-B training crashes to infer the handled API from")
    for i, crash in enumerate(training_b):
        if crash.api_h is None:
            raise ValueError(f"training crash {i} carries no handled-API label")
    nearest, score = reference_most_similar(report, training_b)
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
    _require_split(report)
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


# ---------------------------------------------------------------------------
# Random pools
# ---------------------------------------------------------------------------

FRAMES = ("android.a.A.a", "android.b.B.b", "android.c.C.c", "android.d.D.d")
APIS = tuple(ApiRef(f"android.x.{name}", "m", "call-in") for name in "PQR")

# Up to 6 frames, so scores include sixths, whose sums depend on their order.
subtraces = st.lists(st.sampled_from(FRAMES), max_size=6).map(tuple)


def _crash(subtrace, api, sub) -> LabeledCrash:
    """A crash carrying both labels, so one pool serves the B and C locators."""
    return LabeledCrash(report=make_report(framework=subtrace), category=Category.C,
                        true_location="Manifest", api_h=api, sub_category=sub)


@st.composite
def pools(draw):
    """Pools in which sub-traces repeat, nearly repeat or are empty, and crashes
    reappear as the same object or as an equal copy."""
    pool: list[LabeledCrash] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("new", "new", "same", "copy", "same-subtrace")))
        if kind == "new" or not pool:
            pool.append(_crash(draw(subtraces), draw(st.sampled_from(APIS)),
                               draw(st.sampled_from(SUB_CATEGORIES))))
            continue
        earlier = draw(st.sampled_from(pool))
        if kind == "same":
            pool.append(earlier)
        elif kind == "copy":
            pool.append(_crash(earlier.report.subtrace_key, earlier.api_h, earlier.sub_category))
        else:
            pool.append(_crash(earlier.report.subtrace_key, draw(st.sampled_from(APIS)),
                               draw(st.sampled_from(SUB_CATEGORIES))))
    return pool


@settings(max_examples=300, deadline=None)
@given(pool=pools(), query=subtraces)
def test_index_agrees_with_per_entry_scans(pool, query):
    report = make_report(framework=query)
    index = SubtraceIndex.of(pool)

    ref_best, ref_score = reference_most_similar(report, pool)
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


@given(pool=pools())
def test_index_is_the_bucketing_of_its_pool(pool):
    index = SubtraceIndex.of(pool)
    groups = group_by_subtrace(pool)
    assert list(index.first) == list(groups)
    assert list(index.first.values()) == [positions[0] for positions in groups.values()]
    for key_id, positions in enumerate(groups.values()):
        assert [index.key_ids[p] for p in positions] == [key_id] * len(positions)
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
