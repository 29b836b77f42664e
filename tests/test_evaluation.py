from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from crashloc.config import Config
from crashloc.corpus import LabeledCrash
from crashloc.errors import CorpusTooSmall, EmptySet
from crashloc.evaluation import (
    bucketize,
    evaluate,
    kfold_indices,
    kfold_split,
    mrr,
    recall_at_k,
    render_text,
    score_summary_by_bucket,
    shuffled_indices,
)
from crashloc.localizer import SubCategory
from crashloc.nb import Category
from crashloc.similarity import frame_seq

from conftest import make_report


def _labeled_a(report) -> LabeledCrash:
    return LabeledCrash(report=report, category=Category.A, true_location="x#y")


# ---------------------------------------------------------------------------
# Bucketing
# ---------------------------------------------------------------------------

def test_bucketize_distinct_seqs_are_singletons():
    crashes = [
        _labeled_a(make_report(framework=(f"android.a.C{i}.m",))) for i in range(4)
    ]
    buckets = bucketize(crashes)
    assert len(buckets) == 4
    assert all(len(b.members) == 1 for b in buckets)


def test_bucketize_groups_identical_seqs():
    twinated = make_report(framework=("android.a.A.m", "android.b.B.n"))
    other = make_report(framework=("android.a.A.m",))
    crashes = [_labeled_a(twinated), _labeled_a(other),
               _labeled_a(make_report(framework=("android.a.A.m", "android.b.B.n")))]
    buckets = bucketize(crashes)
    assert [len(b.members) for b in buckets] == [2, 1]
    assert buckets[0].key == ("android.a.A.m", "android.b.B.n")


def test_bucketize_fixture_corpus_matches_hash_oracle(corpus):
    buckets = bucketize(corpus)
    oracle: dict = {}
    for crash in corpus:
        oracle.setdefault(frame_seq(crash.report), []).append(crash)
    assert len(buckets) == len(oracle)
    for bucket in buckets:
        assert all(frame_seq(m.report) == bucket.key for m in bucket.members)
        assert len(bucket.members) == len(oracle[bucket.key])


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

def test_kfold_500_into_5_disjoint_hundreds():
    folds = kfold_indices(500, 5, seed=0)
    assert len(folds) == 5
    seen: set[int] = set()
    for train, test in folds:
        assert len(test) == 100
        assert len(train) == 400
        assert not (seen & set(test))
        seen |= set(test)
        assert set(train) | set(test) == set(range(500))
    assert seen == set(range(500))


def test_kfold_split_small_and_uneven():
    pairs = kfold_split(list(range(10)), 5, seed=1)
    assert [len(test) for _, test in pairs] == [2, 2, 2, 2, 2]
    folds = kfold_indices(7, 3, seed=1)
    assert sorted(len(t) for _, t in folds) == [2, 2, 3]


def test_kfold_same_seed_same_split_different_seed_differs():
    a = kfold_indices(50, 5, seed=42)
    b = kfold_indices(50, 5, seed=42)
    c = kfold_indices(50, 5, seed=43)
    assert a == b
    assert a != c


def test_kfold_too_small():
    with pytest.raises(CorpusTooSmall):
        kfold_indices(3, 5, seed=0)


def test_shuffle_is_a_permutation():
    out = shuffled_indices(100, seed=7)
    assert sorted(out) == list(range(100))


# ---------------------------------------------------------------------------
# Rank metrics
# ---------------------------------------------------------------------------

def test_recall_at_k_examples():
    assert recall_at_k([1, 3, 12], 5) == pytest.approx(2 / 3)
    assert recall_at_k([1, 1], 1) == 1.0
    assert recall_at_k([1, None], 1) == 0.5
    assert recall_at_k([], 1) == 0.0


def test_mrr_examples():
    assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-12)
    assert mrr([1, 1, 1]) == 1.0
    assert mrr([1, None]) == 0.5
    with pytest.raises(EmptySet):
        mrr([])


@given(st.lists(st.one_of(st.none(), st.integers(1, 50)), min_size=1, max_size=30))
def test_property_recall_monotone_in_k(ranks):
    values = [recall_at_k(ranks, k) for k in range(1, 60)]
    assert values == sorted(values)
    located = sum(1 for r in ranks if r is not None) / len(ranks)
    assert values[-1] == pytest.approx(located)
    assert recall_at_k(ranks, 1) <= mrr(ranks) <= located + 1e-12


# ---------------------------------------------------------------------------
# Bucket-level summary
# ---------------------------------------------------------------------------

def test_bucket_summary_singletons_equal_per_case():
    crashes = [
        _labeled_a(make_report(framework=(f"android.a.C{i}.m",))) for i in range(3)
    ]
    ranks = [1, None, 2]
    summary = score_summary_by_bucket(crashes, ranks)
    assert summary["buckets"] == 3
    assert summary["mrr"] == pytest.approx(mrr(ranks))
    assert summary["recall_at"]["1"] == pytest.approx(recall_at_k(ranks, 1))


def test_bucket_summary_weights_bucket_once():
    shared = ("android.a.A.m",)
    crashes = [_labeled_a(make_report(framework=shared)) for _ in range(4)]
    crashes.append(_labeled_a(make_report(framework=("android.b.B.n",))))
    ranks = [1, 9, 9, 9, None]
    summary = score_summary_by_bucket(crashes, ranks)
    assert summary["buckets"] == 2
    # First member represents the 4-crash bucket: ranks [1, None].
    assert summary["mrr"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

def test_evaluate_reproducible_and_monotone(corpus, config):
    r1 = evaluate(corpus, config)
    r2 = evaluate(corpus, config)
    assert r1.to_json() == r2.to_json()
    for block in r1.localization.values():
        recalls = [block["total"]["recall_at"][str(k)] for k in (1, 5, 10)]
        assert recalls == sorted(recalls)
    # Confusion totals cover the corpus exactly.
    total = sum(sum(row.values()) for row in r1.confusion.values())
    assert total == len(corpus)


def test_evaluate_perfect_protocol_tops_out(corpus, config):
    report = evaluate(corpus, config, protocol="perfect_categorization")
    assert report.protocol == "perfect_categorization"
    assert report.mrr == 1.0
    assert report.recall_at["1"] == 1.0
    assert report.localization["perfect_categorization"]["total"]["mrr"] == 1.0


def test_evaluate_case_ranks_align_with_corpus(corpus, config):
    report = evaluate(corpus, config)
    for ranks in report.case_ranks.values():
        assert len(ranks) == len(corpus)
    perfect = report.case_ranks["perfect_categorization"]
    assert all(rank == 1 for rank in perfect)
    summary = score_summary_by_bucket(corpus, perfect)
    assert summary["mrr"] == 1.0
    assert summary["buckets"] == 10


def test_evaluate_seed_changes_split_not_validity(corpus):
    report = evaluate(corpus, Config(seed=99), protocol="perfect_categorization")
    assert report.seed == 99
    assert report.fold_count == 5


def test_evaluate_deliberate_miscategorization_lands_off_diagonal():
    # Four look-alike Category-A crashes plus four Category-C crashes, one of
    # which wears the Category-A family's sub-trace and message. Whatever fold
    # it lands in, its tokens match the A family, so Phase 1 calls it A.
    a_like = dict(
        exception="java.lang.NullPointerException",
        message="null view in adapter",
        framework=("android.widget.GridView.layout", "android.widget.GridView.draw"),
    )
    crashes = [
        _labeled_a(make_report(developer=(f"com.app{i}.Main.show",), **a_like))
        for i in range(4)
    ]
    c_like = dict(
        exception="java.lang.SecurityException",
        message="Permission Denial: opening provider",
        framework=("android.os.Parcel.readException",),
    )
    for i in range(3):
        crashes.append(
            LabeledCrash(
                report=make_report(developer=(f"com.prov{i}.Main.query",), **c_like),
                category=Category.C,
                true_location="Manifest",
                sub_category=SubCategory.MANIFEST,
            )
        )
    crashes.append(
        LabeledCrash(
            report=make_report(developer=("com.odd.Main.show",), **a_like),
            category=Category.C,
            true_location="Manifest",
            sub_category=SubCategory.MANIFEST,
        )
    )
    report = evaluate(crashes, Config(kfold_k=2, seed=0))
    off_diagonal = sum(
        report.confusion[p.value][a.value]
        for p in Category
        for a in Category
        if p is not a
    )
    assert report.confusion["A"]["C"] == 1
    assert off_diagonal == 1


def test_evaluate_records_locate_failures(corpus):
    # A Category-B crash without an app model cannot be localized; the case
    # must surface in `failures` and count as a miss, not abort the run.
    from dataclasses import replace as dc_replace

    stripped = [
        dc_replace(c, app_model=None) if c.category is Category.B else c
        for c in corpus
    ]
    report = evaluate(stripped, Config(seed=0), protocol="perfect_categorization")
    b_failures = [f for f in report.failures if f["error"] == "LocateError"]
    assert len(b_failures) >= 10  # every B case, in at least one protocol
    assert {f["message"] for f in b_failures} == {
        "[locate] crash categorized as B but no app model given"
    }
    assert report.mrr < 1.0
    assert report.localization["perfect_categorization"]["per_category"]["B"]["mrr"] == 0.0


def test_render_text_contains_tables(corpus, config):
    text = render_text(evaluate(corpus, config))
    assert "Categorization" in text
    assert "Localization under perfect categorization" in text
    assert "Recall@10" in text
    assert "MRR" in text
