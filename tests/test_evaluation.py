from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crashloc import evaluation
from crashloc.config import Config
from crashloc.corpus import LabeledCrash
from crashloc.errors import CorpusTooSmall, EmptySet
from crashloc.evaluation import (
    XorShift64Star,
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
from crashloc.localizer import Pipeline, SubCategory
from crashloc.nb import Category
from crashloc.similarity import frame_seq
from crashloc.trace import FrameworkMatcher, parse_and_split

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


def test_seed_that_zeroes_the_state_shuffles_like_seed_zero():
    # seed XOR 0x9E3779B97F4A7C15 is 0 here, and 0 is replaced by the constant itself.
    assert XorShift64Star(0x9E3779B97F4A7C15).state == XorShift64Star(0).state
    assert shuffled_indices(50, 0x9E3779B97F4A7C15) == shuffled_indices(50, 0)


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


def test_evaluate_records_unlabeled_training_crashes_as_failures(corpus):
    unlabeled = [replace(c, api_h=None, sub_category=None) for c in corpus]
    report = evaluate(unlabeled, Config())
    messages = {Category.B: "training crash 0 carries no handled-API label",
                Category.C: "training crash 0 carries no sub-category label"}
    assert [f for f in report.failures if f["protocol"] == "perfect_categorization"] == [
        {"index": i, "protocol": "perfect_categorization", "phase": "locate",
         "error": "SchemaError", "message": messages[c.category]}
        for i, c in enumerate(corpus) if c.category in messages
    ]
    assert {(f["phase"], f["error"]) for f in report.failures} == {("locate", "SchemaError")}


def _count_locate_as(monkeypatch) -> list:
    """Record (category, report) of every ``Pipeline.locate_as`` call."""
    calls = []
    original = Pipeline.locate_as

    def counting(self, category, report, app_model):
        calls.append((category, report))
        return original(self, category, report, app_model)

    monkeypatch.setattr(Pipeline, "locate_as", counting)
    return calls


def test_evaluate_localizes_each_crash_once_per_category(corpus, monkeypatch):
    calls = _count_locate_as(monkeypatch)
    report = evaluate(corpus, Config(seed=0))
    mispredicted = sum(report.confusion[p.value][a.value]
                       for p in Category for a in Category if p is not a)
    assert mispredicted == 5
    assert len(calls) == len(corpus) + mispredicted == 45


def _count_app_model_loads(monkeypatch) -> list:
    """The paths ``evaluate`` passes to ``load_app_model``, one entry per call."""
    loaded = []
    original = evaluation.load_app_model

    def counting(path):
        loaded.append(path)
        return original(path)

    monkeypatch.setattr(evaluation, "load_app_model", counting)
    return loaded


def test_evaluate_loads_each_app_model_once(corpus, monkeypatch):
    loaded = _count_app_model_loads(monkeypatch)
    evaluate(corpus, Config(seed=0))
    distinct = {c.app_model for c in corpus if c.category is Category.B}
    assert sorted(loaded) == sorted(distinct)
    assert len(loaded) == 2


def test_evaluate_loads_a_failing_app_model_once(corpus, monkeypatch):
    missing = Path("no_such_dir/app_model.json")
    crashes = [replace(c, app_model=missing) if c.category is Category.B else c
               for c in corpus]
    loaded = _count_app_model_loads(monkeypatch)
    report = evaluate(crashes, Config(seed=0))
    assert loaded == [missing]
    assert len(report.failures) == 20
    assert {f["error"] for f in report.failures} == {"SchemaError"}


def test_evaluate_warns_once_for_a_correctly_categorized_crash(corpus, monkeypatch, caplog):
    # The first B crash gains a developer frame whose class its app model
    # lacks; its locator logs the skipped frame each time it runs.
    index = next(i for i, c in enumerate(corpus) if c.category is Category.B)
    crash_log = corpus[index].crash_log.replace(
        "\tat com.yamlearning", "\tat com.unmodeled.app.Mystery.zap(Mystery.java:1)\n"
        "\tat com.yamlearning", 1)
    mystery = replace(corpus[index], crash_log=crash_log,
                      report=parse_and_split(crash_log, FrameworkMatcher()))
    crashes = list(corpus)
    crashes[index] = mystery
    calls = _count_locate_as(monkeypatch)
    with caplog.at_level("WARNING", logger="crashloc.localizer"):
        evaluate(crashes, Config(seed=0))
    # Phase 1 predicts B for it, so both protocols read one B localization.
    assert [category for category, report in calls if report is mystery.report] == [Category.B]
    assert caplog.text.count("skipping frame com.unmodeled.app.Mystery.zap") == 1


# ``evaluate(...).to_json()`` on the fixture corpus with every Category-B
# crash's app model taken away or pointed at a missing relative path, so that
# each B localization fails. Recorded from the implementation that localized
# every crash once per protocol.
FAILURE_DIGESTS = {
    (None, 0, "end_to_end"):
        "57d98c56354ead47c6b600df558396d984d8ffa599943bf0da69aad61e757189",
    (None, 0, "perfect_categorization"):
        "edf1334aed5600672a7fa2c0f87fbc0f7651206d0b31df4cc41854bb2e8eb0b0",
    (None, 1, "end_to_end"):
        "ac0dfd1bf4a99a30572d24814b898bba3cff9ea487d34ff845e8bcaf0375310e",
    (None, 1, "perfect_categorization"):
        "3f857ddeb19da2cf914c339ff6bf3b63e4cd1e4b6ba8eaa31e6cc348d8303db5",
    ("no_such_dir/app_model.json", 0, "end_to_end"):
        "f56a3c7ed17d1183d43ee8ca79e284597d4212d118a868b49ba75d1f073893da",
    ("no_such_dir/app_model.json", 0, "perfect_categorization"):
        "180f2febc5ebb3c0daadbd5a13088be4bc8fcec35df4f3357c30ccafb80adc88",
    ("no_such_dir/app_model.json", 1, "end_to_end"):
        "bf0f7b79d1f982810ebca16a8759b99b74e17d0e592a4c74f66d43f27946724a",
    ("no_such_dir/app_model.json", 1, "perfect_categorization"):
        "2fcdc879524b1ffe62a1664af735b88573a2ffcec4ab6aba8b7f4621b51ac3cd",
}


@pytest.mark.parametrize("model, seed, protocol", list(FAILURE_DIGESTS))
def test_evaluate_failure_report_is_byte_identical(corpus, model, seed, protocol):
    app_model = Path(model) if model else None
    crashes = [replace(c, app_model=app_model) if c.category is Category.B else c
               for c in corpus]
    report = evaluate(crashes, Config(seed=seed), protocol=protocol)
    assert len(report.failures) == 20
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == FAILURE_DIGESTS[(model, seed, protocol)]


def test_render_text_contains_tables(corpus, config):
    text = render_text(evaluate(corpus, config))
    assert "Categorization" in text
    assert "Localization under perfect categorization" in text
    assert "Recall@10" in text
    assert "MRR" in text
