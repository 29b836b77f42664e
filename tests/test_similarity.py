from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from crashloc.corpus import LabeledCrash
from crashloc.errors import EmptyPool
from crashloc.nb import Category
from crashloc.similarity import (
    crash_similarity,
    edit_distance,
    frame_seq,
    most_similar,
    seq_similarity,
)

from conftest import make_report


def exhaustive_min_edit_cost(a: tuple, b: tuple) -> int:
    """Unmemoized enumeration of every edit script; exponential, tiny inputs only."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    sub = exhaustive_min_edit_cost(a[1:], b[1:]) + (0 if a[0] == b[0] else 1)
    delete = exhaustive_min_edit_cost(a[1:], b) + 1
    insert = exhaustive_min_edit_cost(a, b[1:]) + 1
    return min(sub, delete, insert)


def test_edit_distance_examples():
    assert edit_distance(["f1", "f2", "f3"], ["f1", "f2", "f3"]) == 0
    assert edit_distance(["f1", "f2", "f3"], ["f1", "f2"]) == 1
    assert edit_distance(["f1", "f2", "f3"], ["f3", "f2", "f1"]) == 2


def test_edit_distance_matches_exhaustive_search_small_space():
    alphabet = ("x", "y", "z")
    seqs = [()]
    for length in (1, 2, 3):
        seqs.extend(
            tuple(alphabet[i % 3] for i in combo)
            for combo in __import__("itertools").product(range(3), repeat=length)
        )
    for a in seqs:
        for b in seqs:
            assert edit_distance(a, b) == exhaustive_min_edit_cost(a, b)


def test_edit_distance_on_a_stack_overflow_length_trace():
    # A StackOverflowError trace runs to thousands of frames; the row DP
    # took seconds on this pair.
    a = tuple(f"f{i}" for i in range(2000))
    fresh = {position: f"g{position}" for position in random.Random(37).sample(range(2000), 37)}
    b = tuple(fresh.get(i, frame) for i, frame in enumerate(a))
    assert edit_distance(a, b) == 37
    assert edit_distance(b, a) == 37


def test_seq_similarity_examples():
    assert seq_similarity(["f1", "f2"], ["f1", "f2"]) == 1.0
    assert seq_similarity(["f1", "f2", "f3"], ["f1", "f2"]) == pytest.approx(2 / 3)
    assert seq_similarity(["f1", "f2"], ["g1", "g2"]) == 0.0
    assert seq_similarity((), ()) == 1.0
    assert seq_similarity((), ("f1",)) == 0.0


def test_crash_similarity_identical_reports():
    r1 = make_report(framework=("android.app.A.m", "android.app.B.n"))
    r2 = make_report(framework=("android.app.A.m", "android.app.B.n"),
                     developer=("org.other.app.Main.go",))
    assert crash_similarity(r1, r2) == 1.0


def test_frame_seq_uses_framework_subtrace_only(figure1_report):
    seq = frame_seq(figure1_report)
    assert len(seq) == 3
    assert all(name.startswith("android.app.FragmentManagerImpl") for name in seq)


def _labeled(report) -> LabeledCrash:
    return LabeledCrash(report=report, category=Category.A, true_location="x#y")


def test_most_similar_picks_identical_and_breaks_ties_earliest():
    query = make_report(framework=("android.app.A.m", "android.app.B.n"))
    far = _labeled(make_report(framework=("android.x.P.q",)))
    near = _labeled(make_report(framework=("android.app.A.m", "android.app.B.n")))
    best, score = most_similar(query, [far, near])
    assert best is near and score == 1.0

    twin_a = _labeled(make_report(framework=("android.app.A.m",)))
    twin_b = _labeled(make_report(framework=("android.app.A.m",)))
    best, _ = most_similar(make_report(framework=("android.app.A.m",)), [twin_a, twin_b])
    assert best is twin_a


def test_most_similar_argmax_of_three():
    query = make_report(framework=("android.a.A.a", "android.b.B.b", "android.c.C.c"))
    pool = [
        _labeled(make_report(framework=("android.z.Z.z",))),                     # low
        _labeled(make_report(framework=("android.a.A.a", "android.b.B.b"))),     # high
        _labeled(make_report(framework=("android.a.A.a",))),                     # mid
    ]
    best, score = most_similar(query, pool)
    assert best is pool[1]
    assert score == pytest.approx(2 / 3)


def test_most_similar_empty_pool():
    with pytest.raises(EmptyPool):
        most_similar(make_report(), [])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_seqs = st.lists(st.sampled_from(["f1", "f2", "f3", "f4"]), max_size=6).map(tuple)


@given(_seqs, _seqs)
def test_property_symmetry_and_bounds(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    sim = seq_similarity(a, b)
    assert 0.0 <= sim <= 1.0
    assert seq_similarity(a, b) == seq_similarity(b, a)


@given(_seqs)
def test_property_identity(a):
    assert edit_distance(a, a) == 0
    assert seq_similarity(a, a) == 1.0


@given(_seqs, _seqs)
def test_property_consistent_renaming_preserves_distance(a, b):
    renaming = {"f1": "g9", "f2": "g8", "f3": "g7", "f4": "g6"}
    ra = tuple(renaming[t] for t in a)
    rb = tuple(renaming[t] for t in b)
    assert edit_distance(a, b) == edit_distance(ra, rb)


@given(_seqs, _seqs)
def test_property_matches_exhaustive_search(a, b):
    assert edit_distance(a, b) == exhaustive_min_edit_cost(a, b)
