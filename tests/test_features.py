from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

from crashloc.corpus import LabeledCrash
from crashloc.errors import EmptyCorpus, SchemaError
from crashloc.features import (
    SelectedVocabulary,
    Vocabulary,
    build_vocabulary,
    chi2_stat,
    chi_square_select,
    iter_tokens,
    tokenize,
    vectorize,
)
from crashloc.nb import Category

from conftest import make_report


def _labeled(report, category=Category.A) -> LabeledCrash:
    return LabeledCrash(report=report, category=category, true_location="x#y")


def test_tokenize_exception_type_splits_on_dots():
    # Developer-topmost report: empty sub-trace, so only the header tokenizes.
    report = make_report(
        exception="java.lang.IllegalArgumentException",
        framework=(),
        developer=("com.app.demo.Main.onCreate",),
    )
    assert tokenize(report) == {"java", "lang", "IllegalArgumentException"}


def test_tokenize_message_splits_on_whitespace():
    report = make_report(
        exception="java.lang.IllegalArgumentException",
        message="recursive entry to executePendingTransactions",
        framework=(),
    )
    assert tokenize(report) == {
        "java", "lang", "IllegalArgumentException",
        "recursive", "entry", "to", "executePendingTransactions",
    }


def test_tokenize_framework_frames_split_on_dots():
    report = make_report(
        exception="java.lang.Err",
        framework=("android.app.Activity.onCreate",),
    )
    assert {"android", "app", "Activity", "onCreate"} <= tokenize(report)


def test_tokenize_ignores_developer_frames_and_empty_parts():
    report = make_report(
        exception="java.lang.Err",
        message="a  b",
        framework=("android.app.Activity.onCreate",),
        developer=("com.zzz.unique.Klass.method",),
    )
    tokens = tokenize(report)
    assert "Klass" not in tokens and "zzz" not in tokens
    assert "" not in tokens
    assert {"a", "b"} <= tokens


def test_build_vocabulary_first_occurrence_order():
    c1 = _labeled(make_report(exception="a.b", framework=()))
    c2 = _labeled(make_report(exception="b.c", framework=()))
    vocab = build_vocabulary([c1, c2])
    assert vocab.words == ("a", "b", "c")
    assert vocab.index == {"a": 0, "b": 1, "c": 2}


def test_build_vocabulary_single_crash():
    c = _labeled(make_report(exception="x.y", message="z", framework=()))
    assert set(build_vocabulary([c]).words) == {"x", "y", "z"}


def test_build_vocabulary_matches_union_oracle(corpus):
    sample = corpus[:4]
    vocab = build_vocabulary(sample)
    oracle = set()
    for crash in sample:
        oracle |= tokenize(crash.report)
    assert set(vocab.words) == oracle
    assert len(vocab.words) == len(set(vocab.words))


def test_build_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])


def test_chi2_worked_example_is_four():
    # Word present in both Category-A docs, absent in the two non-A docs.
    assert chi2_stat(2, 0, 0, 2) == pytest.approx(4.0, abs=1e-12)


def test_chi2_zero_when_marginal_zero():
    # Present in every document of every category: the absence row is empty.
    assert chi2_stat(2, 2, 0, 0) == 0.0


def test_chi2_row_swap_invariance():
    cases = [(3, 1, 2, 5), (2, 0, 0, 2), (1, 1, 1, 1), (4, 2, 0, 3)]
    for o11, o12, o21, o22 in cases:
        assert chi2_stat(o11, o12, o21, o22) == pytest.approx(
            chi2_stat(o12, o11, o22, o21)
        )


def _doc(tokens: str, category: Category) -> LabeledCrash:
    # One message word per token keeps the vocabulary fully controlled.
    return _labeled(make_report(exception="e.t", message=tokens, framework=()),
                    category)


def test_chi_square_select_scores_and_order():
    docs = [
        _doc("w common", Category.A),
        _doc("w common", Category.A),
        _doc("common", Category.B),
        _doc("common", Category.C),
    ]
    vocab = build_vocabulary(docs)
    sel = chi_square_select(vocab, docs, 1.0)
    by_word = dict(zip(vocab.words, sel.scores))
    assert by_word["w"] == pytest.approx(4.0, abs=1e-12)
    assert by_word["common"] == 0.0
    assert sel.selected[0] == "w"


def test_chi_square_select_sizes_and_ties():
    docs = [_doc("common", Category.A), _doc("common", Category.B)]
    for n in range(1, 51):
        words = tuple(f"w{i}" for i in range(n))
        vocab = Vocabulary(words)
        sel = chi_square_select(vocab, docs, 0.5)
        assert len(sel.selected) == math.ceil(0.5 * n)
        # All-zero scores: ties resolve to vocabulary order.
        assert sel.selected == words[: len(sel.selected)]


def test_chi_square_select_ratio_one_keeps_everything():
    docs = [_doc("a b", Category.A), _doc("b c", Category.B)]
    vocab = build_vocabulary(docs)
    sel = chi_square_select(vocab, docs, 1.0)
    assert set(sel.selected) == set(vocab.words)


def test_chi_square_select_deterministic(corpus):
    vocab = build_vocabulary(corpus)
    s1 = chi_square_select(vocab, corpus, 0.5)
    s2 = chi_square_select(vocab, corpus, 0.5)
    assert s1.selected == s2.selected
    assert s1.scores == s2.scores
    assert len(s1.selected) == math.ceil(0.5 * len(vocab.words))


def test_vectorize_zero_all_and_membership(corpus):
    docs = [_doc("alpha beta", Category.A), _doc("gamma", Category.B)]
    vocab = build_vocabulary(docs)
    sel = chi_square_select(vocab, docs, 1.0)

    none = make_report(exception="q.q", framework=())
    assert vectorize(none, sel) == [0] * len(sel)

    everything = make_report(exception="e.t", message="alpha beta gamma", framework=())
    assert vectorize(everything, sel) == [1] * len(sel)

    crash = corpus[0]
    full_sel = chi_square_select(build_vocabulary(corpus), corpus, 0.5)
    vec = vectorize(crash.report, full_sel)
    tokens = tokenize(crash.report)
    assert vec == [1 if w in tokens else 0 for w in full_sel.selected]


def test_selected_vocabulary_json_roundtrip(corpus):
    sel = chi_square_select(build_vocabulary(corpus), corpus, 0.5)
    obj = sel.to_json_obj()
    assert set(obj) == {"ratio", "words", "chi2"}
    text = json.dumps(obj)
    back = SelectedVocabulary.from_json_obj(json.loads(text))
    assert back == sel


@pytest.mark.parametrize(
    "obj, pointer",
    [
        ([], "/sv"),
        ({"ratio": 0.5, "chi2": []}, "/sv"),
        ({"ratio": 0.5, "words": ["a", 1], "chi2": [0.0, 0.0]}, "/sv/words/1"),
        ({"ratio": 0.5, "words": ["a", "a"], "chi2": [0.0, 0.0]}, "/sv/words"),
        ({"ratio": 0.5, "words": ["a", "b"], "chi2": [0.0]}, "/sv/chi2"),
        ({"ratio": 0.0, "words": ["a"], "chi2": [0.0]}, "/sv/ratio"),
    ],
)
def test_selected_vocabulary_from_json_obj_reports_bad_shapes(obj, pointer):
    with pytest.raises(SchemaError) as exc:
        SelectedVocabulary.from_json_obj(obj, "/sv")
    assert exc.value.pointer == pointer


@given(st.lists(st.sampled_from(["tok1", "tok2", "tok3", "tok4"]), min_size=1, max_size=4))
def test_property_vectorize_depends_only_on_token_intersection(extra):
    docs = [_doc("tok1 tok2", Category.A), _doc("tok3", Category.B)]
    sel = chi_square_select(build_vocabulary(docs), docs, 1.0)
    report = make_report(exception="e.t", message=" ".join(extra), framework=())
    vec = vectorize(report, sel)
    relevant = tokenize(report) & set(sel.selected)
    assert vec == [1 if w in relevant else 0 for w in sel.selected]
