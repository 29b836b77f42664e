from __future__ import annotations

import json

import pytest

from crashloc.corpus import labeled_crash_from_json, load_corpus, save_corpus
from crashloc.errors import SchemaError
from crashloc.localizer import SubCategory
from crashloc.nb import Category

from conftest import CORPUS_PATH


def test_synthetic_corpus_loads_with_expected_composition(corpus):
    assert len(corpus) == 40
    by_category = {c: 0 for c in Category}
    for crash in corpus:
        by_category[crash.category] += 1
    assert by_category == {Category.A: 20, Category.B: 10, Category.C: 10}
    for crash in corpus:
        assert crash.report.is_split
        if crash.category is Category.B:
            assert crash.api_h is not None
            assert crash.app_model is not None and crash.app_model.exists()
        if crash.category is Category.C:
            assert crash.sub_category in SubCategory


def test_corpus_roundtrip(tmp_path, corpus, matcher):
    out = tmp_path / "copy.jsonl"
    save_corpus(out, corpus)
    again = load_corpus(out, matcher)
    assert len(again) == len(corpus)
    for a, b in zip(corpus, again):
        assert a.report == b.report
        assert (a.category, a.true_location, a.api_h, a.sub_category) == (
            b.category, b.true_location, b.api_h, b.sub_category
        )


def test_corpus_line_uses_exact_keys():
    line = json.loads(CORPUS_PATH.read_text(encoding="utf-8").splitlines()[0])
    assert set(line) == {
        "crash_log", "category", "true_location", "api_h", "sub_category", "app_model"
    }


def _entry(**overrides):
    base = {
        "crash_log": (
            "java.lang.IllegalStateException: x\n"
            "\tat android.app.A.m(A.java:1)\n"
            "\tat com.app.d.Main.go(Main.java:2)\n"
        ),
        "category": "A",
        "true_location": "com.app.d.Main#go",
        "api_h": None,
        "sub_category": None,
        "app_model": None,
    }
    base.update(overrides)
    return base


def test_entry_validation_errors(matcher):
    with pytest.raises(SchemaError):
        labeled_crash_from_json(_entry(category="D"), matcher)
    with pytest.raises(SchemaError):
        labeled_crash_from_json(_entry(category="B"), matcher)  # api_h required
    with pytest.raises(SchemaError):
        labeled_crash_from_json(_entry(category="C"), matcher)  # sub_category required
    with pytest.raises(SchemaError):
        labeled_crash_from_json(_entry(sub_category="Cosmic"), matcher)
    with pytest.raises(SchemaError):
        labeled_crash_from_json(_entry(crash_log="not a crash"), matcher)
    with pytest.raises(SchemaError) as exc:
        labeled_crash_from_json(_entry(crash_log=5), matcher, pointer="/3")
    assert exc.value.pointer == "/3/crash_log"
    with pytest.raises(SchemaError):
        entry = _entry()
        del entry["true_location"]
        labeled_crash_from_json(entry, matcher)


def test_app_model_paths_resolve_against_corpus_dir(tmp_path, matcher):
    entry = _entry(
        category="B",
        api_h={"class_name": "android.app.A", "method_name": "m", "kind": "call-in"},
        app_model="models/app.json",
    )
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    crash = load_corpus(path, matcher)[0]
    assert crash.app_model == tmp_path / "models/app.json"


def test_malformed_jsonl_reports_line(tmp_path, matcher):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"crash_log": "x"}\nnot-json\n', encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_corpus(path, matcher)
    assert exc.value.pointer.startswith("/0")
