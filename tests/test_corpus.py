from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crashloc import cli
from crashloc.config import Config
from crashloc.corpus import labeled_crash_from_json, load_corpus, save_corpus
from crashloc.errors import SchemaError
from crashloc.evaluation import evaluate
from crashloc.localizer import SubCategory
from crashloc.nb import Category
from crashloc.trace import parse_and_split

from conftest import APP_MODELS, CORPUS_PATH


def test_synthetic_corpus_loads_with_expected_composition(corpus):
    assert len(corpus) == 40
    by_category = {c: 0 for c in Category}
    for crash in corpus:
        by_category[crash.category] += 1
    assert by_category == {Category.A: 20, Category.B: 10, Category.C: 10}
    for crash in corpus:
        assert crash.report.developer_frames
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


@pytest.mark.parametrize("out", ["fixtures/saved/copy.jsonl", "fixtures/corpus/sub/copy.jsonl",
                                 "fixtures/copy.jsonl"], ids=["sibling", "subdirectory", "parent"])
def test_saved_app_model_paths_resolve_from_the_saved_file(tmp_path, monkeypatch, matcher, out):
    # The corpus is loaded through a relative path, so each app_model is relative to the
    # working directory, and the copy goes into a directory other than the corpus's.
    shutil.copytree(CORPUS_PATH.parent, tmp_path / "fixtures" / "corpus")
    shutil.copytree(APP_MODELS, tmp_path / "fixtures" / "app_models")
    monkeypatch.chdir(tmp_path)
    original = load_corpus(Path("fixtures/corpus") / CORPUS_PATH.name, matcher)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    save_corpus(out, original)
    again = load_corpus(out, matcher)
    assert len(again) == len(original)
    for a, b in zip(original, again):
        assert (a.app_model is None) == (b.app_model is None)
        if a.app_model is not None:
            assert b.app_model.resolve() == a.app_model.resolve()
        assert dataclasses.replace(a, app_model=None) == dataclasses.replace(b, app_model=None)
    assert evaluate(again, Config()).to_json() == evaluate(original, Config()).to_json()


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_saved_line_separators_in_a_crash_log_load_back(tmp_path, capsys, corpus, matcher, char):
    # save_corpus leaves these characters raw inside a JSON string, and
    # str.splitlines would end a record at each of them. They do not end a
    # crash-log line either, so each goes into the header's message.
    changed = []
    for crash in corpus:
        log = crash.crash_log.replace("\n", f": {char}x\n", 1)
        changed.append(dataclasses.replace(crash, crash_log=log,
                                           report=parse_and_split(log, matcher)))
    out = tmp_path / "copy.jsonl"
    save_corpus(out, changed)
    assert char in out.read_text(encoding="utf-8")
    again = load_corpus(out, matcher)
    assert [dataclasses.replace(c, app_model=None) for c in again] == [
        dataclasses.replace(c, app_model=None) for c in changed]
    assert [c.app_model.resolve() if c.app_model else None for c in again] == [
        c.app_model.resolve() if c.app_model else None for c in changed]
    assert evaluate(again, Config()).to_json() == evaluate(changed, Config()).to_json()
    assert cli.main(["inspect", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["kind"], summary["crashes"]) == ("corpus", len(corpus))


# Besides letters, spaces and carriage returns, the characters at which
# str.splitlines, but not a crash log or a corpus record, ends a line.
_MESSAGE_TEXT = st.text(alphabet="ab \t\r\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e", max_size=8)


@settings(max_examples=20, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 39), _MESSAGE_TEXT), min_size=1, max_size=4))
def test_saved_crash_text_evaluates_as_in_memory(tmp_path_factory, corpus, matcher, edits):
    logs = [crash.crash_log for crash in corpus]
    for i, text in edits:
        logs[i] = logs[i].replace("\n", f": {text}\n", 1)
    changed = [dataclasses.replace(crash, crash_log=log, report=parse_and_split(log, matcher))
               for crash, log in zip(corpus, logs)]
    for i, text in edits:
        assert text.strip() in changed[i].report.message
    out = tmp_path_factory.mktemp("saved") / "copy.jsonl"
    save_corpus(out, changed)
    again = load_corpus(out, matcher)
    assert [c.report for c in again] == [c.report for c in changed]
    assert evaluate(again, Config()).to_json() == evaluate(changed, Config()).to_json()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_save_corpus_to_an_unwritable_path_raises_schema_error(tmp_path, corpus, target):
    out = tmp_path / "no_such_dir" / "copy.jsonl" if target == "missing_dir" else tmp_path
    with pytest.raises(SchemaError, match="^cannot write corpus: "):
        save_corpus(out, corpus)


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
    for key, value in (("true_location", 5), ("app_model", 5), ("api_h", "x"),
                       ("api_h", {"class_name": 5, "method_name": "m", "kind": "call-in"})):
        with pytest.raises(SchemaError) as exc:
            labeled_crash_from_json(_entry(**{key: value}), matcher, pointer="/3")
        assert exc.value.pointer.startswith(f"/3/{key}")


@pytest.mark.parametrize("key", ["crash_log", "category", "true_location"])
def test_missing_key_is_reported_at_the_entry(matcher, key):
    entry = _entry()
    del entry[key]
    with pytest.raises(SchemaError) as exc:
        labeled_crash_from_json(entry, matcher, pointer="/3")
    assert (exc.value.pointer, exc.value.message) == ("/3", f"missing key {key!r}")


@pytest.mark.parametrize("category, message", [
    ("D", "category must be A, B or C, got 'D'"),
    (["A"], "key 'category' must be str, got list"),
], ids=["unknown", "not-a-string"])
def test_bad_category_is_reported_at_its_key(matcher, category, message):
    with pytest.raises(SchemaError) as exc:
        labeled_crash_from_json(_entry(category=category), matcher, pointer="/3")
    assert (exc.value.pointer, exc.value.message) == ("/3/category", message)


@pytest.mark.parametrize("category, true_location", [
    ("A", "a#b#c"),
    ("A", "com.app.d.Main.go"),
    ("B", "com.app.d.Main#go(int"),
    ("C", "Manifestx"),
    ("C", "com.app.d.Main#go"),
])
def test_true_location_must_fit_the_category(tmp_path, matcher, category, true_location):
    entry = _entry(category=category, true_location=true_location,
                   api_h={"class_name": "android.app.A", "method_name": "m", "kind": "call-in"},
                   sub_category="Manifest")
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_entry()) + "\n" + json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_corpus(path, matcher)
    assert exc.value.pointer == "/1/true_location"


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


@pytest.mark.parametrize("line, message", [
    ("[1]", "corpus line 4 must be a JSON object"),
    ("not-json", "corpus line 4 is not valid JSON: "),
], ids=["not-an-object", "not-json"])
def test_blank_lines_are_skipped_but_counted(tmp_path, matcher, line, message):
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(_entry()), "", "  \t", json.dumps(_entry(true_location="com.app.d.Main#x"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [c.true_location for c in load_corpus(path, matcher)] == [
        "com.app.d.Main#go", "com.app.d.Main#x"
    ]
    lines[3] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_corpus(path, matcher)
    assert exc.value.pointer == "/3" and exc.value.message.startswith(message)


def test_malformed_jsonl_reports_line(tmp_path, matcher):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"crash_log": "x"}\nnot-json\n', encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_corpus(path, matcher)
    assert exc.value.pointer.startswith("/0")
