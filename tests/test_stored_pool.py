"""``locate`` builds its B and C pools from the bundle's stored pool exactly
when the corpus has the bytes and the config the framework prefixes that
``train`` parsed, and its output is then the output of parsing the corpus;
otherwise it parses, with the errors of a parse. A pool of the wrong shape
is rejected with a pointer into ``/pool``."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import APP_MODELS, CORPUS_PATH, CRASH_DIR
from crashloc import cli
from crashloc.config import DEFAULT_FRAMEWORK_PREFIXES
from crashloc.corpus import load_corpus
from crashloc.trace import FrameworkMatcher

CORPUS_LINES = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
CRASH_LOGS = sorted(CRASH_DIR.glob("*.log"))


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv("CRASHLOC_CONFIG", raising=False)


def _main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``crashloc`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _corpus_loads():
    """Counts the calls of the CLI's ``load_corpus``: one per parse path taken."""
    calls = []

    def counted(*args):
        calls.append(args[0])
        return load_corpus(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_corpus", counted)
        yield calls


def _train(corpus: Path, bundle: Path) -> None:
    code, _, err = _main(["train", "--corpus", corpus, "--model", bundle])
    assert code == 0, err


def _edit_bundle(bundle: Path, out: Path, edit) -> Path:
    obj = json.loads(bundle.read_text(encoding="utf-8"))
    edit(obj)
    out.write_text(json.dumps(obj), encoding="utf-8")
    return out


def _drop_pool(obj):
    del obj["pool"]


def _locate(log: Path, bundle: Path, corpus: Path):
    return _main(["locate", log, "--model", bundle, "--corpus", corpus,
                  "--app-model", APP_MODELS / "geography.json"])


def _locate_all(bundle: Path, corpus: Path, parses: bool) -> list:
    """Every fixture log's locate result, checking which path each took."""
    with _corpus_loads() as calls:
        results = [_locate(log, bundle, corpus) for log in CRASH_LOGS]
    assert len(calls) == (len(CRASH_LOGS) if parses else 0)
    return results


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A bundle trained on the fixture corpus, and the same bundle without its pool."""
    root = tmp_path_factory.mktemp("stored-pool")
    bundle = root / "bundle.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("CRASHLOC_CONFIG", raising=False)
        _train(CORPUS_PATH, bundle)
    return bundle, _edit_bundle(bundle, root / "no-pool.json", _drop_pool)


def test_train_stores_the_pool_of_the_corpus_bytes_it_parsed(trained):
    bundle, _ = trained
    pool = json.loads(bundle.read_text(encoding="utf-8"))["pool"]
    assert pool["version"] == 1
    assert pool["corpus_sha256"] == hashlib.sha256(CORPUS_PATH.read_bytes()).hexdigest()
    assert pool["framework_prefixes"] == list(DEFAULT_FRAMEWORK_PREFIXES)
    crashes = [c for c in load_corpus(CORPUS_PATH, FrameworkMatcher())
               if c.category.value != "A"]
    assert [entry[0] for entry in pool["crashes"]] == [c.category.value for c in crashes]


def test_stored_pool_locates_as_the_parsed_corpus(trained):
    bundle, no_pool = trained
    assert (_locate_all(bundle, CORPUS_PATH, parses=False)
            == _locate_all(no_pool, CORPUS_PATH, parses=True))


@settings(max_examples=20, deadline=None)
@given(lines=st.lists(st.sampled_from(range(len(CORPUS_LINES))), min_size=1,
                      max_size=len(CORPUS_LINES)),
       prefixes=st.lists(st.sampled_from(DEFAULT_FRAMEWORK_PREFIXES), min_size=1, unique=True))
def test_stored_pool_locate_equals_parse_locate(lines, prefixes):
    """Over subsets and orders of the fixture corpus lines, repeats included,
    and over framework prefix sets, every fixture log locates the same with
    the stored pool and without it."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        corpus = root / "corpus.jsonl"
        corpus.write_text("".join(CORPUS_LINES[i] + "\n" for i in lines), encoding="utf-8")
        config = root / "config.json"
        config.write_text(json.dumps({"framework_prefixes": prefixes}), encoding="utf-8")
        patch.setenv("CRASHLOC_CONFIG", str(config))
        bundle = root / "bundle.json"
        _train(corpus, bundle)
        no_pool = _edit_bundle(bundle, root / "no-pool.json", _drop_pool)
        assert (_locate_all(bundle, corpus, parses=False)
                == _locate_all(no_pool, corpus, parses=True))


def test_edited_corpus_is_parsed(trained, tmp_path):
    bundle, no_pool = trained
    edited = tmp_path / "corpus.jsonl"
    edited.write_bytes(CORPUS_PATH.read_bytes() + b"\n")  # one more blank line
    assert (_locate_all(bundle, edited, parses=True)
            == _locate_all(no_pool, CORPUS_PATH, parses=True))


def test_bad_line_in_an_edited_corpus_exits_2_with_its_pointer(trained, tmp_path):
    bundle, _ = trained
    edited = tmp_path / "corpus.jsonl"
    bad = json.dumps({**json.loads(CORPUS_LINES[0]), "category": "Z"})
    edited.write_text("\n".join(CORPUS_LINES + [bad]) + "\n", encoding="utf-8")
    code, out, err = _locate(CRASH_LOGS[0], bundle, edited)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert (error["error"], error["pointer"]) == ("SchemaError", f"/{len(CORPUS_LINES)}/category")
    assert error["message"].endswith(f" in corpus {str(edited)!r}")


def _set_prefixes(obj):
    obj["config"]["framework_prefixes"] = ["java.", "androidx."]


def _set_version(obj):
    obj["pool"]["version"] = 2


@pytest.mark.parametrize("edit", [_set_prefixes, _set_version], ids=["prefixes", "version"])
def test_other_prefixes_or_pool_version_are_parsed(trained, tmp_path, edit):
    bundle, _ = trained
    edited = _edit_bundle(bundle, tmp_path / "edited.json", edit)
    reference = _edit_bundle(edited, tmp_path / "reference.json", _drop_pool)
    assert (_locate_all(edited, CORPUS_PATH, parses=True)
            == _locate_all(reference, CORPUS_PATH, parses=True))


def test_inspect_reports_an_unknown_pool_version_as_no_pool(trained, tmp_path):
    bundle, _ = trained
    code, out, _ = _main(["inspect", _edit_bundle(bundle, tmp_path / "v2.json", _set_version)])
    assert (code, json.loads(out)["pool"]) == (0, None)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(obj):
        target = obj["pool"]
        for step in path:
            target = target[step]
        target[key] = value
    return edit


def _delete(key):
    def edit(obj):
        del obj["pool"][key]
    return edit


def _replace_pool(value):
    def edit(obj):
        obj["pool"] = value
    return edit


# (edit of the bundle, pointer of the error)
WRONG_SHAPES = {
    "not-an-object": (_replace_pool([]), "/pool"),
    "no-version": (_delete("version"), "/pool"),
    "text-version": (_set("version", "1"), "/pool/version"),
    "no-digest": (_delete("corpus_sha256"), "/pool"),
    "prefix-not-text": (_set("framework_prefixes", 0, 1), "/pool/framework_prefixes/0"),
    "frame-not-text": (_set("frames", 0, None), "/pool/frames/0"),
    "subtrace-not-a-list": (_set("subtraces", 0, 0), "/pool/subtraces/0"),
    "frame-index-past-end": (_set("subtraces", 0, [10 ** 6]), "/pool/subtraces/0/0"),
    "negative-frame-index": (_set("subtraces", 0, [-1]), "/pool/subtraces/0/0"),
    "bool-frame-index": (_set("subtraces", 0, [True]), "/pool/subtraces/0/0"),
    "api-kind": (_set("apis", 0, "kind", "both"), "/pool/apis/0/kind"),
    "crash-not-a-list": (_set("crashes", 0, {}), "/pool/crashes/0"),
    "crash-of-two": (_set("crashes", 0, ["B", 0]), "/pool/crashes/0"),
    "category-a": (_set("crashes", 0, 0, "A"), "/pool/crashes/0/0"),
    "api-index-past-end": (_set("crashes", 0, ["B", 99, 0]), "/pool/crashes/0/1"),
    "unknown-sub-category": (_set("crashes", 0, ["C", "Nowhere", 0]), "/pool/crashes/0/1"),
    "c-with-api-index": (_set("crashes", 0, ["C", 0, 0]), "/pool/crashes/0/1"),
    "subtrace-index-past-end": (_set("crashes", 0, ["C", "Manifest", 99]), "/pool/crashes/0/2"),
    "float-subtrace-index": (_set("crashes", 0, ["B", 0, 0.0]), "/pool/crashes/0/2"),
}


@pytest.mark.parametrize("command", ["locate", "inspect"])
@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_pool_of_the_wrong_shape_exits_2_with_pointer(trained, tmp_path, command, case):
    edit, pointer = WRONG_SHAPES[case]
    bad = _edit_bundle(trained[0], tmp_path / "bad.json", edit)
    if command == "locate":
        code, out, err = _locate(CRASH_LOGS[0], bad, CORPUS_PATH)
    else:
        code, out, err = _main(["inspect", bad])
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert (error["error"], error["pointer"]) == ("SchemaError", pointer)
    assert error["message"].endswith(f" in {'model bundle' if command == 'locate' else 'file'} "
                                     f"{str(bad)!r}")
