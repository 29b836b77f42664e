"""Any JSON value (NaN and the infinities included) at any field of a fixture
corpus line, an app model, the default config or a model bundle trained on
the fixture corpus either loads or raises an ArtifactError that points into
the input; a config or bundle that loads holds only finite numbers. Text
that the JSON parser cannot take (nesting too deep for it, an integer too
long to convert) makes every command exit 2 with a pointer, not a
traceback, and so does a file that is not UTF-8, naming that file. A file
that is read but holds the wrong content is named at the end of the
message, by its kind and path."""
from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from crashloc import cli
from crashloc.appmodel import app_model_from_json
from crashloc.cli import _bundle_from_obj, _bundle_to_obj
from crashloc.config import Config, config_from_json_obj
from crashloc.corpus import labeled_crash_from_json, load_corpus
from crashloc.errors import ArtifactError, SchemaError, read_text
from crashloc.evaluation import fit
from crashloc.pool import pool_from_json_obj, pool_to_json_obj
from crashloc.trace import FrameworkMatcher

from conftest import APP_MODELS, CORPUS_PATH, CRASH_DIR, REPO_ROOT, json_fields, run_cli

CORPUS_LINES = [json.loads(line) for line in CORPUS_PATH.read_text(encoding="utf-8").splitlines()]
APP_MODEL_OBJS = [json.loads(p.read_text(encoding="utf-8"))
                  for p in sorted(APP_MODELS.glob("*.json"))]
CONFIG_OBJ = Config().to_json_obj()
BUNDLE_OBJ = json.loads(json.dumps(_bundle_to_obj(
    fit(load_corpus(CORPUS_PATH, FrameworkMatcher()), Config()).nb, Config())))
POOL_OBJ = json.loads(json.dumps(pool_to_json_obj(
    load_corpus(CORPUS_PATH, FrameworkMatcher()), CORPUS_PATH.read_bytes(),
    Config().framework_prefixes)))


def _strings(value) -> set:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_strings, value))
    return {value} if isinstance(value, str) else set()


def json_values(known_strings):
    """Any JSON value; strings are drawn from the fixtures as often as at random,
    and NaN and the infinities as often as other floats."""
    strings = st.text(max_size=8) | st.sampled_from(sorted(known_strings))
    floats = st.floats() | st.sampled_from((math.nan, math.inf, -math.inf))
    leaves = st.none() | st.booleans() | st.integers() | floats | strings
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(strings, children, max_size=3),
        max_leaves=6,
    )


def _replace_somewhere(data, objs):
    obj = copy.deepcopy(data.draw(st.sampled_from(objs)))
    path = data.draw(st.sampled_from(list(json_fields(obj))))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(json_values(_strings(objs)))
    return obj


def _config_numbers(config):
    return [config.chi2_ratio, config.nb_smoothing]


def _bundle_numbers(loaded):
    nb_model, config, _ = loaded
    vocab = nb_model.selected_vocab
    return [*nb_model.priors, *(p for row in nb_model.cond for p in row), nb_model.smoothing,
            *vocab.scores, vocab.ratio, *_config_numbers(config)]


# kind -> (objects to alter, loader, the floats of what it loads)
LOADERS = {
    "corpus-line": (CORPUS_LINES, lambda obj: labeled_crash_from_json(
        obj, FrameworkMatcher(), CORPUS_PATH.parent, "/0"), lambda crash: []),
    "app-model": (APP_MODEL_OBJS, app_model_from_json, lambda model: []),
    "config": ([CONFIG_OBJ], config_from_json_obj, _config_numbers),
    "bundle": ([BUNDLE_OBJ], _bundle_from_obj, _bundle_numbers),
    "pool": ([POOL_OBJ], pool_from_json_obj, lambda pool: []),
}


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_value_at_any_field_loads_or_fails_with_pointer(kind, data):
    objs, load, numbers = LOADERS[kind]
    try:
        loaded = load(_replace_somewhere(data, objs))
    except ArtifactError as exc:
        assert exc.pointer, exc
    else:
        assert all(math.isfinite(x) for x in numbers(loaded))


def _value_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("kind", ["config", "bundle"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_non_finite_number_at_any_number_field_is_rejected_there(kind, data):
    objs, load, _ = LOADERS[kind]
    obj = copy.deepcopy(objs[0])
    number_paths = [path for path in json_fields(obj)
                    if type(_value_at(obj, path)) in (int, float)]
    path = data.draw(st.sampled_from(number_paths))
    _value_at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from((math.nan, math.inf,
                                                                     -math.inf)))
    with pytest.raises(ArtifactError) as exc:
        load(obj)
    assert exc.value.pointer == "".join(f"/{key}" for key in path)


DEEP_ARRAY = "[" * 200_000
DEEP_OBJECT = '{"a": ' * 200_000
LONG_INT = "1" * 5_000  # past the interpreter's default int conversion limit
FIRST_LINE = CORPUS_PATH.read_text(encoding="utf-8").splitlines()[0]


def _locate_args(bundle=None, app_model=None):
    bundle = bundle or "{bundle}"
    args = ["locate", str(CRASH_DIR / "a1_notes_npe.log"), "--model", bundle,
            "--corpus", str(CORPUS_PATH)]
    return args + (["--app-model", app_model] if app_model else [])


# case -> (file text, command line with {path} for the file, expected pointer)
UNPARSEABLE = {
    "inspect-corpus-deep-array": (DEEP_ARRAY, ["inspect", "{path}"], "/0"),
    "inspect-corpus-second-line": (f"{FIRST_LINE}\n{DEEP_ARRAY}", ["inspect", "{path}"], "/1"),
    "inspect-corpus-long-int": (f"{FIRST_LINE}\n{LONG_INT}", ["inspect", "{path}"], "/1"),
    "inspect-deep-object": (DEEP_OBJECT, ["inspect", "{path}"], "/"),
    "inspect-long-int-object": (f'{{"classes": {LONG_INT}}}', ["inspect", "{path}"], "/"),
    "evaluate-corpus": (DEEP_ARRAY, ["evaluate", "--corpus", "{path}"], "/0"),
    "locate-app-model": (DEEP_ARRAY, _locate_args(app_model="{path}"), "/"),
    "locate-bundle": (DEEP_OBJECT, _locate_args(bundle="{path}"), "/"),
    "config": (DEEP_ARRAY, ["evaluate", "--corpus", str(CORPUS_PATH)], "/"),
}


@pytest.mark.parametrize("case", UNPARSEABLE)
def test_unparseable_json_exits_2_with_pointer(tmp_path, case):
    text, args, pointer = UNPARSEABLE[case]
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
    args = [arg.format(path=path, bundle=bundle) for arg in args]
    env = {"CRASHLOC_CONFIG": str(path)} if case == "config" else None
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert (error["error"], error["pointer"]) == ("SchemaError", pointer)


# case -> (command line with {path} for the file, how the message names it)
NOT_UTF8 = {
    "crash-log": (["locate", "{path}", "--model", "{bundle}", "--corpus", str(CORPUS_PATH)],
                  "crash log"),
    "corpus": (["evaluate", "--corpus", "{path}"], "corpus"),
    "model-bundle": (_locate_args(bundle="{path}"), "model bundle"),
    "app-model": (_locate_args(app_model="{path}"), "app model"),
    "config": (["evaluate", "--corpus", str(CORPUS_PATH)], "config file"),
}


@pytest.mark.parametrize("case", NOT_UTF8)
def test_invalid_utf8_exits_2_naming_the_file(tmp_path, case):
    args, what = NOT_UTF8[case]
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe{}\n")  # a UTF-16 byte-order mark
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
    args = [arg.format(path=path, bundle=bundle) for arg in args]
    env = {"CRASHLOC_CONFIG": str(path)} if case == "config" else None
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"
    assert error["message"].startswith(f"cannot read {what}: ")
    assert str(path) in error["message"]


_BAD_CORPUS_LINE = json.dumps({**CORPUS_LINES[0], "category": "Z"})

# case -> (file text, command line with {path} for the file, message before the naming, pointer)
WRONG_CONTENT = {
    "app-model": ("{}", _locate_args(app_model="{path}"), "missing key 'classes' (at /)", "/"),
    "model-bundle": ("{}", _locate_args(bundle="{path}"),
                     "missing key 'selected_vocab' (at /)", "/"),
    "config": ('{"seed": "x"}', ["evaluate", "--corpus", str(CORPUS_PATH)],
               "key 'seed' must be int, got str (at /seed)", "/seed"),
    "corpus": (_BAD_CORPUS_LINE, ["evaluate", "--corpus", "{path}"],
               "category must be A, B or C, got 'Z' (at /0/category)", "/0/category"),
    "crash-log": ("{}", ["locate", "{path}", "--model", "{bundle}", "--corpus", str(CORPUS_PATH)],
                  "no dotted exception type on first line: '{}'", None),
}


@pytest.mark.parametrize("case", WRONG_CONTENT)
def test_wrong_content_exits_2_naming_the_input(tmp_path, monkeypatch, capsys, case):
    text, args, message, pointer = WRONG_CONTENT[case]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
    if case == "config":
        monkeypatch.setenv("CRASHLOC_CONFIG", str(path))
    assert cli.main([arg.format(path=path, bundle=bundle) for arg in args]) == 2
    error = json.loads(capsys.readouterr().err)
    what = case.replace("-", " ").replace("config", "config file")
    assert error["message"] == f"{message} in {what} {str(path)!r}"
    assert error.get("pointer") == pointer


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no int() digit limit")
@pytest.mark.parametrize("case", ["corpus", "crash-log"])
def test_line_number_too_long_for_int_exits_2_naming_the_input(tmp_path, capsys, case):
    digits = sys.get_int_max_str_digits() + 1
    log = f"java.lang.IllegalStateException: x\n\tat com.x.Y.z(Y.java:{'1' * digits})\n"
    problem = f"frame 0 has a line number of {digits} digits, too long to read"
    path = tmp_path / "input.txt"
    if case == "corpus":
        path.write_text(json.dumps({**CORPUS_LINES[0], "crash_log": log}) + "\n", encoding="utf-8")
        args = ["inspect", str(path)]
        expected = ("SchemaError", f"crash_log does not parse: {problem} (at /0/crash_log)",
                    "/0/crash_log")
    else:
        path.write_text(log, encoding="utf-8")
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
        args = ["locate", str(path), "--model", str(bundle), "--corpus", str(CORPUS_PATH)]
        expected = ("MalformedLog", problem, None)
    assert cli.main(args) == 2
    error = json.loads(capsys.readouterr().err)
    kind, message, pointer = expected
    what = case.replace("-", " ")
    assert (error["error"], error["message"], error.get("pointer")) == (
        kind, f"{message} in {what} {str(path)!r}", pointer)


# case -> (file text, command line with {path} for the file)
WITH_BOM = {
    "crash-log": ((CRASH_DIR / "b_geography_service.log").read_text(encoding="utf-8"),
                  ["locate", "{path}", "--model", "{bundle}", "--corpus", str(CORPUS_PATH),
                   "--app-model", str(APP_MODELS / "geography.json")]),
    "corpus": (CORPUS_PATH.read_text(encoding="utf-8"), ["evaluate", "--corpus", "{path}"]),
    "app-model": ((APP_MODELS / "geography.json").read_text(encoding="utf-8"),
                  _locate_args(app_model="{path}")),
    "model-bundle": (json.dumps(BUNDLE_OBJ), _locate_args(bundle="{path}")),
    "config": (json.dumps(CONFIG_OBJ), ["evaluate", "--corpus", str(CORPUS_PATH)]),
}


@pytest.mark.parametrize("case", WITH_BOM)
def test_leading_byte_order_mark_is_ignored(tmp_path, monkeypatch, capsys, case):
    """A file saved with a UTF-8 byte order mark in front (and, for the crash
    log, "\\r\\n" line endings) gives the output of the same file without it."""
    text, args = WITH_BOM[case]
    # The corpus names its app models as "../app_models/<name>.json".
    (tmp_path / "app_models").mkdir()
    for model in APP_MODELS.glob("*.json"):
        (tmp_path / "app_models" / model.name).write_bytes(model.read_bytes())
    (tmp_path / "in").mkdir()
    plain, marked = tmp_path / "in" / "plain.txt", tmp_path / "in" / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    if case == "crash-log":
        text = text.replace("\n", "\r\n")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
    outputs = []
    for path in (plain, marked):
        if case == "config":
            monkeypatch.setenv("CRASHLOC_CONFIG", str(path))
        assert cli.main([arg.format(path=path, bundle=bundle) for arg in args]) == 0, \
            capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_undecodable_file_error_text_is_unchanged(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"ab\xffcd")
    with pytest.raises(SchemaError) as raised:
        read_text(path, "corpus")
    assert str(raised.value) == (f"cannot read corpus: {str(path)!r} is not UTF-8: 'utf-8' codec "
                                 "can't decode byte 0xff in position 2: invalid start byte")


@pytest.mark.parametrize("data, where", [
    (b"\xef\xbb\xbfab\xffcd", "byte 0xff in position 5: invalid start byte"),
    (b"\xef\xbb\xbf" + b"a" * 100_000 + b"\xffcd", "byte 0xff in position 100003: invalid start byte"),
    (b"\xef\xbb\xbfab\xe2\x82", "bytes in position 5-6: unexpected end of data"),
])
def test_undecodable_byte_after_a_byte_order_mark_is_named_by_its_file_offset(tmp_path, data,
                                                                              where):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as raised:
        read_text(path, "corpus")
    assert str(raised.value) == (f"cannot read corpus: {str(path)!r} is not UTF-8: 'utf-8' codec "
                                 f"can't decode {where}")


def _read_from(how: str, tmp_path, data: bytes):
    """``read_text`` of ``data`` as a crash log, from a regular file or a pipe."""
    if how == "file":
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        return read_text(path, "crash log")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        return read_text(f"/dev/fd/{read_end}", "crash log")
    finally:
        os.close(read_end)


@pytest.mark.parametrize("how", ["file", "pipe"])
@pytest.mark.parametrize("data, where", [
    (b"\xef\xbb", "bytes in position 0-1: unexpected end of data"),
    (b"\xef\xbb\xbfab\xffcd", "byte 0xff in position 5: invalid start byte"),
])
def test_part_of_a_mark_or_a_bad_byte_after_one_is_named_by_its_offset(tmp_path, how, data,
                                                                        where):
    """Only the first two bytes of a byte order mark are not UTF-8, and a
    bad byte after a whole mark is named by its offset in the input, read
    from a file or from a pipe that cannot seek."""
    with pytest.raises(SchemaError) as raised:
        _read_from(how, tmp_path, data)
    assert str(raised.value).endswith(f" is not UTF-8: 'utf-8' codec can't decode {where}")


@pytest.mark.parametrize("how", ["file", "pipe"])
def test_crlf_and_cr_read_as_line_feeds_after_a_mark(tmp_path, how):
    assert _read_from(how, tmp_path, b"\xef\xbb\xbfa\r\nb\rc\n\r\r\n") == "a\nb\nc\n\n\n"


def test_crash_log_piped_to_stdin_names_its_bad_byte_by_file_offset(tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE_OBJ), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "crashloc", "locate", "/dev/stdin", "--model", str(bundle),
         "--corpus", str(CORPUS_PATH)],
        input=b"\xef\xbb\xbfab\xffcd", capture_output=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["message"] == (
        "cannot read crash log: '/dev/stdin' is not UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 5: invalid start byte")
