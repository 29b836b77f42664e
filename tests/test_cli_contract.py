"""The CLI contract on damaged inputs, as one property per command.

Each example damages one input file of a command that works on the
fixtures, runs ``cli.main`` in-process and requires what the CLI promises
for any input: exit code 0, 2 or 3; stderr that carries JSON lines only;
no traceback; and an exit-2 message that names the damaged input, by its
kind or its path.
"""
from __future__ import annotations

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import APP_MODELS, CORPUS_PATH, CRASH_DIR
from crashloc import cli
from crashloc.config import Config
from crashloc.corpus import load_corpus
from crashloc.evaluation import fit
from crashloc.trace import FrameworkMatcher

MUTATIONS = ("flip", "truncate", "delete", "duplicate", "not-utf8", "directory", "empty")

# role -> the kind that error messages give the input
KINDS = {
    "crash_log": "crash log",
    "bundle": "model bundle",
    "corpus": "corpus",
    "app_model": "app model",
    "config": "config file",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """Copies of the fixtures, laid out so that the corpus's relative app-model
    paths resolve, plus a trained bundle and a config file."""
    root = tmp_path_factory.mktemp("contract")
    shutil.copytree(CORPUS_PATH.parent, root / "corpus")
    shutil.copytree(APP_MODELS, root / "app_models")
    shutil.copy(CRASH_DIR / "b_fengshui_downgrade.log", root / "crash.log")
    config = Config()
    nb_model = fit(load_corpus(CORPUS_PATH, FrameworkMatcher()), config).nb
    (root / "bundle.json").write_text(json.dumps(cli._bundle_to_obj(nb_model, config)),
                                      encoding="utf-8")
    (root / "config.json").write_text('{"links_depth": 3, "chi2_ratio": 0.6}\n',
                                      encoding="utf-8")
    return root


# role -> the input's file in the workspace
FILES = {
    "crash_log": "crash.log",
    "bundle": "bundle.json",
    "corpus": "corpus/synthetic_corpus.jsonl",
    "app_model": "app_models/fengshui.json",
    "config": "config.json",
}


def _argv(command: str, role: str, files: dict[str, Path], out: Path) -> list[str]:
    if command == "locate":
        return ["locate", str(files["crash_log"]), "--model", str(files["bundle"]),
                "--corpus", str(files["corpus"]), "--app-model", str(files["app_model"])]
    if command == "train":
        return ["train", "--corpus", str(files["corpus"]), "--model", str(out)]
    if command == "evaluate":
        return ["evaluate", "--corpus", str(files["corpus"]), "--folds", "2"]
    return ["inspect", str(files[role])]


@st.composite
def damage(draw, data: bytes) -> bytes | None:
    """``data`` damaged one way; None stands for a directory in its place."""
    how = draw(st.sampled_from(MUTATIONS))
    i, j = sorted(draw(st.lists(st.integers(0, len(data)), min_size=2, max_size=2)))
    if how == "flip":
        i = min(i, len(data) - 1)
        return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    if how == "truncate":
        return data[:i]
    if how == "delete":
        return data[:i] + data[j:]
    if how == "duplicate":
        return data[:j] + data[i:j] + data[j:]
    if how == "not-utf8":
        return data[:i] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[i:]
    if how == "directory":
        return None
    return b""


def _run_damaged(workspace: Path, command: str, role: str, draw) -> None:
    """Run ``command`` with the input ``role`` damaged, in a file of its own
    beside the original so that relative paths in it still resolve."""
    files = {r: workspace / name for r, name in FILES.items()}
    damaged = files[role].with_name("damaged" + files[role].suffix)
    data = draw(damage(files[role].read_bytes()))
    files[role] = damaged
    if data is None:
        damaged.mkdir()
    else:
        damaged.write_bytes(data)
    env = {"CRASHLOC_CONFIG": str(files["config"])} if command in ("train", "evaluate") else {}
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, env), redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(_argv(command, role, files, workspace / "out.json"))
    finally:
        damaged.rmdir() if data is None else damaged.unlink()

    assert code in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    records = [json.loads(line) for line in stderr.getvalue().splitlines()]
    if code == 2:
        message = records[-1]["message"]
        # inspect does not know the kind of its input until it has read it.
        names = (str(damaged),) if command == "inspect" else (KINDS[role], str(damaged))
        assert any(name in message for name in names), (role, message)


@settings(max_examples=200, deadline=None)
@given(role=st.sampled_from(["crash_log", "bundle", "corpus", "app_model"]), data=st.data())
def test_locate_on_a_damaged_input_keeps_the_contract(workspace, role, data):
    _run_damaged(workspace, "locate", role, data.draw)


@settings(max_examples=100, deadline=None)
@given(role=st.sampled_from(["corpus", "config"]), data=st.data())
def test_train_on_a_damaged_input_keeps_the_contract(workspace, role, data):
    _run_damaged(workspace, "train", role, data.draw)


@settings(max_examples=150, deadline=None)
@given(role=st.sampled_from(["corpus", "bundle", "app_model"]), data=st.data())
def test_inspect_on_a_damaged_input_keeps_the_contract(workspace, role, data):
    _run_damaged(workspace, "inspect", role, data.draw)


@settings(max_examples=30, deadline=None)
@given(role=st.sampled_from(["corpus", "config"]), data=st.data())
def test_evaluate_on_a_damaged_input_keeps_the_contract(workspace, role, data):
    _run_damaged(workspace, "evaluate", role, data.draw)
