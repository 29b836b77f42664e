from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from crashloc.config import Config
from crashloc.corpus import load_corpus
from crashloc.trace import FrameworkMatcher, parse_and_split

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
CRASH_DIR = FIXTURES / "crashes"
CORPUS_PATH = FIXTURES / "corpus" / "synthetic_corpus.jsonl"
APP_MODELS = FIXTURES / "app_models"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "crashloc", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.fixture(scope="session")
def matcher() -> FrameworkMatcher:
    return FrameworkMatcher()


@pytest.fixture(scope="session")
def config() -> Config:
    return Config()


@pytest.fixture(scope="session")
def corpus(matcher):
    return load_corpus(CORPUS_PATH, matcher)


@pytest.fixture(scope="session")
def crash_logs() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(CRASH_DIR.glob("*.log"))}


@pytest.fixture(scope="session")
def listing1_report(crash_logs, matcher):
    return parse_and_split(crash_logs["listing1.log"], matcher)


@pytest.fixture(scope="session")
def figure1_report(crash_logs, matcher):
    return parse_and_split(crash_logs["figure1.log"], matcher)


def make_report(
    exception: str = "java.lang.IllegalStateException",
    message: str = "",
    framework: tuple[str, ...] = ("android.app.Activity.performCreate",),
    developer: tuple[str, ...] = ("com.app.demo.Main.onCreate",),
    trailing: tuple[str, ...] = (),
):
    """Build a split CrashReport from qualified frame names."""
    lines = [f"{exception}: {message}" if message else exception]
    for i, name in enumerate(framework + developer + trailing):
        lines.append(f"\tat {name}(Source.java:{10 + i})")
    return parse_and_split("\n".join(lines) + "\n", FrameworkMatcher())


def json_fields(value, path=()):
    """The path of every object member and array item inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_fields(child, path + (key,))
