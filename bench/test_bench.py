"""Tests of the benchmark itself: generator, output check and trace wrappers.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from crashloc import Config, FrameworkMatcher, evaluate, load_corpus  # noqa: E402

FIXTURE_CORPUS = BENCH.parent / "fixtures" / "corpus" / "synthetic_corpus.jsonl"


def files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_inputs(workload, tmp_path):
    gen.generate(workload, 3, tmp_path / "a")
    gen.generate(workload, 3, tmp_path / "b")
    gen.generate(workload, 4, tmp_path / "c")
    a, b, c = files(tmp_path / "a"), files(tmp_path / "b"), files(tmp_path / "c")
    assert a == b
    assert a[Path("corpus.jsonl")] != c[Path("corpus.jsonl")]
    assert a[Path("queries.jsonl")] != c[Path("queries.jsonl")]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_inputs_load_and_never_repeat_a_crash(workload, tmp_path):
    paths = gen.generate(workload, 0, tmp_path)
    corpus, queries, models = gen.load_inputs(paths)
    logs = [c.crash_log for c in corpus + queries]
    assert len(set(logs)) == len(logs)
    assert all(c.app_model in models for c in corpus + queries)
    described = gen.descriptors(corpus, queries, models)
    assert described["corpus_size"] == gen.SPECS[workload].families * gen.SPECS[workload].clones
    assert len(paths["cli"]) == gen.CLI_QUERIES


@pytest.fixture(scope="module")
def fixture_report():
    corpus = load_corpus(FIXTURE_CORPUS, FrameworkMatcher())
    return evaluate(corpus, Config())


def test_altered_report_fails_the_output_check(fixture_report):
    text = fixture_report.to_json()
    recorded = {"evaluate": run.digest(text)}
    assert run.OutputCheck(recorded).check("evaluate", text) is None

    altered = dataclasses.replace(fixture_report, accuracy=fixture_report.accuracy - 0.025)
    assert run.OutputCheck(recorded).check("evaluate", altered.to_json()) is not None
    # Without a recorded digest, a repetition must still match the first output.
    check = run.OutputCheck(None)
    assert check.check("evaluate", text) is None
    assert check.check("evaluate", altered.to_json()) is not None


def test_every_trace_wrapper_binds_and_unbinds():
    originals = {d: getattr(*tracer.resolve(d)) for names in tracer.TARGETS.values() for d in names}
    trace = tracer.Tracer()
    trace.install()
    try:
        for dotted, original in originals.items():
            wrapper = getattr(*tracer.resolve(dotted))
            assert wrapper is not original and wrapper.__wrapped__ is original, dotted
    finally:
        trace.uninstall()
    for dotted, original in originals.items():
        assert getattr(*tracer.resolve(dotted)) is original, dotted


def test_missing_traced_name_fails_before_wrapping(monkeypatch):
    localizer = importlib.import_module("crashloc.localizer")
    monkeypatch.delattr(localizer, "links")
    with pytest.raises(tracer.TracerError, match="crashloc.localizer.links"):
        tracer.Tracer().install()
    evaluation = importlib.import_module("crashloc.evaluation")
    assert not hasattr(evaluation.chi_square_select, "__wrapped__")


def test_traced_evaluate_is_transparent_and_counted(fixture_report):
    import crashloc

    corpus = load_corpus(FIXTURE_CORPUS, FrameworkMatcher())
    trace = tracer.Tracer()
    trace.install()
    try:
        report = crashloc.evaluate(corpus, Config())
    finally:
        trace.uninstall()
    assert report.to_json() == fixture_report.to_json()
    metrics = trace.layer_metrics()
    assert metrics["evaluation.evaluate.calls"][0] == 1
    assert metrics["features.chi_square_select.calls"][0] == Config().kfold_k
    assert metrics["similarity.crash_similarity.calls"][0] > 0
    assert 0 < metrics["similarity.distinct_share"][0] <= 1
    for layer in tracer.TARGETS:
        assert metrics[f"{layer}.self_ms"][0] >= 0
