from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

from conftest import APP_MODELS, CORPUS_PATH, CRASH_DIR, REPO_ROOT, run_cli
from crashloc import cli
from crashloc.corpus import load_corpus
from crashloc.localizer import locate
from crashloc.trace import FrameworkMatcher, parse_and_split


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "bundle.json"
    proc = run_cli("train", "--corpus", str(CORPUS_PATH), "--model", str(path))
    assert proc.returncode == 0, proc.stderr
    return path, json.loads(proc.stdout)


def test_train_writes_bundle_with_half_vocabulary(bundle):
    path, summary = bundle
    assert path.exists()
    assert summary["documents"] == 40
    assert summary["selected_features"] == math.ceil(0.5 * summary["vocabulary_size"])
    assert set(summary["priors"]) == {"A", "B", "C"}
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["kind"] == "crashloc-model-bundle"
    assert list(obj["nb"]) == ["smoothing", "priors", "conditionals"]


def test_train_ratio_flag_honored(tmp_path):
    out = tmp_path / "full.json"
    proc = run_cli("train", "--corpus", str(CORPUS_PATH), "--model", str(out),
                   "--chi2-ratio", "1.0")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["selected_features"] == summary["vocabulary_size"]


def test_train_bad_path_exits_2():
    proc = run_cli("train", "--corpus", "does/not/exist.jsonl", "--model", "/tmp/x.json")
    assert proc.returncode == 2
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_train_unwritable_bundle_path_exits_2(tmp_path, target):
    out = tmp_path / "no_such_dir" / "bundle.json" if target == "missing_dir" else tmp_path
    proc = run_cli("train", "--corpus", str(CORPUS_PATH), "--model", str(out))
    assert proc.returncode == 2, proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError"
    assert error["message"].startswith("cannot write model bundle: ")
    assert "Traceback" not in proc.stderr


def test_locate_category_a_stack_order(bundle):
    path, _ = bundle
    proc = run_cli(
        "locate", str(CRASH_DIR / "a2_transistor_state.log"),
        "--model", str(path), "--corpus", str(CORPUS_PATH),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["predicted_category"] == "A"
    assert result["ranked"][0]["location"].endswith("#selectFromImagePicker")
    assert [r["score"] for r in result["ranked"]] == [1.0, 0.5, 1 / 3]


def test_locate_fengshui_ranks_ondowngrade_first(bundle):
    path, _ = bundle
    proc = run_cli(
        "locate", str(CRASH_DIR / "b_fengshui_downgrade.log"),
        "--model", str(path), "--corpus", str(CORPUS_PATH),
        "--app-model", str(APP_MODELS / "fengshui.json"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["predicted_category"] == "B"
    assert result["ranked"][0]["location"].startswith("com.divination1518.g.p#onDowngrade")


def test_locate_missing_app_model_on_b_prediction_exits_3(bundle):
    path, _ = bundle
    proc = run_cli(
        "locate", str(CRASH_DIR / "b_geography_service.log"),
        "--model", str(path), "--corpus", str(CORPUS_PATH),
    )
    assert proc.returncode == 3
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "LocateError"
    assert error["phase"] == "locate"


def test_locate_malformed_crash_log_exits_2(bundle, tmp_path):
    path, _ = bundle
    log = tmp_path / "bad.log"
    log.write_text("not a crash\n", encoding="utf-8")
    proc = run_cli("locate", str(log), "--model", str(path), "--corpus", str(CORPUS_PATH))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "MissingException"


def test_locate_pretty_prints_rank_table(bundle):
    path, _ = bundle
    proc = run_cli(
        "locate", str(CRASH_DIR / "a1_notes_npe.log"),
        "--model", str(path), "--corpus", str(CORPUS_PATH), "--pretty",
    )
    assert proc.returncode == 0, proc.stderr
    assert "predicted category: A" in proc.stdout
    assert "com.example.notes.NoteActivity#render" in proc.stdout


def test_evaluate_deterministic_and_fast(bundle):
    args = ("evaluate", "--corpus", str(CORPUS_PATH), "--seed", "0")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["fold_count"] == 5
    recalls = [report["recall_at"][str(k)] for k in (1, 5, 10)]
    assert recalls == sorted(recalls)


def test_evaluate_perfect_categorization_flag():
    proc = run_cli(
        "evaluate", "--corpus", str(CORPUS_PATH), "--seed", "0",
        "--perfect-categorization",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["protocol"] == "perfect_categorization"
    assert report["mrr"] == 1.0


def test_evaluate_pretty_ends_with_the_bucket_summary():
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH), "--seed", "0", "--pretty")
    assert proc.returncode == 0, proc.stderr
    assert "Localization end to end" in proc.stdout
    # The tables end with the bucket-level summary.
    assert proc.stdout.splitlines()[-3:] == [
        "Bucket-level summary (one unit per identical framework sub-trace)",
        "end_to_end: buckets=10  Recall@1=0.90  Recall@5=0.90  Recall@10=0.90  MRR=0.90",
        "perfect_categorization: buckets=10  Recall@1=1.00  Recall@5=1.00  Recall@10=1.00"
        "  MRR=1.00",
    ]


def test_inspect_corpus_bundle_and_app_model(bundle):
    path, _ = bundle
    corpus_summary = json.loads(run_cli("inspect", str(CORPUS_PATH)).stdout)
    assert corpus_summary["kind"] == "corpus"
    assert corpus_summary["crashes"] == 40
    assert corpus_summary["buckets"] == 10
    assert corpus_summary["categories"] == {"A": 20, "B": 10, "C": 10}

    bundle_summary = json.loads(run_cli("inspect", str(path)).stdout)
    assert bundle_summary["kind"] == "model_bundle"
    assert bundle_summary["ratio"] == 0.5

    model_summary = json.loads(run_cli("inspect", str(APP_MODELS / "geography.json")).stdout)
    assert model_summary["kind"] == "app_model"
    assert model_summary["classes"] == 2
    assert model_summary["apis"] == 2


def test_inspect_rejects_unknown_file(tmp_path):
    weird = tmp_path / "weird.json"
    weird.write_text('{"surprise": true}', encoding="utf-8")
    proc = run_cli("inspect", str(weird))
    assert proc.returncode == 2
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"


def test_config_env_var_sets_defaults(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"chi2_ratio": 1.0}), encoding="utf-8")
    out = tmp_path / "bundle.json"
    proc = run_cli(
        "train", "--corpus", str(CORPUS_PATH), "--model", str(out),
        env_extra={"CRASHLOC_CONFIG": str(config_file)},
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["selected_features"] == summary["vocabulary_size"]


def test_config_env_var_with_mistyped_field_exits_2(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"seed": "x"}), encoding="utf-8")
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH),
                   env_extra={"CRASHLOC_CONFIG": str(config_file)})
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["pointer"] == "/seed"


# The required arguments of each command, so that a flag it lacks is the only error.
REQUIRED = {
    "train": ("train", "--corpus", "c.jsonl", "--model", "b.json"),
    "locate": ("locate", "x.log", "--model", "b.json", "--corpus", "c.jsonl"),
    "inspect": ("inspect", "x.json"),
}
# Flags a command used to accept and ignore.
REMOVED_FLAGS = [("train", "--seed"), ("locate", "--chi2-ratio"), ("locate", "--smoothing"),
                 ("locate", "--seed"), ("inspect", "--chi2-ratio"), ("inspect", "--smoothing"),
                 ("inspect", "--links-depth"), ("inspect", "--seed")]


@pytest.mark.parametrize(
    "argv",
    [("evaluate", "--corpus", str(CORPUS_PATH), "--jobs", "2"), ("evaluate",), ()]
    + [(*REQUIRED[command], flag, "1") for command, flag in REMOVED_FLAGS],
    ids=["unknown-flag", "missing-corpus", "no-command"]
    + [f"{command}{flag}" for command, flag in REMOVED_FLAGS],
)
def test_usage_errors_are_one_json_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "UsageError"
    assert record["message"].startswith("crashloc")
    if len(argv) > 2:
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in record["message"]


def test_help_stays_plain_text_on_stdout():
    proc = run_cli("evaluate", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: crashloc evaluate")
    assert proc.stderr == ""


@pytest.mark.parametrize("command, flags", [
    ("train", {"--corpus", "--model", "--chi2-ratio", "--smoothing", "--links-depth"}),
    ("locate", {"--model", "--corpus", "--app-model", "--pretty", "--links-depth"}),
    ("evaluate", {"--corpus", "--app-model", "--pretty", "--perfect-categorization",
                  "--chi2-ratio", "--smoothing", "--links-depth", "--folds", "--seed"}),
    ("inspect", set()),
])
def test_each_command_takes_only_the_flags_it_reads(command, flags, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) == flags | {"--help"}


def _drop(obj, section, key):
    del obj[section][key]
    return obj


def _run_on_bundle(command, tmp_path, obj):
    """``locate`` or ``inspect`` run on ``obj`` written as a bundle file."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    if command == "locate":
        return run_cli("locate", str(CRASH_DIR / "a1_notes_npe.log"), "--model", str(bad),
                       "--corpus", str(CORPUS_PATH))
    return run_cli("inspect", str(bad))


@pytest.mark.parametrize("command", ["locate", "inspect"])
@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: 5,
        lambda obj: {**obj, "config": 5},
        lambda obj: _drop(obj, "nb", "priors"),
        lambda obj: _drop(obj, "selected_vocab", "words"),
    ],
    ids=["not-an-object", "config-not-an-object", "no-nb-priors", "no-vocab-words"],
)
def test_malformed_bundle_exits_2_with_pointer(bundle, tmp_path, command, mutate):
    path, _ = bundle
    proc = _run_on_bundle(command, tmp_path,
                          mutate(json.loads(path.read_text(encoding="utf-8"))))
    assert proc.returncode == 2, proc.stderr
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["error"] == "SchemaError"
    assert error["pointer"].startswith("/")


@pytest.mark.parametrize("command", ["locate", "inspect"])
def test_bundle_without_config_exits_2_with_pointer(bundle, tmp_path, command):
    # A bundle is trained with its settings; none are filled in by default.
    path, _ = bundle
    obj = json.loads(path.read_text(encoding="utf-8"))
    del obj["config"]
    proc = _run_on_bundle(command, tmp_path, obj)
    assert proc.returncode == 2, proc.stdout
    error = json.loads(proc.stderr)
    assert (error["error"], error["pointer"]) == ("SchemaError", "/")
    assert error["message"].startswith("missing key 'config'")


def test_locate_takes_settings_from_bundle(tmp_path, monkeypatch, capsys):
    # Train without "android." among the prefixes and with depth 1; at
    # locate time a config file asking for other values must not matter.
    trained_prefixes = ["java.", "androidx."]
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({"framework_prefixes": trained_prefixes}),
                            encoding="utf-8")
    other_config = tmp_path / "other.json"
    other_config.write_text(json.dumps({"links_depth": 4}), encoding="utf-8")
    out = tmp_path / "bundle.json"
    monkeypatch.setenv("CRASHLOC_CONFIG", str(train_config))
    assert cli.main(["train", "--corpus", str(CORPUS_PATH), "--model", str(out),
                     "--links-depth", "1"]) == 0
    saved = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert (saved["framework_prefixes"], saved["links_depth"]) == (trained_prefixes, 1)

    seen = []

    def spy(report, model, corpus, nb, depth):
        seen.append((report, corpus, depth))
        return locate(report, model, corpus, nb, depth)

    monkeypatch.setattr(cli, "locate", spy)
    monkeypatch.setenv("CRASHLOC_CONFIG", str(other_config))
    log = CRASH_DIR / "c_manifest_permission.log"
    args = ["locate", str(log), "--model", str(out), "--corpus", str(CORPUS_PATH)]
    cli.main(args)
    cli.main([*args, "--links-depth", "3"])
    capsys.readouterr()

    trained = FrameworkMatcher(tuple(trained_prefixes))
    expected = parse_and_split(log.read_text(encoding="utf-8"), trained)
    assert expected != parse_and_split(log.read_text(encoding="utf-8"), FrameworkMatcher())
    assert [(r, d) for r, _, d in seen] == [(expected, 1), (expected, 3)]
    assert seen[0][1] == load_corpus(CORPUS_PATH, trained)


def test_stderr_carries_json_lines_only(bundle):
    path, _ = bundle
    proc = run_cli(
        "locate", str(CRASH_DIR / "b_fengshui_downgrade.log"),
        "--model", str(path), "--corpus", str(CORPUS_PATH),
        "--app-model", str(APP_MODELS / "geography.json"),
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stderr.splitlines()]
    assert records and all(r["level"] == "WARNING" for r in records)
    assert "class not in app model" in records[0]["message"]


def _set(obj, *path_and_value):
    *path, key, value = path_and_value
    target = obj
    for step in path:
        target = target[step]
    target[key] = value
    return obj


@pytest.mark.parametrize(
    "path_and_value, pointer",
    [
        (("nb", "priors", "A", math.nan), "/nb/priors/A"),
        (("nb", "priors", "C", 0), "/nb/priors/C"),
        (("nb", "conditionals", 0, 1, math.inf), "/nb/conditionals/0/1"),
        (("nb", "conditionals", 2, 0, 1.0), "/nb/conditionals/2/0"),
        (("nb", "smoothing", -math.inf), "/nb/smoothing"),
        (("selected_vocab", "chi2", 3, math.nan), "/selected_vocab/chi2/3"),
        (("config", "nb_smoothing", math.nan), "/config/nb_smoothing"),
    ],
    ids=["nan-prior", "zero-prior", "infinite-cell", "cell-of-one", "infinite-smoothing",
         "nan-chi2", "nan-config-smoothing"],
)
def test_non_finite_bundle_numbers_exit_2_with_pointer(bundle, tmp_path, path_and_value, pointer):
    path, _ = bundle
    bad = tmp_path / "bad.json"
    obj = _set(json.loads(path.read_text(encoding="utf-8")), *path_and_value)
    bad.write_text(json.dumps(obj), encoding="utf-8")  # writes NaN and Infinity as JSON does
    proc = run_cli("locate", str(CRASH_DIR / "a1_notes_npe.log"), "--model", str(bad),
                   "--corpus", str(CORPUS_PATH))
    assert proc.returncode == 2, proc.stdout
    error = json.loads(proc.stderr)
    assert (error["error"], error["pointer"]) == ("SchemaError", pointer)


@pytest.mark.parametrize("prefixes, pointer", [([], "/framework_prefixes"),
                                              (["android.", ""], "/framework_prefixes/1")])
def test_empty_framework_prefixes_exit_2_with_pointer(bundle, tmp_path, prefixes, pointer):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"framework_prefixes": prefixes}), encoding="utf-8")
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH),
                   env_extra={"CRASHLOC_CONFIG": str(config_file)})
    assert proc.returncode == 2, proc.stdout
    assert json.loads(proc.stderr)["pointer"] == pointer

    path, _ = bundle
    bad = tmp_path / "bad.json"
    obj = _set(json.loads(path.read_text(encoding="utf-8")), "config", "framework_prefixes",
               prefixes)
    bad.write_text(json.dumps(obj), encoding="utf-8")
    proc = run_cli("locate", str(CRASH_DIR / "a1_notes_npe.log"), "--model", str(bad),
                   "--corpus", str(CORPUS_PATH))
    assert proc.returncode == 2, proc.stdout
    assert json.loads(proc.stderr)["pointer"] == "/config" + pointer


def test_evaluate_rejects_a_malformed_true_location_with_pointer(tmp_path):
    lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[3])
    entry["true_location"] = "a#b#c"
    lines[3] = json.dumps(entry)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli("evaluate", "--corpus", str(corpus))
    assert proc.returncode == 2, proc.stdout
    error = json.loads(proc.stderr)
    assert (error["error"], error["pointer"]) == ("SchemaError", "/3/true_location")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_smoothing_flag_exits_2(value):
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH), f"--smoothing={value}")
    assert proc.returncode == 2, proc.stdout
    assert "nb_smoothing must be a finite number" in json.loads(proc.stderr)["message"]


@pytest.mark.parametrize("text", ['{"nb_smoothing": NaN}', '{"nb_smoothing": Infinity}',
                                  '{"chi2_ratio": NaN}'])
def test_non_finite_config_file_exits_2(tmp_path, text):
    config_file = tmp_path / "config.json"
    config_file.write_text(text, encoding="utf-8")
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH),
                   env_extra={"CRASHLOC_CONFIG": str(config_file)})
    assert proc.returncode == 2, proc.stdout
    assert json.loads(proc.stderr)["pointer"] == "/" + json.loads(text).popitem()[0]


def test_train_with_a_smoothing_too_small_for_a_model_exits_2_without_a_bundle(tmp_path):
    out = tmp_path / "bundle.json"
    proc = run_cli("train", "--corpus", str(CORPUS_PATH), "--model", str(out),
                   "--smoothing", "5e-324")
    assert proc.returncode == 2, proc.stdout
    assert "smoothing 5e-324" in json.loads(proc.stderr)["message"]
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_evaluate_with_a_smoothing_too_small_for_a_model_exits_2(tmp_path, where):
    if where == "flag":
        proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH), "--smoothing", "1e-15")
    else:
        config_file = tmp_path / "config.json"
        config_file.write_text('{"nb_smoothing": 1e-15}', encoding="utf-8")
        proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH),
                       env_extra={"CRASHLOC_CONFIG": str(config_file)})
    assert proc.returncode == 2, proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])
    assert error["error"] == "ValueError"
    assert "smoothing 1e-15" in error["message"]
    assert "Traceback" not in proc.stderr


def test_evaluate_with_a_smoothing_so_large_that_counts_overflow_exits_2():
    # N + 3s overflows to inf, so every prior is 0.0 and a larger smoothing cannot help.
    proc = run_cli("evaluate", "--corpus", str(CORPUS_PATH), "--smoothing", "1e308")
    assert proc.returncode == 2, proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])
    assert error["error"] == "ValueError"
    assert "NB probability 0.0 " in error["message"]
    assert "smoothing 1e+308" in error["message"]
    assert "larger" not in error["message"]


@pytest.mark.parametrize("command, lines, error", [
    ("train", 0, "EmptyCorpus"),
    ("evaluate", 0, "CorpusTooSmall"),
    ("evaluate", 3, "CorpusTooSmall"),
], ids=["train-empty", "evaluate-empty", "evaluate-3-crashes-5-folds"])
def test_corpus_unfit_for_the_command_exits_2_naming_it(tmp_path, command, lines, error):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(CORPUS_PATH.read_text(encoding="utf-8").splitlines(True)[:lines]),
                      encoding="utf-8")
    extra = ["--model", str(tmp_path / "bundle.json")] if command == "train" else []
    proc = run_cli(command, "--corpus", str(corpus), *extra)
    assert proc.returncode == 2, proc.stdout
    record = json.loads(proc.stderr)
    assert record["error"] == error
    assert record["message"].endswith(f" in corpus {str(corpus)!r}")


@pytest.mark.parametrize("command", ["evaluate", "locate"])
def test_closed_stdout_exits_quietly(bundle, command):
    # The reader goes away before the first byte is written, as `| head -0` does.
    args = {"evaluate": ("evaluate", "--corpus", str(CORPUS_PATH)),
            "locate": ("locate", str(CRASH_DIR / "c_hardware_camera.log"),
                       "--model", str(bundle[0]), "--corpus", str(CORPUS_PATH))}[command]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "crashloc", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=REPO_ROOT)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""
