#!/usr/bin/env python3
"""crashloc benchmark: three generated workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload eval-clones --seed 0 --seconds 36 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured with no tracing; with ``--trace 1`` they
are the per-layer ones, from a separate traced run. Lines before it give
the inputs' descriptors, the machine facts and a readable table. The run
writes only under ``.bench_tmp/`` (inputs, removed at exit) and
``.bench_out/`` (span dumps) of the checkout, runs in one process with no
threads, and starts its CLI subprocesses one at a time.

Workloads (inputs come from bench/gen.py; the seed is the only input):

- eval-clones: 400 crashes in 16 families whose clones share the framework
  sub-trace exactly (2-6 frames) and differ only in message IDs and
  developer names. One 5-fold ``evaluate`` per repetition. This is the
  paper's bucketing case: the nearest-crash search and the Category-C
  means compare the same 16 sub-traces over a hundred thousand times, so
  the similarity layer dominates. A retrieval index that compares each
  distinct sub-trace once shows its gain here.
- eval-distinct: 192 crashes in 48 families; every clone's sub-trace
  (4-24 frames) carries 1-3 random frame edits and its message draws 8-14
  words from a 6,000-word pool (a vocabulary of about 3,500 words). No
  sub-trace repeats, so deduplication saves nothing and the work moves to
  the edit-distance kernel and to ``chi_square_select`` (vocabulary x
  corpus). This is the no-change control for a retrieval index, and the
  target of an exact edit-distance kernel or a chi-square speed-up.
- locate-bigapp: a closed loop with one client, fitted on a 240-crash
  corpus from many small apps, sending held-out crashes of one big app
  (200 classes, 1,000 methods, about 3 callees per method, parameter
  flows, call-in and callback APIs) through ``locate``, each after the
  previous one returns. The mix per 20 queries is 8 A, 6 C, 2 B callback
  and 4 B call-in, so p50 falls among the C queries and p90 among the
  call-in queries. It is the only workload where the app-model queries
  (the ``links`` search, ``inherits_from``) do the work, and it uses the
  pipeline one crash at a time where the eval workloads use it in folds.
  The eval workloads' app models are tiny: they are the no-change control
  for an app-model graph index.

The eval corpora are small enough that one evaluate takes 2-3 s, so that
a run holds several evaluates and their median is steady.

Every workload reports every end-to-end metric. An end-to-end run first
prepares, untimed: it loads and fits, trains a CLI bundle with
``crashloc train`` and makes one warm-up CLI call. Then it repeats a cycle
of timed steps (``CYCLE``: evaluates, quarters of a pass over the
held-out queries, cold CLI calls and set-ups) until ``--seconds`` is up,
so that each kind of sample spans the run, and each metric is a median
over many samples.

A shared machine changes speed by tens of percent over seconds and
minutes, which moves every time alike. So after each step the run times
one slice of a fixed reference task (bench/reference.py, standard library
only), and one more for each half second the step took, and every time
below is scaled by ``REFERENCE_SLICE_S / median(slice times)``: it reads
as on a machine where a slice takes ``REFERENCE_SLICE_S``. A change to
crashloc moves the scaled times as it moves the wall times; a slower
machine does not. The unscaled values and the scale are printed in a
``note:`` line. The metrics:

- ``eval_cases_per_s`` (crashes/s): corpus size / time of one
  ``evaluate`` (both protocols), median over the run's evaluates.
- ``locate_p50_ms``, ``locate_p90_ms`` (ms): in-process ``locate``
  latency. Each held-out query (112, 144 or 120 of them) runs once per
  pass; its latency is the median over the run's passes, and the metrics
  are the median and p90 over the queries. On locate-bigapp this is the
  closed loop, one client.
- ``cli_locate_ms`` (ms): median time of a cold
  ``python -m crashloc locate`` subprocess, on Category-B call-in queries.
- ``setup_s`` (s): median set-up time. eval-*: ``load_corpus``;
  locate-bigapp: load corpus and app model, then vocabulary, chi-square
  and NB fit.
- ``peak_rss_mb`` (MB): peak RSS of the run's process, of which the
  reference task's data holds about 9 MB on every commit.
- ``accuracy``, ``mrr`` (ratio): Phase-1 accuracy and end-to-end MRR
  against the generator's labels: from the evaluate report on eval-*,
  scored by this file from the locate results on locate-bigapp.

Failed operations over attempted ones (``fail_ratio``) is printed in the
table and carried by the ``failed`` and ``attempted`` keys, not by a
metric: it reads 0, and a relative bound on 0 means nothing. A failure is
an evaluate case failure, a ``locate`` or CLI error, or an output
mismatch. Every evaluate report, and the first pass of the locate result
stream, is hashed; the hash must equal the first of its kind in the run
and the digest recorded in bench/digests.json for the workload and seed
(bench/record_digests.py writes them; an unrecorded seed is checked for
repeatability only). Every later locate result, and every CLI result, must
equal the first-pass result of the same query.

Per-layer metrics (``--trace 1``) come from a warm-up pass, then one
untraced and one traced pass of the same fixed work: set-up, one evaluate
and one locate pass (no CLI; ``--seconds`` does not apply). Counts are
therefore exact per seed. ``bench/tracer.py`` wraps each function at the
module names through which crashloc calls it, and fails the run if one no
longer exists. For each wrapped function the run
reports ``<layer>.calls`` and ``<layer>.self_ms``. Which end-to-end metric
each layer should move:

- trace.parse_and_split, corpus.load_corpus: setup_s and cli_locate_ms on
  every workload.
- features.build_vocabulary, features.chi_square_select,
  features.vectorize, features.vocab_size: eval_cases_per_s, most on
  eval-distinct; setup_s on locate-bigapp.
- nb.train, nb.predict: eval_cases_per_s on both eval-* workloads, and
  locate_p50_ms.
- similarity.most_similar, similarity.crash_similarity,
  similarity.distinct_share (distinct sub-traces compared / pool entries
  compared; below 0.1 on eval-clones, above 0.5 on eval-distinct):
  eval_cases_per_s on eval-clones through sharing and on eval-distinct
  through the kernel, and locate_p50_ms through the C queries.
- appmodel.load_app_model, appmodel.invokers_of, appmodel.links,
  appmodel.inherits_from, appmodel.links.true_ratio (links calls that
  return True / all calls): locate_p90_ms and cli_locate_ms on
  locate-bigapp; no change on eval-*.
- localizer.locate and localizer.locate_category_{a,b,c} (self time):
  locate_p50_ms and locate_p90_ms.
- evaluation.evaluate (self time: folds, scoring, report assembly):
  eval_cases_per_s.
- cli.import_ms (wall time of ``python -c "import crashloc"``):
  cli_locate_ms.
- trace.overhead_pct: traced wall time against untraced wall time.

Nothing waits in a queue or on a thread, so no layer reports time waited.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
from reference import REFERENCE_SLICE_S, reference_slice

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"

# The timed steps of one cycle of an end-to-end run. Steps run in this
# order until --seconds is up, after one whole cycle. A "locate" step runs
# the next 1/LOCATE_STEPS of a pass over the held-out queries; short steps
# sit between the evaluates so that each kind of sample is taken at many
# moments of the run. A cycle takes about 4 s on eval-clones (a 2.4 s
# evaluate), 5 s on eval-distinct (a 2.8 s evaluate) and 12 s on
# locate-bigapp (two 2.4 s evaluates and a 4.5 s pass).
_EVAL_CYCLE = ("evaluate", "locate", "cli", "locate", "setup", "locate", "cli", "locate", "cli")
CYCLE = {
    "eval-clones": _EVAL_CYCLE,
    "eval-distinct": _EVAL_CYCLE,
    "locate-bigapp": ("evaluate", "locate", "cli", "locate", "setup", "cli",
                      "evaluate", "locate", "cli", "locate", "setup", "cli"),
}
LOCATE_STEPS = 4
# An evaluate that would end this much past --seconds is skipped.
OVERRUN = 1.1
# Set-ups per "setup" step: load_corpus alone takes about 0.1 s.
SETUP_REPEATS = {"eval-clones": 3, "eval-distinct": 3, "locate-bigapp": 2}
CLI_IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "eval_cases_per_s": "crashes/s",
    "locate_p50_ms": "ms",
    "locate_p90_ms": "ms",
    "cli_locate_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "mrr": "ratio",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests(workload: str, seed: int) -> dict | None:
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


class OutputCheck:
    """Digests of one run's outputs, held against the recorded ones.

    ``check`` returns None when the output matches both the first output of
    its kind in this run and the digest recorded for the workload and
    seed, and otherwise says what differs.
    """

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.seen: dict = {}

    def check(self, kind: str, text: str) -> str | None:
        value = digest(text)
        first = self.seen.setdefault(kind, value)
        if value != first:
            return f"{kind} output differs between repetitions"
        if self.recorded is not None and self.recorded.get(kind) != value:
            return f"{kind} digest {value[:12]} differs from the recorded one"
        return None


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CRASHLOC_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """One workload's inputs, loaded state and tallies for one process."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from crashloc import Config, FrameworkMatcher

        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.paths = gen.generate(workload, seed, workdir)
        corpus, queries, models = gen.load_inputs(self.paths)
        self.descriptors = gen.descriptors(corpus, queries, models)
        self.queries, self.models = queries, models
        self.config = Config()
        self.matcher = FrameworkMatcher()
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        self.outputs = OutputCheck(recorded_digests(workload, seed))
        self.results: list = []  # locate results of the first pass, in query order
        self.next_query = 0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    def check_output(self, kind: str, text: str, count: int) -> None:
        problem = self.outputs.check(kind, text)
        if problem:
            self.fail(count, problem)

    # -- phases ---------------------------------------------------------------

    def setup(self):
        """Timed set-up; returns (corpus, big app model or None, fitted NB or None)."""
        import crashloc

        corpus = crashloc.load_corpus(self.paths["corpus"], self.matcher)
        if self.workload != "locate-bigapp":
            return corpus, None, None
        app_model = crashloc.load_app_model(self.paths["bigapp"])
        return corpus, app_model, self.fit(corpus)

    def fit(self, corpus):
        import crashloc

        vocab = crashloc.build_vocabulary(corpus)
        selected = crashloc.chi_square_select(vocab, corpus, self.config.chi2_ratio)
        pairs = [(crashloc.vectorize(c.report, selected), c.category) for c in corpus]
        return crashloc.train(pairs, self.config.nb_smoothing, selected)

    def load(self) -> None:
        """Set up, then fit when the set-up does not, keeping the state on the run."""
        self.corpus, self.app_model, self.nb = self.setup()
        if self.nb is None:
            self.nb = self.fit(self.corpus)

    def evaluate(self) -> float:
        """One evaluate; returns its wall time and checks its report."""
        import crashloc

        start = time.perf_counter()
        report = crashloc.evaluate(self.corpus, self.config)
        wall = time.perf_counter() - start
        self.attempted += len(self.corpus)
        if report.failures:
            self.fail(len(report.failures), f"{len(report.failures)} evaluate case failures")
        self.check_output("evaluate", report.to_json(), len(self.corpus))
        self.report = report
        return wall

    def locate_queries(self, count: int) -> list:
        """The next ``count`` held-out queries in turn; returns (query index, ms) pairs.

        The first pass over the queries is hashed; every later result must
        equal the first-pass result of the same query.
        """
        import crashloc

        latencies = []
        for _ in range(count):
            i = self.next_query
            self.next_query = (i + 1) % len(self.queries)
            query = self.queries[i]
            model = self.app_model or self.models[query.app_model]
            start = time.perf_counter()
            try:
                out = crashloc.locate(query.report, model, self.corpus, self.nb,
                                      self.config.links_depth).to_json_obj()
            except crashloc.CrashLocError as exc:
                out = {"error": type(exc).__name__, "message": str(exc)}
                self.fail(1, f"locate failed: {out}")
            latencies.append((i, (time.perf_counter() - start) * 1000.0))
            self.attempted += 1
            if len(self.results) < len(self.queries):
                self.results.append(out)
                if len(self.results) == len(self.queries):
                    stream = "\n".join(json.dumps(r, sort_keys=True) for r in self.results)
                    self.check_output("locate", stream, len(self.queries))
            elif out != self.results[i]:
                self.fail(1, f"locate result for query {i} differs between passes")
        return latencies

    def prepare(self) -> None:
        """Untimed state for the cycles: loaded inputs, a fit, a CLI bundle, a warm CLI."""
        self.load()
        self.env = cli_env()
        self.bundle = self.workdir / "bundle.json"
        train = subprocess.run(
            [sys.executable, "-m", "crashloc", "train", "--corpus", str(self.paths["corpus"]),
             "--model", str(self.bundle)], capture_output=True, text=True, env=self.env,
            check=False)
        if train.returncode != 0:
            raise RuntimeError(f"crashloc train failed: {train.stderr}")
        self.cli_outputs: list = []
        self.cli_locate()
        self.cli_outputs.clear()

    def cli_locate(self) -> float:
        """Wall ms of one cold CLI locate, on the next CLI query in turn."""
        qi = self.paths["cli"][len(self.cli_outputs) % len(self.paths["cli"])]
        cmd = [sys.executable, "-m", "crashloc", "locate",
               str(self.workdir / "queries" / f"q{qi:03d}.log"), "--model", str(self.bundle),
               "--corpus", str(self.paths["corpus"]),
               "--app-model", str(self.queries[qi].app_model)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, check=False)
        wall = (time.perf_counter() - start) * 1000.0
        self.attempted += 1
        if proc.returncode != 0:
            self.fail(1, f"CLI locate exited {proc.returncode}: {proc.stderr.strip()}")
        self.cli_outputs.append((qi, proc.stdout))
        return wall

    def check_cli_outputs(self) -> None:
        """Each CLI result must equal the in-process result of the same query."""
        for qi, stdout in self.cli_outputs:
            if stdout and json.loads(stdout) != self.results[qi]:
                self.fail(1, f"CLI locate result for query {qi} differs from in-process")

    def sample(self, phase: str) -> list:
        """One timed operation of a cycle phase; returns its measurements."""
        if phase == "setup":
            walls = []
            for _ in range(SETUP_REPEATS[self.workload]):
                start = time.perf_counter()
                self.setup()
                walls.append(time.perf_counter() - start)
            return walls
        if phase == "evaluate":
            return [self.evaluate()]
        if phase == "locate":
            return self.locate_queries(-(-len(self.queries) // LOCATE_STEPS))
        return [self.cli_locate()]

    # -- scoring ----------------------------------------------------------------

    def score_report(self) -> tuple[float, float]:
        """Accuracy and end-to-end MRR of the last evaluate report, recomputed here."""
        report = self.report
        diag = sum(report.confusion[c][c] for c in report.confusion)
        accuracy = diag / report.corpus_size
        ranks = report.case_ranks["end_to_end"]
        mrr = sum(1.0 / r for r in ranks if r) / len(ranks)
        if accuracy != report.accuracy or abs(mrr - report.mrr) > 1e-12:
            self.fail(1, "evaluate report's accuracy or MRR disagrees with its own cases")
        return accuracy, mrr

    def score_results(self) -> tuple[float, float]:
        """Accuracy and MRR of the first locate pass against the generator's labels."""
        hits, reciprocal = 0, 0.0
        for query, out in zip(self.queries, self.results):
            if "error" in out:
                continue
            hits += out["predicted_category"] == query.category.value
            target = query.true_location.split("(")[0]
            for rank, entry in enumerate(out["ranked"], 1):
                if entry["location"].split("(")[0] == target:
                    reciprocal += 1.0 / rank
                    break
        return hits / len(self.queries), reciprocal / len(self.queries)


def timings(samples: dict, corpus_size: int, scale: float) -> dict:
    """The timed end-to-end metrics, with times multiplied by ``scale``."""
    by_query: dict = {}
    for i, ms in samples["locate"]:
        by_query.setdefault(i, []).append(ms)
    per_query = [statistics.median(v) for v in by_query.values()]
    return {
        "eval_cases_per_s": corpus_size / (statistics.median(samples["evaluate"]) * scale),
        "locate_p50_ms": statistics.median(per_query) * scale,
        "locate_p90_ms": statistics.quantiles(per_query, n=10)[-1] * scale,
        "cli_locate_ms": statistics.median(samples["cli"]) * scale,
        "setup_s": statistics.median(samples["setup"]) * scale,
    }


def end_to_end(run: Run, seconds: float) -> dict:
    run.prepare()
    samples: dict = {"setup": [], "evaluate": [], "locate": [], "cli": []}
    for _ in range(3):  # warm-up, not counted
        reference_slice()
    slices: list = []
    cycle = CYCLE[run.workload]
    start = time.perf_counter()
    step = 0
    # One whole cycle at least, so every query runs once; then steps until time is up.
    while step < len(cycle) or time.perf_counter() - start < seconds:
        phase = cycle[step % len(cycle)]
        step += 1
        if phase == "evaluate" and samples["evaluate"]:
            ends = time.perf_counter() - start + samples["evaluate"][-1]
            if ends > seconds * OVERRUN:
                continue
        began = time.perf_counter()
        samples[phase] += run.sample(phase)
        slices += [reference_slice() for _ in range(1 + int(2 * (time.perf_counter() - began)))]
    run.check_cli_outputs()
    accuracy, mrr = run.score_report() if run.app_model is None else run.score_results()

    scale = REFERENCE_SLICE_S / statistics.median(slices)
    values = timings(samples, len(run.corpus), scale)
    values.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "mrr": mrr,
    })
    run.notes.append("samples: " + " ".join(f"{k}={len(v)}" for k, v in samples.items())
                     + f" reference_slices={len(slices)}")
    unscaled = timings(samples, len(run.corpus), 1.0)
    run.notes.append(f"scale {scale:.4f}; unscaled: "
                     + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def unit_of_work(run: Run) -> None:
    """The fixed work a traced run measures: set-up, one evaluate, one locate pass."""
    run.load()
    run.evaluate()
    run.locate_queries(len(run.queries))


def per_layer(run: Run) -> dict:
    import tracer

    unit_of_work(run)  # warm-up, so that neither timed pass runs cold
    start = time.perf_counter()
    unit_of_work(run)
    untraced = time.perf_counter() - start

    trace = tracer.Tracer()
    trace.install()
    try:
        start = time.perf_counter()
        unit_of_work(run)
        traced = time.perf_counter() - start
    finally:
        trace.uninstall()
    out = ROOT / ".bench_out" / f"spans-{run.workload}-{run.seed}.jsonl"
    trace.write(out)
    run.notes.append(f"spans written to {out.relative_to(ROOT)}")

    metrics = trace.layer_metrics()
    imports = []
    for _ in range(CLI_IMPORT_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import crashloc"], env=cli_env(), check=True)
        imports.append((time.perf_counter() - start) * 1000.0)
    metrics["cli.import_ms"] = (statistics.median(imports[1:]), "ms")
    metrics["trace.overhead_pct"] = ((traced - untraced) / untraced * 100.0, "%")
    return metrics


def machine_facts() -> dict:
    files = sorted((SRC / "crashloc").glob("*.py"))
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False).stdout.strip() or None
        except OSError:
            pass
    content = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    return {
        "git_sha": sha,
        "src_sha256": content,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="crashloc benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crashloc" / "__init__.py").is_file():
        print(f"error: no crashloc sources under {SRC}; run from a crashloc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # On SIGTERM, unwind: subprocess.run kills its child and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"inputs": run.descriptors}))
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({"digests": run.outputs.seen,
                      "recorded": run.outputs.recorded is not None}))
    for note in run.notes:
        print(f"note: {note}")
    print(f"{'fail_ratio':<36} {run.failed / run.attempted:>14.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
