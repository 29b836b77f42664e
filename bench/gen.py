"""Seeded input generator for the crashloc benchmark.

``generate(workload, seed, out_dir)`` writes, under ``out_dir``:

    corpus.jsonl    labeled crashes (the evaluate corpus, and the training
                    corpus of the locate phase)
    queries.jsonl   held-out labeled crashes, same schema, sent one at a
                    time through ``locate``
    models/         one small app model per crash, so that a crash routed
                    to the wrong category still localizes
    bigapp.json     locate-bigapp only: the app model of the queried app

Every structural quantity that sets the cost of a run (family count,
clones per family, category mix, sub-trace lengths, app-model shape) is a
fixed function of the workload; the seed draws only names, words, edits
and which methods link, so that timings of one workload are comparable
across seeds. The generator emits no byte-duplicate crash log: a corpus
that repeats a crash puts copies of it in both train and test folds and
inflates accuracy.

Usage: python3 bench/gen.py --workload eval-clones --seed 0 --out DIR
prints the workload's descriptors as JSON.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SUB_CATEGORIES = ("Manifest", "Hardware", "Asset", "Resource", "Firmware")

# Framework superclass chains and the callbacks each chain leaves to
# subclasses. A developer class of a kind lists every callback of its kind
# as non-overridden.
KINDS = {
    "activity": (
        ("android.app.Activity", "android.view.ContextThemeWrapper",
         "android.content.ContextWrapper", "android.content.Context", "java.lang.Object"),
        ("onLowMemory", "onSaveInstanceState", "onTrimMemory", "onConfigurationChanged"),
    ),
    "fragment": (
        ("androidx.fragment.app.Fragment", "java.lang.Object"),
        ("onDetach", "onLowMemory", "onHiddenChanged"),
    ),
    "service": (
        ("android.app.Service", "android.content.ContextWrapper",
         "android.content.Context", "java.lang.Object"),
        ("onTaskRemoved", "onRebind", "onLowMemory"),
    ),
    "view": (
        ("android.view.View", "java.lang.Object"),
        ("onDetachedFromWindow", "onSizeChanged", "onRestoreInstanceState"),
    ),
    "dbhelper": (
        ("android.database.sqlite.SQLiteOpenHelper", "java.lang.Object"),
        ("onDowngrade", "onOpen"),
    ),
    "plain": (("java.lang.Object",), ()),
}
CALLBACK_KINDS = ("activity", "fragment", "service", "view", "dbhelper")
KIND_SUFFIX = {
    "activity": "Activity", "fragment": "Fragment", "service": "Service",
    "view": "View", "dbhelper": "DbHelper", "plain": "Repository",
}

EXCEPTIONS = {
    "A": ("java.lang.NullPointerException", "java.lang.IllegalArgumentException",
          "java.lang.IndexOutOfBoundsException", "java.lang.ClassCastException",
          "java.lang.NumberFormatException", "java.util.ConcurrentModificationException"),
    "B": ("java.lang.IllegalStateException", "java.lang.IllegalArgumentException",
          "android.view.WindowManager$BadTokenException", "java.lang.RuntimeException",
          "android.os.NetworkOnMainThreadException"),
    "C": ("java.lang.SecurityException", "android.content.ActivityNotFoundException",
          "android.content.res.Resources$NotFoundException", "java.lang.RuntimeException",
          "java.io.FileNotFoundException"),
}

FRAMEWORK_PACKAGES = (
    "android.app", "android.widget", "android.view", "android.content", "android.os",
    "android.database", "android.graphics", "android.media", "android.net",
    "android.hardware.camera2", "androidx.fragment.app", "androidx.recyclerview.widget",
    "java.util", "java.lang", "java.io", "kotlin.collections", "com.android.internal.os",
)
FRAMEWORK_SUFFIXES = ("", "Manager", "Impl", "Compat", "Handler", "Thread", "Wrapper", "Helper")
DEV_TLDS = ("com", "org", "io", "net")
TRAILER = (
    "android.os.Handler.dispatchMessage(Handler.java:106)",
    "android.os.Looper.loop(Looper.java:193)",
    "android.app.ActivityThread.main(ActivityThread.java:6669)",
    "com.android.internal.os.ZygoteInit.main(ZygoteInit.java:858)",
)
SYLLABLES = (
    "ka", "lo", "mi", "ne", "ra", "to", "vu", "zi", "pe", "su", "ba", "co", "di", "fa",
    "gu", "hi", "jo", "ly", "mo", "ny", "qua", "re", "sa", "ti", "wo", "xe", "yu", "ze",
)


# Family category by family index: "A", "Bi" (B call-in), "Bc" (B callback), "C".
CATEGORY_CYCLE = ("A", "Bi", "C", "A", "Bc", "C", "A", "Bi")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's corpus and queries."""

    families: int
    clones: int  # corpus crashes per family
    held_out: int  # held-out queries per family (eval workloads)
    lengths: tuple  # sub-trace lengths, cycled over families
    edits: tuple  # (min, max) random frame edits per clone
    noise_words: tuple  # (min, max) words per message from the shared pool
    pool_size: int  # size of the shared message word pool


SPECS = {
    # 16 families x 25 clones; clones share the sub-trace exactly.
    "eval-clones": Spec(
        families=16, clones=25, held_out=7,
        lengths=(2, 3, 4, 5, 6), edits=(0, 0), noise_words=(0, 0), pool_size=0,
    ),
    # 48 families x 4 clones; every clone's sub-trace carries 1-3 edits.
    "eval-distinct": Spec(
        families=48, clones=4, held_out=3,
        lengths=tuple(range(4, 25)), edits=(1, 3), noise_words=(8, 14), pool_size=6000,
    ),
    # 40 families x 6 clones from many small apps; the queries come from
    # one big app (BIGAPP).
    "locate-bigapp": Spec(
        families=40, clones=6, held_out=0,
        lengths=tuple(range(3, 13)), edits=(0, 1), noise_words=(2, 4), pool_size=1500,
    ),
}
WORKLOADS = tuple(SPECS)

# The queried app of locate-bigapp, and its query stream. The mix is fixed
# per block so that the latency percentiles fall inside one query class:
# p50 among the C queries, p90 among the Category-B call-in queries.
BIGAPP = {"classes": 200, "methods_per_class": 5, "callees": 3, "window": 4,
          "invokers_per_api": 6, "param_flows": 150}
QUERY_BLOCK = ("A",) * 8 + ("C",) * 6 + ("Bc",) * 2 + ("Bi",) * 4
BIGAPP_QUERIES = 120
# Cold CLI calls per run, all on Category-B call-in queries.
CLI_QUERIES = 5


class Names:
    """Unique pseudo-words drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set = set()

    def word(self, lo: int = 2, hi: int = 4) -> str:
        while True:
            w = "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(lo, hi)))
            if w not in self.used:
                self.used.add(w)
                return w

    def cap(self, lo: int = 2, hi: int = 4) -> str:
        return self.word(lo, hi).capitalize()

    def package(self) -> str:
        return f"{self.rng.choice(DEV_TLDS)}.{self.word(2, 3)}.{self.word(2, 3)}"


@dataclass
class Family:
    category: str  # "A", "Bi", "Bc", "C"
    exception: str
    subtrace: list  # framework frame lines, topmost first
    template: list  # message words shared by the family
    api: tuple | None = None  # (class, method) of the wrongly handled API
    kind: str = "plain"  # superclass kind of the crash class
    sub_category: str | None = None

    @property
    def label(self) -> str:
        return self.category[0]


class Generator:
    """Seeded draws of one workload: framework frames, families, crashes, small apps."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"crashloc-bench/{workload}/{seed}")
        self.names = Names(self.rng)
        self.spec = SPECS[workload]
        self.framework = self._framework_universe(600)
        self.call_in_apis = [self._framework_method() for _ in range(24)]
        self.category_words = {c: [self.names.word(3, 4) for _ in range(40)] for c in "ABC"}
        self.pool = [self.names.word(2, 5) for _ in range(self.spec.pool_size)]
        self.logs: set = set()

    # -- framework side -----------------------------------------------------

    def _framework_method(self) -> tuple:
        pkg = self.rng.choice(FRAMEWORK_PACKAGES)
        cls = self.names.cap(2, 3) + self.rng.choice(FRAMEWORK_SUFFIXES)
        return f"{pkg}.{cls}", self.names.word(2, 4)

    def _framework_universe(self, n: int) -> list:
        frames = []
        for _ in range(n):
            cls, method = self._framework_method()
            simple = cls.rsplit(".", 1)[1]
            frames.append(f"{cls}.{method}({simple}.java:{self.rng.randint(40, 9000)})")
        return frames

    def family(self, index: int) -> Family:
        spec = self.spec
        category = CATEGORY_CYCLE[index % len(CATEGORY_CYCLE)]
        label = category[0]
        length = spec.lengths[index % len(spec.lengths)]
        words = self.category_words[label]
        other = self.category_words[self.rng.choice([c for c in "ABC" if c != label])]
        fam = Family(
            category=category,
            exception=self.rng.choice(EXCEPTIONS[label]),
            subtrace=self.rng.sample(self.framework, length),
            template=self.rng.sample(words, 3) + [self.rng.choice(other)],
        )
        if category == "Bi":
            fam.api = self.rng.choice(self.call_in_apis)
        elif category == "Bc":
            fam.kind = self.rng.choice(CALLBACK_KINDS)
            chain, callbacks = KINDS[fam.kind]
            fam.api = (chain[0], self.rng.choice(callbacks))
        elif category == "C":
            fam.sub_category = SUB_CATEGORIES[index % len(SUB_CATEGORIES)]
        if category != "Bc":
            fam.kind = self.rng.choice(("activity", "fragment", "plain"))
        return fam

    def edited(self, subtrace: list) -> list:
        lo, hi = self.spec.edits
        out = list(subtrace)
        for _ in range(self.rng.randint(lo, hi)):
            op = self.rng.choice(("sub", "ins", "del") if len(out) > 2 else ("sub", "ins"))
            pos = self.rng.randrange(len(out))
            if op == "sub":
                out[pos] = self.rng.choice(self.framework)
            elif op == "ins":
                out.insert(pos, self.rng.choice(self.framework))
            else:
                del out[pos]
        return out

    # -- crash logs -----------------------------------------------------------

    def message(self, fam: Family, dev_simple: str) -> str:
        lo, hi = self.spec.noise_words
        words = list(fam.template)
        if hi:
            words += [self.rng.choice(self.pool) for _ in range(self.rng.randint(lo, hi))]
            self.rng.shuffle(words)
        ident = f"{dev_simple}{{{self.rng.getrandbits(32):08x}}}"
        return " ".join(words[:2] + [ident] + words[2:] + [f"id={self.rng.randrange(10**6)}"])

    def crash_log(self, fam: Family, subtrace: list, dev_frames: list) -> str:
        """Unique crash text; dev_frames are (class, method) pairs, crash method first."""
        simple = dev_frames[0][0].rsplit(".", 1)[1]
        while True:
            lines = [f"{fam.exception}: {self.message(fam, simple)}"]
            lines += [f"\tat {f}" for f in subtrace]
            for cls, method in dev_frames:
                file = cls.rsplit(".", 1)[1].split("$")[0]
                lines.append(f"\tat {cls}.{method}({file}.java:{self.rng.randint(20, 900)})")
            lines += [f"\tat {f}" for f in TRAILER[: self.rng.randint(1, len(TRAILER))]]
            text = "\n".join(lines) + "\n"
            if text not in self.logs:
                self.logs.add(text)
                return text

    # -- small per-crash apps -------------------------------------------------

    def small_app(self, fam: Family) -> tuple[list, dict, str]:
        """Developer frames, app model and true location of one crash."""
        pkg = self.names.package()
        n_frames = self.rng.randint(2, 3)
        kinds = [fam.kind] + [self.rng.choice(("activity", "plain")) for _ in range(n_frames - 1)]
        classes = []
        for kind in kinds:
            name = f"{pkg}.{self.names.cap(2, 3)}{KIND_SUFFIX[kind]}"
            methods = [self.names.word(2, 4) for _ in range(3)]
            classes.append((name, kind, methods))
        frames = [(name, methods[0]) for name, _, methods in classes]
        helper = f"{pkg}.{self.names.cap(2, 3)}Helper"
        invoker, spare = self.names.word(2, 4), self.names.word(2, 4)
        api = fam.api if fam.category == "Bi" else self.call_in_apis[0]

        model_classes = []
        callback_apis = set()
        for name, kind, methods in classes:
            chain, callbacks = KINDS[kind]
            model_classes.append({
                "name": name,
                "superclasses": list(chain),
                "active_methods": [f"{name}#{m}()" for m in methods],
                "non_overridden_callbacks": [f"{chain[0]}#{cb}()" for cb in callbacks],
            })
            callback_apis.update((chain[0], cb) for cb in callbacks)
        model_classes.append({
            "name": helper, "superclasses": ["java.lang.Object"],
            "active_methods": [f"{helper}#{invoker}()", f"{helper}#{spare}()"],
            "non_overridden_callbacks": [],
        })
        invocations = [
            {"caller": f"{classes[i + 1][0]}#{classes[i + 1][2][0]}()",
             "callees": [f"{classes[i][0]}#{classes[i][2][0]}()"]}
            for i in range(len(classes) - 1)
        ]
        invocations.append({"caller": f"{frames[0][0]}#{frames[0][1]}()",
                            "callees": [f"{helper}#{invoker}()"]})
        invocations.append({"caller": f"{helper}#{invoker}()", "callees": [f"{api[0]}#{api[1]}()"]})
        invocations.append({"caller": f"{helper}#{spare}()", "callees": [f"{api[0]}#{api[1]}()"]})
        model = {
            "classes": model_classes,
            "invocations": invocations,
            "param_flows": [{"callee": f"{classes[1][0]}#{classes[1][2][0]}()",
                             "position": 0, "class_name": helper}],
            "apis": [{"class_name": api[0], "method_name": api[1], "kind": "call-in"}]
            + [{"class_name": c, "method_name": m, "kind": "callback"}
               for c, m in sorted(callback_apis)],
        }
        return frames, model, self.true_location(fam, frames, f"{helper}#{invoker}")

    def true_location(self, fam: Family, frames: list, invoker: str | None) -> str:
        if fam.category == "A":
            # Most faults sit in the crash method, some in its caller.
            cls, method = frames[0] if self.rng.random() < 0.7 else frames[1]
            return f"{cls}#{method}"
        if fam.category == "Bi":
            return invoker
        if fam.category == "Bc":
            return f"{frames[0][0]}#{fam.api[1]}"
        return fam.sub_category

    def entry(self, fam: Family, subtrace: list, frames: list, true_location: str,
              app_model: str) -> dict:
        return {
            "crash_log": self.crash_log(fam, subtrace, frames),
            "category": fam.label,
            "true_location": true_location,
            "api_h": {"class_name": fam.api[0], "method_name": fam.api[1],
                      "kind": "call-in" if fam.category == "Bi" else "callback"}
            if fam.label == "B" else None,
            "sub_category": fam.sub_category,
            "app_model": app_model,
        }


# ---------------------------------------------------------------------------
# The queried app of locate-bigapp
# ---------------------------------------------------------------------------

@dataclass
class BigApp:
    model: dict
    classes: list  # (name, kind, [method names])
    callers: dict  # "cls#m" -> list of (cls, m) that call it
    invokers: dict  # (api class, api method) -> list of (cls, m)


def build_bigapp(b: Generator, call_in_apis: list) -> BigApp:
    cfg = BIGAPP
    rng, names = b.rng, b.names
    pkgs = [names.package() for _ in range(10)]
    kinds = CALLBACK_KINDS + ("plain", "plain", "plain")
    classes = []
    for i in range(cfg["classes"]):
        kind = kinds[i % len(kinds)]
        name = f"{pkgs[i % len(pkgs)]}.{names.cap(2, 3)}{KIND_SUFFIX[kind]}"
        classes.append((name, kind, [names.word(2, 4) for _ in range(cfg["methods_per_class"])]))
    n = len(classes)
    callees: dict = {}
    callers: dict = {}
    for ci, (name, _, methods) in enumerate(classes):
        for m in methods:
            targets = []
            while len(targets) < cfg["callees"]:
                cj = (ci + rng.randint(-cfg["window"], cfg["window"])) % n
                target = (classes[cj][0], rng.choice(classes[cj][2]))
                if target != (name, m) and target not in targets:
                    targets.append(target)
            callees[(name, m)] = [f"{c}#{t}()" for c, t in targets]
            for c, t in targets:
                callers.setdefault(f"{c}#{t}", []).append((name, m))
    invokers: dict = {}
    for api in call_in_apis:
        chosen = []
        while len(chosen) < cfg["invokers_per_api"]:
            cls = rng.choice(classes)
            pick = (cls[0], rng.choice(cls[2]))
            if pick not in chosen:
                chosen.append(pick)
        invokers[api] = chosen
        for pick in chosen:
            callees[pick].append(f"{api[0]}#{api[1]}()")
    flows = []
    for _ in range(cfg["param_flows"]):
        target, source = rng.choice(classes), rng.choice(classes)
        flows.append({"callee": f"{target[0]}#{rng.choice(target[2])}()",
                      "position": rng.randrange(3), "class_name": source[0]})
    callback_apis = sorted({(KINDS[k][0][0], cb) for k in CALLBACK_KINDS for cb in KINDS[k][1]})
    model = {
        "classes": [
            {"name": name, "superclasses": list(KINDS[kind][0]),
             "active_methods": [f"{name}#{m}()" for m in methods],
             "non_overridden_callbacks": [f"{KINDS[kind][0][0]}#{cb}()" for cb in KINDS[kind][1]]}
            for name, kind, methods in classes
        ],
        "invocations": [{"caller": f"{c}#{m}()", "callees": targets}
                        for (c, m), targets in callees.items()],
        "param_flows": flows,
        "apis": [{"class_name": c, "method_name": m, "kind": "call-in"}
                 for c, m in call_in_apis]
        + [{"class_name": c, "method_name": m, "kind": "callback"} for c, m in callback_apis],
    }
    return BigApp(model=model, classes=classes, callers=callers, invokers=invokers)


def bigapp_frames(b: Generator, app: BigApp, crash: tuple) -> list:
    """A 3-frame developer stack ending in ``crash``, callers following call edges.

    The depth is fixed: it multiplies the number of ``links`` calls of a
    Category-B call-in query.
    """
    frames = [crash]
    for _ in range(2):
        up = app.callers.get(f"{frames[-1][0]}#{frames[-1][1]}")
        if up:
            frames.append(b.rng.choice(up))
        else:
            cls = b.rng.choice(app.classes)
            frames.append((cls[0], b.rng.choice(cls[2])))
    return frames


def bigapp_query(b: Generator, app: BigApp, fam: Family) -> tuple[list, str]:
    rng = b.rng
    if fam.category == "Bi":
        cls_name, invoker = rng.choice(app.invokers[fam.api])
        methods = next(c[2] for c in app.classes if c[0] == cls_name)
        frames = bigapp_frames(b, app, (cls_name, rng.choice([m for m in methods if m != invoker])))
        return frames, f"{cls_name}#{invoker}"
    if fam.category == "Bc":
        cls = rng.choice([c for c in app.classes if c[1] == fam.kind])
    else:
        cls = rng.choice(app.classes)
    frames = bigapp_frames(b, app, (cls[0], rng.choice(cls[2])))
    return frames, b.true_location(fam, frames, None)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _write_jsonl(path: Path, rows: list) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir and return their paths.

    The returned dict holds ``corpus``, ``queries`` (paths), ``cli`` (the
    indices of the queries sent through the cold CLI) and, for
    locate-bigapp, ``bigapp``.
    """
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    b = Generator(workload, seed)
    spec = b.spec
    out_dir = Path(out_dir)
    (out_dir / "models").mkdir(parents=True, exist_ok=True)
    families = [b.family(i) for i in range(spec.families)]

    def small_entry(fam: Family, tag: str) -> dict:
        frames, model, true_location = b.small_app(fam)
        rel = f"models/{tag}.json"
        (out_dir / rel).write_text(json.dumps(model), encoding="utf-8")
        return b.entry(fam, b.edited(fam.subtrace), frames, true_location, rel)

    corpus = [small_entry(fam, f"f{fi:03d}c{ci:02d}")
              for fi, fam in enumerate(families) for ci in range(spec.clones)]
    # Corpus order is shuffled so that folds mix families.
    b.rng.shuffle(corpus)

    result = {"corpus": out_dir / "corpus.jsonl", "queries": out_dir / "queries.jsonl"}
    if workload == "locate-bigapp":
        used_apis = sorted({f.api for f in families if f.category == "Bi"})
        app = build_bigapp(b, used_apis)
        (out_dir / "bigapp.json").write_text(json.dumps(app.model), encoding="utf-8")
        result["bigapp"] = out_dir / "bigapp.json"
        by_category = {c: [f for f in families if f.category == c] for c in ("A", "Bi", "Bc", "C")}
        queries = []
        for qi in range(BIGAPP_QUERIES):
            category = QUERY_BLOCK[qi % len(QUERY_BLOCK)]
            group = by_category[category]
            fam = group[(qi // len(QUERY_BLOCK)) % len(group)]
            frames, true_location = bigapp_query(b, app, fam)
            queries.append(b.entry(fam, b.edited(fam.subtrace), frames, true_location,
                                   "bigapp.json"))
        b.rng.shuffle(queries)
    else:
        queries = [small_entry(fam, f"f{fi:03d}q{qi:02d}")
                   for fi, fam in enumerate(families) for qi in range(spec.held_out)]
        b.rng.shuffle(queries)
    _write_jsonl(result["corpus"], corpus)
    _write_jsonl(result["queries"], queries)
    call_in = [i for i, q in enumerate(queries)
               if q["api_h"] is not None and q["api_h"]["kind"] == "call-in"]
    result["cli"] = call_in[:CLI_QUERIES]
    (out_dir / "queries").mkdir(exist_ok=True)
    for i in result["cli"]:
        (out_dir / "queries" / f"q{i:03d}.log").write_text(queries[i]["crash_log"],
                                                          encoding="utf-8")
    return result


def load_inputs(paths: dict):
    """Validate every generated entry through the public loaders.

    Returns (corpus, queries, app models by path). Raises CrashLocError on
    the first entry that does not load.
    """
    from crashloc import FrameworkMatcher, load_app_model, load_corpus

    matcher = FrameworkMatcher()
    corpus = load_corpus(paths["corpus"], matcher)
    queries = load_corpus(paths["queries"], matcher)
    models = {}
    for crash in corpus + queries:
        if crash.app_model is None:
            raise ValueError(f"crash without an app model: {crash.true_location}")
        if crash.app_model not in models:
            models[crash.app_model] = load_app_model(crash.app_model)
    return corpus, queries, models


def descriptors(corpus, queries, models) -> dict:
    """Size, category mix, sub-trace sharing, vocabulary and app-model shape."""
    from crashloc import build_vocabulary, bucketize

    def mix(crashes):
        out = {"A": 0, "B-call-in": 0, "B-callback": 0, "C": 0}
        for c in crashes:
            key = c.category.value if c.api_h is None else f"B-{c.api_h.kind}"
            out[key] += 1
        return out

    lengths = [len(c.report.framework_subtrace) for c in corpus]
    app_shape = [
        (sum(len(cd.active_methods) for cd in m.classes.values()),
         sum(len(callees) for _, callees in m.invocations),
         sum(1 for _, callees in m.invocations if any(not c.is_developer for c in callees)))
        for m in models.values()
    ]
    largest = max(app_shape)
    return {
        "corpus_size": len(corpus),
        "queries": len(queries),
        "corpus_mix": mix(corpus),
        "query_mix": mix(queries),
        "distinct_subtrace_share": round(len(bucketize(corpus)) / len(corpus), 4),
        "mean_subtrace_len": round(sum(lengths) / len(lengths), 3),
        "vocabulary_size": len(build_vocabulary(corpus)),
        "app_models": len(models),
        "largest_app_model": {"methods": largest[0], "edges": largest[1], "invokers": largest[2]},
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    paths = generate(args.workload, args.seed, Path(args.out))
    print(json.dumps(descriptors(*load_inputs(paths)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
