"""Command-line front end: train models, locate crashes, evaluate, inspect.

Usage:
    crashloc train    --corpus corpus.jsonl --model bundle.json \
                      [--chi2-ratio R] [--smoothing S] [--links-depth D]
    crashloc locate   crash.log --model bundle.json --corpus corpus.jsonl \
                      [--app-model model.json] [--links-depth D] [--pretty]
    crashloc evaluate --corpus corpus.jsonl [--app-model model.json] \
                      [--chi2-ratio R] [--smoothing S] [--links-depth D] \
                      [--folds K] [--seed N] [--perfect-categorization] [--pretty]
    crashloc inspect  path

Results go to stdout; stderr carries JSON lines only (log records and
error reports). Exit codes: 2 for unusable inputs (missing files, schema
errors, malformed logs), 3 for localization failures; a reader that closes
stdout early ends the command quietly with 0. CRASHLOC_CONFIG may
point at a JSON config file for train, evaluate and inspect; locate reads
its settings from the model bundle instead. Flags override either. train
also stores the B and C training pools in the bundle; locate builds them
from it when the corpus bytes and the framework prefixes are those that
train read, and parses the corpus otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from collections import Counter
from pathlib import Path

from .appmodel import app_model_from_json, load_app_model
from .config import Config, config_from_json_obj, load_config
from .corpus import CATEGORIES, load_corpus
from .errors import (
    CrashLocError, LocateError, SchemaError, expect, naming, parse_json, read_bytes, read_text,
    write_text,
)
from .evaluation import bucketize, evaluate, fit, render_bucket_summary, render_text
from .features import SelectedVocabulary
from .localizer import locate, location_label
from .nb import NBModel
from .pool import StoredPool, pool_from_json_obj, pool_to_json_obj
from .trace import FrameworkMatcher, parse_and_split

BUNDLE_KIND = "crashloc-model-bundle"

EXIT_INPUT_ERROR = 2
EXIT_LOCATE_ERROR = 3


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, LocateError):
        payload["phase"] = exc.phase
    pointer = getattr(exc, "pointer", "")
    if pointer:
        payload["pointer"] = pointer
    print(json.dumps(payload), file=sys.stderr)


class _JsonLogHandler(logging.Handler):
    """Writes each log record to stderr as one JSON object per line."""

    def emit(self, record: logging.LogRecord) -> None:
        print(json.dumps({"level": record.levelname, "logger": record.name,
                          "message": record.getMessage()}), file=sys.stderr)


_LOG_HANDLER = _JsonLogHandler()

# Config field -> (flag, type, help) of the command-line flag that overrides it.
_CONFIG_FLAGS = {
    "chi2_ratio": ("--chi2-ratio", float, "fraction of vocabulary kept after feature selection"),
    "nb_smoothing": ("--smoothing", float, "additive smoothing of the categorizer"),
    "links_depth": ("--links-depth", int, "max call-chain depth for the linkage check"),
    "kfold_k": ("--folds", int, "number of cross-validation folds"),
    "seed": ("--seed", int, "shuffle seed for cross-validation"),
}


def _add_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """Give ``parser`` the flags of these Config fields, each stored under its field name."""
    for name in fields:
        flag, kind, help_text = _CONFIG_FLAGS[name]
        parser.add_argument(flag, dest=name, type=kind, help=help_text)


def _resolve_config(args: argparse.Namespace, base: Config | None = None) -> Config:
    """``base`` (else CRASHLOC_CONFIG, else the defaults) with the flags applied."""
    config = base
    if config is None:
        env_path = os.environ.get("CRASHLOC_CONFIG")
        config = load_config(env_path) if env_path else Config()
    overrides = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(Config)}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _bundle_to_obj(nb_model: NBModel, config: Config, pool: dict | None = None) -> dict:
    """The JSON value of a model bundle: training config, selected vocabulary,
    categorizer and, when given, the stored training pool."""
    obj = {
        "kind": BUNDLE_KIND,
        "config": config.to_json_obj(),
        "selected_vocab": nb_model.selected_vocab.to_json_obj(),
        "nb": nb_model.to_json_obj(),
    }
    return obj if pool is None else obj | {"pool": pool}


def _bundle_from_obj(obj) -> tuple[NBModel, Config, StoredPool | None]:
    """Categorizer, training config and stored training pool of a model
    bundle's JSON value; the pool is None when the bundle has none of a
    version this code reads."""
    vocab_obj = expect(obj, "selected_vocab", dict, "")
    selected = SelectedVocabulary.from_json_obj(vocab_obj, "/selected_vocab")
    nb_model = NBModel.from_json_obj(expect(obj, "nb", dict, ""), selected, "/nb")
    config = config_from_json_obj(expect(obj, "config", dict, ""), "/config")
    return nb_model, config, pool_from_json_obj(obj["pool"]) if "pool" in obj else None


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    data = read_bytes(args.corpus, "corpus")
    corpus = load_corpus(args.corpus, FrameworkMatcher(config.framework_prefixes), data)
    with naming("corpus", args.corpus):
        nb_model = fit(corpus, config).nb
    selected = nb_model.selected_vocab
    out_path = Path(args.model)
    pool = pool_to_json_obj(corpus, data, config.framework_prefixes)
    write_text(out_path, json.dumps(_bundle_to_obj(nb_model, config, pool)) + "\n",
               "model bundle")
    summary = {
        "documents": len(corpus),
        "vocabulary_size": len(selected.base),
        "selected_features": len(selected),
        "priors": {c.value: nb_model.prior(c) for c in CATEGORIES},
        "model": str(out_path),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_locate(args: argparse.Namespace) -> int:
    text = read_text(args.model, "model bundle")
    with naming("model bundle", args.model):
        obj = parse_json(text, "model bundle")
        nb_model, bundle_config, pool = _bundle_from_obj(obj)
    config = _resolve_config(args, bundle_config)
    matcher = FrameworkMatcher(config.framework_prefixes)
    data = read_bytes(args.corpus, "corpus")
    if pool is not None and pool.serves(data, config.framework_prefixes):
        corpus = pool.crashes
    else:
        corpus = load_corpus(args.corpus, matcher, data)
    app_model = load_app_model(args.app_model) if args.app_model else None
    text = read_text(args.crash_log, "crash log")
    with naming("crash log", args.crash_log):
        report = parse_and_split(text, matcher)
    result = locate(report, app_model, corpus, nb_model, config.links_depth)
    if args.pretty:
        print(f"predicted category: {result.predicted_category.value}")
        if result.ranked:
            width = max(len(location_label(loc)) for loc, _ in result.ranked)
            for position, (loc, score) in enumerate(result.ranked, 1):
                print(f"{position:>4}  {location_label(loc):<{width}}  {score:.4f}")
        else:
            print("(empty rank)")
    else:
        print(json.dumps(result.to_json_obj(), indent=2))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = load_corpus(args.corpus, FrameworkMatcher(config.framework_prefixes))
    protocol = "perfect_categorization" if args.perfect_categorization else "end_to_end"
    with naming("corpus", args.corpus):  # app-model errors are recorded, not raised
        report = evaluate(corpus, config, fallback_model=args.app_model, protocol=protocol)
    if args.pretty:
        print(render_text(report) + render_bucket_summary(corpus, report), end="")
    else:
        print(report.to_json())
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    text = read_text(path, "file")

    summary = None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.split("\n", 1)[0].strip()
        try:
            looks_jsonl = "crash_log" in parse_json(first_line, "first line")
        except SchemaError:
            looks_jsonl = False
        if not looks_jsonl:
            obj = parse_json(text, str(path))
            with naming("file", path):
                summary = _inspect_json_object(obj)
    if summary is None:
        config = _resolve_config(args)
        corpus = load_corpus(path, FrameworkMatcher(config.framework_prefixes))
        categories = Counter(crash.category.value for crash in corpus)
        subs = Counter(crash.sub_category.value for crash in corpus if crash.sub_category)
        summary = {
            "kind": "corpus",
            "crashes": len(corpus),
            "categories": {c.value: categories.get(c.value, 0) for c in CATEGORIES},
            "sub_categories": subs,
            "buckets": len(bucketize(corpus)),
        }
    print(json.dumps(summary, indent=2))
    return 0


def _inspect_json_object(obj: dict) -> dict:
    if obj.get("kind") == BUNDLE_KIND or ("nb" in obj and "selected_vocab" in obj):
        nb_model, _, pool = _bundle_from_obj(obj)
        selected = nb_model.selected_vocab
        return {
            "kind": "model_bundle",
            "vocabulary_size": len(selected.base),
            "selected_features": len(selected),
            "ratio": selected.ratio,
            "smoothing": nb_model.smoothing,
            "priors": {c.value: nb_model.prior(c) for c in CATEGORIES},
            "pool": None if pool is None else {"crashes": len(pool.crashes),
                                               "corpus_sha256": pool.corpus_sha256},
        }
    if "classes" in obj:
        model = app_model_from_json(obj)
        return {
            "kind": "app_model",
            "classes": len(model.classes),
            "active_methods": sum(len(c.active_methods) for c in model.classes.values()),
            "non_overridden_callbacks": sum(
                len(c.non_overridden_callbacks) for c in model.classes.values()
            ),
            "invocations": len(model.invocations),
            "param_flows": len(model.param_flows),
            "apis": len(model.apis),
        }
    raise SchemaError("file is neither a corpus, a model bundle, nor an app model", "/")


class _JsonArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one JSON line on stderr, like every other error."""

    def error(self, message: str):
        print(json.dumps({"error": "UsageError", "message": f"{self.prog}: {message}"}),
              file=sys.stderr)
        self.exit(EXIT_INPUT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonArgumentParser(
        prog="crashloc",
        description="Locate Android framework-specific crashing faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and write a model bundle")
    p_train.add_argument("--corpus", required=True, help="labeled corpus (JSON lines)")
    p_train.add_argument("--model", required=True, help="output bundle path")
    _add_flags(p_train, "chi2_ratio", "nb_smoothing", "links_depth")
    p_train.set_defaults(func=cmd_train)

    p_locate = sub.add_parser("locate", help="locate one crash")
    p_locate.add_argument("crash_log", help="crash log file")
    p_locate.add_argument("--model", required=True, help="trained model bundle")
    p_locate.add_argument("--corpus", required=True,
                          help="labeled corpus (JSON lines); not parsed when it holds the bytes "
                               "the bundle's stored pool was trained on")
    p_locate.add_argument("--app-model", dest="app_model", default=None,
                          help="static app model JSON for Category-B localization")
    p_locate.add_argument("--pretty", action="store_true",
                          help="print a rank table instead of JSON")
    _add_flags(p_locate, "links_depth")
    p_locate.set_defaults(func=cmd_locate)

    p_eval = sub.add_parser("evaluate", help="k-fold cross-validated evaluation")
    p_eval.add_argument("--corpus", required=True, help="labeled corpus (JSON lines)")
    p_eval.add_argument("--app-model", dest="app_model", default=None,
                        help="fallback app model for crashes without one")
    p_eval.add_argument("--pretty", action="store_true",
                        help="print text tables instead of JSON")
    p_eval.add_argument("--perfect-categorization", dest="perfect_categorization",
                        action="store_true",
                        help="score localization under the true categories")
    _add_flags(p_eval, "chi2_ratio", "nb_smoothing", "links_depth", "kfold_k", "seed")
    p_eval.set_defaults(func=cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="summarize a corpus, bundle, or app model")
    p_inspect.add_argument("path", help="file to inspect")
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.getLogger("crashloc").addHandler(_LOG_HANDLER)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``); the rest of the output
        # goes to /dev/null, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except LocateError as exc:
        _emit_error(exc)
        return EXIT_LOCATE_ERROR
    except (CrashLocError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
