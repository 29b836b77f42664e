"""Command-line front end: train models, locate crashes, evaluate, inspect.

Usage:
    crashloc train    --corpus corpus.jsonl --model bundle.json
    crashloc locate   crash.log --model bundle.json --corpus corpus.jsonl \
                      [--app-model model.json] [--pretty]
    crashloc evaluate --corpus corpus.jsonl [--folds 5] [--seed 0] \
                      [--perfect-categorization] [--pretty]
    crashloc inspect  path

Results go to stdout; stderr carries JSON lines only (log records and
error reports). Exit codes: 2 for unusable inputs (missing files, schema
errors, malformed logs), 3 for localization failures. CRASHLOC_CONFIG may
point at a JSON config file for train, evaluate and inspect; locate reads
its settings from the model bundle instead. Flags override either.
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
from .corpus import load_corpus
from .errors import CrashLocError, LocateError, SchemaError, expect, read_json
from .evaluation import bucketize, evaluate, fit, render_text
from .features import SelectedVocabulary
from .localizer import locate, location_label
from .nb import CATEGORIES, NBModel
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

# (command-line flag, Config field) pairs; a flag that is given overrides the field.
_FLAG_FIELDS = (("chi2_ratio", "chi2_ratio"), ("smoothing", "nb_smoothing"),
                ("links_depth", "links_depth"), ("folds", "kfold_k"), ("seed", "seed"))


def _resolve_config(args: argparse.Namespace, base: Config | None = None) -> Config:
    """``base`` (else CRASHLOC_CONFIG, else the defaults) with the flags applied."""
    config = base
    if config is None:
        env_path = os.environ.get("CRASHLOC_CONFIG")
        config = load_config(env_path) if env_path else Config()
    overrides = {field: getattr(args, flag, None) for flag, field in _FLAG_FIELDS}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _bundle_from_obj(obj) -> tuple[NBModel, Config]:
    """Categorizer and training config of a model bundle's JSON value."""
    vocab_obj = expect(obj, "selected_vocab", dict, "")
    selected = SelectedVocabulary.from_json_obj(vocab_obj, "/selected_vocab")
    nb_model = NBModel.from_json_obj(expect(obj, "nb", dict, ""), selected, "/nb")
    return nb_model, config_from_json_obj(obj.get("config", {}), "/config")


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    corpus = load_corpus(args.corpus, FrameworkMatcher(config.framework_prefixes))
    nb_model = fit(corpus, config).nb
    selected = nb_model.selected_vocab
    bundle = {
        "kind": BUNDLE_KIND,
        "config": config.to_json_obj(),
        "selected_vocab": selected.to_json_obj(),
        "nb": nb_model.to_json_obj(),
    }
    out_path = Path(args.model)
    out_path.write_text(json.dumps(bundle, indent=2) + "\n", encoding="utf-8")
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
    nb_model, bundle_config = _bundle_from_obj(read_json(args.model, "model bundle"))
    config = _resolve_config(args, bundle_config)
    matcher = FrameworkMatcher(config.framework_prefixes)
    corpus = load_corpus(args.corpus, matcher)
    app_model = load_app_model(args.app_model) if args.app_model else None
    try:
        crash_text = Path(args.crash_log).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read crash log: {exc}") from exc
    try:
        report = parse_and_split(crash_text, matcher)
    except CrashLocError as exc:
        raise LocateError("parse", str(exc)) from exc
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
    report = evaluate(corpus, config, fallback_model=args.app_model, protocol=protocol)
    if args.pretty:
        print(render_text(report), end="")
    else:
        print(report.to_json())
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc

    summary = None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        first_line = stripped.splitlines()[0].strip()
        try:
            looks_jsonl = "crash_log" in json.loads(first_line)
        except json.JSONDecodeError:
            looks_jsonl = False
        if not looks_jsonl:
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"not valid JSON: {exc}", "/") from exc
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
        nb_model, _ = _bundle_from_obj(obj)
        selected = nb_model.selected_vocab
        return {
            "kind": "model_bundle",
            "vocabulary_size": len(selected.base),
            "selected_features": len(selected),
            "ratio": selected.ratio,
            "smoothing": nb_model.smoothing,
            "priors": {c.value: nb_model.prior(c) for c in CATEGORIES},
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crashloc",
        description="Locate Android framework-specific crashing faults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--chi2-ratio", dest="chi2_ratio", type=float, default=None,
                       help="fraction of vocabulary kept after feature selection")
        p.add_argument("--smoothing", dest="smoothing", type=float, default=None,
                       help="additive smoothing of the categorizer")
        p.add_argument("--links-depth", dest="links_depth", type=int, default=None,
                       help="max call-chain depth for the linkage check")
        p.add_argument("--seed", dest="seed", type=int, default=None,
                       help="shuffle seed for cross-validation")

    p_train = sub.add_parser("train", help="train and write a model bundle")
    p_train.add_argument("--corpus", required=True, help="labeled corpus (JSON lines)")
    p_train.add_argument("--model", required=True, help="output bundle path")
    add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_locate = sub.add_parser("locate", help="locate one crash")
    p_locate.add_argument("crash_log", help="crash log file")
    p_locate.add_argument("--model", required=True, help="trained model bundle")
    p_locate.add_argument("--corpus", required=True, help="labeled corpus (JSON lines)")
    p_locate.add_argument("--app-model", dest="app_model", default=None,
                          help="static app model JSON for Category-B localization")
    p_locate.add_argument("--pretty", action="store_true",
                          help="print a rank table instead of JSON")
    add_config_flags(p_locate)
    p_locate.set_defaults(func=cmd_locate)

    p_eval = sub.add_parser("evaluate", help="k-fold cross-validated evaluation")
    p_eval.add_argument("--corpus", required=True, help="labeled corpus (JSON lines)")
    p_eval.add_argument("--app-model", dest="app_model", default=None,
                        help="fallback app model for crashes without one")
    p_eval.add_argument("--folds", dest="folds", type=int, default=None,
                        help="number of cross-validation folds")
    p_eval.add_argument("--pretty", action="store_true",
                        help="print text tables instead of JSON")
    p_eval.add_argument("--perfect-categorization", dest="perfect_categorization",
                        action="store_true",
                        help="score localization under the true categories")
    add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_inspect = sub.add_parser("inspect", help="summarize a corpus, bundle, or app model")
    p_inspect.add_argument("path", help="file to inspect")
    add_config_flags(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.getLogger("crashloc").addHandler(_LOG_HANDLER)
    try:
        return args.func(args)
    except LocateError as exc:
        _emit_error(exc)
        return EXIT_LOCATE_ERROR
    except CrashLocError as exc:
        _emit_error(exc)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        _emit_error(exc)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
