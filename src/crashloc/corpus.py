"""Labeled crash corpus: label taxonomy, JSON-lines loading, validation, serialization.

A ``Category`` is where the paper's taxonomy puts a fault: A in the stack
trace, B in the code but outside the trace, C outside the code, at one
``SubCategory``.

Each line holds one labeled crash:

    {"crash_log": "...", "category": "A"|"B"|"C", "true_location": "...",
     "api_h": {"class_name", "method_name", "kind"} | null,
     "sub_category": "Manifest"|... | null,
     "app_model": "relative/path.json" | null}

``app_model`` paths are resolved against the corpus file's directory and
written relative to it.
Category-B lines must carry ``api_h``; Category-C lines must carry
``sub_category``. An A or B line's ``true_location`` is a method reference
(``class#method``, optionally ``(sig)``), a C line's a sub-category name.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .appmodel import ApiRef, parse_method_ref
from .errors import (
    CrashLocError, SchemaError, decode_text, expect, naming, parse_json, read_bytes, write_text,
)
from .records import builder
from .trace import CrashReport, FrameworkMatcher, parse_and_split


class Category(str, Enum):
    A = "A"
    B = "B"
    C = "C"


CATEGORIES = (Category.A, Category.B, Category.C)


class SubCategory(str, Enum):
    """Fault locations outside the code."""

    MANIFEST = "Manifest"
    HARDWARE = "Hardware"
    ASSET = "Asset"
    RESOURCE = "Resource"
    FIRMWARE = "Firmware"


SUB_CATEGORIES = tuple(SubCategory)

_CATEGORY_NAMES = {category.value: category for category in Category}
_SUB_CATEGORY_NAMES = {sub.value: sub for sub in SubCategory}


@dataclass(frozen=True, slots=True)
class LabeledCrash:
    report: CrashReport
    category: Category
    true_location: str
    api_h: ApiRef | None = None
    sub_category: SubCategory | None = None
    app_model: Path | None = None
    crash_log: str = ""

    def to_json_obj(self, base_dir: Path) -> dict:
        """The corpus line of this crash, ``app_model`` written relative to
        ``base_dir``, the directory of the corpus file it goes into."""
        app_model = self.app_model and os.path.relpath(self.app_model.resolve(), base_dir.resolve())
        return {
            "crash_log": self.crash_log,
            "category": self.category.value,
            "true_location": self.true_location,
            "api_h": self.api_h.to_json_obj() if self.api_h else None,
            "sub_category": self.sub_category.value if self.sub_category else None,
            "app_model": app_model,
        }


_labeled_crash = builder(LabeledCrash)


def labeled_crash_from_json(
    obj: dict, matcher: FrameworkMatcher, base_dir: Path | None = None, pointer: str = ""
) -> LabeledCrash:
    # Every key is checked with ``expect``, which builds a message only for
    # the value that fails. Checks run in the order of the keys below, and
    # the first failure is the one reported.
    value = expect(obj, "category", str, pointer)
    category = _CATEGORY_NAMES.get(value)
    if category is None:
        raise SchemaError(f"category must be A, B or C, got {value!r}", f"{pointer}/category")
    crash_log = expect(obj, "crash_log", str, pointer)
    try:
        report = parse_and_split(crash_log, matcher)
    except CrashLocError as exc:
        raise SchemaError(f"crash_log does not parse: {exc}", f"{pointer}/crash_log") from exc

    api_h = obj.get("api_h")
    if api_h is not None:
        api_h = ApiRef.from_json_obj(api_h, f"{pointer}/api_h")
    elif category is Category.B:
        raise SchemaError("Category-B entry must carry api_h", f"{pointer}/api_h")

    sub_category = obj.get("sub_category")
    if sub_category is not None:
        try:
            sub_category = _SUB_CATEGORY_NAMES[sub_category]
        except (KeyError, TypeError):  # TypeError: an array or object
            raise SchemaError(
                f"unknown sub_category {sub_category!r}", f"{pointer}/sub_category"
            ) from None
    elif category is Category.C:
        raise SchemaError("Category-C entry must carry sub_category", f"{pointer}/sub_category")

    true_location = expect(obj, "true_location", str, pointer)
    if category is not Category.C:
        parse_method_ref(true_location, pointer=f"{pointer}/true_location")
    elif true_location not in _SUB_CATEGORY_NAMES:
        raise SchemaError(f"Category-C true_location must name a sub-category, "
                          f"got {true_location!r}", f"{pointer}/true_location")

    app_model = obj.get("app_model")
    if app_model is not None:
        app_model = expect(obj, "app_model", str, pointer)
        if not app_model:
            app_model = None
        elif base_dir is None:
            app_model = Path(app_model)
        else:
            # Joining to an absolute path gives that path.
            app_model = base_dir / app_model

    return _labeled_crash(report, category, true_location, api_h, sub_category, app_model,
                          crash_log)


def load_corpus(
    path: str | Path, matcher: FrameworkMatcher, data: bytes | None = None
) -> list[LabeledCrash]:
    """The crashes of the corpus file at ``path``; ``data`` is its bytes when
    the caller has read them already."""
    path = Path(path)
    text = decode_text(read_bytes(path, "corpus") if data is None else data, path, "corpus")
    crashes = []
    with naming("corpus", path):
        # Records end at "\n" only: str.splitlines would also split at the
        # U+2028, U+2029 and U+0085 that save_corpus leaves raw in a string.
        for li, line in enumerate(text.split("\n")):
            if not line.strip():
                continue
            pointer = f"/{li}"
            obj = parse_json(line, f"corpus line {li + 1}", pointer)
            if not isinstance(obj, dict):
                raise SchemaError(f"corpus line {li + 1} must be a JSON object", pointer)
            crashes.append(labeled_crash_from_json(obj, matcher, path.parent, pointer))
    return crashes


def save_corpus(path: str | Path, crashes: list[LabeledCrash]) -> None:
    base_dir = Path(path).parent
    lines = [json.dumps(c.to_json_obj(base_dir), ensure_ascii=False) for c in crashes]
    write_text(path, "\n".join(lines) + "\n", "corpus")
