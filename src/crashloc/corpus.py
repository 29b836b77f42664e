"""Labeled crash corpus: label taxonomy, JSON-lines loading, validation, serialization.

A ``Category`` is where the paper's taxonomy puts a fault: A in the stack
trace, B in the code but outside the trace, C outside the code, at one
``SubCategory``.

Each line holds one labeled crash:

    {"crash_log": "...", "category": "A"|"B"|"C", "true_location": "...",
     "api_h": {"class_name", "method_name", "kind"} | null,
     "sub_category": "Manifest"|... | null,
     "app_model": "relative/path.json" | null}

``app_model`` paths are resolved against the corpus file's directory.
Category-B lines must carry ``api_h``; Category-C lines must carry
``sub_category``. An A or B line's ``true_location`` is a method reference
(``class#method``, optionally ``(sig)``), a C line's a sub-category name.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .appmodel import ApiRef, parse_method_ref
from .errors import CrashLocError, SchemaError, expect, naming, parse_json, read_text, write_text
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

_SUB_CATEGORY_NAMES = frozenset(sub.value for sub in SubCategory)


@dataclass(frozen=True, slots=True)
class LabeledCrash:
    report: CrashReport
    category: Category
    true_location: str
    api_h: ApiRef | None = None
    sub_category: SubCategory | None = None
    app_model: Path | None = None
    crash_log: str = ""

    def to_json_obj(self, base_dir: Path | None = None) -> dict:
        app_model = self.app_model
        if app_model is not None and base_dir is not None:
            try:
                app_model = app_model.relative_to(base_dir)
            except ValueError:
                pass
        return {
            "crash_log": self.crash_log,
            "category": self.category.value,
            "true_location": self.true_location,
            "api_h": self.api_h.to_json_obj() if self.api_h else None,
            "sub_category": self.sub_category.value if self.sub_category else None,
            "app_model": str(app_model) if app_model else None,
        }


def labeled_crash_from_json(
    obj: dict, matcher: FrameworkMatcher, base_dir: Path | None = None, pointer: str = ""
) -> LabeledCrash:
    for key in ("crash_log", "category", "true_location"):
        if key not in obj:
            raise SchemaError(f"corpus entry is missing {key!r}", pointer)
    try:
        category = Category(obj["category"])
    except ValueError:
        raise SchemaError(
            f"category must be A, B or C, got {obj['category']!r}", f"{pointer}/category"
        ) from None
    crash_log = expect(obj, "crash_log", str, pointer)
    try:
        report = parse_and_split(crash_log, matcher)
    except CrashLocError as exc:
        raise SchemaError(f"crash_log does not parse: {exc}", f"{pointer}/crash_log") from exc

    api_h = None
    if obj.get("api_h") is not None:
        api_h = ApiRef.from_json_obj(obj["api_h"], f"{pointer}/api_h")
    if category is Category.B and api_h is None:
        raise SchemaError("Category-B entry must carry api_h", f"{pointer}/api_h")

    sub_category = None
    if obj.get("sub_category") is not None:
        try:
            sub_category = SubCategory(obj["sub_category"])
        except ValueError:
            raise SchemaError(
                f"unknown sub_category {obj['sub_category']!r}", f"{pointer}/sub_category"
            ) from None
    if category is Category.C and sub_category is None:
        raise SchemaError("Category-C entry must carry sub_category", f"{pointer}/sub_category")

    true_location = expect(obj, "true_location", str, pointer)
    if category is not Category.C:
        parse_method_ref(true_location, pointer=f"{pointer}/true_location")
    elif true_location not in _SUB_CATEGORY_NAMES:
        raise SchemaError(f"Category-C true_location must name a sub-category, "
                          f"got {true_location!r}", f"{pointer}/true_location")

    app_model = None
    if obj.get("app_model") is not None and expect(obj, "app_model", str, pointer):
        app_model = Path(obj["app_model"])
        if base_dir is not None and not app_model.is_absolute():
            app_model = base_dir / app_model

    return LabeledCrash(
        report=report,
        category=category,
        true_location=true_location,
        api_h=api_h,
        sub_category=sub_category,
        app_model=app_model,
        crash_log=crash_log,
    )


def load_corpus(path: str | Path, matcher: FrameworkMatcher) -> list[LabeledCrash]:
    path = Path(path)
    text = read_text(path, "corpus")
    crashes = []
    with naming("corpus", path):
        for li, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            pointer = f"/{li}"
            obj = parse_json(line, f"corpus line {li + 1}", pointer)
            if not isinstance(obj, dict):
                raise SchemaError(f"corpus line {li + 1} must be a JSON object", pointer)
            crashes.append(labeled_crash_from_json(obj, matcher, path.parent, pointer))
    return crashes


def save_corpus(path: str | Path, crashes: list[LabeledCrash], base_dir: Path | None = None) -> None:
    lines = [json.dumps(c.to_json_obj(base_dir), ensure_ascii=False) for c in crashes]
    write_text(path, "\n".join(lines) + "\n", "corpus")
