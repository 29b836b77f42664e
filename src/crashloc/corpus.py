"""Labeled crash corpus: JSON-lines loading, validation, and serialization.

Each line holds one labeled crash:

    {"crash_log": "...", "category": "A"|"B"|"C", "true_location": "...",
     "api_h": {"class_name", "method_name", "kind"} | null,
     "sub_category": "Manifest"|... | null,
     "app_model": "relative/path.json" | null}

``app_model`` paths are resolved against the corpus file's directory.
Category-B lines must carry ``api_h``; Category-C lines must carry
``sub_category``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .appmodel import ApiRef
from .errors import CrashLocError, SchemaError, expect
from .localizer import SubCategory
from .nb import Category
from .trace import CrashReport, FrameworkMatcher, parse_and_split


@dataclass(frozen=True)
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

    app_model = None
    if obj.get("app_model"):
        app_model = Path(obj["app_model"])
        if base_dir is not None and not app_model.is_absolute():
            app_model = base_dir / app_model

    return LabeledCrash(
        report=report,
        category=category,
        true_location=str(obj["true_location"]),
        api_h=api_h,
        sub_category=sub_category,
        app_model=app_model,
        crash_log=crash_log,
    )


def load_corpus(path: str | Path, matcher: FrameworkMatcher) -> list[LabeledCrash]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read corpus: {exc}") from exc
    crashes = []
    for li, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        pointer = f"/{li}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"corpus line {li + 1} is not valid JSON: {exc}", pointer) from exc
        if not isinstance(obj, dict):
            raise SchemaError(f"corpus line {li + 1} must be a JSON object", pointer)
        crashes.append(labeled_crash_from_json(obj, matcher, path.parent, pointer))
    return crashes


def save_corpus(path: str | Path, crashes: list[LabeledCrash], base_dir: Path | None = None) -> None:
    path = Path(path)
    lines = [json.dumps(c.to_json_obj(base_dir), ensure_ascii=False) for c in crashes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
