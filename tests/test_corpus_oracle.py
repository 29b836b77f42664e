"""Corpus entries load as the loader with a shape-check call per key did.

``reference_labeled_crash_from_json`` is the former loader kept verbatim,
with the line-split parser of ``test_trace_oracle`` as its
``parse_and_split``: every key goes through ``expect`` or an enum's
constructor, and every record is built by its ``__init__``. On fixture
entries, on entries around generated crash text and on entries with one
member deleted or replaced, ``labeled_crash_from_json`` must return an
equal crash, its report equal in the fields that ``==`` skips too, or
raise the same error type, message and pointer.
"""
from __future__ import annotations

import copy
import json
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from crashloc.appmodel import ApiRef, parse_method_ref
from crashloc.corpus import Category, LabeledCrash, SubCategory, labeled_crash_from_json
from crashloc.errors import CrashLocError, SchemaError, expect
from crashloc.trace import FrameworkMatcher

from conftest import CORPUS_PATH, json_fields
from test_loader_inputs import json_values
from test_trace_oracle import assert_same_report, wide_crash_texts
from test_trace_oracle import line_split_parse_and_split as parse_and_split

_SUB_CATEGORY_NAMES = frozenset(sub.value for sub in SubCategory)


def reference_labeled_crash_from_json(
    obj: dict, matcher: FrameworkMatcher, base_dir: Path | None = None, pointer: str = ""
) -> LabeledCrash:
    try:
        category = Category(expect(obj, "category", str, pointer))
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


def _outcome(function, *args):
    """The function's result, or its error's type, text and pointer."""
    try:
        return function(*args)
    except Exception as exc:  # any error type, so that a stray TypeError shows too
        return type(exc), str(exc), getattr(exc, "pointer", None)


MATCHER = FrameworkMatcher()
BASE_DIRS = (None, CORPUS_PATH.parent)


def assert_loads_like_reference(obj, base_dir, pointer="/3") -> None:
    expected = _outcome(reference_labeled_crash_from_json, copy.deepcopy(obj), MATCHER,
                        base_dir, pointer)
    actual = _outcome(labeled_crash_from_json, obj, MATCHER, base_dir, pointer)
    if not isinstance(expected, LabeledCrash):
        assert actual == expected
        return
    assert type(actual) is LabeledCrash
    assert actual == expected
    assert repr(actual) == repr(expected)
    assert_same_report(actual.report, expected.report)
    assert type(actual.category) is Category
    assert type(actual.sub_category) is type(expected.sub_category)
    assert type(actual.app_model) is type(expected.app_model)


FIXTURE_ENTRIES = [json.loads(line)
                   for line in CORPUS_PATH.read_text(encoding="utf-8").splitlines()]
FIXTURE_LOGS = sorted({entry["crash_log"] for entry in FIXTURE_ENTRIES})
_METHOD_REFS = ("com.app.one.Main#run", "com.app.one.Main#run(int, String)",
                "com.app.one.Main#<init>()")
_API_H = ({"class_name": "android.app.Activity", "method_name": "onCreate", "kind": "callback"},
          {"class_name": "android.app.Activity", "method_name": "startActivity",
           "kind": "call-in"})
_APP_MODELS = ("../app_models/geography.json", "models/m.json", "/abs/m.json", "", ".")


@st.composite
def corpus_entries(draw, generated_text: bool = True):
    """A fixture entry, or a well-formed entry around a fixture log or (if
    ``generated_text``) generated crash text, about half of which does not
    parse."""
    if draw(st.booleans()):
        return copy.deepcopy(draw(st.sampled_from(FIXTURE_ENTRIES)))
    logs = st.sampled_from(FIXTURE_LOGS)
    category = draw(st.sampled_from("ABC"))
    sub_categories = sorted(_SUB_CATEGORY_NAMES)
    return copy.deepcopy({
        "crash_log": draw(logs | wide_crash_texts() if generated_text else logs),
        "category": category,
        "true_location": draw(st.sampled_from(sub_categories if category == "C"
                                              else _METHOD_REFS)),
        "api_h": draw(st.sampled_from(_API_H) if category == "B"
                      else st.none() | st.sampled_from(_API_H)),
        "sub_category": draw(st.sampled_from(sub_categories) if category == "C"
                             else st.none() | st.sampled_from(sub_categories)),
        "app_model": draw(st.none() | st.sampled_from(_APP_MODELS)),
    })


_DELETE = object()
_KNOWN_TEXTS = ("A", "B", "C", "a", "D", "", "Manifest", "Hardware", "manifest", "Network",
                "call-in", "callback", "call_in", "com.app.one.Main", "a#b(", "#run",
                ) + _METHOD_REFS + _APP_MODELS


@st.composite
def corrupted_corpus_entries(draw):
    """An entry around a fixture log with one member or item deleted or
    replaced, by a text that a key takes or by a value of any JSON type."""
    obj = draw(corpus_entries(generated_text=False))
    paths = list(json_fields(obj))
    path = draw(st.sampled_from(paths))
    value = draw(st.sampled_from(_KNOWN_TEXTS) | json_values(_KNOWN_TEXTS) | st.just(_DELETE))
    parent = reduce(getitem, path[:-1], obj)
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


# In-process str-enum members where the JSON has texts: they load as the texts do.
@settings(max_examples=300, deadline=None)
@given(corpus_entries(), st.sampled_from(BASE_DIRS))
@example(dict(next(e for e in FIXTURE_ENTRIES if e["category"] == "B"), category=Category.B),
         None)
@example(dict(next(e for e in FIXTURE_ENTRIES if e["category"] == "C"), category=Category.C,
              sub_category=SubCategory.ASSET, true_location="Asset"), CORPUS_PATH.parent)
def test_entries_load_like_reference(obj, base_dir):
    assert_loads_like_reference(obj, base_dir)


@settings(max_examples=500, deadline=None)
@given(corrupted_corpus_entries(), st.sampled_from(BASE_DIRS))
@example([], None)
@example("crash", None)
@example({}, None)
@example(dict(FIXTURE_ENTRIES[0], category=Category.B), None)
@example(dict(FIXTURE_ENTRIES[0], sub_category=SubCategory.ASSET), None)
@example(dict(FIXTURE_ENTRIES[0], sub_category=["Manifest"]), None)
@example(dict(FIXTURE_ENTRIES[0], app_model=["a.json"]), None)
def test_corrupted_entries_fail_like_reference(obj, base_dir):
    assert_loads_like_reference(obj, base_dir)


def test_fixture_entries_load_like_reference():
    for obj in FIXTURE_ENTRIES:
        for base_dir in BASE_DIRS:
            assert_loads_like_reference(copy.deepcopy(obj), base_dir, "")
