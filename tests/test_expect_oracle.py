"""The shape checks decide a value of exactly the expected type in place and
send every other value through the checks they made before.

``reference_expect`` and ``reference_expect_items`` are ``errors.expect``
and ``errors.expect_items`` as they were before they took a value of
exactly ``kind`` in place, kept verbatim but for their names. On any value
(``str`` enum members, ``bool`` and a ``dict`` subclass included), key,
kind, pointer and length, the checks must return the same object as the
references or raise the same error type, message and pointer.
"""
from __future__ import annotations

import math
from collections import OrderedDict

from hypothesis import example, given, settings, strategies as st

from crashloc.corpus import Category, SubCategory
from crashloc.errors import NUMBER, SchemaError, _mismatch, expect, expect_items, fits


def reference_expect(obj, key: str, kind, pointer: str):
    """``obj[key]`` when ``obj`` is an object holding a ``kind`` there, else SchemaError."""
    if not isinstance(obj, dict):
        raise _mismatch(obj, (dict,), "value", pointer or "/")
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", pointer or "/")
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not fits(obj[key], kinds):
        raise _mismatch(obj[key], kinds, f"key {key!r}", f"{pointer}/{key}")
    return obj[key]


def reference_expect_items(values, kind, pointer: str, length: int | None = None) -> list:
    """``values`` when it is an array of ``kind`` items (of ``length``, if given)."""
    if not isinstance(values, list):
        raise _mismatch(values, (list,), "value", pointer)
    if length is not None and len(values) != length:
        raise SchemaError(f"expected {length} items, got {len(values)}", pointer)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for i, value in enumerate(values):
        if not fits(value, kinds):
            raise _mismatch(value, kinds, "item", f"{pointer}/{i}")
    return values


def _outcome(function, *args):
    """``("value", result)``, or the error's type, text and pointer."""
    try:
        return "value", function(*args)
    except Exception as exc:  # any error type, so that a stray TypeError shows too
        return type(exc), str(exc), getattr(exc, "pointer", None)


def assert_same_outcome(function, reference, *args) -> None:
    expected, actual = _outcome(reference, *args), _outcome(function, *args)
    if expected[0] == "value":
        assert actual[0] == "value" and actual[1] is expected[1], (actual, expected)
    else:
        assert actual == expected


KEYS = ("a", "b")
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
          | st.sampled_from(KEYS) | st.sampled_from((*Category, *SubCategory)))
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=2)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=2).map(OrderedDict),
    max_leaves=6,
)
KINDS = st.sampled_from((str, int, list, dict, NUMBER, (str, int)))
POINTERS = st.sampled_from(("", "/x/0"))


@settings(max_examples=1000)
@given(VALUES | st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=2),
       st.sampled_from(KEYS), KINDS, POINTERS)
@example({"a": True}, "a", int, "")
@example({"a": Category.B}, "a", str, "/x/0")
@example({"a": SubCategory.ASSET}, "a", (str, int), "")
@example({"a": OrderedDict()}, "a", dict, "")
@example(OrderedDict(a="x"), "a", str, "")
@example({"a": math.nan}, "a", NUMBER, "")
@example({}, "a", str, "")
def test_expect_matches_reference(obj, key, kind, pointer):
    assert_same_outcome(expect, reference_expect, obj, key, kind, pointer)


@settings(max_examples=1000)
@given(VALUES | st.lists(LEAVES, max_size=4), KINDS, POINTERS, st.sampled_from((None, 0, 3)))
@example([1, True, 2], int, "", 3)
@example(["B", Category.B, SubCategory.ASSET], str, "/x/0", None)
@example([[], OrderedDict()], dict, "", None)
@example(["a", 1, "b"], (str, int), "", 3)
@example([], str, "", 3)
def test_expect_items_matches_reference(values, kind, pointer, length):
    assert_same_outcome(expect_items, reference_expect_items, values, kind, pointer, length)
