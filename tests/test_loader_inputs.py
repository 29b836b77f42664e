"""Any JSON value at any field of a fixture corpus line or app model either
loads or raises an ArtifactError that points into the input."""
from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from crashloc.appmodel import app_model_from_json
from crashloc.corpus import labeled_crash_from_json
from crashloc.errors import ArtifactError
from crashloc.trace import FrameworkMatcher

from conftest import APP_MODELS, CORPUS_PATH

CORPUS_LINES = [json.loads(line) for line in CORPUS_PATH.read_text(encoding="utf-8").splitlines()]
APP_MODEL_OBJS = [json.loads(p.read_text(encoding="utf-8"))
                  for p in sorted(APP_MODELS.glob("*.json"))]


def _fields(value, path=()):
    """The path of every object member and array item inside ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _strings(value) -> set:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return set().union(*map(_strings, value))
    return {value} if isinstance(value, str) else set()


def json_values(known_strings):
    """Any JSON value; strings are drawn from the fixtures as often as at random."""
    strings = st.text(max_size=8) | st.sampled_from(sorted(known_strings))
    leaves = (st.none() | st.booleans() | st.integers()
              | st.floats(allow_nan=False, allow_infinity=False) | strings)
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(strings, children, max_size=3),
        max_leaves=6,
    )


def _replace_somewhere(data, objs):
    obj = copy.deepcopy(data.draw(st.sampled_from(objs)))
    path = data.draw(st.sampled_from(list(_fields(obj))))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(json_values(_strings(objs)))
    return obj


LOADERS = {
    "corpus-line": (CORPUS_LINES, lambda obj: labeled_crash_from_json(
        obj, FrameworkMatcher(), CORPUS_PATH.parent, "/0")),
    "app-model": (APP_MODEL_OBJS, app_model_from_json),
}


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_value_at_any_field_loads_or_fails_with_pointer(kind, data):
    objs, load = LOADERS[kind]
    try:
        load(_replace_somewhere(data, objs))
    except ArtifactError as exc:
        assert exc.pointer, exc
