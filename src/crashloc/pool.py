"""The training pool that a model bundle carries for ``locate``.

The Phase-2 locators read four things of a training crash: its category,
the handled API of a Category-B crash, the sub-category of a Category-C
crash and its framework sub-trace. ``train`` writes these for every B and
C crash of its corpus into the bundle, with the SHA-256 of the corpus
bytes it parsed and the framework prefixes it split them with. ``locate``
builds its B and C pools from them when its corpus has those bytes and its
config those prefixes: parsing would give the same pools, and could not
fail, since ``train`` parsed the same bytes. Otherwise it parses.

JSON form, each table interned once:

    {"version": 1, "corpus_sha256": "<hex>", "framework_prefixes": [...],
     "frames": ["<qualified frame name>", ...],
     "subtraces": [[<frame index>, ...], ...],
     "apis": [{"class_name", "method_name", "kind"}, ...],
     "crashes": [["B", <api index>, <sub-trace index>]
                 | ["C", "<sub-category>", <sub-trace index>], ...]}

``crashes`` keeps corpus order. A pool of another ``version`` is not read.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from .appmodel import ApiRef
from .corpus import _SUB_CATEGORY_NAMES, Category, LabeledCrash, SubCategory
from .errors import SchemaError, expect, expect_items
from .records import builder

POOL_VERSION = 1


def corpus_sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True, slots=True)
class PooledCrash:
    """A training crash as the Phase-2 locators read it. ``report`` is the
    record itself, so that ``crash.report.subtrace_key`` reads the sub-trace
    as it does on a ``LabeledCrash``."""

    category: Category
    api_h: ApiRef | None
    sub_category: SubCategory | None
    subtrace_key: tuple[str, ...]

    @property
    def report(self) -> PooledCrash:
        return self


_pooled_crash = builder(PooledCrash)


@dataclass(frozen=True)
class StoredPool:
    """The B and C crashes of the corpus whose bytes hash to ``corpus_sha256``,
    split with ``framework_prefixes``, in corpus order."""

    corpus_sha256: str
    framework_prefixes: tuple[str, ...]
    crashes: tuple[PooledCrash, ...]

    def serves(self, data: bytes, prefixes: tuple[str, ...]) -> bool:
        """Whether these are the pools that parsing ``data`` with ``prefixes`` gives."""
        return prefixes == self.framework_prefixes and corpus_sha256(data) == self.corpus_sha256


def pool_to_json_obj(corpus: Sequence[LabeledCrash], data: bytes,
                     prefixes: tuple[str, ...]) -> dict:
    """The stored pool of ``corpus``, parsed from ``data`` with ``prefixes``."""
    apis: dict[ApiRef, int] = {}
    keys: dict[tuple[str, ...], int] = {}
    crashes = []
    for crash in corpus:
        if crash.category is Category.B:
            label = apis.setdefault(crash.api_h, len(apis))
        elif crash.category is Category.C:
            label = crash.sub_category.value
        else:
            continue
        key = crash.report.subtrace_key
        crashes.append([crash.category.value, label, keys.setdefault(key, len(keys))])
    frames: dict[str, int] = {}
    subtraces = [[frames.setdefault(frame, len(frames)) for frame in key] for key in keys]
    return {
        "version": POOL_VERSION,
        "corpus_sha256": corpus_sha256(data),
        "framework_prefixes": list(prefixes),
        "frames": list(frames),
        "subtraces": subtraces,
        "apis": [api.to_json_obj() for api in apis],
        "crashes": crashes,
    }


def _index(value, size: int, what: str, pointer: str) -> int:
    """``value`` when it is an int in [0, size), else SchemaError."""
    if type(value) is int and 0 <= value < size:
        return value
    raise SchemaError(f"{what} index must be an int in [0, {size}), got {value!r}", pointer)


def _pooled(entry, apis: list[ApiRef], keys: list[tuple[str, ...]], pointer: str) -> PooledCrash:
    """The pooled crash of a ``crashes`` entry."""
    category, label, key = expect_items(entry, (str, int), pointer, 3)
    if category == "B":
        labels = Category.B, apis[_index(label, len(apis), "api", f"{pointer}/1")], None
    elif category != "C":
        raise SchemaError(f"category must be B or C, got {category!r}", f"{pointer}/0")
    elif label in _SUB_CATEGORY_NAMES:
        labels = Category.C, None, _SUB_CATEGORY_NAMES[label]
    else:
        raise SchemaError(f"unknown sub_category {label!r}", f"{pointer}/1")
    return _pooled_crash(*labels, keys[_index(key, len(keys), "sub-trace", f"{pointer}/2")])


def pool_from_json_obj(obj, pointer: str = "/pool") -> StoredPool | None:
    """The stored pool of a bundle's ``pool`` value, or None when it is of
    another version; SchemaError at the first value of the wrong shape."""
    if expect(obj, "version", int, pointer) != POOL_VERSION:
        return None
    digest = expect(obj, "corpus_sha256", str, pointer)
    prefixes = expect_items(expect(obj, "framework_prefixes", list, pointer), str,
                            f"{pointer}/framework_prefixes")
    frames = expect_items(expect(obj, "frames", list, pointer), str, f"{pointer}/frames")
    keys = []
    for si, ids in enumerate(expect(obj, "subtraces", list, pointer)):
        if type(ids) is not list or not all(type(i) is int and 0 <= i < len(frames) for i in ids):
            at = f"{pointer}/subtraces/{si}"
            for j, i in enumerate(expect_items(ids, int, at)):
                _index(i, len(frames), "frame", f"{at}/{j}")
        keys.append(tuple(map(frames.__getitem__, ids)))
    apis = [ApiRef.from_json_obj(api, f"{pointer}/apis/{ai}")
            for ai, api in enumerate(expect(obj, "apis", list, pointer))]
    crashes = [_pooled(entry, apis, keys, f"{pointer}/crashes/{ci}")
               for ci, entry in enumerate(expect(obj, "crashes", list, pointer))]
    return StoredPool(digest, tuple(prefixes), tuple(crashes))
