"""Phase-2 localization: one ranking algorithm per crash category.

Category A ranks the developer frames in stack order. Category B infers
the wrongly handled API from the most similar labeled crash and then walks
the app model: for call-in APIs every invoker is scored by its linkage to
the active methods of each stack-frame class, weighted by 1/d where d is
the frame's 1-based distance from the crash method. How many active
methods of a frame class each invoker links to is kept by the loaded app
model per (API class, API method, frame class, depth): the first query
that needs a key works the counts out, and later queries of the same model
reuse them. For callback APIs the matching
non-overridden callbacks of each stack-frame class are appended in frame
order. Category C averages crash similarity per sub-category, with every
distinct training sub-trace scored in one bit-parallel pass per query. The
labels are ``corpus.Category`` and ``corpus.SubCategory``. ``IndexB`` and
``IndexC`` are a B and a C pool indexed by sub-trace and checked for their
labels once. ``Pipeline`` pairs a trained categorizer with these locators.
"""
from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence, Union

from .appmodel import (
    API_KIND_CALL_IN,
    DEFAULT_LINKS_DEPTH,
    ApiRef,
    AppModel,
    MethodRef,
    inherits_from,
    invokers_of,
    link_scores,
    parse_method_ref,
)
from .corpus import SUB_CATEGORIES, Category, LabeledCrash, SubCategory
from .errors import CrashLocError, EmptyPool, LocateError, SchemaError
from .nb import NBModel, certified_argmax, predict
from .features import set_bits, vectorize
from .similarity import PackedKeys, Pool, SubtraceIndex, frame_seq, most_similar
from .trace import CrashReport

# Unused here: bound only so that bench/tracer.py can wrap them under these names.
from .appmodel import links  # noqa: F401
from .similarity import crash_similarity  # noqa: F401

logger = logging.getLogger(__name__)

# A ranked location is a developer method (Categories A and B) or a
# sub-category (Category C).
Location = Union[MethodRef, SubCategory]


def location_label(location: Location) -> str:
    if isinstance(location, SubCategory):
        return location.value
    return location.canonical()


@dataclass(frozen=True)
class LocalizationResult:
    predicted_category: Category
    ranked: tuple[tuple[Location, float], ...]
    provenance: dict

    def to_json_obj(self) -> dict:
        return {
            "predicted_category": self.predicted_category.value,
            "ranked": [
                {"location": location_label(loc), "score": score}
                for loc, score in self.ranked
            ],
            "provenance": self.provenance,
        }

    def rank_of(self, true_location: str) -> int | None:
        """1-based rank of the true location, or None when absent."""
        target_method = parse_method_ref(true_location) if "#" in true_location else None
        for position, (loc, _) in enumerate(self.ranked, 1):
            if isinstance(loc, SubCategory):
                if loc.value == true_location:
                    return position
            elif target_method is not None and loc.same_method(target_method):
                return position
        return None


def _first_occurrences(candidates) -> tuple[tuple[MethodRef, float], ...]:
    """``(method, score)`` candidates in frame order, keeping the first of each
    canonical name."""
    ranked: dict[str, tuple[MethodRef, float]] = {}
    for ref, score in candidates:
        ranked.setdefault(ref.canonical(), (ref, score))
    return tuple(ranked.values())


def locate_category_a(report: CrashReport) -> LocalizationResult:
    """Developer frames in stack order, scored 1/position."""
    return LocalizationResult(
        predicted_category=Category.A,
        ranked=_first_occurrences([
            (MethodRef(frame.class_name, frame.method_name), 1.0 / position)
            for position, frame in enumerate(report.developer_frames, 1)
        ]),
        provenance={"strategy": "stack_order"},
    )


def _check_labels(pool: Sequence[LabeledCrash], attribute: str, label: str) -> None:
    for i, crash in enumerate(pool):
        if getattr(crash, attribute) is None:
            raise SchemaError(f"training crash {i} carries no {label} label")


@dataclass(frozen=True)
class IndexB:
    """A Category-B training pool indexed by sub-trace, every crash checked
    once, when it is built, for its handled-API label."""

    index: SubtraceIndex

    @classmethod
    def of(cls, pool: Union[Pool, IndexB]) -> IndexB:
        """The checked index of ``pool``, or ``pool`` itself when it is one;
        raises ``SchemaError`` naming the first unlabeled crash."""
        if isinstance(pool, cls):
            return pool
        index = SubtraceIndex.of(pool)
        _check_labels(index.pool, "api_h", "handled-API")
        return cls(index)


@dataclass(frozen=True)
class IndexC:
    """A Category-C training pool indexed by sub-trace, every crash checked
    once, when it is built, for its sub-category label. ``packed`` holds the
    distinct sub-traces, by key id, for one bit-parallel pass per query;
    ``members`` maps each sub-category to the key id of each of its crashes,
    in pool order."""

    index: SubtraceIndex
    packed: PackedKeys
    members: dict[SubCategory, tuple[int, ...]]

    @classmethod
    def of(cls, pool: Union[Pool, IndexC]) -> IndexC:
        """The checked index of ``pool``, or ``pool`` itself when it is one;
        raises ``SchemaError`` naming the first unlabeled crash."""
        if isinstance(pool, cls):
            return pool
        index = SubtraceIndex.of(pool)
        _check_labels(index.pool, "sub_category", "sub-category")
        members: dict[SubCategory, list[int]] = {}
        for crash, key_id in zip(index.pool, index.key_ids):
            members.setdefault(crash.sub_category, []).append(key_id)
        return cls(index, PackedKeys.of(index.first),
                   {sub: tuple(ids) for sub, ids in members.items()})


def infer_handled_api(report: CrashReport, training_b: Union[Pool, IndexB]) -> tuple[ApiRef, dict]:
    """Wrongly handled API of the most similar Category-B training crash."""
    index = IndexB.of(training_b).index
    if not index.pool:
        raise EmptyPool("no Category-B training crashes to infer the handled API from")
    nearest, score = most_similar(report, index)
    provenance = {
        "strategy": "nearest_crash",
        "api_h": nearest.api_h.to_json_obj(),
        "similarity": score,
        # The nearest crash is the first of its sub-trace.
        "training_index": index.first[frame_seq(nearest.report)],
        "low_confidence": score == 0.0,
    }
    return nearest.api_h, provenance


def _known_frames(report: CrashReport, model: AppModel):
    """(distance, frame, class definition) per developer frame whose class
    the app model declares; the others are skipped with a warning."""
    for d, frame in enumerate(report.developer_frames, 1):
        cdef = model.classes.get(frame.class_name)
        if cdef is None:
            logger.warning("skipping frame %s: class not in app model", frame.qualified_name)
            continue
        yield d, frame, cdef


def locate_category_b(
    report: CrashReport,
    model: AppModel,
    training_b: Union[Pool, IndexB],
    depth: int = DEFAULT_LINKS_DEPTH,
) -> LocalizationResult:
    """Rank out-of-trace developer methods for the inferred handled API.

    ``link_scores`` scores a call-in API's invokers from the model's link
    counts per frame class. Stack-frame classes missing from the app model
    are skipped with a warning rather than failing the whole localization.
    """
    api, provenance = infer_handled_api(report, training_b)

    if api.kind == API_KIND_CALL_IN:
        invokers = invokers_of(model, api)
        # Invokers are unique by canonical name, so one score per position.
        frames = [(d, cdef) for d, _, cdef in _known_frames(report, model)]
        scores = link_scores(model, api, frames, depth)
        ranked = tuple(sorted(
            ((s, score) for s, score in zip(invokers, scores) if score > 0),
            key=lambda pair: -pair[1],
        ))
    else:
        ranked = _first_occurrences([
            (MethodRef(frame.class_name, nc.method_name, nc.signature), 1.0 / d)
            for d, frame, cdef in _known_frames(report, model)
            for nc in cdef.non_overridden_callbacks
            if inherits_from(model, nc, api)
        ])

    return LocalizationResult(
        predicted_category=Category.B,
        ranked=ranked,
        provenance=provenance,
    )


def locate_category_c(report: CrashReport, training_c: Union[Pool, IndexC]) -> LocalizationResult:
    """Rank sub-categories by mean similarity to their training crashes.

    The distinct sub-traces that share a frame with the query get their
    distances from one bit-parallel pass over all of them (``PackedKeys``);
    every other one scores exactly 0.0. Each sum still adds one score per
    training crash in pool order, left to right, so the means are those of
    the per-crash loop to the last bit. The built-in ``sum`` is not used:
    from Python 3.12 it compensates float sums.
    """
    training = IndexC.of(training_c)
    if not training.index.pool:
        raise EmptyPool("no Category-C training crashes to compare against")
    seq, lengths = frame_seq(report), training.packed.lengths
    key_ids = training.index.sharing(seq)
    key_scores = [0.0] * len(lengths)
    for key_id, distance in zip(key_ids, training.packed.distances(seq, key_ids)):
        longest = max(len(seq), lengths[key_id])
        key_scores[key_id] = 1.0 - distance / longest if longest else 1.0
    means = {sub: reduce(operator.add, map(key_scores.__getitem__, ids)) / len(ids)
             for sub, ids in training.members.items()}
    ranked = tuple(
        (sub, means[sub])
        for sub in sorted(means, key=lambda s: (-means[s], SUB_CATEGORIES.index(s)))
    )
    return LocalizationResult(
        predicted_category=Category.C,
        ranked=ranked,
        provenance={
            "strategy": "subcategory_mean",
            "means": {sub.value: means[sub] for sub in SUB_CATEGORIES if sub in means},
        },
    )


@dataclass(frozen=True)
class Pipeline:
    """A fitted two-phase localizer: the categorizer (``nb`` carries the
    selected vocabulary) and the labeled crashes the B and C locators use.
    Each locator's pool is that category's crashes of ``corpus``, taken,
    indexed by sub-trace and checked for its labels on its first use.
    ``corpus`` may also hold the ``pool.PooledCrash`` records of a model
    bundle, which carry what the locators read of a labeled crash."""

    nb: NBModel
    corpus: tuple[LabeledCrash, ...]
    links_depth: int = DEFAULT_LINKS_DEPTH

    @cached_property
    def index_b(self) -> IndexB:
        return IndexB.of([c for c in self.corpus if c.category is Category.B])

    @cached_property
    def index_c(self) -> IndexC:
        return IndexC.of([c for c in self.corpus if c.category is Category.C])

    def categorize(self, report: CrashReport) -> Category:
        """Phase 1: the most probable category of ``report``, as ``predict``
        picks it. ``certified_argmax`` answers from the report's set bits when
        its margin certificate holds; on a near tie ``predict`` decides."""
        nb, sel = self.nb, self.nb.selected_vocab
        if sel is None:
            raise CrashLocError("model bundle carries no vocabulary")
        if len(sel) == nb.n_features:  # otherwise predict raises DimensionMismatch
            category = certified_argmax(nb, set_bits(report, sel))
            if category is not None:
                return category
        return predict(nb, vectorize(report, sel))[0]

    def locate_as(
        self, category: Category, report: CrashReport, app_model: AppModel | None
    ) -> LocalizationResult:
        """Phase 2: rank locations with the locator of ``category``."""
        if category is Category.A:
            return locate_category_a(report)
        if category is Category.B:
            if app_model is None:
                raise LocateError("locate", "crash categorized as B but no app model given")
            return locate_category_b(report, app_model, self.index_b, self.links_depth)
        return locate_category_c(report, self.index_c)


# The last pipeline ``locate`` fitted; one slot, replaced when a call that
# differs in ``nb``, depth or corpus has categorized its crash. Each call
# works on the pipeline it read or built, so two threads racing here at
# worst both build one.
_last_pipeline: Pipeline | None = None


def locate(
    report: CrashReport,
    model: AppModel | None,
    corpus: Sequence[LabeledCrash],
    nb: NBModel,
    depth: int = DEFAULT_LINKS_DEPTH,
) -> LocalizationResult:
    """Full pipeline for one crash: categorize, then dispatch the locator.

    The fitted pipeline, with its B and C sub-trace indexes, is reused while
    ``nb`` is the same object, ``depth`` is equal and ``corpus`` compares
    equal to the last call's (element identity first, so the same list costs
    one pointer compare per crash and an in-place change is seen).
    """
    global _last_pipeline
    corpus = tuple(corpus)
    pipeline = _last_pipeline
    if (pipeline is None or pipeline.nb is not nb or pipeline.links_depth != depth
            or pipeline.corpus != corpus):
        pipeline = Pipeline(nb, corpus, depth)
    try:
        category = pipeline.categorize(report)
    except CrashLocError as exc:
        raise LocateError("categorize", str(exc)) from exc
    _last_pipeline = pipeline
    try:
        return pipeline.locate_as(category, report, model)
    except LocateError:
        raise
    except CrashLocError as exc:
        raise LocateError("locate", str(exc)) from exc
