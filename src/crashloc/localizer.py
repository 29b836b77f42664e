"""Phase-2 localization: one ranking algorithm per crash category.

Category A ranks the developer frames in stack order. Category B infers
the wrongly handled API from the most similar labeled crash and then walks
the app model: for call-in APIs every invoker is scored by its linkage to
the active methods of each stack-frame class, weighted by 1/d where d is
the frame's 1-based distance from the crash method, in one pass over the
invokers per (frame, active method); for callback APIs the matching
non-overridden callbacks of each stack-frame class are appended in frame
order. Category C averages crash similarity per sub-category. The labels
are ``corpus.Category`` and ``corpus.SubCategory``. ``Pipeline`` pairs a
trained categorizer with these locators.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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
from .errors import CrashLocError, EmptyPool, LocateError
from .nb import NBModel, certified_argmax, predict
from .features import set_bits, vectorize
from .similarity import Pool, SubtraceIndex, crash_similarity, frame_seq, most_similar
from .trace import CrashReport

# Unused here: bound only so that bench/tracer.py can wrap it under this name.
from .appmodel import links  # noqa: F401

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


def locate_category_a(report: CrashReport) -> LocalizationResult:
    """Developer frames in stack order, scored 1/position."""
    ranked = []
    seen = set()
    for position, frame in enumerate(report.developer_frames, 1):
        ref = MethodRef(frame.class_name, frame.method_name)
        if ref.canonical() in seen:
            continue
        seen.add(ref.canonical())
        ranked.append((ref, 1.0 / position))
    return LocalizationResult(
        predicted_category=Category.A,
        ranked=tuple(ranked),
        provenance={"strategy": "stack_order"},
    )


def infer_handled_api(report: CrashReport, training_b: Pool) -> tuple[ApiRef, dict]:
    """Wrongly handled API of the most similar Category-B training crash."""
    index = SubtraceIndex.of(training_b)
    if not index.pool:
        raise EmptyPool("no Category-B training crashes to infer the handled API from")
    for i, crash in enumerate(index.pool):
        if crash.api_h is None:
            raise ValueError(f"training crash {i} carries no handled-API label")
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
    training_b: Pool,
    depth: int = DEFAULT_LINKS_DEPTH,
) -> LocalizationResult:
    """Rank out-of-trace developer methods for the inferred handled API.

    ``link_scores`` scores a call-in API's invokers, one pass per (frame,
    active method). Stack-frame classes missing from the app model are
    skipped with a warning rather than failing the whole localization.
    """
    api, provenance = infer_handled_api(report, training_b)

    ranked: list[tuple[Location, float]]
    if api.kind == API_KIND_CALL_IN:
        invokers = invokers_of(model, api)
        # Invokers are unique by canonical name, so one score per position.
        frames = [(d, cdef.active_methods) for d, _, cdef in _known_frames(report, model)]
        scores = link_scores(model, invokers, frames, depth)
        ranked = sorted(
            ((s, score) for s, score in zip(invokers, scores) if score > 0),
            key=lambda pair: -pair[1],
        )
    else:
        ranked = []
        seen = set()
        for d, frame, cdef in _known_frames(report, model):
            for nc in cdef.non_overridden_callbacks:
                if not inherits_from(model, nc, api):
                    continue
                suggestion = MethodRef(frame.class_name, nc.method_name, nc.signature)
                if suggestion.canonical() in seen:
                    continue
                seen.add(suggestion.canonical())
                ranked.append((suggestion, 1.0 / d))

    return LocalizationResult(
        predicted_category=Category.B,
        ranked=tuple(ranked),
        provenance=provenance,
    )


def locate_category_c(report: CrashReport, training_c: Pool) -> LocalizationResult:
    """Rank sub-categories by mean similarity to their training crashes.

    Each distinct sub-trace that shares a frame with the query is scored
    once; every other one scores exactly 0.0. The sums still add one score
    per training crash in pool order, so the means are those of the
    per-crash loop to the last bit.
    """
    index = SubtraceIndex.of(training_c)
    if not index.pool:
        raise EmptyPool("no Category-C training crashes to compare against")
    key_scores = [0.0] * len(index.heads)
    for key_id in index.sharing(frame_seq(report)):
        key_scores[key_id] = crash_similarity(report, index.pool[index.heads[key_id]].report)
    sums: dict[SubCategory, float] = {}
    counts: dict[SubCategory, int] = {}
    for i, (crash, key_id) in enumerate(zip(index.pool, index.key_ids)):
        if crash.sub_category is None:
            raise ValueError(f"training crash {i} carries no sub-category label")
        sums[crash.sub_category] = sums.get(crash.sub_category, 0.0) + key_scores[key_id]
        counts[crash.sub_category] = counts.get(crash.sub_category, 0) + 1
    means = {sub: sums[sub] / counts[sub] for sub in sums}
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
    Each locator's pool is that category's crashes of ``corpus``, taken and
    indexed by sub-trace on its first use."""

    nb: NBModel
    corpus: tuple[LabeledCrash, ...]
    links_depth: int = DEFAULT_LINKS_DEPTH

    @cached_property
    def index_b(self) -> SubtraceIndex:
        return SubtraceIndex.of([c for c in self.corpus if c.category is Category.B])

    @cached_property
    def index_c(self) -> SubtraceIndex:
        return SubtraceIndex.of([c for c in self.corpus if c.category is Category.C])

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
