"""Spans around calls into crashloc's layers, recorded from outside the package.

``Tracer.install()`` replaces each function named in ``TARGETS`` by a
wrapper, at every module attribute through which crashloc's own modules
(or the benchmark) call it, and ``uninstall()`` puts the originals back.
A wrapper records one span per call: name, parent span, request (the
top-level span it descends from), start and end. Leaf functions called
thousands of times per crash (``LEAVES``) are aggregated per parent span
instead, as a call count and a total time.

Spans stay in memory; ``write()`` dumps them as JSON lines when the run
ends. ``layer_metrics()`` turns them into ``<layer>.calls`` and
``<layer>.self_ms`` (span time minus the time of its child spans) plus the
waste and sharing ratios.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# layer -> module attributes through which callers reach the function.
TARGETS = {
    "trace.parse_and_split": ("crashloc.corpus.parse_and_split",),
    "corpus.load_corpus": ("crashloc.load_corpus",),
    "features.build_vocabulary": ("crashloc.build_vocabulary",
                                  "crashloc.evaluation.build_vocabulary"),
    "features.chi_square_select": ("crashloc.chi_square_select",
                                   "crashloc.evaluation.chi_square_select"),
    "features.vectorize": ("crashloc.vectorize", "crashloc.evaluation.vectorize",
                           "crashloc.localizer.vectorize"),
    "nb.train": ("crashloc.train", "crashloc.evaluation.train_nb"),
    "nb.predict": ("crashloc.evaluation.predict", "crashloc.localizer.predict"),
    "similarity.most_similar": ("crashloc.localizer.most_similar",),
    "similarity.crash_similarity": ("crashloc.similarity.crash_similarity",
                                    "crashloc.localizer.crash_similarity"),
    "appmodel.load_app_model": ("crashloc.load_app_model",
                                "crashloc.evaluation.load_app_model"),
    "appmodel.invokers_of": ("crashloc.localizer.invokers_of",),
    "appmodel.links": ("crashloc.localizer.links",),
    "appmodel.inherits_from": ("crashloc.localizer.inherits_from",),
    "localizer.locate": ("crashloc.locate",),
    "localizer.locate_category_a": ("crashloc.localizer.locate_category_a",
                                    "crashloc.evaluation.locate_category_a"),
    "localizer.locate_category_b": ("crashloc.localizer.locate_category_b",
                                    "crashloc.evaluation.locate_category_b"),
    "localizer.locate_category_c": ("crashloc.localizer.locate_category_c",
                                    "crashloc.evaluation.locate_category_c"),
    "evaluation.evaluate": ("crashloc.evaluate",),
}
LEAVES = ("similarity.crash_similarity", "appmodel.links")


class TracerError(RuntimeError):
    """A traced name no longer exists, so a layer's numbers would go missing."""


def resolve(dotted: str):
    """(module, attribute name) of a dotted module attribute; raises TracerError."""
    module_name, attr = dotted.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerError(f"traced module {module_name} cannot be imported: {exc}") from exc
    if not callable(getattr(module, attr, None)):
        raise TracerError(f"traced function {dotted} no longer exists")
    return module, attr


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, parent id, request id, layer, start ns, end ns, child ns]
        self.leaves: dict = {}  # (parent id, layer) -> [calls, total ns]
        self.stack: list = []
        self.next_id = 0
        self.subtraces: dict = {}  # parent id -> distinct sub-traces compared
        self.compared = 0  # pool entries compared
        self.links_true = 0
        self.vocab_sizes: list = []
        self._saved: list = []

    # -- binding --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises TracerError before wrapping anything if one is missing."""
        bound = [(layer, *resolve(dotted)) for layer, names in TARGETS.items() for dotted in names]
        for layer, module, attr in bound:
            original = getattr(module, attr)
            wrapper = self._leaf(layer, original) if layer in LEAVES else self._span(layer, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span_id = self.next_id
            self.next_id += 1
            record = [span_id, parent[0] if parent else None,
                      parent[2] if parent else span_id, layer, 0, 0, 0]
            self.stack.append(record)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                record[4], record[5] = start, end
                if parent:
                    parent[6] += end - start
                self.spans.append(record)
            if layer == "features.build_vocabulary":
                self.vocab_sizes.append(len(result))
            return result

        return wrapper

    def _leaf(self, layer: str, fn):
        from crashloc.similarity import frame_seq

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter_ns() - start
            parent = self.stack[-1] if self.stack else None
            parent_id = parent[0] if parent else None
            if parent:
                parent[6] += elapsed
            agg = self.leaves.setdefault((parent_id, layer), [0, 0])
            agg[0] += 1
            agg[1] += elapsed
            if layer == "similarity.crash_similarity":
                self.compared += 1
                self.subtraces.setdefault(parent_id, set()).add(frame_seq(args[1]))
            elif result:
                self.links_true += 1
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls = {layer: 0 for layer in TARGETS}
        self_ns = {layer: 0 for layer in TARGETS}
        for _, _, _, layer, start, end, child in self.spans:
            calls[layer] += 1
            self_ns[layer] += end - start - child
        for (_, layer), (n, total) in self.leaves.items():
            calls[layer] += n
            self_ns[layer] += total
        metrics = {}
        for layer in TARGETS:
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
        distinct = sum(len(keys) for keys in self.subtraces.values())
        metrics["similarity.distinct_share"] = (
            distinct / self.compared if self.compared else 0.0, "ratio")
        links = calls["appmodel.links"]
        metrics["appmodel.links.true_ratio"] = (self.links_true / links if links else 0.0, "ratio")
        sizes = self.vocab_sizes
        metrics["features.vocab_size"] = (sum(sizes) / len(sizes) if sizes else 0.0, "count")
        return metrics

    def write(self, path: Path) -> None:
        """Spans, then per-parent leaf aggregates, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, request, layer, start, end, child in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                      "layer": layer, "start_ns": start, "end_ns": end,
                                      "child_ns": child}) + "\n")
            for (parent, layer), (n, total) in self.leaves.items():
                out.write(json.dumps({"parent": parent, "layer": layer, "calls": n,
                                      "total_ns": total}) + "\n")
