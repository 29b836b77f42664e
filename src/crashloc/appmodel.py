"""Serialized static app model: classes, invocation edges, parameter flows.

The model is consumed as JSON (never extracted from binaries here):

    {
      "classes":     [{"name", "superclasses", "active_methods",
                       "non_overridden_callbacks"}],
      "invocations": [{"caller", "callees"}],
      "param_flows": [{"callee", "position", "class_name"}],
      "apis":        [{"class_name", "method_name", "kind"}]
    }

Method references are strings ``class#method(sig)`` (``(sig)`` optional).
Active methods are the methods with actual code bodies declared in a class;
non-overridden callbacks are inherited callback APIs the class never
overrides, recorded with their defining framework class and kept nearest
superclass first (a stable sort of the listed order). Loading validates
every reference and rejects dangling ones; the loaded model is immutable
and all queries are pure. The call graph that ``invokers_of`` and
``link_scores`` walk is derived once per model, on the first such query,
and it keeps the methods reachable from each method within each searched
depth as a bit mask, filled by one search the first time it is asked for.
``link_scores`` holds the Category-B linkage rule; ``links`` is its
one-pair case.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    DanglingRef, SchemaError, expect, expect_items, naming, parse_json, read_text,
)
from .records import builder

API_KIND_CALL_IN = "call-in"
API_KIND_CALLBACK = "callback"
API_KINDS = (API_KIND_CALL_IN, API_KIND_CALLBACK)

# How many invocation hops the linkage rule (``link_scores``) follows
# unless told otherwise.
DEFAULT_LINKS_DEPTH = 5

@dataclass(frozen=True, slots=True)
class MethodRef:
    class_name: str
    method_name: str
    signature: tuple[str, ...] | None = None
    is_developer: bool = True

    def canonical(self) -> str:
        if self.signature is None:
            return f"{self.class_name}#{self.method_name}"
        return f"{self.class_name}#{self.method_name}({','.join(self.signature)})"

    def same_method(self, other: "MethodRef") -> bool:
        """Equality on class and method, requiring signatures to agree only
        when both sides carry one."""
        if self.class_name != other.class_name or self.method_name != other.method_name:
            return False
        if self.signature is None or other.signature is None:
            return True
        return self.signature == other.signature


@dataclass(frozen=True, slots=True)
class ApiRef:
    class_name: str
    method_name: str
    kind: str

    def __post_init__(self):
        if self.kind not in API_KINDS:
            raise SchemaError(f"api kind must be one of {API_KINDS}, got {self.kind!r}", "/kind")

    def to_json_obj(self) -> dict:
        return {
            "class_name": self.class_name,
            "method_name": self.method_name,
            "kind": self.kind,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, pointer: str = "") -> "ApiRef":
        values = [expect(obj, key, str, pointer) for key in ("class_name", "method_name", "kind")]
        try:
            return cls(*values)
        except SchemaError as exc:
            raise SchemaError(exc.message, pointer + exc.pointer) from exc


@dataclass(frozen=True, slots=True)
class ClassDef:
    name: str
    superclasses: tuple[str, ...]
    active_methods: tuple[MethodRef, ...]
    non_overridden_callbacks: tuple[MethodRef, ...]


_method_ref = builder(MethodRef)
_api_ref = builder(ApiRef)
_class_def = builder(ClassDef)


def well_formed_api(obj) -> ApiRef | None:
    """The ApiRef of an API object whose names are texts and whose kind is
    known, built without ``ApiRef``'s check; None for any other value, which
    ``ApiRef.from_json_obj`` then reports."""
    if type(obj) is dict:
        class_name, method_name = obj.get("class_name"), obj.get("method_name")
        kind = obj.get("kind")
        if (type(class_name) is str and type(method_name) is str and type(kind) is str
                and kind in API_KINDS):
            return _api_ref(class_name, method_name, kind)
    return None


@dataclass(frozen=True)
class AppModel:
    classes: dict  # name -> ClassDef, declaration order
    invocations: tuple[tuple[MethodRef, tuple[MethodRef, ...]], ...]
    param_flows: tuple[tuple[MethodRef, int, str], ...]
    apis: tuple[ApiRef, ...]

    @cached_property
    def call_graph(self) -> "CallGraph":
        """The invocation graph over int ids, built on first use; not part of ``==``."""
        return CallGraph.build(self)


@dataclass(frozen=True, slots=True)
class CallGraph:
    """An app model's invocations and param flows, indexed for the Category-B queries.

    Ids number the declared methods in declaration order. A developer
    callee is its declaration: loading resolves it by canonical string.
    ``reach`` memoizes ``reachable``; it is not part of ``==``.
    """

    ids: dict  # canonical string -> id of the declared method
    refs: tuple  # id -> MethodRef
    by_name: dict  # (class, method) -> ids
    succ: tuple  # id -> developer callee ids, in model order
    flows: dict  # param-flow callee (class, method) -> ((callee, class name), ...)
    invokers: dict  # callee (class, method) -> callers, in model order
    reach: dict = field(default_factory=dict, compare=False, repr=False)  # (id, depth) -> mask

    @classmethod
    def build(cls, model: AppModel) -> "CallGraph":
        refs = tuple(ref for cdef in model.classes.values() for ref in cdef.active_methods)
        ids = {ref.canonical(): i for i, ref in enumerate(refs)}
        out: list = [[] for _ in refs]
        invokers: dict = {}  # callee (class, method) -> {caller id: first caller ref}
        for caller, callees in model.invocations:
            caller_id = ids[caller.canonical()]
            edges = out[caller_id]
            for callee in callees:
                if callee.is_developer:
                    edges.append(ids[callee.canonical()])
                key = (callee.class_name, callee.method_name)
                invokers.setdefault(key, {}).setdefault(caller_id, caller)
        by_name: dict = {}
        for i, ref in enumerate(refs):
            by_name.setdefault((ref.class_name, ref.method_name), []).append(i)
        flows: dict = {}
        for callee, _, class_name in model.param_flows:
            flows.setdefault((callee.class_name, callee.method_name), []).append(
                (callee, class_name))
        return cls(
            ids=ids,
            refs=refs,
            by_name={key: tuple(v) for key, v in by_name.items()},
            succ=tuple(tuple(edges) for edges in out),
            flows={key: tuple(v) for key, v in flows.items()},
            invokers={key: tuple(v.values()) for key, v in invokers.items()},
        )

    def reachable(self, start: int, depth: int) -> int:
        """Bit mask of the ids 1..``depth`` invocation hops from ``start``,
        found by one breadth-first search per (start, depth)."""
        mask = self.reach.get((start, depth))
        if mask is None:
            mask = 0
            succ = self.succ
            frontier = [start]
            visited = {start}
            for _ in range(depth):
                next_frontier = []
                for method in frontier:
                    for callee in succ[method]:
                        mask |= 1 << callee
                        if callee not in visited:
                            visited.add(callee)
                            next_frontier.append(callee)
                if not next_frontier:
                    break
                frontier = next_frontier
            self.reach[(start, depth)] = mask
        return mask


def parse_method_ref(text: str, is_developer: bool = True, pointer: str = "") -> MethodRef:
    """Parse ``cls#method`` or ``cls#method(sig)``.

    The class and the method are non-empty and hold no ``#``, ``(`` or
    ``)``; the signature holds no ``(`` or ``)`` and is split at commas.
    One ``"\\n"`` after the closing ``)`` is ignored.
    """
    cls, _, rest = text.partition("#")
    if rest[-1:] == "\n" and rest[-2:] == ")\n":
        rest = rest[:-1]
    if rest[-1:] == ")":
        method, paren, sig_text = rest[:-1].partition("(")
        ok = paren and "(" not in sig_text and ")" not in sig_text
    else:
        method, sig_text = rest, None
        ok = "(" not in method
    if not (ok and cls and method and "(" not in cls and ")" not in cls
            and "#" not in method and ")" not in method):
        raise SchemaError(f"bad method reference {text!r}, expected class#method(sig)", pointer)
    if sig_text is None:
        signature = None
    elif "," in sig_text:
        signature = tuple(map(str.strip, sig_text.split(",")))
    else:
        sig_text = sig_text.strip()
        signature = (sig_text,) if sig_text else ()
    return _method_ref(cls, method, signature, is_developer)


def load_app_model(path: str | Path) -> AppModel:
    """Load and fully validate an app-model JSON file."""
    text = read_text(path, "app model")
    with naming("app model", path):
        return app_model_from_json(parse_json(text, "app model"))


def app_model_from_json(obj: dict) -> AppModel:
    # One pass over the model. A value of its JSON type passes a ``type(v)
    # is T`` test in place; any other value goes to the shape check that
    # reports it (``expect``, ``expect_items``), so an error's message and
    # pointer are built only for the value that fails, and a list's items
    # are all checked before the first is used. A callback text and a
    # resolved reference text are each parsed once per load.
    callbacks: dict = {}  # text -> the non-overridden callback it names
    resolved: dict = {}  # text -> the declared method, or the API a callee names
    classes: dict = {}
    declared: set = set()  # canonical strings of the active methods
    top = obj if type(obj) is dict else {}
    centries = top.get("classes")
    if type(centries) is not list:
        centries = expect(obj, "classes", list, "")
    for ci, centry in enumerate(centries):
        entry = centry if type(centry) is dict else {}
        name = entry.get("name")
        if type(name) is not str:
            name = expect(centry, "name", str, f"/classes/{ci}")
        if name in classes:
            raise SchemaError(f"class {name!r} declared twice", f"/classes/{ci}/name")
        supers = entry.get("superclasses")
        if type(supers) is not list:
            supers = expect(centry, "superclasses", list, f"/classes/{ci}")
        for text in supers:
            if type(text) is not str:
                expect_items(supers, str, f"/classes/{ci}/superclasses")
                break
        supers = tuple(supers)
        texts = entry.get("active_methods")
        if type(texts) is not list:
            texts = expect(centry, "active_methods", list, f"/classes/{ci}")
        for text in texts:
            if type(text) is not str:
                expect_items(texts, str, f"/classes/{ci}/active_methods")
                break
        active = []
        for mi, mtext in enumerate(texts):
            try:
                ref = parse_method_ref(mtext)
            except SchemaError as exc:
                raise SchemaError(exc.message, f"/classes/{ci}/active_methods/{mi}") from None
            canonical = ref.canonical()
            if ref.class_name != name:
                raise SchemaError(f"active method {canonical!r} is not declared in {name!r}",
                                  f"/classes/{ci}/active_methods/{mi}")
            if canonical in declared:
                raise SchemaError(f"method {canonical!r} declared twice",
                                  f"/classes/{ci}/active_methods/{mi}")
            declared.add(canonical)
            resolved[mtext] = ref
            active.append(ref)
        # A superclass listed twice ranks at its last position.
        chain_pos = {cls: i for i, cls in enumerate(supers)}
        texts = entry.get("non_overridden_callbacks")
        if type(texts) is not list:
            texts = expect(centry, "non_overridden_callbacks", list, f"/classes/{ci}")
        for text in texts:
            if type(text) is not str:
                expect_items(texts, str, f"/classes/{ci}/non_overridden_callbacks")
                break
        ncs = []
        for mi, mtext in enumerate(texts):
            ref = callbacks.get(mtext)
            if ref is None:
                try:
                    ref = callbacks[mtext] = parse_method_ref(mtext, False)
                except SchemaError as exc:
                    raise SchemaError(exc.message,
                                      f"/classes/{ci}/non_overridden_callbacks/{mi}") from None
            if ref.class_name not in chain_pos:
                raise DanglingRef(
                    f"callback {ref.canonical()!r} is defined outside the "
                    f"superclass chain of {name!r}",
                    f"/classes/{ci}/non_overridden_callbacks/{mi}",
                )
            ncs.append(ref)
        if active and ncs:
            overlap = {(m.method_name, m.signature) for m in active} & {
                (m.method_name, m.signature) for m in ncs
            }
            if overlap:
                raise SchemaError(f"methods both active and non-overridden in {name!r}: "
                                  f"{sorted(overlap, key=str)}", f"/classes/{ci}")
        if len(ncs) > 1:
            ncs.sort(key=lambda nc: chain_pos[nc.class_name])
        classes[name] = _class_def(name, supers, tuple(active), tuple(ncs))

    aentries = top.get("apis")
    if type(aentries) is not list:
        aentries = expect(obj, "apis", list, "")
    apis = tuple(well_formed_api(a) or ApiRef.from_json_obj(a, f"/apis/{ai}")
                 for ai, a in enumerate(aentries))
    api_names = {(a.class_name, a.method_name) for a in apis}

    def resolve(text: str, what: str, *keys) -> MethodRef:
        """The declared method ``text`` names; for a callee, else the API it
        names. ``keys`` locate ``text`` in the model, for an error."""
        ref = resolved.get(text)
        if ref is None:
            try:
                ref = parse_method_ref(text)
            except SchemaError as exc:
                raise SchemaError(exc.message, _pointer(keys)) from None
            if ref.canonical() not in declared:
                if (ref.class_name, ref.method_name) not in api_names:
                    raise _undeclared(ref, what, _pointer(keys))
                ref = _method_ref(ref.class_name, ref.method_name, ref.signature, False)
            resolved[text] = ref
        if not ref.is_developer and what != "callee":
            raise _undeclared(ref, what, _pointer(keys))
        return ref

    ientries = top.get("invocations")
    if type(ientries) is not list:
        ientries = expect(obj, "invocations", list, "")
    invocations = []
    for ii, ientry in enumerate(ientries):
        entry = ientry if type(ientry) is dict else {}
        text = entry.get("caller")
        if type(text) is not str:
            text = expect(ientry, "caller", str, f"/invocations/{ii}")
        caller = resolved.get(text)
        if caller is None or not caller.is_developer:
            caller = resolve(text, "caller", "invocations", ii, "caller")
        texts = entry.get("callees")
        if type(texts) is not list:
            texts = expect(ientry, "callees", list, f"/invocations/{ii}")
        for text in texts:
            if type(text) is not str:
                expect_items(texts, str, f"/invocations/{ii}/callees")
                break
        callees = []
        for ci, text in enumerate(texts):
            callees.append(resolved.get(text) or resolve(text, "callee", "invocations", ii,
                                                          "callees", ci))
        invocations.append((caller, tuple(callees)))

    pentries = top.get("param_flows")
    if type(pentries) is not list:
        pentries = expect(obj, "param_flows", list, "")
    param_flows = []
    for pi, pentry in enumerate(pentries):
        entry = pentry if type(pentry) is dict else {}
        text = entry.get("callee")
        if type(text) is not str:
            text = expect(pentry, "callee", str, f"/param_flows/{pi}")
        callee = resolved.get(text)
        if callee is None or not callee.is_developer:
            callee = resolve(text, "param flow callee", "param_flows", pi, "callee")
        position = entry.get("position")
        if type(position) is not int:
            position = expect(pentry, "position", int, f"/param_flows/{pi}")
        if position < 0:
            raise SchemaError("position must be >= 0", f"/param_flows/{pi}/position")
        class_name = entry.get("class_name")
        if type(class_name) is not str:
            class_name = expect(pentry, "class_name", str, f"/param_flows/{pi}")
        param_flows.append((callee, position, class_name))

    return AppModel(
        classes=classes,
        invocations=tuple(invocations),
        param_flows=tuple(param_flows),
        apis=apis,
    )


def _pointer(keys) -> str:
    """The JSON pointer to the value at ``keys``, from the document's root."""
    return "".join(f"/{key}" for key in keys)


def _undeclared(ref: MethodRef, what: str, pointer: str) -> DanglingRef:
    if what == "callee":
        return DanglingRef(
            f"callee {ref.canonical()!r} resolves to neither a declared method "
            "nor a declared API",
            pointer,
        )
    return DanglingRef(f"{what} {ref.canonical()!r} is not a declared method", pointer)


# ---------------------------------------------------------------------------
# Queries used by the Category-B localization algorithm
# ---------------------------------------------------------------------------

def invokers_of(model: AppModel, api: ApiRef) -> list[MethodRef]:
    """Developer methods with an invocation edge to the API, in model order."""
    return list(model.call_graph.invokers.get((api.class_name, api.method_name), ()))


def links(model: AppModel, s: MethodRef, am: MethodRef, depth: int = DEFAULT_LINKS_DEPTH) -> bool:
    """True when ``link_scores`` links the developer method ``s`` to ``am``:
    its one-invoker, one-(d = 1, am) case."""
    return link_scores(model, (s,), ((1, (am,)),), depth)[0] > 0.0


def link_scores(
    model: AppModel,
    invokers: Sequence[MethodRef],
    frames: Iterable[tuple[int, Sequence[MethodRef]]],
    depth: int = DEFAULT_LINKS_DEPTH,
) -> list[float]:
    """Each invoker's Category-B score: ``1/d`` for every frame distance d
    and every active method ``am`` of that frame's class (``frames`` gives
    the (d, active methods) pairs) that the invoker ``s`` links to.

    ``s`` links to ``am`` when any of: (1) both are declared in the same
    class, (2) an instance of ``s``'s declaring class flows into ``am`` as
    a parameter, (3) ``am`` reaches ``s`` within ``depth`` invocation hops.

    The invokers' target masks are resolved once; then each (d, am) is one
    pass over the invokers, adding ``1/d`` in (d, am) order, so each sum is
    the same float as a per-pair loop's. ``reachable(am, depth)`` is asked
    for only once some invoker is linked neither by class nor by a param
    flow, so the memo fills the same keys as a per-pair loop.
    """
    if not invokers:
        return []
    graph = model.call_graph
    entries = []  # (position, class, bits of the declared methods that are the invoker)
    for i, s in enumerate(invokers):
        target = 0
        for j in graph.by_name.get((s.class_name, s.method_name), ()):
            if graph.refs[j].same_method(s):
                target |= 1 << j
        entries.append((i, s.class_name, target))
    scores = [0.0] * len(invokers)
    for d, active_methods in frames:
        weight = 1.0 / d
        for am in active_methods:
            flows = graph.flows.get((am.class_name, am.method_name))
            flowing = {c for callee, c in flows if callee.same_method(am)} if flows else ()
            mask = None
            for i, class_name, target in entries:
                if class_name == am.class_name or class_name in flowing:
                    scores[i] += weight
                    continue
                if mask is None:
                    start = graph.ids.get(am.canonical())
                    mask = 0 if start is None else graph.reachable(start, depth)
                if mask & target:
                    scores[i] += weight
    return scores


def inherits_from(model: AppModel, nc: MethodRef, api: ApiRef) -> bool:
    """True when the callback is the API: same method name, and the defining
    class equals the API's class or shares a declared superclass chain."""
    if nc.method_name != api.method_name:
        return False
    if nc.class_name == api.class_name:
        return True
    for cdef in model.classes.values():
        chain = (cdef.name,) + cdef.superclasses
        if nc.class_name in chain and api.class_name in chain:
            return True
    return False
