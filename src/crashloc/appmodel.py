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
overrides, recorded with their defining framework class. Loading validates
every reference and rejects dangling ones; the loaded model is immutable
and all queries are pure.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import DanglingRef, SchemaError, UnknownClass, expect, read_json

API_KIND_CALL_IN = "call-in"
API_KIND_CALLBACK = "callback"
API_KINDS = (API_KIND_CALL_IN, API_KIND_CALLBACK)

_METHOD_REF_RE = re.compile(
    r"^(?P<cls>[^#()]+)#(?P<method>[^#()]+)(?:\((?P<sig>[^()]*)\))?$"
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ApiRef:
    class_name: str
    method_name: str
    kind: str

    def __post_init__(self):
        if self.kind not in API_KINDS:
            raise SchemaError(f"api kind must be one of {API_KINDS}, got {self.kind!r}")

    def to_json_obj(self) -> dict:
        return {
            "class_name": self.class_name,
            "method_name": self.method_name,
            "kind": self.kind,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, pointer: str = "") -> "ApiRef":
        for key in ("class_name", "method_name", "kind"):
            if key not in obj:
                raise SchemaError(f"api reference is missing {key!r}", pointer)
        return cls(str(obj["class_name"]), str(obj["method_name"]), str(obj["kind"]))


@dataclass(frozen=True)
class ClassDef:
    name: str
    superclasses: tuple[str, ...]
    active_methods: tuple[MethodRef, ...]
    non_overridden_callbacks: tuple[MethodRef, ...]


@dataclass(frozen=True)
class AppModel:
    classes: dict  # name -> ClassDef, declaration order
    invocations: tuple[tuple[MethodRef, tuple[MethodRef, ...]], ...]
    param_flows: tuple[tuple[MethodRef, int, str], ...]
    apis: tuple[ApiRef, ...]

    def class_def(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise UnknownClass(f"class {name!r} is not declared in the app model") from None


def parse_method_ref(text: str, is_developer: bool = True, pointer: str = "") -> MethodRef:
    m = _METHOD_REF_RE.match(text)
    if m is None:
        raise SchemaError(f"bad method reference {text!r}, expected class#method(sig)", pointer)
    sig_text = m.group("sig")
    if sig_text is None:
        signature = None
    elif sig_text == "":
        signature = ()
    else:
        signature = tuple(part.strip() for part in sig_text.split(","))
    return MethodRef(
        class_name=m.group("cls"),
        method_name=m.group("method"),
        signature=signature,
        is_developer=is_developer,
    )


def load_app_model(path: str | Path) -> AppModel:
    """Load and fully validate an app-model JSON file."""
    obj = read_json(path, "app model")
    if not isinstance(obj, dict):
        raise SchemaError("app model must be a JSON object", "/")
    return app_model_from_json(obj)


def app_model_from_json(obj: dict) -> AppModel:
    classes: dict = {}
    for ci, centry in enumerate(expect(obj, "classes", list, "")):
        ptr = f"/classes/{ci}"
        if not isinstance(centry, dict):
            raise SchemaError("class entry must be an object", ptr)
        name = expect(centry, "name", str, ptr)
        if name in classes:
            raise SchemaError(f"class {name!r} declared twice", f"{ptr}/name")
        supers = tuple(str(s) for s in expect(centry, "superclasses", list, ptr))
        active = []
        for mi, mtext in enumerate(expect(centry, "active_methods", list, ptr)):
            ref = parse_method_ref(str(mtext), True, f"{ptr}/active_methods/{mi}")
            if ref.class_name != name:
                raise SchemaError(
                    f"active method {ref.canonical()!r} is not declared in {name!r}",
                    f"{ptr}/active_methods/{mi}",
                )
            active.append(ref)
        ncs = []
        for mi, mtext in enumerate(expect(centry, "non_overridden_callbacks", list, ptr)):
            nptr = f"{ptr}/non_overridden_callbacks/{mi}"
            ref = parse_method_ref(str(mtext), False, nptr)
            if ref.class_name not in supers:
                raise DanglingRef(
                    f"callback {ref.canonical()!r} is defined outside the "
                    f"superclass chain of {name!r}",
                    nptr,
                )
            ncs.append(ref)
        overlap = {(m.method_name, m.signature) for m in active} & {
            (m.method_name, m.signature) for m in ncs
        }
        if overlap:
            raise SchemaError(
                f"methods both active and non-overridden in {name!r}: {sorted(overlap)}", ptr
            )
        classes[name] = ClassDef(
            name=name,
            superclasses=supers,
            active_methods=tuple(active),
            non_overridden_callbacks=tuple(ncs),
        )

    declared = {}
    for cdef in classes.values():
        for ref in cdef.active_methods:
            key = ref.canonical()
            if key in declared:
                raise SchemaError(f"method {key!r} declared twice")
            declared[key] = ref

    apis = tuple(
        ApiRef.from_json_obj(a if isinstance(a, dict) else {}, f"/apis/{ai}")
        for ai, a in enumerate(expect(obj, "apis", list, ""))
    )
    api_names = {(a.class_name, a.method_name) for a in apis}

    def resolve_callee(ref: MethodRef, pointer: str) -> MethodRef:
        if ref.canonical() in declared:
            return ref
        if (ref.class_name, ref.method_name) in api_names:
            return MethodRef(ref.class_name, ref.method_name, ref.signature, is_developer=False)
        raise DanglingRef(
            f"callee {ref.canonical()!r} resolves to neither a declared method "
            "nor a declared API",
            pointer,
        )

    invocations = []
    for ii, ientry in enumerate(expect(obj, "invocations", list, "")):
        ptr = f"/invocations/{ii}"
        if not isinstance(ientry, dict):
            raise SchemaError("invocation entry must be an object", ptr)
        caller = parse_method_ref(expect(ientry, "caller", str, ptr), True, f"{ptr}/caller")
        if caller.canonical() not in declared:
            raise DanglingRef(f"caller {caller.canonical()!r} is not a declared method",
                              f"{ptr}/caller")
        callees = tuple(
            resolve_callee(parse_method_ref(str(c), True, f"{ptr}/callees/{ci}"),
                           f"{ptr}/callees/{ci}")
            for ci, c in enumerate(expect(ientry, "callees", list, ptr))
        )
        invocations.append((caller, callees))

    param_flows = []
    for pi, pentry in enumerate(expect(obj, "param_flows", list, "")):
        ptr = f"/param_flows/{pi}"
        if not isinstance(pentry, dict):
            raise SchemaError("param flow entry must be an object", ptr)
        callee = parse_method_ref(expect(pentry, "callee", str, ptr), True, f"{ptr}/callee")
        if callee.canonical() not in declared:
            raise DanglingRef(f"param flow callee {callee.canonical()!r} is not declared",
                              f"{ptr}/callee")
        position = expect(pentry, "position", int, ptr)
        if position < 0:
            raise SchemaError("position must be >= 0", f"{ptr}/position")
        param_flows.append((callee, position, expect(pentry, "class_name", str, ptr)))

    return AppModel(
        classes=classes,
        invocations=tuple(invocations),
        param_flows=tuple(param_flows),
        apis=apis,
    )


# ---------------------------------------------------------------------------
# Queries used by the Category-B localization algorithm
# ---------------------------------------------------------------------------

def invokers_of(model: AppModel, api: ApiRef) -> list[MethodRef]:
    """Developer methods with an invocation edge to the API, in model order."""
    found = []
    seen = set()
    for caller, callees in model.invocations:
        if caller.canonical() in seen:
            continue
        for callee in callees:
            if callee.class_name == api.class_name and callee.method_name == api.method_name:
                found.append(caller)
                seen.add(caller.canonical())
                break
    return found


def active_methods(model: AppModel, class_name: str) -> list[MethodRef]:
    return list(model.class_def(class_name).active_methods)


def non_overridden_callbacks(model: AppModel, class_name: str) -> list[MethodRef]:
    """The class's inherited-but-not-overridden callbacks, nearest superclass first."""
    cdef = model.class_def(class_name)
    chain_pos = {name: i for i, name in enumerate(cdef.superclasses)}
    return sorted(
        cdef.non_overridden_callbacks,
        key=lambda nc: chain_pos.get(nc.class_name, len(cdef.superclasses)),
    )


def links(model: AppModel, s: MethodRef, am: MethodRef, depth: int = 5) -> bool:
    """True when the two developer methods are plausibly related.

    Any of: (1) ``am`` reaches ``s`` through invocation edges within
    ``depth`` hops, (2) both are declared in the same class, (3) an
    instance of ``s``'s declaring class flows into ``am`` as a parameter.
    """
    if s.class_name == am.class_name:
        return True
    for callee, _, class_name in model.param_flows:
        if callee.same_method(am) and class_name == s.class_name:
            return True
    edges: dict = {}
    for caller, callees in model.invocations:
        edges.setdefault(caller.canonical(), []).extend(
            c for c in callees if c.is_developer
        )
    frontier = [am]
    visited = {am.canonical()}
    for _ in range(depth):
        next_frontier = []
        for method in frontier:
            for callee in edges.get(method.canonical(), []):
                if callee.same_method(s):
                    return True
                if callee.canonical() not in visited:
                    visited.add(callee.canonical())
                    next_frontier.append(callee)
        if not next_frontier:
            break
        frontier = next_frontier
    return False


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
