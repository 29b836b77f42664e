"""The indexed call-graph queries and the load-time callback order agree
with the direct computations they replaced.

``reference_invokers_of`` and ``reference_links`` scan ``model.invocations``
and ``model.param_flows`` on every call; they are kept here, unchanged, as
the oracle for ``appmodel.invokers_of`` and ``appmodel.links``.
``reference_non_overridden_callbacks`` is the sort the Category-B locator
once ran per query; applied to a class's callbacks in their listed order,
it is the oracle for the order in which loading keeps them.
``reference_locate_category_b`` is the Category-B locator that called
``links`` once per (invoker, active method), kept verbatim; it is the
oracle for ``appmodel.link_scores``, which the locator now calls.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from crashloc.appmodel import (
    API_KIND_CALL_IN,
    DEFAULT_LINKS_DEPTH,
    ApiRef,
    AppModel,
    MethodRef,
    app_model_from_json,
    inherits_from,
    invokers_of,
    links,
    load_app_model,
    parse_method_ref,
)
from crashloc.corpus import Category, LabeledCrash
from crashloc.localizer import (
    LocalizationResult,
    Location,
    _known_frames,
    infer_handled_api,
    locate_category_b,
)
from crashloc.similarity import Pool
from crashloc.trace import CrashReport

from conftest import APP_MODELS, make_report

DEPTHS = range(7)


def reference_invokers_of(model: AppModel, api: ApiRef) -> list[MethodRef]:
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


def reference_links(model: AppModel, s: MethodRef, am: MethodRef, depth: int = 5) -> bool:
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


def reference_locate_category_b(
    report: CrashReport,
    model: AppModel,
    training_b: Pool,
    depth: int = DEFAULT_LINKS_DEPTH,
) -> LocalizationResult:
    """Rank out-of-trace developer methods for the inferred handled API.

    Stack-frame classes missing from the app model are skipped with a
    warning rather than failing the whole localization.
    """
    api, provenance = infer_handled_api(report, training_b)

    ranked: list[tuple[Location, float]]
    if api.kind == API_KIND_CALL_IN:
        invokers = invokers_of(model, api)
        # Invokers are unique by canonical name, so one score per position.
        scores = [0.0] * len(invokers)
        for d, _, cdef in _known_frames(report, model):
            for i, s in enumerate(invokers):
                for am in cdef.active_methods:
                    if links(model, s, am, depth):
                        scores[i] += 1.0 / d
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
                suggestion = MethodRef(
                    class_name=frame.class_name,
                    method_name=nc.method_name,
                    signature=nc.signature,
                )
                if suggestion.canonical() in seen:
                    continue
                seen.add(suggestion.canonical())
                ranked.append((suggestion, 1.0 / d))

    return LocalizationResult(
        predicted_category=Category.B,
        ranked=tuple(ranked),
        provenance=provenance,
    )


def reference_non_overridden_callbacks(
    superclasses: tuple[str, ...], callbacks: list[MethodRef]
) -> list[MethodRef]:
    """The class's inherited-but-not-overridden callbacks, nearest superclass first."""
    chain_pos = {name: i for i, name in enumerate(superclasses)}
    return sorted(
        callbacks,
        key=lambda nc: chain_pos.get(nc.class_name, len(superclasses)),
    )


# Method slots a class may declare: (method, signature text or None). Their
# canonical strings are pairwise distinct, so any subset is a valid class.
# The same method name recurs with several signatures (overloads) and with
# none at all.
SLOTS = (
    ("run", None),
    ("run", ""),
    ("run", "int"),
    ("run", "int,java.lang.String"),
    ("stop", None),
    ("stop", "long"),
    ("onClick", ""),
)
CLASS_NAMES = ("com.app.Main", "com.app.Helper", "com.app.Store", "com.lib.Util")
# Superclass chains draw 1-3 of these, repeats allowed. Callback names are
# used by no slot, so a callback never clashes with an active method.
SUPER_NAMES = ("android.app.Activity", "android.app.Fragment", "java.lang.Object")
CALLBACK_TEXTS = ("onStart()", "onPause()", "onResume", "onEvent(int)")
API_REFS = (
    ("android.app.Service", "bindService", "call-in"),
    ("android.content.Context", "run", "call-in"),
    ("android.app.Activity", "onResume", "callback"),
    # Shares a developer class and method name: callees of this name whose
    # signature no class declares resolve to the API, not to a developer.
    ("com.app.Main", "run", "call-in"),
)


def _spellings(cls: str, method: str, sig: str | None) -> list[str]:
    """Texts that load as a reference to the declared method ``cls#method(sig)``."""
    if sig is None:
        return [f"{cls}#{method}"]
    texts = [f"{cls}#{method}({sig})"]
    if "," in sig:
        texts.append(f"{cls}#{method}({sig.replace(',', ', ')})")
    if sig == "":
        # A blank signature parses to (), like ``m()``.
        texts.append(f"{cls}#{method}( )")
    return texts


@st.composite
def app_model_json(draw):
    n_classes = draw(st.integers(1, len(CLASS_NAMES)))
    declared = []
    classes = []
    for name in CLASS_NAMES[:n_classes]:
        slots = draw(st.lists(st.sampled_from(SLOTS), min_size=1, max_size=4, unique=True))
        declared.extend((name, method, sig) for method, sig in slots)
        supers = draw(st.lists(st.sampled_from(SUPER_NAMES), min_size=1, max_size=3))
        callbacks = draw(st.lists(
            st.tuples(st.sampled_from(supers), st.sampled_from(CALLBACK_TEXTS)), max_size=5))
        classes.append({
            "name": name,
            "superclasses": supers,
            "active_methods": [_spellings(name, m, sig)[0] for m, sig in slots],
            "non_overridden_callbacks": [f"{cls}#{text}" for cls, text in callbacks],
        })
    apis = draw(st.lists(st.sampled_from(API_REFS), max_size=len(API_REFS), unique=True))
    declared_texts = {_spellings(*d)[0] for d in declared}
    api_callees = [
        text
        for cls, method, _ in apis
        for text in (f"{cls}#{method}", f"{cls}#{method}(int)", f"{cls}#{method}(zzz)")
        if text not in declared_texts
    ]
    declared_refs = st.sampled_from(declared).flatmap(
        lambda d: st.sampled_from(_spellings(*d)))
    callee = declared_refs | st.sampled_from(api_callees) if api_callees else declared_refs
    # Callers repeat (duplicate entries), call themselves and form cycles.
    invocations = draw(st.lists(
        st.fixed_dictionaries({"caller": declared_refs,
                               "callees": st.lists(callee, max_size=4)}),
        max_size=12,
    ))
    param_flows = draw(st.lists(
        st.fixed_dictionaries({
            "callee": declared_refs,
            "position": st.integers(0, 2),
            "class_name": st.sampled_from(CLASS_NAMES + ("com.other.Gone",)),
        }),
        max_size=4,
    ))
    return {
        "classes": classes,
        "invocations": invocations,
        "param_flows": param_flows,
        "apis": [{"class_name": c, "method_name": m, "kind": k} for c, m, k in apis],
    }


def _query_refs(model: AppModel) -> list[MethodRef]:
    """Every method reference the model holds, plus refs it does not declare."""
    refs = [ref for cdef in model.classes.values() for ref in cdef.active_methods]
    for caller, callees in model.invocations:
        refs.append(caller)
        refs.extend(callees)
    refs.extend(callee for callee, _, _ in model.param_flows)
    for cls in CLASS_NAMES[:2] + ("com.other.Gone",):
        for text in ("run", "run()", "run( )", "run(int)", "run(double)", "stop", "absent"):
            refs.append(parse_method_ref(f"{cls}#{text}"))
    return list(dict.fromkeys(refs))


def _query_apis(model: AppModel) -> list[ApiRef]:
    extra = [ApiRef("com.app.Helper", "stop", "call-in"), ApiRef("x.Y", "z", "call-in")]
    return list(model.apis) + extra


def _assert_agrees(model: AppModel) -> None:
    refs = _query_refs(model)
    for s in refs:
        for am in refs:
            for depth in DEPTHS:
                assert links(model, s, am, depth) == reference_links(model, s, am, depth), (
                    s, am, depth)
    for api in _query_apis(model):
        assert invokers_of(model, api) == reference_invokers_of(model, api), api


@settings(max_examples=60, deadline=None)
@given(app_model_json())
def test_indexed_queries_match_reference_on_random_models(obj):
    _assert_agrees(app_model_from_json(obj))


@settings(max_examples=60, deadline=None)
@given(app_model_json(), st.data())
def test_memoized_links_match_reference_in_any_query_order(obj, data):
    # One loaded model answers every query, so later answers come from memo
    # entries that earlier queries filled. Each drawn pair is asked at every
    # depth in a drawn order and then in its reverse, so each depth is asked
    # both before and after each shallower one.
    model = app_model_from_json(obj)
    # Declared methods are drawn more often: only they start or end a search.
    declared = [ref for cdef in model.classes.values() for ref in cdef.active_methods]
    ref = st.one_of(st.sampled_from(declared), st.sampled_from(declared),
                    st.sampled_from(_query_refs(model)))
    pairs = data.draw(st.lists(st.tuples(ref, ref), min_size=1, max_size=12))
    for s, am in pairs:
        order = data.draw(st.permutations(DEPTHS))
        for depth in order + order[::-1]:
            assert links(model, s, am, depth) == reference_links(model, s, am, depth), (
                s, am, depth)


@pytest.mark.parametrize("name", ["fengshui.json", "geography.json"])
def test_indexed_queries_match_reference_on_fixtures(name):
    _assert_agrees(load_app_model(APP_MODELS / name))


def _assert_callbacks_in_reference_order(obj: dict) -> None:
    model = app_model_from_json(obj)
    for centry in obj["classes"]:
        listed = [parse_method_ref(text, False) for text in centry["non_overridden_callbacks"]]
        expected = reference_non_overridden_callbacks(tuple(centry["superclasses"]), listed)
        assert list(model.classes[centry["name"]].non_overridden_callbacks) == expected, centry


# A superclass listed twice sorts by its last position: Activity ranks after
# Fragment here, so the Fragment callback comes first.
_REPEATED_SUPER = {
    "classes": [{
        "name": "com.app.Main",
        "superclasses": ["android.app.Activity", "android.app.Fragment", "android.app.Activity"],
        "active_methods": [],
        "non_overridden_callbacks": ["android.app.Activity#onStart()",
                                     "android.app.Fragment#onPause()"],
    }],
    "invocations": [],
    "param_flows": [],
    "apis": [],
}


@settings(max_examples=60, deadline=None)
@given(app_model_json())
@example(_REPEATED_SUPER)
def test_loaded_callbacks_match_reference_order_on_random_models(obj):
    _assert_callbacks_in_reference_order(obj)


@pytest.mark.parametrize("name", ["fengshui.json", "geography.json"])
def test_loaded_callbacks_match_reference_order_on_fixtures(name):
    _assert_callbacks_in_reference_order(
        json.loads((APP_MODELS / name).read_text(encoding="utf-8")))


def test_respelled_callee_is_its_declaration():
    # "m( )" loads as a callee of the declared "m()" and is the same method,
    # under every spelling of the query.
    model = app_model_from_json({
        "classes": [
            {"name": "a.A", "superclasses": [], "active_methods": ["a.A#go()"],
             "non_overridden_callbacks": []},
            {"name": "b.B", "superclasses": [], "active_methods": ["b.B#m()"],
             "non_overridden_callbacks": []},
        ],
        "invocations": [{"caller": "a.A#go()", "callees": ["b.B#m( )"]}],
        "param_flows": [],
        "apis": [],
    })
    go = parse_method_ref("a.A#go()")
    for text in ("b.B#m()", "b.B#m( )", "b.B#m"):
        s = parse_method_ref(text)
        assert links(model, s, go, 1) is True is reference_links(model, s, go, 1)


def test_call_graph_is_built_on_first_query_and_left_out_of_equality():
    obj = json.loads((APP_MODELS / "geography.json").read_text(encoding="utf-8"))
    model = app_model_from_json(obj)
    assert "call_graph" not in vars(model)
    api = model.apis[0]
    invokers_of(model, api)
    graph = model.call_graph
    assert "call_graph" in vars(model)
    assert model == app_model_from_json(obj)
    for s in invokers_of(model, api):
        links(model, s, s, 5)
    assert model.call_graph is graph


# ---------------------------------------------------------------------------
# Category-B scoring
# ---------------------------------------------------------------------------

# Frame classes: the model's, one it never declares, and repeats of both,
# so that one class sits at several distances d.
FRAME_CLASSES = CLASS_NAMES + ("com.other.Gone",)

# ``com.app.Main#run()`` invokes the API. It is linked to the frame at d = 1
# by its class, and to each of the three active methods of the class at
# d = 3 by one invocation hop. The frame at d = 2 is skipped. Its score adds
# 1 + 1/3 + 1/3 + 1/3 in that order, which is 1.9999999999999998; adding
# the thirds first would give 2.0.
_THIRDS = {
    "classes": [
        {"name": "com.app.Main", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Main#run()"], "non_overridden_callbacks": []},
        {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Helper#run()", "com.app.Helper#run(int)",
                            "com.app.Helper#stop(long)"],
         "non_overridden_callbacks": []},
    ],
    "invocations": [
        {"caller": "com.app.Main#run()", "callees": ["android.app.Service#bindService"]},
        {"caller": "com.app.Helper#run()", "callees": ["com.app.Main#run()"]},
        {"caller": "com.app.Helper#run(int)", "callees": ["com.app.Main#run()"]},
        {"caller": "com.app.Helper#stop(long)", "callees": ["com.app.Main#run()"]},
    ],
    "param_flows": [],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}

# A Helper instance flows into ``Main#run(int)`` only: ``Helper#stop(long)``
# is linked to that active method of the frame class, and not to
# ``Main#run()``, which shares its class and name but not its signature.
_OVERLOAD_FLOW = {
    "classes": [
        {"name": "com.app.Main", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Main#run()", "com.app.Main#run(int)"],
         "non_overridden_callbacks": []},
        {"name": "com.app.Helper", "superclasses": ["java.lang.Object"],
         "active_methods": ["com.app.Helper#stop(long)"], "non_overridden_callbacks": []},
    ],
    "invocations": [
        {"caller": "com.app.Helper#stop(long)", "callees": ["android.app.Service#bindService"]},
    ],
    "param_flows": [{"callee": "com.app.Main#run(int)", "position": 0,
                     "class_name": "com.app.Helper"}],
    "apis": [{"class_name": "android.app.Service", "method_name": "bindService",
              "kind": "call-in"}],
}


@settings(max_examples=200, deadline=None)
@given(obj=app_model_json(),
       frame_classes=st.lists(st.sampled_from(FRAME_CLASSES), min_size=1, max_size=6),
       api=st.sampled_from(API_REFS + (("x.Y", "z", "call-in"),)),
       depth=st.integers(1, 6))
@example(obj=_THIRDS, frame_classes=["com.app.Main", "com.other.Gone", "com.app.Helper"],
         api=API_REFS[0], depth=1)
@example(obj=_OVERLOAD_FLOW, frame_classes=["com.app.Main"], api=API_REFS[0], depth=1)
def test_category_b_scores_match_the_links_loop(obj, frame_classes, api, depth):
    report = make_report(developer=tuple(f"{cls}.run" for cls in frame_classes))
    pool = [LabeledCrash(report=make_report(), category=Category.B, true_location="x#y",
                         api_h=ApiRef(*api))]
    # Each side gets its own loaded model, so each fills its own memo.
    reference_model, model = app_model_from_json(obj), app_model_from_json(obj)
    expected = reference_locate_category_b(report, reference_model, pool, depth)
    actual = locate_category_b(report, model, pool, depth)
    assert json.dumps(actual.to_json_obj()) == json.dumps(expected.to_json_obj())
    assert set(model.call_graph.reach) == set(reference_model.call_graph.reach)
