from __future__ import annotations

import json

import pytest

from crashloc.appmodel import (
    ApiRef,
    MethodRef,
    active_methods,
    app_model_from_json,
    inherits_from,
    invokers_of,
    links,
    load_app_model,
    non_overridden_callbacks,
    parse_method_ref,
)
from crashloc.errors import DanglingRef, SchemaError, UnknownClass

from conftest import APP_MODELS


def _class(name, supers=("java.lang.Object",), active=(), ncs=()):
    return {
        "name": name,
        "superclasses": list(supers),
        "active_methods": list(active),
        "non_overridden_callbacks": list(ncs),
    }


def _model(classes=(), invocations=(), param_flows=(), apis=()):
    return app_model_from_json(
        {
            "classes": list(classes),
            "invocations": list(invocations),
            "param_flows": list(param_flows),
            "apis": list(apis),
        }
    )


@pytest.fixture(scope="module")
def geography():
    return load_app_model(APP_MODELS / "geography.json")


@pytest.fixture(scope="module")
def fengshui():
    return load_app_model(APP_MODELS / "fengshui.json")


def test_parse_method_ref_variants():
    ref = parse_method_ref("com.a.B#run")
    assert (ref.class_name, ref.method_name, ref.signature) == ("com.a.B", "run", None)
    assert parse_method_ref("com.a.B#run()").signature == ()
    ref = parse_method_ref("com.a.B#go(int,java.lang.String)")
    assert ref.signature == ("int", "java.lang.String")
    assert ref.canonical() == "com.a.B#go(int,java.lang.String)"
    with pytest.raises(SchemaError):
        parse_method_ref("no-separator")


def test_minimal_model_loads():
    model = _model(classes=[_class("com.a.B", active=["com.a.B#run()"])])
    assert list(model.classes) == ["com.a.B"]
    assert active_methods(model, "com.a.B")[0].method_name == "run"


def test_dangling_callee_rejected():
    with pytest.raises(DanglingRef):
        _model(
            classes=[_class("com.a.B", active=["com.a.B#run()"])],
            invocations=[{"caller": "com.a.B#run()", "callees": ["com.a.Ghost#gone()"]}],
        )


def test_dangling_caller_rejected():
    with pytest.raises(DanglingRef):
        _model(
            classes=[_class("com.a.B", active=["com.a.B#run()"])],
            invocations=[{"caller": "com.a.Ghost#gone()", "callees": ["com.a.B#run()"]}],
        )


def test_schema_error_reports_pointer():
    with pytest.raises(SchemaError) as exc:
        _model(classes=[{"name": "com.a.B", "superclasses": []}])
    assert "/classes/0" in str(exc.value)


def test_boolean_position_rejected():
    with pytest.raises(SchemaError) as exc:
        _model(
            classes=[_class("com.b.Sink", active=["com.b.Sink#take(com.a.Source)"])],
            param_flows=[
                {"callee": "com.b.Sink#take(com.a.Source)", "position": True,
                 "class_name": "com.a.Source"}
            ],
        )
    assert exc.value.pointer == "/param_flows/0/position"


def test_callback_outside_chain_rejected():
    with pytest.raises(DanglingRef):
        _model(
            classes=[
                _class(
                    "com.a.B",
                    supers=("android.app.Activity",),
                    ncs=["android.other.Widget#onThing()"],
                )
            ]
        )


def test_fengshui_fixture_shape(fengshui):
    helper = fengshui.class_def("com.divination1518.g.p")
    assert helper.superclasses[0] == "android.database.sqlite.SQLiteOpenHelper"
    assert any(nc.method_name == "onDowngrade" for nc in helper.non_overridden_callbacks)


def test_invokers_of_empty_and_ordered():
    model = _model(
        classes=[
            _class("com.a.B", active=["com.a.B#m1()", "com.a.B#m2()", "com.a.B#m3()"])
        ],
        invocations=[
            {"caller": "com.a.B#m1()", "callees": ["android.app.Api#call()"]},
            {"caller": "com.a.B#m2()", "callees": ["android.app.Api#call()"]},
        ],
        apis=[{"class_name": "android.app.Api", "method_name": "call", "kind": "call-in"}],
    )
    api = ApiRef("android.app.Api", "call", "call-in")
    assert [m.method_name for m in invokers_of(model, api)] == ["m1", "m2"]
    assert invokers_of(model, ApiRef("android.app.Api", "other", "call-in")) == []


def test_invokers_of_geography_bindservice(geography):
    api = ApiRef("android.content.ContextWrapper", "bindService", "call-in")
    callers = invokers_of(geography, api)
    assert [c.canonical() for c in callers] == [
        "com.yamlearning.geographylearning.MainActivity#onCreate(android.os.Bundle)"
    ]


def test_active_methods_order_and_unknown_class(fengshui):
    assert active_methods(_model(classes=[_class("com.a.Empty")]), "com.a.Empty") == []
    names = [m.method_name for m in active_methods(fengshui, "com.divination1518.g.p")]
    assert names == ["a", "onCreate", "onUpgrade"]
    with pytest.raises(UnknownClass):
        active_methods(fengshui, "com.divination1518.missing.X")


def _chain_model(depth_edges):
    """Line-shaped call chain m0 -> m1 -> ... across distinct classes."""
    classes = []
    invocations = []
    for i in range(depth_edges + 1):
        classes.append(_class(f"com.chain.C{i}", active=[f"com.chain.C{i}#m{i}()"]))
    for i in range(depth_edges):
        invocations.append(
            {"caller": f"com.chain.C{i}#m{i}()", "callees": [f"com.chain.C{i + 1}#m{i + 1}()"]}
        )
    return _model(classes=classes, invocations=invocations)


def test_links_same_class_and_self():
    model = _model(
        classes=[_class("com.a.B", active=["com.a.B#m1()", "com.a.B#m2()"])]
    )
    m1 = parse_method_ref("com.a.B#m1()")
    m2 = parse_method_ref("com.a.B#m2()")
    assert links(model, m1, m2)
    assert links(model, m1, m1)


def test_links_unrelated_false():
    model = _model(
        classes=[
            _class("com.a.B", active=["com.a.B#m()"]),
            _class("com.c.D", active=["com.c.D#n()"]),
        ]
    )
    assert not links(model, parse_method_ref("com.a.B#m()"), parse_method_ref("com.c.D#n()"))


def test_links_two_hop_chain_within_depth():
    model = _chain_model(2)
    am = parse_method_ref("com.chain.C0#m0()")
    s = parse_method_ref("com.chain.C2#m2()")
    assert links(model, s, am, depth=3)
    assert links(model, s, am, depth=2)
    assert not links(model, s, am, depth=1)


def test_links_monotone_in_depth():
    model = _chain_model(4)
    am = parse_method_ref("com.chain.C0#m0()")
    s = parse_method_ref("com.chain.C4#m4()")
    results = [links(model, s, am, depth=d) for d in range(1, 7)]
    assert results == [False, False, False, True, True, True]


def test_links_param_flow():
    model = _model(
        classes=[
            _class("com.a.Source", active=["com.a.Source#make()"]),
            _class("com.b.Sink", active=["com.b.Sink#take(com.a.Source)"]),
        ],
        param_flows=[
            {"callee": "com.b.Sink#take(com.a.Source)", "position": 0, "class_name": "com.a.Source"}
        ],
    )
    s = parse_method_ref("com.a.Source#make()")
    am = parse_method_ref("com.b.Sink#take(com.a.Source)")
    assert links(model, s, am)


def test_non_overridden_callbacks_order_and_content(fengshui):
    assert non_overridden_callbacks(
        _model(classes=[_class("com.a.Full")]), "com.a.Full"
    ) == []
    ncs = non_overridden_callbacks(fengshui, "com.divination1518.g.p")
    assert [nc.method_name for nc in ncs] == ["onDowngrade", "onOpen"]

    model = _model(
        classes=[
            _class(
                "com.a.W",
                supers=("android.near.Base", "android.far.Root"),
                ncs=["android.far.Root#onFar()", "android.near.Base#onNear()"],
            )
        ]
    )
    ordered = non_overridden_callbacks(model, "com.a.W")
    assert [nc.class_name for nc in ordered] == ["android.near.Base", "android.far.Root"]


def test_inherits_from_cases(fengshui):
    nc = MethodRef("android.database.sqlite.SQLiteOpenHelper", "onDowngrade",
                   ("android.database.sqlite.SQLiteDatabase", "int", "int"), False)
    assert inherits_from(
        fengshui, nc, ApiRef("android.database.sqlite.SQLiteOpenHelper", "onDowngrade", "callback")
    )
    assert not inherits_from(
        fengshui, nc, ApiRef("android.database.sqlite.SQLiteOpenHelper", "onOpen", "callback")
    )
    assert not inherits_from(
        fengshui, nc, ApiRef("android.widget.Unrelated", "onDowngrade", "callback")
    )


def test_inherits_from_walks_declared_chain():
    model = _model(
        classes=[
            _class(
                "com.a.W",
                supers=("android.sub.Child", "android.base.Parent"),
                ncs=["android.sub.Child#onEvent()"],
            )
        ],
        apis=[{"class_name": "android.base.Parent", "method_name": "onEvent", "kind": "callback"}],
    )
    nc = non_overridden_callbacks(model, "com.a.W")[0]
    assert inherits_from(model, nc, ApiRef("android.base.Parent", "onEvent", "callback"))


def test_bad_api_kind_rejected():
    with pytest.raises(SchemaError):
        _model(apis=[{"class_name": "a.B", "method_name": "m", "kind": "weird"}])


def test_load_rejects_non_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_app_model(bad)
    with pytest.raises(SchemaError):
        load_app_model(tmp_path / "missing.json")


def test_geography_json_uses_exact_schema_keys():
    obj = json.loads((APP_MODELS / "geography.json").read_text(encoding="utf-8"))
    assert set(obj) == {"classes", "invocations", "param_flows", "apis"}
    assert set(obj["classes"][0]) == {
        "name", "superclasses", "active_methods", "non_overridden_callbacks"
    }
    assert set(obj["invocations"][0]) == {"caller", "callees"}
    assert set(obj["param_flows"][0]) == {"callee", "position", "class_name"}
    assert set(obj["apis"][0]) == {"class_name", "method_name", "kind"}
