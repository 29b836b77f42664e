"""Records that the loaders build by setting their slots (``records.builder``)
are the records that ``__init__`` builds: equal, with equal hashes and
reprs, copied by ``dataclasses.replace`` and by pickle alike, and as
frozen."""
from __future__ import annotations

import dataclasses
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from crashloc import appmodel, corpus, trace
from crashloc.appmodel import ApiRef, ClassDef, MethodRef
from crashloc.corpus import Category, LabeledCrash, SubCategory
from crashloc.records import builder
from crashloc.trace import CrashReport, FrameworkMatcher, StackFrame, parse_and_split

TOP = StackFrame("android.app.Activity", "onCreate", "Activity.java", 10, 0)
DEV = StackFrame("com.app.Main", "<init>", None, None, 1)
REPORT = CrashReport("java.lang.IllegalStateException", "not attached", (TOP, DEV), (DEV,))
RUN = MethodRef("com.app.Main", "run", ("int", "String"))
CALLBACK = MethodRef("android.app.Activity", "onLowMemory", None, False)
API = ApiRef("android.app.Activity", "startActivity", "call-in")

# (record class, the builder its module uses, the values of all its fields in
# order, the keyword arguments that give the same record through __init__)
CASES = [
    (StackFrame, trace._stack_frame, ("com.app.Main", "run", "Main.java", 3, 2),
     dict(class_name="com.app.Main", method_name="run", file="Main.java", line=3, index=2)),
    (CrashReport, trace._crash_report,
     (REPORT.exception_type, REPORT.message, REPORT.frames, REPORT.developer_frames, (TOP,),
      ("android.app.Activity.onCreate",), None),
     dict(exception_type=REPORT.exception_type, message=REPORT.message, frames=REPORT.frames,
          developer_frames=REPORT.developer_frames)),
    (LabeledCrash, corpus._labeled_crash,
     (REPORT, Category.C, "Manifest", API, SubCategory.MANIFEST, Path("m/a.json"), "log"),
     dict(report=REPORT, category=Category.C, true_location="Manifest", api_h=API,
          sub_category=SubCategory.MANIFEST, app_model=Path("m/a.json"), crash_log="log")),
    (MethodRef, appmodel._method_ref, ("com.app.Main", "run", ("int",), False),
     dict(class_name="com.app.Main", method_name="run", signature=("int",), is_developer=False)),
    (ClassDef, appmodel._class_def,
     ("com.app.Main", ("android.app.Activity",), (RUN,), (CALLBACK,)),
     dict(name="com.app.Main", superclasses=("android.app.Activity",), active_methods=(RUN,),
          non_overridden_callbacks=(CALLBACK,))),
    (ApiRef, appmodel._api_ref, ("android.app.Activity", "onCreate", "callback"),
     dict(class_name="android.app.Activity", method_name="onCreate", kind="callback")),
]
IDS = [case[0].__name__ for case in CASES]


def _built(case, fresh: bool):
    cls, module_builder, values, _ = case
    return (builder(cls) if fresh else module_builder)(*values)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_record_class_is_frozen_and_slotted(case):
    cls = case[0]
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in vars(cls)
    assert not hasattr(_built(case, fresh=False), "__dict__")


@pytest.mark.parametrize("fresh", (False, True), ids=("module", "fresh"))
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_built_record_is_the_init_record(case, fresh):
    cls, _, _, kwargs = case
    built, init = _built(case, fresh), cls(**kwargs)
    assert type(built) is cls
    assert built == init and init == built
    assert hash(built) == hash(init)
    assert repr(built) == repr(init)
    for f in dataclasses.fields(cls):
        assert getattr(built, f.name) == getattr(init, f.name)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_built_record_copies_like_the_init_record(case):
    cls, _, _, kwargs = case
    built, init = _built(case, fresh=False), cls(**kwargs)
    assert dataclasses.replace(built) == init
    assert repr(dataclasses.replace(built)) == repr(init)
    first = dataclasses.fields(cls)[0].name
    changed = dataclasses.replace(built, **{first: kwargs[first]})
    assert changed == dataclasses.replace(init, **{first: kwargs[first]})
    copied = pickle.loads(pickle.dumps(built))
    assert type(copied) is cls
    assert copied == init and repr(copied) == repr(init)
    for f in dataclasses.fields(cls):
        assert getattr(copied, f.name) == getattr(init, f.name)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_built_record_is_frozen(case):
    built = _built(case, fresh=False)
    for f in dataclasses.fields(case[0]):
        with pytest.raises(FrozenInstanceError):
            setattr(built, f.name, getattr(built, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(built, f.name)


def test_crash_report_tokens_fill_once_on_a_built_report():
    built = _built(CASES[1], fresh=False)
    assert built.tokens == REPORT.tokens
    assert built.tokens is built.tokens
    assert pickle.loads(pickle.dumps(built)).tokens == REPORT.tokens


def test_parsed_report_is_the_init_report():
    text = ("java.lang.IllegalStateException: not attached\n"
            "\tat android.app.Activity.onCreate(Activity.java:10)\n"
            "\tat com.app.Main.<init>()\n")
    parsed = parse_and_split(text, FrameworkMatcher())
    assert parsed == REPORT and repr(parsed) == repr(REPORT) and hash(parsed) == hash(REPORT)
    assert parsed.subtrace_key == REPORT.subtrace_key
    assert pickle.loads(pickle.dumps(parsed)) == REPORT


@pytest.mark.parametrize("cls", (FrameworkMatcher, appmodel.AppModel))
def test_builder_refuses_a_class_that_is_not_frozen_and_slotted(cls):
    with pytest.raises(TypeError, match="not a frozen, slotted dataclass"):
        builder(cls)
