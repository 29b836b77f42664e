from __future__ import annotations

import dataclasses
import sys
import time

import pytest
from hypothesis import given, strategies as st

from crashloc.errors import MalformedLog, MissingException, NoDeveloperFrame
from crashloc.trace import CrashReport, FrameworkMatcher, parse_and_split, to_log_text

from conftest import CRASH_DIR


LISTING1 = """java.lang.IllegalStateException: MainActivityFragment{e7db358} not attached to Activity
\tat androidx.fragment.Fragment.startActivityForResult(Fragment.java:925)
\tat app.MainActivityFragment.selectFromImagePicker(MainActivityFragment.java:482)
\tat app.MainActivityFragment.access$500(MainActivityFragment.java:58)
\tat app.MainActivityFragment$6.onReceive(MainActivityFragment.java:415)
"""


def test_parse_listing1_header_and_frames(matcher):
    report = parse_and_split(LISTING1, matcher)
    assert report.exception_type == "java.lang.IllegalStateException"
    assert report.message == "MainActivityFragment{e7db358} not attached to Activity"
    assert len(report.frames) == 4
    assert report.frames[0].class_name == "androidx.fragment.Fragment"
    assert report.frames[0].method_name == "startActivityForResult"
    assert report.frames[0].file == "Fragment.java"
    assert report.frames[0].line == 925
    assert [f.index for f in report.frames] == [0, 1, 2, 3]
    assert report.signaler is report.frames[0]


def test_parse_without_message():
    # Under this matcher the only frame is a developer frame.
    report = parse_and_split(
        "java.lang.NullPointerException\n\tat android.app.Activity.run(Activity.java:1)\n",
        FrameworkMatcher(("java.",)),
    )
    assert report.exception_type == "java.lang.NullPointerException"
    assert report.message == ""


def test_parse_no_frames_is_malformed(matcher):
    with pytest.raises(MalformedLog):
        parse_and_split("java.lang.NullPointerException: boom\nnothing to see here\n", matcher)


def test_parse_undotted_first_line_is_missing_exception(matcher):
    with pytest.raises(MissingException):
        parse_and_split("Exception: boom\n\tat a.B.m(B.java:1)\n", matcher)
    with pytest.raises(MissingException):
        parse_and_split("", matcher)


def test_leading_blank_lines_parse_in_linear_time(matcher):
    # Skipping blank lines in time quadratic in their number takes tens of seconds for this many.
    blanks = " \n\t\n" * 200_000
    started = time.perf_counter()
    report = parse_and_split(blanks + LISTING1, matcher)
    assert time.perf_counter() - started < 5.0
    assert report == parse_and_split(LISTING1, matcher)


@pytest.mark.parametrize("text, message", [
    ("\n  \n", "empty crash log"),
    ("\n\n  Exception: boom\n\tat a.B.m(B.java:1)\n",
     "no dotted exception type on first line: '  Exception: boom'"),
])
def test_first_line_is_the_first_non_blank_line(matcher, text, message):
    with pytest.raises(MissingException) as info:
        parse_and_split(text, matcher)
    assert str(info.value) == message


def test_caused_by_keeps_outer_trace_only(matcher):
    text = (
        "java.lang.RuntimeException: outer\n"
        "\tat android.app.ActivityThread.run(ActivityThread.java:1)\n"
        "\tat com.app.x.Main.go(Main.java:2)\n"
        "Caused by: java.lang.NullPointerException\n"
        "\tat com.app.x.Deep.fail(Deep.java:3)\n"
    )
    report = parse_and_split(text, matcher)
    assert len(report.frames) == 2
    assert report.frames[-1].method_name == "go"


# str.splitlines ends a line at each of these; a crash log's lines end at a line feed only.
LINE_BOUNDARIES = {"U+2028": "\u2028", "U+2029": "\u2029", "U+0085": "\x85", "VT": "\x0b",
                   "FF": "\x0c", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e"}


@pytest.mark.parametrize("char", LINE_BOUNDARIES.values(), ids=LINE_BOUNDARIES.keys())
def test_only_a_line_feed_ends_a_line(matcher, char):
    text = LISTING1.replace(" not attached", f" not attached{char}", 1)
    expected = parse_and_split(LISTING1, matcher)
    for crlf in (False, True):
        report = parse_and_split(text.replace("\n", "\r\n") if crlf else text, matcher)
        assert report.message == f"MainActivityFragment{{e7db358}} not attached{char} to Activity"
        assert report.frames == expected.frames


def test_location_variants_parse(matcher):
    text = (
        "java.lang.Error: x\n"
        "\tat android.hw.Camera.native_setup(Native Method)\n"
        "\tat android.hw.Camera.open(Camera.java:403)\n"
        "\tat com.app.demo.Scan.init(Unknown Source)\n"
        "\tat com.app.demo.Scan.start()\n"
    )
    report = parse_and_split(text, matcher)
    assert report.frames[0].file == "Native Method"
    assert report.frames[0].line is None
    assert report.frames[2].file == "Unknown Source"
    assert report.frames[3].file is None
    assert report.frames[3].line is None


# The interpreter's limit on the digits int() converts; 0 or absent means none.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="this interpreter has no int() digit limit")
def test_line_number_too_long_for_int_is_malformed(matcher):
    text = "java.lang.Error: x\n\tat com.app.x.Main.go(Main.java:{})\n"
    report = parse_and_split(text.format("7" * INT_DIGITS), matcher)
    assert report.frames[0].line == int("7" * INT_DIGITS)
    with pytest.raises(MalformedLog) as exc:
        parse_and_split(text.format("7" * (INT_DIGITS + 1)), matcher)
    assert str(exc.value) == (f"frame 0 has a line number of {INT_DIGITS + 1} digits, "
                              "too long to read")


def test_split_listing1():
    matcher = FrameworkMatcher(("androidx.", "android.", "java."))
    report = parse_and_split(LISTING1, matcher)
    assert report.crash_api is report.frames[0]
    assert report.crash_method is report.frames[1]
    assert report.framework_subtrace == (report.frames[0],)
    assert report.developer_frames == report.frames[1:]


def test_split_all_framework_raises():
    text = (
        "java.lang.Error: x\n"
        "\tat android.app.A.m(A.java:1)\n"
        "\tat java.lang.Thread.run(Thread.java:764)\n"
    )
    with pytest.raises(NoDeveloperFrame):
        parse_and_split(text, FrameworkMatcher())


def test_split_figure1_shape(figure1_report):
    # Three framework frames, two developer frames, framework core below.
    assert len(figure1_report.framework_subtrace) == 3
    assert [f.method_name for f in figure1_report.developer_frames] == [
        "commitPendingEntries",
        "onReceive",
    ]
    # Core frames stay in `frames` but in neither split list.
    assert len(figure1_report.frames) == 7
    assert figure1_report.crash_api.method_name == "executePendingTransactions"


def test_split_developer_topmost_has_no_crash_api(matcher):
    text = (
        "java.lang.UnsatisfiedLinkError: no impl\n"
        "\tat com.app.jni.Native.process(Native Method)\n"
        "\tat android.os.AsyncTask$2.call(AsyncTask.java:333)\n"
    )
    report = parse_and_split(text, matcher)
    assert report.crash_api is None
    assert report.framework_subtrace == ()
    assert report.crash_method is report.frames[0]


def test_report_is_valid_when_built(listing1_report):
    init_fields = [f.name for f in dataclasses.fields(CrashReport) if f.init]
    assert init_fields == ["exception_type", "message", "frames", "developer_frames"]
    report = CrashReport(
        listing1_report.exception_type,
        listing1_report.message,
        listing1_report.frames,
        listing1_report.developer_frames,
    )
    assert report == listing1_report
    assert report.framework_subtrace == listing1_report.frames[:1]
    assert report.subtrace_key == ("androidx.fragment.Fragment.startActivityForResult",)
    assert report.crash_api is report.frames[0]
    assert report.crash_method is report.frames[1]
    with pytest.raises(NoDeveloperFrame):
        CrashReport(report.exception_type, report.message, report.frames, ())


def test_matcher_any_prefix():
    """A frame is a framework frame when its class starts with any of the
    matcher's prefixes, as ``parse_and_split`` labels it."""
    zygote = "\tat com.android.internal.os.Zygote.fork(Zygote.java:1)\n"
    app = "\tat com.example.app.Main.run(Main.java:2)\n"
    org = "\tat org.example.Main.main(Main.java:3)\n"
    header = "java.lang.RuntimeException: boom\n"
    report = parse_and_split(header + zygote + app + org,
                             FrameworkMatcher(("com.android.", "com.", "android.")))
    assert report.subtrace_key == ("com.android.internal.os.Zygote.fork",
                                   "com.example.app.Main.run")
    assert [f.class_name for f in report.developer_frames] == ["org.example.Main"]
    report = parse_and_split(header + org + app, FrameworkMatcher(["org."]))
    assert report.subtrace_key == ("org.example.Main.main",)
    assert [f.class_name for f in report.developer_frames] == ["com.example.app.Main"]


def test_roundtrip_all_fixture_logs(matcher):
    logs = sorted(CRASH_DIR.glob("*.log"))
    assert len(logs) == 20
    for path in logs:
        report = parse_and_split(path.read_text(encoding="utf-8"), matcher)
        again = parse_and_split(to_log_text(report), matcher)
        assert again == report, path.name


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_FRAMEWORK_CLASSES = (
    "android.app.Activity",
    "android.os.Handler",
    "androidx.fragment.app.Fragment",
    "java.util.ArrayList$Itr",
    "com.android.internal.os.RuntimeInit",
)
_DEVELOPER_CLASSES = (
    "com.app.one.Main",
    "org.demo.two.Worker",
    "io.sample.three.Store$Inner",
)
_METHODS = ("onCreate", "run", "access$100", "<init>", "handle")

_frame_line = st.tuples(
    st.booleans(),
    st.sampled_from(_FRAMEWORK_CLASSES),
    st.sampled_from(_DEVELOPER_CLASSES),
    st.sampled_from(_METHODS),
    st.one_of(st.none(), st.integers(1, 9999)),
).map(
    lambda t: f"\tat {t[1] if t[0] else t[2]}.{t[3]}"
    + (f"(File.java:{t[4]})" if t[4] is not None else "(Native Method)")
)


@st.composite
def crash_texts(draw):
    message = draw(st.sampled_from(["", "boom", "not attached to Activity"]))
    header = "java.lang.IllegalStateException" + (f": {message}" if message else "")
    n_framework = draw(st.integers(1, 4))
    framework = [
        f"\tat {draw(st.sampled_from(_FRAMEWORK_CLASSES))}.{draw(st.sampled_from(_METHODS))}(F.java:{i + 1})"
        for i in range(n_framework)
    ]
    dev = f"\tat {draw(st.sampled_from(_DEVELOPER_CLASSES))}.{draw(st.sampled_from(_METHODS))}(D.java:7)"
    tail = draw(st.lists(_frame_line, max_size=4))
    return "\n".join([header] + framework + [dev] + tail) + "\n"


@given(crash_texts())
def test_property_roundtrip_and_crash_api_adjacency(text):
    matcher = FrameworkMatcher()
    report = parse_and_split(text, matcher)
    again = parse_and_split(to_log_text(report), matcher)
    assert again == report
    # The generator always puts a framework frame on top, so the crash API
    # sits directly above the first developer frame.
    assert report.crash_api is not None
    assert report.crash_method.index == report.crash_api.index + 1
