"""Parsing and splitting in one step agrees with the two-step parser it replaced.

``reference_parse_crash_log`` and ``reference_split_frames`` are the
former parser and splitter kept verbatim, except that they return the
field values instead of a ``CrashReport``: the parser the header and the
frames, the splitter all seven fields. On generated crash text (headers
with and without a message, leading blank lines, junk lines, ``Caused
by:`` sections, every location form, and traces that are all framework
or hold no frame at all) ``parse_and_split`` must give the same seven
fields, or fail with the same error type.
"""
from __future__ import annotations

import re

import pytest
from hypothesis import example, given, strategies as st

from crashloc.errors import CrashLocError, MalformedLog, MissingException, NoDeveloperFrame
from crashloc.trace import FrameworkMatcher, StackFrame, parse_and_split

from conftest import CRASH_DIR

_HEADER_RE = re.compile(
    r"^(?P<type>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)(?::\s?(?P<msg>.*))?$"
)
_FRAME_RE = re.compile(
    r"^\s*at\s+(?P<cls>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)"
    r"\.(?P<method>[\w$<>]+)\((?P<loc>.*)\)\s*$"
)
_FILE_LINE_RE = re.compile(r"^(?P<file>.+):(?P<line>\d+)$")
_CAUSED_BY_RE = re.compile(r"^\s*Caused by:")

FIELDS = (
    "exception_type",
    "message",
    "frames",
    "framework_subtrace",
    "developer_frames",
    "crash_api",
    "crash_method",
)


def _parse_location(loc: str) -> tuple[str | None, int | None]:
    if not loc:
        return None, None
    m = _FILE_LINE_RE.match(loc)
    if m:
        return m.group("file"), int(m.group("line"))
    return loc, None


def reference_parse_crash_log(text: str) -> dict:
    """Parse raw crash text into unsplit report fields.

    Raises MissingException if the first non-blank line carries no dotted
    exception type, and MalformedLog if no frame line parses. Lines after
    the first ``Caused by:`` are discarded.
    """
    lines = [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise MissingException("empty crash log")

    header = _HEADER_RE.match(lines[0].strip())
    if header is None:
        raise MissingException(f"no dotted exception type on first line: {lines[0]!r}")
    exception_type = header.group("type")
    message = header.group("msg") or ""

    frames: list[StackFrame] = []
    for raw in lines[1:]:
        if _CAUSED_BY_RE.match(raw):
            break
        m = _FRAME_RE.match(raw)
        if m is None:
            continue
        file, line = _parse_location(m.group("loc"))
        frames.append(
            StackFrame(
                class_name=m.group("cls"),
                method_name=m.group("method"),
                file=file,
                line=line,
                index=len(frames),
            )
        )
    if not frames:
        raise MalformedLog("no 'at <class>.<method>(...)' line found")
    return dict(exception_type=exception_type, message=message, frames=tuple(frames))


def reference_split_frames(report: dict, matcher: FrameworkMatcher) -> dict:
    """Label frames via the matcher and derive the split fields.

    Raises NoDeveloperFrame when every frame matches a framework prefix;
    such crashes carry no actionable developer method.
    """
    if not report["frames"]:
        raise MalformedLog("report has no frames")
    is_dev = [not matcher.is_framework(f.class_name) for f in report["frames"]]
    if not any(is_dev):
        raise NoDeveloperFrame(
            f"all {len(report['frames'])} frames match framework prefixes"
        )
    first_dev = is_dev.index(True)
    developer = tuple(f for f, dev in zip(report["frames"], is_dev) if dev)
    subtrace = report["frames"][:first_dev]
    crash_api = report["frames"][first_dev - 1] if first_dev > 0 else None
    return dict(
        report,
        framework_subtrace=subtrace,
        developer_frames=developer,
        crash_api=crash_api,
        crash_method=report["frames"][first_dev],
    )


def assert_matches_reference(text: str, matcher: FrameworkMatcher) -> None:
    try:
        expected = reference_split_frames(reference_parse_crash_log(text), matcher)
    except CrashLocError as exc:
        with pytest.raises(CrashLocError) as raised:
            parse_and_split(text, matcher)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    report = parse_and_split(text, matcher)
    assert {name: getattr(report, name) for name in FIELDS} == expected


# ---------------------------------------------------------------------------
# Generated crash text
# ---------------------------------------------------------------------------

_CLASSES = (
    "android.app.Activity",
    "androidx.fragment.app.Fragment",
    "java.util.ArrayList$Itr",
    "com.android.internal.os.RuntimeInit",
    "com.app.one.Main",
    "org.demo.two.Worker",
    "io.sample.three.Store$Inner",
)
_METHODS = ("onCreate", "run", "access$100", "<init>", "handle")
_LOCATIONS = (
    "",
    "Native Method",
    "Unknown Source",
    "Main.java",
    "Main.java:42",
    "Main.kt:7",
    "Main.java:abc",
    "a:b:3",
    # Where a split at the last colon could drift from _FILE_LINE_RE: an
    # empty file part, non-ASCII digits (\d takes Arabic-Indic ones, not a
    # superscript), digits that int() takes but \d does not, and a drive letter.
    ":12",
    "F.java:\u0661\u0662",
    "F.java:\u00b2",
    "F.java:1_000",
    "F.java: 12",
    "F.java:+1",
    "C:\\a\\F.java:3",
)
MATCHERS = (
    FrameworkMatcher(),
    FrameworkMatcher(("com.",)),
    FrameworkMatcher(("android.", "org.")),
)

_frame_line = st.builds(
    lambda indent, cls, method, loc, trailing: f"{indent}at {cls}.{method}({loc}){trailing}",
    st.sampled_from(("\t", "    ", "", " ")),
    st.sampled_from(_CLASSES),
    st.sampled_from(_METHODS),
    st.sampled_from(_LOCATIONS),
    st.sampled_from(("", "  ")),
)
_JUNK_LINES = (
    "",
    "   ",
    "\t... 12 more",
    "at nothing",
    "\tat com.app.Main.run(Main.java:1",
    "FATAL EXCEPTION: main",
    "x Caused by: y",
)
_CAUSED_BY_LINES = (
    "Caused by: java.lang.NullPointerException",
    "  Caused by: java.lang.IllegalStateException: inner",
)
# Dotted headers with every message form, and a few headers without a dotted type.
_HEADERS = tuple(
    type_ + msg
    for type_ in ("java.lang.IllegalStateException", "android.os.DeadObjectException")
    for msg in ("", ": boom", ":boom", ": ", ": not attached: to Activity")
) + ("Exception: boom", "FATAL EXCEPTION: main")


@st.composite
def crash_texts(draw):
    leading = draw(st.lists(st.sampled_from(("", "  ", "\t")), max_size=2))
    body = []
    # Mostly frame lines, so that most texts parse; "j" is junk, "c" a Caused by: line.
    for kind in draw(st.lists(st.sampled_from("ffffffjc"), max_size=12)):
        if kind == "f":
            body.append(draw(_frame_line))
        else:
            body.append(draw(st.sampled_from(_JUNK_LINES if kind == "j" else _CAUSED_BY_LINES)))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(leading + [draw(st.sampled_from(_HEADERS))] + body) + ending


@given(crash_texts(), st.sampled_from(MATCHERS))
# A line that holds "Caused by:" after other text is junk, not a cut.
@example("java.lang.IllegalStateException: boom\n\tat com.app.one.Main.run(Main.java:42)\n"
         "x Caused by: y\n\tat org.demo.two.Worker.handle(Main.kt:7)\n", MATCHERS[0])
def test_parse_and_split_matches_reference(text, matcher):
    assert_matches_reference(text, matcher)


def test_fixture_logs_match_reference(matcher):
    logs = sorted(CRASH_DIR.glob("*.log"))
    assert len(logs) == 20
    for path in logs:
        assert_matches_reference(path.read_text(encoding="utf-8"), matcher)
