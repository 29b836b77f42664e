"""Parsing and splitting in one scan agrees with the parsers it replaced.

``reference_parse_crash_log`` and ``reference_split_frames`` are the
former parser and splitter kept verbatim, except that they return the
field values instead of a ``CrashReport``: the parser the header and the
frames, the splitter all seven fields. Here and below, a class is a
framework class when ``str.startswith`` takes one of the matcher's
prefixes, as the matcher's former ``is_framework`` method tested. On generated crash text (headers
with and without a message, leading blank lines, junk lines, ``Caused
by:`` sections, every location form, and traces that are all framework
or hold no frame at all) ``parse_and_split`` must give the same seven
fields, or fail with the same error type.

``line_split_parse_and_split`` is the one-step parser that split the text
into lines and matched each, kept verbatim. On text with every line
ending, the separators that ``str.splitlines`` would break at, ``Caused
by:`` at every place and line numbers too long for ``int``, the one-scan
``parse_and_split`` must build an equal report, derived fields included,
or raise the same error type and message.

``BACKTRACKING_FRAME_RE`` is the whole-log frame pattern whose class group
could take the method name and give it back, kept verbatim. On lines of
frames, frame-like text and frames with random character edits,
``trace._FRAME_RE``, which requires a "." after each class segment past
the first, must find the same frames between any two positions.
"""
from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from crashloc.errors import CrashLocError, MalformedLog, MissingException, NoDeveloperFrame
from crashloc import trace
from crashloc.trace import CrashReport, FrameworkMatcher, StackFrame, parse_and_split

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
    is_dev = [not f.class_name.startswith(matcher.prefixes) for f in report["frames"]]
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


# ---------------------------------------------------------------------------
# The line-split parser
# ---------------------------------------------------------------------------

def line_split_parse_and_split(text: str, matcher: FrameworkMatcher) -> CrashReport:
    """Parse raw crash text into a CrashReport, labeling frames via the matcher.

    Raises MissingException if the first non-blank line carries no dotted
    exception type, MalformedLog if no frame line parses or a frame's line
    number is too long for ``int``, and NoDeveloperFrame when every frame
    matches a framework prefix. Lines after the first ``Caused by:`` are
    discarded. A line ends at a line feed, less one trailing carriage
    return, and nowhere else: ``str.splitlines`` would also cut a message at
    U+2028, U+2029, U+0085 and the ASCII vertical tab, form feed and
    separator controls.
    """
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    for start, first in enumerate(lines):
        if first.strip():
            break
    else:
        raise MissingException("empty crash log")

    header = _HEADER_RE.match(first.strip())
    if header is None:
        raise MissingException(f"no dotted exception type on first line: {first!r}")

    frames: list[StackFrame] = []
    developer: list[StackFrame] = []
    for raw in lines[start + 1:]:
        if "Caused by:" in raw and _CAUSED_BY_RE.match(raw):
            break
        m = _FRAME_RE.match(raw)
        if m is None:
            continue
        cls, method, file = m.group("cls", "method", "loc")
        # "<file>:<line>" when the text after the last colon is all decimal
        # digits (Unicode Nd, as the regex ``\d``) and the file is not empty.
        name, _, digits = file.rpartition(":")
        if name and digits.isdecimal():
            try:
                file, line = name, int(digits)
            except ValueError:
                raise MalformedLog(f"frame {len(frames)} has a line number of "
                                   f"{len(digits)} digits, too long to read") from None
        else:
            file, line = file or None, None
        frame = StackFrame(cls, method, file, line, len(frames))
        frames.append(frame)
        if not cls.startswith(matcher.prefixes):
            developer.append(frame)
    if not frames:
        raise MalformedLog("no 'at <class>.<method>(...)' line found")
    return CrashReport(
        exception_type=header.group("type"),
        message=header.group("msg") or "",
        frames=tuple(frames),
        developer_frames=tuple(developer),
    )


def assert_same_report(actual: CrashReport, expected: CrashReport) -> None:
    """Equal reports, and equal in the fields that ``==`` skips."""
    assert type(actual) is CrashReport
    assert actual == expected
    assert repr(actual) == repr(expected)
    assert actual.framework_subtrace == expected.framework_subtrace
    assert actual.subtrace_key == expected.subtrace_key
    assert actual.tokens == expected.tokens
    assert [type(f.line) for f in actual.frames] == [type(f.line) for f in expected.frames]


def assert_parses_like_line_split(text: str, matcher: FrameworkMatcher) -> None:
    try:
        expected = line_split_parse_and_split(text, matcher)
    except CrashLocError as exc:
        with pytest.raises(CrashLocError) as raised:
            parse_and_split(text, matcher)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return
    assert_same_report(parse_and_split(text, matcher), expected)


# Whitespace that stays inside a line: str.strip and the regex \s take each
# of these, str.splitlines would break at all but the tab and the space.
_INLINE_SPACE = ("\t", " ", "\x0b", "\x1c", "\u0085", "\u2028", "\r")
_indent = st.lists(st.sampled_from(_INLINE_SPACE), max_size=3).map("".join)
_MESSAGES = (
    "", ": boom", ":boom", ": ", ": boom\u2028tail", ": a\x0bb", ": x\x1cy", ": m\u0085n",
    ": not attached: to Activity",
    ": Caused by: java.lang.NullPointerException",
    ": \tat com.app.one.Main.run(Main.java:1)",
)
_TYPES = ("java.lang.IllegalStateException", "android.os.DeadObjectException")
_LONG_LINE = "F.java:" + "1" * 4400  # more digits than int() takes by default
_any_frame_line = st.builds(
    lambda indent, gap, cls, method, loc, end: f"{indent}at{gap}{cls}.{method}({loc}){end}",
    _indent,
    st.sampled_from(_INLINE_SPACE),
    st.sampled_from(_CLASSES),
    st.sampled_from(_METHODS),
    st.sampled_from(_LOCATIONS + (_LONG_LINE,)),
    _indent,
)
_MORE_JUNK = _JUNK_LINES + (
    "\x0b", "\u2028", "\r", "\u0085  ", "\tat com.app.one.Main.run(Main.java:1) trailing",
    "\tat com.app.one.Main.run(Main.java:1)\u2028\tat org.demo.two.Worker.handle(W.kt:2)",
    "\tat com..Main.run(M.java:1)", "\tat 1com.app.Main.run(M.java:1)",
    # An "at" line and a frame without "at": a match must not join them.
    "\tat", "at", "com.app.one.Main.run(Main.java:1)", "\tat\r\n com.app.one.Main.run(M.java:1)",
)
_caused_by_line = st.builds(
    lambda indent, rest: f"{indent}Caused by:{rest}",
    _indent,
    st.sampled_from(("", " java.lang.NullPointerException", "x")),
)


@st.composite
def wide_crash_texts(draw):
    """Crash text whose lines end at "\n", "\r\n" or "\r\r\n", and whose last
    line may end at a lone "\r" or at nothing."""
    leading = draw(st.lists(_indent, max_size=2))
    # One header in four has no dotted type.
    header = draw(_indent) + draw(st.sampled_from(_TYPES * 3 + ("Exception", "FATAL EXCEPTION")))
    header += draw(st.sampled_from(_MESSAGES)) + draw(_indent)
    body = []
    # "f" a frame line, "j" junk, "c" a Caused by: line.
    for kind in draw(st.lists(st.sampled_from("ffffffffjjc"), max_size=12)):
        if kind == "f":
            body.append(draw(_any_frame_line))
        elif kind == "j":
            body.append(draw(st.sampled_from(_MORE_JUNK)))
        else:
            body.append(draw(_caused_by_line))
    lines = leading + [header] + body
    endings = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r\r\n")),
                            min_size=len(lines), max_size=len(lines)))
    endings[-1] = draw(st.sampled_from(("\n", "\r\n", "\r\r\n", "\r", "")))
    return "".join(line + ending for line, ending in zip(lines, endings))


_FIRST_LINE_CAUSED_BY = ("java.lang.IllegalStateException: boom\r\n  Caused by: x\r\n"
                         "\tat com.app.one.Main.run(Main.java:42)\r\n")


@settings(max_examples=400, deadline=None)
@given(wide_crash_texts(), st.sampled_from(MATCHERS))
@example(_FIRST_LINE_CAUSED_BY, MATCHERS[0])
@example("java.lang.IllegalStateException: boom\n\tat com.app.one.Main.run(Main.java:42)\r",
         MATCHERS[0])
@example("\r\n\x0b\u2028\n  java.lang.X: boom\r\r\n\x1cat com.app.one.Main.<init>(M.java)\r",
         MATCHERS[0])
@example("Exception: boom\r\r\n\tat com.app.one.Main.run(Main.java:42)\n", MATCHERS[0])
@example("java.lang.X\n\tat com.app.one.Main.run(" + _LONG_LINE + ")\n", MATCHERS[0])
@example("java.lang.X: boom\n\tat\ncom.app.one.Main.run(M.java:1)\n\tat org.demo.two.Worker.run()",
         MATCHERS[0])
@example("", MATCHERS[0])
@example(" \r\n\u2028\r", MATCHERS[0])
@example("java.lang.X", MATCHERS[0])
def test_one_scan_matches_line_split(text, matcher):
    assert_parses_like_line_split(text, matcher)


def test_fixture_logs_match_line_split(matcher):
    for path in sorted(CRASH_DIR.glob("*.log")):
        text = path.read_text(encoding="utf-8")
        for ending in ("\n", "\r\n", "\r\r\n"):
            assert_parses_like_line_split(text.replace("\n", ending), matcher)


# ---------------------------------------------------------------------------
# The frame pattern
# ---------------------------------------------------------------------------

BACKTRACKING_FRAME_RE = re.compile(
    r"^[^\S\n]*at[^\S\n]+(?P<cls>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)"
    r"\.(?P<method>[\w$<>]+)\((?P<loc>.*)\)[^\S\n]*$",
    re.M,
)
# The characters the frame pattern tests for, and a few it never takes.
_FRAME_CHARS = "aZ_$1.<>():# \t\n\r\u0661"


@st.composite
def edited_frame_lines(draw):
    """A frame or frame-like line with up to three characters inserted,
    deleted or replaced."""
    line = draw(_any_frame_line | st.sampled_from(_MORE_JUNK) | st.text(_FRAME_CHARS, max_size=24))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from("idr"))
        char = draw(st.sampled_from(_FRAME_CHARS))
        if edit == "i":
            line = line[:at] + char + line[at:]
        elif edit == "d":
            line = line[:at] + line[at + 1:]
        else:
            line = line[:at] + char + line[at + 1:]
    return line


@settings(max_examples=400, deadline=None)
@given(st.lists(edited_frame_lines(), min_size=1, max_size=6).map("\n".join),
       st.integers(0, 200), st.integers(0, 200))
@example("\tat a.b.c.d(X)\n\tat a.b.c.<init>(X)\n\tat a.b<c.d(x)\n\tat a.b.c(d.e(f))", 0, 200)
def test_frame_pattern_finds_what_the_backtracking_one_does(text, pos, endpos):
    assert trace._FRAME_RE.findall(text) == BACKTRACKING_FRAME_RE.findall(text)
    assert (trace._FRAME_RE.findall(text, pos, endpos)
            == BACKTRACKING_FRAME_RE.findall(text, pos, endpos))
