"""Crash log parsing and framework/developer frame splitting.

Input is logcat-style Java crash text, one crash per file:

    java.lang.IllegalStateException: MainActivityFragment{e7db358} not attached to Activity
        at androidx.fragment.Fragment.startActivityForResult(Fragment.java:925)
        at app.MainActivityFragment.selectFromImagePicker(MainActivityFragment.java:482)

Line grammar:
    header  ::=  <dotted-type> [": " <message>]
    frame   ::=  [ws] "at " <dotted-class> "." <method> "(" <location> ")"

Only the outermost trace segment is used when ``Caused by:`` chains are
present. The split step labels each frame framework/developer by package
prefix; the framework sub-trace is the run of framework frames above the
first developer frame, and the frame directly above that developer frame
is the crash-triggering framework call.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .config import DEFAULT_FRAMEWORK_PREFIXES
from .errors import MalformedLog, MissingException, NoDeveloperFrame

_HEADER_RE = re.compile(
    r"^(?P<type>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)(?::\s?(?P<msg>.*))?$"
)
_FRAME_RE = re.compile(
    r"^\s*at\s+(?P<cls>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)"
    r"\.(?P<method>[\w$<>]+)\((?P<loc>.*)\)\s*$"
)
_FILE_LINE_RE = re.compile(r"^(?P<file>.+):(?P<line>\d+)$")
_CAUSED_BY_RE = re.compile(r"^\s*Caused by:")


@dataclass(frozen=True, slots=True)
class StackFrame:
    """One ``at`` line; index 0 is the topmost frame."""

    class_name: str
    method_name: str
    file: str | None
    line: int | None
    index: int

    @property
    def qualified_name(self) -> str:
        return f"{self.class_name}.{self.method_name}"


@dataclass(frozen=True)
class FrameworkMatcher:
    """Decides whether a class belongs to the framework, by package prefix."""

    prefixes: tuple[str, ...] = DEFAULT_FRAMEWORK_PREFIXES

    def __post_init__(self):
        if not self.prefixes:
            raise ValueError("FrameworkMatcher needs at least one prefix")

    def match(self, class_name: str) -> str | None:
        """Return the longest matching prefix, or None for developer code."""
        best = None
        for prefix in self.prefixes:
            if class_name.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return best

    def is_framework(self, class_name: str) -> bool:
        return self.match(class_name) is not None


@dataclass(frozen=True, slots=True)
class CrashReport:
    """A parsed crash. Split fields are None until split_frames has run.

    ``framework_subtrace`` holds the framework frames above the first
    developer frame (the sequence compared by crash similarity);
    ``developer_frames`` holds every developer frame in trace order.
    Framework frames below the first developer frame stay in ``frames``
    but belong to neither list. ``subtrace_key`` is derived: the qualified
    names of the framework sub-trace, the key that similarity and bucketing
    compare.
    """

    exception_type: str
    message: str
    frames: tuple[StackFrame, ...]
    framework_subtrace: tuple[StackFrame, ...] | None = None
    developer_frames: tuple[StackFrame, ...] | None = None
    crash_api: StackFrame | None = None
    crash_method: StackFrame | None = None
    subtrace_key: tuple[str, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = None
        if self.framework_subtrace is not None:
            key = tuple(f.qualified_name for f in self.framework_subtrace)
        object.__setattr__(self, "subtrace_key", key)

    @property
    def signaler(self) -> StackFrame:
        """Topmost frame: the method that constructed and threw the exception."""
        return self.frames[0]

    @property
    def is_split(self) -> bool:
        return self.framework_subtrace is not None


def _parse_location(loc: str) -> tuple[str | None, int | None]:
    if not loc:
        return None, None
    m = _FILE_LINE_RE.match(loc)
    if m:
        return m.group("file"), int(m.group("line"))
    return loc, None


def parse_crash_log(text: str) -> CrashReport:
    """Parse raw crash text into an unsplit CrashReport.

    Raises MissingException if the first non-blank line carries no dotted
    exception type, and MalformedLog if no frame line parses. Lines after
    the first ``Caused by:`` are discarded.
    """
    lines = text.splitlines()
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
    return CrashReport(exception_type=exception_type, message=message, frames=tuple(frames))


def split_frames(report: CrashReport, matcher: FrameworkMatcher) -> CrashReport:
    """Label frames via the matcher and derive the split fields.

    Raises NoDeveloperFrame when every frame matches a framework prefix;
    such crashes carry no actionable developer method. Idempotent: the
    split is recomputed from ``frames`` alone.
    """
    if not report.frames:
        raise MalformedLog("report has no frames")
    is_dev = [not matcher.is_framework(f.class_name) for f in report.frames]
    if not any(is_dev):
        raise NoDeveloperFrame(
            f"all {len(report.frames)} frames match framework prefixes"
        )
    first_dev = is_dev.index(True)
    developer = tuple(f for f, dev in zip(report.frames, is_dev) if dev)
    subtrace = report.frames[:first_dev]
    crash_api = report.frames[first_dev - 1] if first_dev > 0 else None
    return replace(
        report,
        framework_subtrace=subtrace,
        developer_frames=developer,
        crash_api=crash_api,
        crash_method=report.frames[first_dev],
    )


def parse_and_split(text: str, matcher: FrameworkMatcher) -> CrashReport:
    return split_frames(parse_crash_log(text), matcher)


def to_log_text(report: CrashReport) -> str:
    """Render a report back to canonical crash-log text.

    Parsing the result reproduces the report (minus split fields, which
    are recomputed by split_frames).
    """
    lines = [
        f"{report.exception_type}: {report.message}"
        if report.message
        else report.exception_type
    ]
    for f in report.frames:
        if f.line is not None:
            loc = f"{f.file}:{f.line}"
        else:
            loc = f.file or ""
        lines.append(f"\tat {f.class_name}.{f.method_name}({loc})")
    return "\n".join(lines) + "\n"
