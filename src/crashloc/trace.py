"""Crash log parsing and framework/developer frame splitting.

Input is logcat-style Java crash text, one crash per file:

    java.lang.IllegalStateException: MainActivityFragment{e7db358} not attached to Activity
        at androidx.fragment.Fragment.startActivityForResult(Fragment.java:925)
        at app.MainActivityFragment.selectFromImagePicker(MainActivityFragment.java:482)

Line grammar:
    header  ::=  <dotted-type> [": " <message>]
    frame   ::=  [ws] "at " <dotted-class> "." <method> "(" <location> ")"

Only the outermost trace segment is used when ``Caused by:`` chains are
present. Parsing also labels each frame framework/developer by package
prefix, so a report is split when it is built: the framework sub-trace
is the run of framework frames above the first developer frame, and the
frame directly above that developer frame is the crash-triggering
framework call.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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
        # str.startswith takes a tuple of prefixes, not a list.
        object.__setattr__(self, "prefixes", tuple(self.prefixes))

    def is_framework(self, class_name: str) -> bool:
        return class_name.startswith(self.prefixes)


@dataclass(frozen=True, slots=True)
class CrashReport:
    """A parsed crash, split into its framework and developer parts.

    ``developer_frames`` holds every developer frame in trace order; a
    crash without one carries nothing to rank, so building it raises
    NoDeveloperFrame. ``framework_subtrace`` is derived: the frames above
    the first developer frame, the sequence compared by crash similarity.
    Framework frames below the first developer frame stay in ``frames``
    but belong to neither list. ``subtrace_key`` holds the qualified names
    of the framework sub-trace, the key that similarity and bucketing
    compare.
    """

    exception_type: str
    message: str
    frames: tuple[StackFrame, ...]
    developer_frames: tuple[StackFrame, ...]
    framework_subtrace: tuple[StackFrame, ...] = field(init=False, compare=False)
    subtrace_key: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.developer_frames:
            raise NoDeveloperFrame(f"all {len(self.frames)} frames match framework prefixes")
        subtrace = self.frames[: self.developer_frames[0].index]
        object.__setattr__(self, "framework_subtrace", subtrace)
        object.__setattr__(self, "subtrace_key", tuple(f.qualified_name for f in subtrace))

    @property
    def signaler(self) -> StackFrame:
        """Topmost frame: the method that constructed and threw the exception."""
        return self.frames[0]

    @property
    def crash_method(self) -> StackFrame:
        """The first developer frame."""
        return self.developer_frames[0]

    @property
    def crash_api(self) -> StackFrame | None:
        """The framework call directly above the crash method, if any."""
        return self.framework_subtrace[-1] if self.framework_subtrace else None


def _parse_location(loc: str) -> tuple[str | None, int | None]:
    if not loc:
        return None, None
    m = _FILE_LINE_RE.match(loc)
    if m:
        return m.group("file"), int(m.group("line"))
    return loc, None


def parse_and_split(text: str, matcher: FrameworkMatcher) -> CrashReport:
    """Parse raw crash text into a CrashReport, labeling frames via the matcher.

    Raises MissingException if the first non-blank line carries no dotted
    exception type, MalformedLog if no frame line parses, and
    NoDeveloperFrame when every frame matches a framework prefix. Lines
    after the first ``Caused by:`` are discarded.
    """
    lines = text.splitlines()
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
        if _CAUSED_BY_RE.match(raw):
            break
        m = _FRAME_RE.match(raw)
        if m is None:
            continue
        file, line = _parse_location(m.group("loc"))
        frame = StackFrame(
            class_name=m.group("cls"),
            method_name=m.group("method"),
            file=file,
            line=line,
            index=len(frames),
        )
        frames.append(frame)
        if not matcher.is_framework(frame.class_name):
            developer.append(frame)
    if not frames:
        raise MalformedLog("no 'at <class>.<method>(...)' line found")
    return CrashReport(
        exception_type=header.group("type"),
        message=header.group("msg") or "",
        frames=tuple(frames),
        developer_frames=tuple(developer),
    )


def to_log_text(report: CrashReport) -> str:
    """Render a report back to canonical crash-log text.

    Parsing the result with the same matcher reproduces the report.
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
