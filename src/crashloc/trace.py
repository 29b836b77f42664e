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
framework call. A report also carries the tokens that categorization
counts, taken on first use.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .config import DEFAULT_FRAMEWORK_PREFIXES, checked_prefixes
from .errors import MalformedLog, MissingException, NoDeveloperFrame
from .records import builder

_HEADER_RE = re.compile(
    r"^(?P<type>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)+)(?::\s?(?P<msg>.*))?$"
)
# The patterns below search the whole log, not one line: ``[^\S\n]`` is the
# whitespace that stays inside a line, and ``re.M`` makes ``^`` and ``$``
# match at each line feed.
_NONBLANK_RE = re.compile(r"\S")
# A line that opens a ``Caused by:`` section, from the line feed before it:
# a literal first character lets the search skip to each line feed.
_CAUSED_BY_RE = re.compile(r"\n[^\S\n]*Caused by:")
# Each class segment after the first must be followed by a ".", so the class
# never takes the method name only to give it back: the same matches as
# without the lookahead, with no backtracking into the class.
_FRAME_RE = re.compile(
    r"^[^\S\n]*at[^\S\n]+(?P<cls>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*(?=\.))+)"
    r"\.(?P<method>[\w$<>]+)\((?P<loc>.*)\)[^\S\n]*$",
    re.M,
)


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
    """Decides whether a class belongs to the framework, by package prefix;
    the prefixes follow Config's rule for ``framework_prefixes``."""

    prefixes: tuple[str, ...] = DEFAULT_FRAMEWORK_PREFIXES

    def __post_init__(self):
        # str.startswith takes a tuple of prefixes, not a list.
        object.__setattr__(self, "prefixes", checked_prefixes(self.prefixes))


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
    compare. ``tokens`` holds the words that categorization counts, taken
    on first use.
    """

    exception_type: str
    message: str
    frames: tuple[StackFrame, ...]
    developer_frames: tuple[StackFrame, ...]
    framework_subtrace: tuple[StackFrame, ...] = field(init=False, compare=False)
    subtrace_key: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _tokens: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.developer_frames:
            raise NoDeveloperFrame(f"all {len(self.frames)} frames match framework prefixes")
        subtrace = self.frames[: self.developer_frames[0].index]
        object.__setattr__(self, "framework_subtrace", subtrace)
        object.__setattr__(self, "subtrace_key", tuple(f.qualified_name for f in subtrace))

    @property
    def tokens(self) -> tuple[str, ...]:
        """Distinct tokens in first-occurrence order: the dotted parts of the
        exception type, the whitespace-separated words of the message, then
        the dotted parts of each framework sub-trace frame name. Tokens keep
        their case. Taken on first use, so that a crash is tokenized once."""
        if self._tokens is None:
            parts = self.exception_type.split(".") + self.message.split()
            for name in self.subtrace_key:
                parts += name.split(".")
            # Only the dotted names give empty parts.
            object.__setattr__(self, "_tokens", tuple(dict.fromkeys(filter(None, parts))))
        return self._tokens

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


_stack_frame = builder(StackFrame)
_crash_report = builder(CrashReport)


def parse_and_split(text: str, matcher: FrameworkMatcher) -> CrashReport:
    """Parse raw crash text into a CrashReport, labeling frames via the matcher.

    Raises MissingException if the first non-blank line carries no dotted
    exception type, MalformedLog if no frame line parses or a frame's line
    number is too long for ``int``, and NoDeveloperFrame when every frame
    matches a framework prefix. Lines after the first ``Caused by:`` are
    discarded. A line ends at a line feed, less one trailing carriage
    return, and nowhere else: ``str.splitlines`` would also cut a message at
    U+2028, U+2029, U+0085 and the ASCII vertical tab, form feed and
    separator controls.

    The text is not split into lines: one search finds the header line, one
    the ``Caused by:`` cut, and one scan takes every frame line above it,
    labeling each frame and collecting the framework sub-trace as it goes.
    """
    nonblank = _NONBLANK_RE.search(text)
    if nonblank is None:
        raise MissingException("empty crash log")
    start = text.rfind("\n", 0, nonblank.start()) + 1
    end = text.find("\n", nonblank.start())
    if end < 0:
        end = len(text)
    first = text[start:end]
    header = _HEADER_RE.match(first.strip())
    if header is None:
        first = first[:-1] if first.endswith("\r") else first
        raise MissingException(f"no dotted exception type on first line: {first!r}")

    cut = _CAUSED_BY_RE.search(text, end)
    prefixes = matcher.prefixes
    frames: list[StackFrame] = []
    developer: list[StackFrame] = []
    key: list[str] = []  # qualified names of the frames above the first developer frame
    for cls, method, file in _FRAME_RE.findall(text, end + 1, cut.start() if cut else len(text)):
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
        frame = _stack_frame(cls, method, file, line, len(frames))
        frames.append(frame)
        if not cls.startswith(prefixes):
            developer.append(frame)
        elif not developer:
            key.append(f"{cls}.{method}")
    if not frames:
        raise MalformedLog("no 'at <class>.<method>(...)' line found")
    if not developer:
        raise NoDeveloperFrame(f"all {len(frames)} frames match framework prefixes")
    exception_type, message = header.group("type", "msg")
    return _crash_report(exception_type, message or "", tuple(frames), tuple(developer),
                         tuple(frames[:len(key)]), tuple(key), None)


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
