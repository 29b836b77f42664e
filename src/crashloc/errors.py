"""Exception hierarchy shared across the package, and the JSON reading and
shape checks that raise it."""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path


class CrashLocError(Exception):
    """Base class for all crashloc errors."""


class MalformedLog(CrashLocError):
    """Crash log text contains no parseable stack frame."""


class MissingException(CrashLocError):
    """First log line does not start with a dotted exception type."""


class NoDeveloperFrame(CrashLocError):
    """Every frame in the trace matched a framework prefix."""


class EmptyCorpus(CrashLocError):
    """An operation that needs training data received none."""


class DimensionMismatch(CrashLocError):
    """Feature vector length differs from the model's feature count."""


class EmptyPool(CrashLocError):
    """Nearest-crash retrieval was given an empty candidate pool."""


class ArtifactError(CrashLocError):
    """Problem in a serialized artifact; carries a JSON-pointer-style path."""

    def __init__(self, message: str, pointer: str = ""):
        self.message, self.pointer = message, pointer
        super().__init__(f"{message} (at {pointer})" if pointer else message)


class SchemaError(ArtifactError):
    """Serialized artifact violates its schema."""


class DanglingRef(ArtifactError):
    """A method or class reference does not resolve within its model."""


class CorpusTooSmall(CrashLocError):
    """Fewer corpus entries than cross-validation folds."""


class EmptySet(CrashLocError):
    """A metric over result sets received an empty set."""


class LocateError(CrashLocError):
    """End-to-end localization failure, tagged with the failing phase."""

    def __init__(self, phase: str, message: str):
        self.phase = phase
        super().__init__(f"[{phase}] {message}")


def parse_json(text: str, what: str, pointer: str = "/"):
    """The JSON value of ``text``; SchemaError at ``pointer`` if it is malformed,
    nests too deeply for the parser or holds an integer too long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"{what} is not valid JSON: {exc}", pointer) from exc


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of the file at ``path``; SchemaError naming ``what`` and the
    file if it cannot be read."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc


def decode_text(data: bytes, path: str | Path, what: str) -> str:
    """``data``, the bytes of the file at ``path``, decoded as UTF-8 in one
    call, less one leading byte order mark (U+FEFF), as some editors save
    one, with ``"\\r\\n"`` and ``"\\r"`` read as ``"\\n"``, as text mode reads
    them; SchemaError naming ``what``, the file and any bad byte's offset in
    it if it is not UTF-8. The mark is decoded with the rest and dropped
    after, so that the offset counts it."""
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot read {what}: {str(path)!r} is not UTF-8: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_text(path: str | Path, what: str) -> str:
    """The text of the UTF-8 file at ``path``, as ``decode_text`` gives it."""
    return decode_text(read_bytes(path, what), path, what)


def write_text(path: str | Path, text: str, what: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``; SchemaError naming
    ``what`` and the file if it cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {what}: {exc}") from exc


@contextmanager
def naming(what: str, path: str | Path):
    """Ends the message of a CrashLocError raised in the block with
    `` in <what> '<path>'``, so that it says which input is bad; its type,
    pointer and phase stay. For the checks that follow a successful read."""
    try:
        yield
    except CrashLocError as exc:
        exc.args = (f"{exc} in {what} {str(path)!r}",)
        raise


# Shape checks shared by the artifact loaders. ``bool`` is a subclass of
# ``int``, but a JSON true/false is never taken for a number. Messages are
# formatted only on failure, as a bundle check visits every word and row.
NUMBER = (int, float)


def fits(value, kinds: tuple) -> bool:
    return type(value) in kinds or (isinstance(value, kinds) and not isinstance(value, bool))


def _mismatch(value, kinds: tuple, what: str, pointer: str) -> SchemaError:
    names = " or ".join(k.__name__ for k in kinds)
    return SchemaError(f"{what} must be {names}, got {type(value).__name__}", pointer)


def expect(obj, key: str, kind, pointer: str):
    """``obj[key]`` when ``obj`` is an object holding a ``kind`` there, else SchemaError."""
    if not isinstance(obj, dict):
        raise _mismatch(obj, (dict,), "value", pointer or "/")
    if key not in obj:
        raise SchemaError(f"missing key {key!r}", pointer or "/")
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not fits(obj[key], kinds):
        raise _mismatch(obj[key], kinds, f"key {key!r}", f"{pointer}/{key}")
    return obj[key]


def expect_items(values, kind, pointer: str, length: int | None = None) -> list:
    """``values`` when it is an array of ``kind`` items (of ``length``, if given)."""
    if not isinstance(values, list):
        raise _mismatch(values, (list,), "value", pointer)
    if length is not None and len(values) != length:
        raise SchemaError(f"expected {length} items, got {len(values)}", pointer)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for i, value in enumerate(values):
        if not fits(value, kinds):
            raise _mismatch(value, kinds, "item", f"{pointer}/{i}")
    return values


def expect_between(obj, key, pointer: str, low: float = -math.inf, high: float = math.inf) -> float:
    """The number ``obj[key]`` as a float when ``low < obj[key] < high``, else
    SchemaError; the default bounds reject NaN, the infinities and ints too
    large for a float."""
    try:
        number = float(obj[key])
    except OverflowError:
        number = math.nan
    if not low < number < high:
        bounds = "finite" if (low, high) == (-math.inf, math.inf) else f"in ({low:g}, {high:g})"
        raise SchemaError(f"number must be {bounds}, got {obj[key]!r}", f"{pointer}/{key}")
    return number
