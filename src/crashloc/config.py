"""Run configuration shared by the CLI, the pipeline, and the evaluation harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .appmodel import DEFAULT_LINKS_DEPTH
from .errors import NUMBER, SchemaError, _mismatch, fits, naming, parse_json, read_text

# Package prefixes treated as Android framework code when splitting traces.
DEFAULT_FRAMEWORK_PREFIXES = (
    "android.",
    "androidx.",
    "java.",
    "javax.",
    "kotlin.",
    "kotlinx.",
    "com.android.",
    "dalvik.",
)


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


class ConfigError(SchemaError, ValueError):
    """A Config value breaks its field's rule; the pointer names the field or prefix item."""


def checked_prefixes(prefixes) -> tuple[str, ...]:
    """``prefixes`` as a tuple if it is a non-empty list or tuple of non-empty
    strings, else ConfigError; Config and FrameworkMatcher apply this rule."""
    if not isinstance(prefixes, (list, tuple)) or not prefixes:
        raise ConfigError("framework_prefixes must be a list holding at least one prefix",
                          "/framework_prefixes")
    for i, prefix in enumerate(prefixes):
        if not isinstance(prefix, str) or not prefix:
            raise ConfigError("a framework prefix must be a non-empty string",
                              f"/framework_prefixes/{i}")
    return tuple(prefixes)


@dataclass(frozen=True)
class Config:
    """Tunables for the whole pipeline.

    ``chi2_ratio`` is the fraction of vocabulary words kept after feature
    selection, ``nb_smoothing`` the additive smoothing of the categorizer,
    ``links_depth`` the call-chain depth for the linkage check, ``kfold_k``
    and ``seed`` the cross-validation split parameters. Building one checks
    every field; ``framework_prefixes`` may be a list and is kept as a tuple.
    """

    framework_prefixes: tuple[str, ...] = DEFAULT_FRAMEWORK_PREFIXES
    chi2_ratio: float = 0.5
    nb_smoothing: float = 1.0
    links_depth: int = DEFAULT_LINKS_DEPTH
    kfold_k: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "framework_prefixes", checked_prefixes(self.framework_prefixes))
        for f in fields(self)[1:]:  # the scalars; annotations are strings in this module
            value, kinds = getattr(self, f.name), NUMBER if f.type == "float" else (int,)
            if not fits(value, kinds):
                raise _mismatch(value, kinds, f"key {f.name!r}", f"/{f.name}", ConfigError)
            if f.type == "float" and not _is_finite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}", f"/{f.name}")
        for name, holds, rule in (("chi2_ratio", 0.0 < self.chi2_ratio <= 1.0, "in (0, 1]"),
                                  ("nb_smoothing", self.nb_smoothing > 0, "> 0"),
                                  ("links_depth", self.links_depth >= 1, ">= 1"),
                                  ("kfold_k", self.kfold_k >= 2, ">= 2")):
            if not holds:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}", f"/{name}")

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        return obj | {"framework_prefixes": list(self.framework_prefixes)}


def config_from_json_obj(obj, pointer: str = "") -> Config:
    """Validate a JSON object as a Config; absent keys keep their defaults."""
    if not isinstance(obj, dict):
        raise SchemaError("config must be a JSON object", pointer or "/")
    known = {f.name for f in fields(Config)}
    for key in obj:
        if key not in known:
            raise SchemaError(f"unknown config key {key!r}", f"{pointer}/{key}")
    try:
        return Config(**obj)
    except SchemaError as exc:  # a ConfigError, raised again as a plain SchemaError
        raise SchemaError(exc.message, pointer + exc.pointer) from exc


def load_config(path: str | Path) -> Config:
    """Read a JSON config file; unknown keys are rejected."""
    text = read_text(path, "config file")
    with naming("config file", path):
        return config_from_json_obj(parse_json(text, "config file"))
