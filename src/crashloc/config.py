"""Run configuration shared by the CLI, the pipeline, and the evaluation harness."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import NUMBER, SchemaError, expect, expect_between, expect_items, read_json

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


@dataclass(frozen=True)
class Config:
    """Tunables for the whole pipeline.

    ``chi2_ratio`` is the fraction of vocabulary words kept after feature
    selection, ``nb_smoothing`` the additive smoothing of the categorizer,
    ``links_depth`` the call-chain depth for the linkage check, ``kfold_k``
    and ``seed`` the cross-validation split parameters.
    """

    framework_prefixes: tuple[str, ...] = DEFAULT_FRAMEWORK_PREFIXES
    chi2_ratio: float = 0.5
    nb_smoothing: float = 1.0
    links_depth: int = 5
    kfold_k: int = 5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not (0.0 < self.chi2_ratio <= 1.0):
            raise ValueError(f"chi2_ratio must be in (0, 1], got {self.chi2_ratio}")
        if self.nb_smoothing <= 0:
            raise ValueError(f"nb_smoothing must be > 0, got {self.nb_smoothing}")
        if self.links_depth < 1:
            raise ValueError(f"links_depth must be >= 1, got {self.links_depth}")
        if self.kfold_k < 2:
            raise ValueError(f"kfold_k must be >= 2, got {self.kfold_k}")
        if not self.framework_prefixes:
            raise ValueError("framework_prefixes must hold at least one prefix")
        if "" in self.framework_prefixes:
            raise ValueError("a framework prefix must not be empty")

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        return obj | {"framework_prefixes": list(self.framework_prefixes)}


# JSON value kinds accepted per scalar Config field, keyed by its annotation
# (a string, as this module postpones the evaluation of annotations).
_FIELD_KINDS = {"int": int, "float": NUMBER}


def config_from_json_obj(obj, pointer: str = "") -> Config:
    """Validate a JSON object as a Config; absent keys keep their defaults."""
    if not isinstance(obj, dict):
        raise SchemaError("config must be a JSON object", pointer or "/")
    known = {f.name for f in fields(Config)}
    for key in obj:
        if key not in known:
            raise SchemaError(f"unknown config key {key!r}", f"{pointer}/{key}")
    for f in fields(Config):
        if f.name in obj and f.type in _FIELD_KINDS:
            expect(obj, f.name, _FIELD_KINDS[f.type], pointer)
            if f.type == "float":
                expect_between(obj, f.name, pointer)
    values = dict(obj)
    if "framework_prefixes" in obj:
        where = f"{pointer}/framework_prefixes"
        prefixes = expect_items(obj["framework_prefixes"], str, where)
        if not prefixes:
            raise SchemaError("framework_prefixes must hold at least one prefix", where)
        if "" in prefixes:
            raise SchemaError("a framework prefix must not be empty",
                              f"{where}/{prefixes.index('')}")
        values["framework_prefixes"] = tuple(prefixes)
    try:
        return Config(**values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}", pointer or "/") from exc


def load_config(path: str | Path) -> Config:
    """Read a JSON config file; unknown keys are rejected."""
    return config_from_json_obj(read_json(path, "config file"))
