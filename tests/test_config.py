from __future__ import annotations

import json

import pytest
from hypothesis import example, given, strategies as st

from crashloc.config import (
    Config, ConfigError, DEFAULT_FRAMEWORK_PREFIXES, config_from_json_obj, load_config,
)
from crashloc.errors import SchemaError
from crashloc.trace import FrameworkMatcher


def test_defaults():
    config = Config()
    assert config.chi2_ratio == 0.5
    assert config.nb_smoothing == 1.0
    assert config.links_depth == 5
    assert config.kfold_k == 5
    assert "android." in DEFAULT_FRAMEWORK_PREFIXES
    assert "androidx." in DEFAULT_FRAMEWORK_PREFIXES


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chi2_ratio": 0.0},
        {"chi2_ratio": 1.5},
        {"nb_smoothing": 0.0},
        {"links_depth": 0},
        {"kfold_k": 1},
        {"nb_smoothing": float("nan")},
        {"nb_smoothing": float("inf")},
        {"chi2_ratio": float("nan")},
        {"nb_smoothing": 10**400},
        {"framework_prefixes": ()},
        {"framework_prefixes": ("android.", "")},
        {"kfold_k": 2.5},
        {"seed": 1.5},
        {"links_depth": 2.5},
        {"links_depth": True},
        {"kfold_k": 5.0},
        {"seed": "0"},
        {"seed": False},
    ],
)
def test_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"chi2_ratio": 0.75, "seed": 9, "framework_prefixes": ["android."]}),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.chi2_ratio == 0.75
    assert config.seed == 9
    assert config.framework_prefixes == ("android.",)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"mystery": 1}', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_config(path)


@pytest.mark.parametrize(
    "obj, pointer",
    [
        (5, "/config"),
        ({"framework_prefixes": "android."}, "/config/framework_prefixes"),
        ({"framework_prefixes": ["android.", 7]}, "/config/framework_prefixes/1"),
        ({"links_depth": "deep"}, "/config/links_depth"),
        ({"mystery": 1}, "/config/mystery"),
        ({"seed": "x"}, "/config/seed"),
        ({"links_depth": 2.5}, "/config/links_depth"),
        ({"links_depth": True}, "/config/links_depth"),
        ({"kfold_k": 5.0}, "/config/kfold_k"),
        ({"chi2_ratio": True}, "/config/chi2_ratio"),
        ({"nb_smoothing": "1"}, "/config/nb_smoothing"),
        ({"links_depth": 0}, "/config/links_depth"),
        ({"nb_smoothing": float("nan")}, "/config/nb_smoothing"),
        ({"nb_smoothing": float("inf")}, "/config/nb_smoothing"),
        ({"chi2_ratio": float("nan")}, "/config/chi2_ratio"),
        ({"nb_smoothing": 10**400}, "/config/nb_smoothing"),
        ({"framework_prefixes": []}, "/config/framework_prefixes"),
        ({"framework_prefixes": ["android.", ""]}, "/config/framework_prefixes/1"),
    ],
)
def test_config_from_json_obj_rejects_bad_shapes(obj, pointer):
    with pytest.raises(SchemaError) as exc:
        config_from_json_obj(obj, "/config")
    assert exc.value.pointer == pointer


def test_config_from_json_obj_roundtrips_every_field():
    config = Config(framework_prefixes=("android.",), chi2_ratio=0.25, nb_smoothing=0.5,
                    links_depth=2, kfold_k=4, seed=7)
    assert config_from_json_obj(config.to_json_obj()) == config


def test_config_from_json_obj_takes_ints_for_floats():
    config = config_from_json_obj({"chi2_ratio": 1, "nb_smoothing": 2})
    assert (config.chi2_ratio, config.nb_smoothing) == (1, 2)


@pytest.mark.parametrize("kwargs, pointer", [
    ({"links_depth": 0}, "/links_depth"),
    ({"chi2_ratio": 1.5}, "/chi2_ratio"),
    ({"nb_smoothing": True}, "/nb_smoothing"),
    ({"framework_prefixes": "android."}, "/framework_prefixes"),
    ({"framework_prefixes": ["android.", ""]}, "/framework_prefixes/1"),
])
def test_config_error_is_a_value_error_pointing_at_the_field(kwargs, pointer):
    with pytest.raises(ConfigError) as exc:
        Config(**kwargs)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, SchemaError)
    assert exc.value.pointer == pointer


def test_prefixes_given_as_a_list_are_kept_as_a_hashable_tuple():
    config = Config(framework_prefixes=["android."])
    assert config.framework_prefixes == ("android.",)
    assert hash(config) == hash(Config(framework_prefixes=("android.",)))


# Values of every JSON kind, and of every kind a field might wrongly be given.
_SCALARS = st.one_of(
    st.sampled_from([0, 1, 2, 5, 0.5, 1.0, 5.0, True, False, 10**400, None, "1"]),
    st.integers(min_value=-3, max_value=12),
    st.floats(allow_nan=True, allow_infinity=True),
)
# An explicit alphabet keeps Hypothesis from building its full Unicode table
# on the first draw, which alone can trip the health check from a cold cache;
# it still holds every case the prefix rule tells apart: empty, a dot, an
# ASCII letter, a non-ASCII letter and a space.
_PREFIXES = st.one_of(
    st.lists(st.one_of(st.sampled_from(["", "android.", "com."]), st.text(" .aé", max_size=3),
                       st.integers(), st.none()), max_size=3),
    st.tuples(st.sampled_from(["", "java."])),
    st.text(" .aé", max_size=4),
    st.none(),
    st.integers(),
)
_CONFIG_KWARGS = st.fixed_dictionaries({}, optional={
    "framework_prefixes": _PREFIXES,
    "chi2_ratio": _SCALARS,
    "nb_smoothing": _SCALARS,
    "links_depth": _SCALARS,
    "kfold_k": _SCALARS,
    "seed": _SCALARS,
})


def _built(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (ValueError, SchemaError):  # Config raises a ConfigError, which is both
        return None


@given(_CONFIG_KWARGS)
@example({"nb_smoothing": True})
@example({"framework_prefixes": ["android.", 7]})
def test_config_builds_exactly_when_its_json_loads(kwargs):
    built = _built(Config, **kwargs)
    loaded = _built(config_from_json_obj, json.loads(json.dumps(kwargs)))
    assert built == loaded
    if built is not None:
        assert config_from_json_obj(json.loads(json.dumps(built.to_json_obj()))) == built


@given(_PREFIXES)
@example(("",))
def test_matcher_rejects_exactly_the_prefixes_config_rejects(prefixes):
    assert (_built(FrameworkMatcher, prefixes) is None) == (
        _built(Config, framework_prefixes=prefixes) is None)
