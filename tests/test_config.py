from __future__ import annotations

import json

import pytest

from crashloc.config import Config, DEFAULT_FRAMEWORK_PREFIXES, config_from_json_obj, load_config
from crashloc.errors import SchemaError


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
        ({"links_depth": "deep"}, "/config"),
        ({"mystery": 1}, "/config/mystery"),
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
