"""The CLI's stdout on the fixtures is pinned byte for byte.

The SHA-256 digests below were recorded once, from the implementation that
compared every pool entry, and are never regenerated by the tests: a speed-up
that changes any output byte (a rank, a score, a float mean's last digit)
fails here. ``evaluate`` is pinned for seeds 0-2 under both protocols, and
``locate`` for every fixture crash log with the geography app model, both
from the bundle's stored training pool and, with ``pool`` deleted from the
bundle, from the parsed corpus.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from conftest import APP_MODELS, CORPUS_PATH, CRASH_DIR
from crashloc import cli

EVALUATE_DIGESTS = {
    (0, False): "f1d905344097d48dc6e9d8d2e8bea1837245f99793f6c834f1e8b6c6727f6172",
    (0, True): "9a99f73af8925a027147258b7ff1554f08b5a2901299428d4f77c5814c87349f",
    (1, False): "28aa4b75bb0f6c2e1bcc0ea3358e1f1962fd140056bd18b2942522ca0e42a4ee",
    (1, True): "4793c321c3eb0b741143e9b9c7d7ef4b3c9f55a1370f4c939f760dd99a6711c7",
    (2, False): "77e63f434a94179c6106080575e45db159b353ba936e0e7b75fa77847dd81f60",
    (2, True): "2916407ebff5707cd8f7652d7ed4b7804108effe6f5325e1d59205945e0208c1",
}

LOCATE_DIGESTS = {
    "a1_notes_npe.log": "875945f42526283c139c95bd5bbae94dd5f20b99b02e7107b3440b67b5cad9a4",
    "a2_transistor_state.log": "782df1430db164e2757438a7a3314ee3b9b0c3b726afd19a3a5d83605f76cf19",
    "a3_cursor_index.log": "6633d42a7e58fc0c3b90f525338107c13505ab308a93a8c07ac60506f84730f5",
    "a4_bitmap_size.log": "80b3ae70bc79c2771d0ff2fbf87b518a8f31ac475589c1c918154b1e49bf3526",
    "a5_concurrent_mod.log": "cf4fcb97420cdebe2e76724bd356a7dbd8f750da5cd70437d3d294fe24e37394",
    "b_fengshui_downgrade.log": "f7234e0049c258f87869656a9e7847ac4348f3c4466ee431de844083af0a4f93",
    "b_geography_service.log": "b2c90464434fd136b27262f8789327af79044042b493e25968ac273c28e12ea9",
    "c_hardware_camera.log": "8a6c5929fdc6429a0a826208594fe5a5da7bfc786c3a48765e1618b55a34c03f",
    "c_manifest_permission.log": "a92b28b5172c8fbc35ac75fca1b26d321098ddd680fbc43898ebf1190cba99f0",
    "c_resource_missing.log": "a5f0c58e2cd599bbd7ad462a5b7d5c9d76725e8c414a6831ff4bc37047498b4c",
    "caused_by.log": "dc3406cfbef131489c6548372e488a365868803afa9f4993fad9e4d6dc71ed32",
    "dev_topmost.log": "fc2c9b38e60af7b49f16ad12d92fc4d07fd1d988f4f9fe20d502c79b77d823f8",
    "figure1.log": "707e881c63f380a6424d6065bec959f7afec93d0a95846ca119251cbe36097f5",
    "init_ctor.log": "c79040371f8dd80e43a93c8178ddff8da5a03f08bc4ccf3141ff8d026861c77d",
    "kotlin_frames.log": "8eb6fe293dd0ae4a550d789c149c61c8d015bcca9d2d1c5ccca1b23f15791f57",
    "listing1.log": "7d944e3205c7ea2a5d9b35fd1543ca922058d5bf9b5136c9713df80dbe4c059f",
    "long_trace.log": "bf5329243dad7494b5c6e8eea1e253dede0bf593e1062bef5ef95112405c4c0b",
    "nested_inner.log": "35ec379a4ff7d09e3165f849becb9b11a445baef770dd7a265b71af546a3d8ae",
    "no_message.log": "97335524e7b741a84599efa86da5626083cf1cd63b7a4884daf8937fbb758739",
    "unknown_source.log": "acbcf0ab86b2d1060871cb4e34aff147c71509ec7a03eb2eba4204f6895a8cd2",
}


def _stdout_digest(capsys, argv) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv("CRASHLOC_CONFIG", raising=False)


@pytest.mark.parametrize("seed, perfect", sorted(EVALUATE_DIGESTS))
def test_evaluate_json_is_byte_identical(capsys, seed, perfect):
    argv = ["evaluate", "--corpus", str(CORPUS_PATH), "--seed", str(seed)]
    if perfect:
        argv.append("--perfect-categorization")
    assert _stdout_digest(capsys, argv) == EVALUATE_DIGESTS[(seed, perfect)]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "bundle.json"
    assert cli.main(["train", "--corpus", str(CORPUS_PATH), "--model", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bundle_without_pool(bundle):
    obj = json.loads(bundle.read_text(encoding="utf-8"))
    del obj["pool"]
    path = bundle.with_name("bundle-without-pool.json")
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_every_fixture_crash_log_is_pinned():
    assert sorted(LOCATE_DIGESTS) == sorted(p.name for p in CRASH_DIR.glob("*.log"))


@pytest.mark.parametrize("log_name", sorted(LOCATE_DIGESTS))
def test_locate_stdout_is_byte_identical(capsys, bundle, log_name):
    argv = ["locate", str(CRASH_DIR / log_name), "--model", str(bundle),
            "--corpus", str(CORPUS_PATH), "--app-model", str(APP_MODELS / "geography.json")]
    assert _stdout_digest(capsys, argv) == LOCATE_DIGESTS[log_name]


@pytest.mark.parametrize("log_name", sorted(LOCATE_DIGESTS))
def test_locate_stdout_without_the_stored_pool_is_byte_identical(capsys, bundle_without_pool,
                                                                 log_name):
    argv = ["locate", str(CRASH_DIR / log_name), "--model", str(bundle_without_pool),
            "--corpus", str(CORPUS_PATH), "--app-model", str(APP_MODELS / "geography.json")]
    assert _stdout_digest(capsys, argv) == LOCATE_DIGESTS[log_name]
