"""Run configuration parsing, overrides, validation, and the model hash."""

from __future__ import annotations

import dataclasses

import pytest

from sectsum.config import (
    MODEL_HASH_KEYS,
    ConfigError,
    RunConfig,
    check_artifact_hash,
    model_hash,
    parse_config_file,
    resolve_config,
)


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------


def test_parse_config_file_types_comments_and_blanks(tmp_path):
    path = _write(
        tmp_path,
        """
        # architecture
        d_model = 32
        global_ratio = 12.5   # percent
        reinforced = true
        combine = concat

        trigram_threshold = none
        """,
    )
    values = parse_config_file(path)
    assert values == {
        "d_model": 32,
        "global_ratio": 12.5,
        "reinforced": True,
        "combine": "concat",
        "trigram_threshold": None,
    }


def test_parse_config_file_trigram_integer(tmp_path):
    assert parse_config_file(_write(tmp_path, "trigram_threshold=3")) == {
        "trigram_threshold": 3
    }


def test_parse_config_file_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(_write(tmp_path, "dropout=0.5"))


def test_parse_config_file_rejects_bad_lines(tmp_path):
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(_write(tmp_path, "just words"))
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(_write(tmp_path, "d_model=many"))
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_file(_write(tmp_path, "reinforced=maybe"))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_parse_config_file_names_non_utf8_line_and_offset(tmp_path, newline):
    path = tmp_path / "run.cfg"
    lines = [b"# header", b"d_model = 32", b"seed = \xff7"]
    path.write_bytes(newline.join(lines) + newline)
    offset = len(newline.join(lines[:2]) + newline) + len(b"seed = ")
    with pytest.raises(ConfigError, match=rf"line 3: not valid UTF-8 at byte offset {offset}$"):
        parse_config_file(path)


# ---------------------------------------------------------------------------
# resolution and validation
# ---------------------------------------------------------------------------


def test_resolve_defaults_and_ffn_derivation():
    cfg = resolve_config()
    assert cfg.d_model == 64
    assert cfg.ffn_dim == 256  # 4 * d_model when left at 0
    assert cfg.trigram_threshold is None


def test_resolve_overrides_beat_file_values(tmp_path):
    path = _write(tmp_path, "d_model=32\nwindow=10\n")
    cfg = resolve_config(path, {"window": 7, "trigram_threshold": None})
    assert cfg.d_model == 32
    assert cfg.window == 7
    assert cfg.trigram_threshold is None


def test_resolve_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config(None, {"momentum": 0.9})


@pytest.mark.parametrize(
    "overrides,msg",
    [
        ({"d_model": 7}, "even"),
        ({"heads": 3, "d_model": 8}, "divide"),
        ({"window": 0}, "window"),
        ({"global_ratio": 150.0}, "global_ratio"),
        ({"global_policy": "everywhere"}, "global_policy"),
        ({"combine": "stack"}, "combine"),
        ({"budget_ratio": 0.0}, "budget_ratio"),
        ({"trigram_threshold": -2}, "trigram_threshold"),
        ({"holdout_ratio": 1.0}, "holdout_ratio"),
        ({"clip_norm": 0.0}, "clip_norm"),
        ({"epochs": 0}, "epochs"),
        ({"encoder": "bert"}, "encoder must be stub"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
)
def test_resolve_validation_failures(overrides, msg):
    with pytest.raises(ConfigError, match=msg):
        resolve_config(None, overrides)


# ---------------------------------------------------------------------------
# model hash
# ---------------------------------------------------------------------------


def test_resolve_accepts_a_negative_encoder_seed():
    assert resolve_config(None, {"encoder_seed": -1}).encoder_seed == -1


def test_model_hash_stable_and_full_length():
    a, b = model_hash(resolve_config()), model_hash(resolve_config())
    assert a == b
    assert len(a) == 64 and all(c in "0123456789abcdef" for c in a)


def test_model_hash_tracks_architecture_keys_only():
    base = model_hash(resolve_config())
    assert model_hash(resolve_config(None, {"seed": 1})) != base
    assert model_hash(resolve_config(None, {"window": 49})) != base
    assert model_hash(resolve_config(None, {"encoder_seed": 5})) != base
    # training/selection knobs leave the hash alone
    assert model_hash(resolve_config(None, {"budget_ratio": 0.5})) == base
    assert model_hash(resolve_config(None, {"epochs": 3})) == base
    assert model_hash(resolve_config(None, {"reinforced": True})) == base


def test_model_hash_keys_are_valid_fields():
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(MODEL_HASH_KEYS) <= names
    assert "budget_ratio" not in MODEL_HASH_KEYS


def test_check_artifact_hash_contract():
    cfg = resolve_config()
    check_artifact_hash(None, cfg, "checkpoint")  # legacy artifact: accepted
    check_artifact_hash(model_hash(cfg), cfg, "checkpoint")
    with pytest.raises(ConfigError) as err:
        check_artifact_hash("deadbeef", cfg, "checkpoint")
    message = str(err.value)
    assert "deadbeef" in message and model_hash(cfg) in message
