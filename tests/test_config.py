"""Run configuration parsing, overrides, validation, and the model hash."""

from __future__ import annotations

import argparse
import dataclasses
import re

import pytest

from sectsum.cli import build_parser, main
from sectsum.config import (
    MODEL_HASH_KEYS,
    RULES,
    ConfigError,
    RunConfig,
    check_artifact_hash,
    model_hash,
    parse_config_file,
    resolve_config,
)
from sectsum.extractor import SelectionConfig
from sectsum.model import Model
from sectsum.training import TrainConfig


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
        ({"lr_scale": -1.0}, "lr_scale must be finite"),
        ({"lr_scale": float("nan")}, "lr_scale must be finite"),
        ({"ffn_dim": -1}, "ffn_dim must be >= 1"),
        ({"candidates_k": 0}, "candidates_k must be >= 1"),
    ],
)
def test_resolve_validation_failures(overrides, msg):
    with pytest.raises(ConfigError, match=msg):
        resolve_config(None, overrides)


# one value per rule that the rule refuses (the other fields keep their defaults)
_BAD_VALUES = {
    "d_model": 7, "layers": 0, "heads": 3, "window": 0, "global_ratio": 150.0,
    "global_policy": "everywhere", "encoder": "bert", "max_sentences": 0, "s_max": 0,
    "max_chunk_tokens": 0, "len_buckets": 0, "len_bucket_width": 0, "ffn_dim": -1,
    "combine": "stack", "seed": -1, "budget_ratio": 0.0, "trigram_threshold": -2,
    "lr_scale": -1.0, "warmup_steps": 0, "accumulation_steps": 0, "clip_norm": 0.0,
    "epochs": 0, "candidates_k": 0, "holdout_ratio": 1.0,
}
_TRAIN_ARGS = ["--corpus", "c", "--labels", "l", "--checkpoint-out", "o"]


def test_every_rule_has_a_bad_value():
    assert list(_BAD_VALUES) == list(RULES)


@pytest.mark.parametrize("key", list(_BAD_VALUES))
def test_each_rule_refuses_its_bad_value_wherever_the_field_is_built(tmp_path, capsys, key):
    bad, message = _BAD_VALUES[key], RULES[key][1]
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**{key: bad})
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(None, {key: bad})
    # the CLI, from a config file line and (where the key has one) a flag, before reading any input
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {bad}\n")
    argvs = [["train", *_TRAIN_ARGS, "--config", str(cfg_file)]]
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    train_parser = subparsers.choices["train"]
    flags = [a.option_strings[0] for a in train_parser._actions if a.dest == key]
    argvs += [["train", *_TRAIN_ARGS, flag, str(bad)] for flag in flags]
    for argv in argvs:
        assert main(argv) == 1, argv
        assert f"sectsum train: {message}" in capsys.readouterr().err


# TrainConfig and SelectionConfig are names of RunConfig; the ids keep the names apart
@pytest.mark.parametrize("build", [RunConfig, TrainConfig], ids=["RunConfig", "TrainConfig"])
def test_lr_scale_must_be_finite_and_not_negative(build):
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr_scale must be finite and >= 0"):
            build(lr_scale=bad)
    assert build(lr_scale=0.0).lr_scale == 0.0  # a zero rate leaves the parameters as they are


def test_run_config_built_directly_is_the_resolved_one():
    direct, resolved = RunConfig(), resolve_config()
    assert direct == resolved and direct.ffn_dim == 4 * direct.d_model
    assert model_hash(direct) == model_hash(resolved)
    a, b = Model(direct).parameters(), Model(resolved).parameters()
    assert [(k, p.data.shape) for k, p in a.items()] == [(k, p.data.shape) for k, p in b.items()]
    assert a["layer0.ffn_inner.weight"].data.shape == (256, 64)
    assert RunConfig(ffn_dim=24).ffn_dim == 24  # a width that is set is kept


_NAMES = {"RunConfig": RunConfig, "TrainConfig": TrainConfig, "SelectionConfig": SelectionConfig}


def test_train_and_selection_configs_are_the_run_config():
    assert TrainConfig is RunConfig and SelectionConfig is RunConfig
    assert SelectionConfig(budget_ratio=0.5) == RunConfig(budget_ratio=0.5)


@pytest.mark.parametrize("build, first", [(RunConfig, 64), (TrainConfig, 1.0), (SelectionConfig, 0.5)],
                         ids=list(_NAMES))
def test_settings_are_keyword_only(build, first):
    # built by position, SelectionConfig(4) would set d_model = 4
    with pytest.raises(TypeError):
        build(first)


@pytest.mark.parametrize("build", list(_NAMES.values()), ids=list(_NAMES))
def test_settings_cannot_be_assigned_after_construction(build):
    cfg = build()
    for name, bad in (("lr_scale", -1.0), ("budget_ratio", 2.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, bad)
    assert cfg == build()


def test_replace_carries_the_resolved_ffn_dim():
    # documented: the stored ffn_dim is the resolved one, and replace keeps it
    narrow = dataclasses.replace(RunConfig(), d_model=16)
    assert narrow.ffn_dim == 256 and RunConfig(d_model=16).ffn_dim == 64
    assert dataclasses.replace(RunConfig(), d_model=16, ffn_dim=0) == RunConfig(d_model=16)
    with pytest.raises(ConfigError, match="lr_scale"):
        dataclasses.replace(RunConfig(), lr_scale=-1.0)


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
