"""Flat key=value run configuration with CLI override precedence and hashing.

RunConfig is the one settings object, handed whole to every stage.  RULES
holds one check per setting, and a RunConfig runs them in table order when
built (after working out ffn_dim = 0 as 4 * d_model), so one built directly
is the one resolve_config and the CLI build from the same values.  It is
keyword-only and frozen: no setting is set by position or changes unchecked.

The model hash covers every key that changes what a checkpoint *means*
(architecture, mask geometry, encoder identity, seed) and is embedded in all
output artifacts; commands refuse artifacts whose hash disagrees with the
invocation.  Inference/training knobs like budget_ratio or epochs stay out
of the hash so they can be swept against one checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    pass


# field name -> (test of a RunConfig, message), checked in this order
RULES = {
    "d_model": (lambda c: c.d_model >= 2 and c.d_model % 2 == 0, "d_model must be even and >= 2"),
    "layers": (lambda c: c.layers >= 1, "layers must be >= 1"),
    "heads": (lambda c: c.heads >= 1 and c.d_model % c.heads == 0, "heads must divide d_model"),
    "window": (lambda c: c.window >= 1, "window must be >= 1"),
    "global_ratio": (lambda c: 0 <= c.global_ratio <= 100, "global_ratio must be in [0, 100]"),
    "global_policy": (
        lambda c: c.global_policy in ("stride", "random"), "global_policy must be stride|random"
    ),
    "encoder": (lambda c: c.encoder == "stub", "encoder must be stub"),
    "max_sentences": (lambda c: c.max_sentences >= 1, "max_sentences must be >= 1"),
    "s_max": (lambda c: c.s_max >= 1, "s_max must be >= 1"),
    "max_chunk_tokens": (lambda c: c.max_chunk_tokens >= 1, "max_chunk_tokens must be >= 1"),
    "len_buckets": (lambda c: c.len_buckets >= 1, "len_buckets must be >= 1"),
    "len_bucket_width": (lambda c: c.len_bucket_width >= 1, "len_bucket_width must be >= 1"),
    "ffn_dim": (lambda c: c.ffn_dim >= 1, "ffn_dim must be >= 1"),
    "combine": (lambda c: c.combine in ("sum", "concat"), "combine must be sum|concat"),
    "seed": (lambda c: c.seed >= 0, "seed must be >= 0"),
    "budget_ratio": (lambda c: 0 < c.budget_ratio <= 1, "budget_ratio must be in (0, 1]"),
    "trigram_threshold": (
        lambda c: c.trigram_threshold is None or c.trigram_threshold >= 0,
        "trigram_threshold must be >= 0 or none",
    ),
    # a zero rate is allowed: it leaves every parameter as it is
    "lr_scale": (lambda c: math.isfinite(c.lr_scale) and c.lr_scale >= 0, "lr_scale must be finite and >= 0"),
    "warmup_steps": (lambda c: c.warmup_steps >= 1, "warmup_steps must be >= 1"),
    "accumulation_steps": (lambda c: c.accumulation_steps >= 1, "accumulation_steps must be >= 1"),
    "clip_norm": (lambda c: c.clip_norm > 0, "clip_norm must be > 0"),
    "epochs": (lambda c: c.epochs >= 1, "epochs must be >= 1"),
    "candidates_k": (lambda c: c.candidates_k >= 1, "candidates_k must be >= 1"),
    "holdout_ratio": (lambda c: 0 <= c.holdout_ratio < 1, "holdout_ratio must be in [0, 1)"),
}


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Every setting of a run, checked when built and read-only after.

    An ``ffn_dim`` of 0 resolves to ``4 * d_model`` here, and the resolved
    value is what the instance stores, so ``dataclasses.replace(cfg,
    d_model=...)`` carries the old ``ffn_dim`` over instead of resolving it
    again: pass ``ffn_dim=0`` with it to get the new default.
    """

    # architecture / mask geometry (hashed)
    d_model: int = 64
    layers: int = 2
    heads: int = 4
    window: int = 50
    global_ratio: float = 20.0
    global_policy: str = "stride"
    max_sentences: int = 500
    s_max: int = 32
    max_chunk_tokens: int = 3072  # most tokens one sentence may have
    encoder: str = "stub"
    encoder_seed: int = 0
    len_buckets: int = 100
    len_bucket_width: int = 10
    ffn_dim: int = 0  # 0 resolves to 4 * d_model
    combine: str = "sum"
    seed: int = 0
    # selection / training knobs (not hashed)
    budget_ratio: float = 0.20
    trigram_threshold: int | None = None
    lr_scale: float = 1.0
    warmup_steps: int = 100
    accumulation_steps: int = 10
    clip_norm: float = 1.0
    epochs: int = 30
    reinforced: bool = False
    candidates_k: int = 5
    holdout_ratio: float = 0.1

    def __post_init__(self):
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.d_model)
        for ok, message in RULES.values():
            if not ok(self):
                raise ConfigError(message)


MODEL_HASH_KEYS = (
    "d_model",
    "layers",
    "heads",
    "window",
    "global_ratio",
    "global_policy",
    "max_sentences",
    "s_max",
    "max_chunk_tokens",
    "encoder",
    "encoder_seed",
    "len_buckets",
    "len_bucket_width",
    "ffn_dim",
    "combine",
    "seed",
)

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def int_or_none(raw: str) -> int | None:
    """An integer, or None for 'none' in any case (how trigram_threshold is spelled)."""
    return None if raw.lower() == "none" else int(raw)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "trigram_threshold":
        return int_or_none(raw)
    ftype = _FIELDS[key].type
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    if ftype == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {raw!r}")
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Parse `key=value` lines ('#' comments and blank lines ignored).

    A byte that is not valid UTF-8 is reported with its line and file offset.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # newline=None ends a line at "\n", "\r\n" or a lone "\r", as text-mode files do
        before = io.StringIO(data[: e.start].decode("utf-8"), newline=None).getvalue()
        line_no = before.count("\n") + 1
        raise ConfigError(f"{path} line {line_no}: not valid UTF-8 at byte offset {e.start}") from None
    values = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {line_no}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path} line {line_no}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(key, raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path} line {line_no}: bad value for {key}: {e}") from None
    return values


def resolve_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """File values, then explicit overrides, built into one (checked) RunConfig."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_file(path))
    # overrides contain only keys the caller explicitly set; a None value is
    # meaningful (trigram_threshold=none disables blocking)
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)


def model_hash(cfg: RunConfig) -> str:
    """sha256 over the architecture-relevant key=value lines."""
    lines = [f"{k}={getattr(cfg, k)}" for k in MODEL_HASH_KEYS]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def check_artifact_hash(embedded: str | None, cfg: RunConfig, what: str) -> None:
    """Refuse an artifact whose embedded hash disagrees with this invocation."""
    if embedded is None:
        return
    current = model_hash(cfg)
    if embedded != current:
        raise ConfigError(
            f"{what} was produced under a different configuration:\n"
            f"  artifact config hash:   {embedded}\n"
            f"  invocation config hash: {current}\n"
            f"re-run the producing command or pass matching flags"
        )
