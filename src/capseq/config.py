"""Flat key=value run configuration shared by all CLI commands, and the
shapes of the two models it builds.

Precedence, lowest to highest: built-in desk defaults, the --config file,
--set key=value flags, and finally the CAPSEQ_SEED environment variable
(which overrides the seed only). Validation runs before any work starts and
rejects values that would violate a downstream precondition.

``RunConfig``'s fields are the one table of run keys: each field's type,
default and allowed values (a closed range, or a list of choices) sit on the
field. A model field's run key is its stage prefix plus the field name
(``sat_embed_dim``, ``lm_layers``), and the model configs check their fields
against that table under the run key.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ENV_SEED = "CAPSEQ_SEED"

_POSITIVE = math.ulp(0.0)              # "> 0" for a float, as a closed bound
_BELOW_ONE = math.nextafter(1.0, 0.0)  # "< 1" for a float, as a closed bound
_CEILING = {int: sys.maxsize, float: sys.float_info.max}  # keys with no natural ceiling
_NOUNS = {bool: "a boolean", int: "an integer", float: "a number"}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class ConfigError(ValueError):
    pass


def _key(default, lo=None, hi=None, choices=None):
    """A run key's field: its default and its allowed values, either
    ``choices`` or the closed range ``lo <= x <= hi``. ``hi`` defaults to the
    ceiling of the default's type; with finite bounds NaN and infinities fail."""
    if choices is None and hi is None:
        hi = _CEILING[type(default)]
    return dataclasses.field(default=default, metadata={"lo": lo, "hi": hi, "choices": choices})


def _check_fields(config, prefix: str) -> None:
    """Check each field of ``config`` against run key ``prefix + name``."""
    for f in dataclasses.fields(config):
        key, value = prefix + f.name, getattr(config, f.name)
        allowed = _FIELDS[key].metadata
        if allowed["choices"] is not None:
            if value not in allowed["choices"]:
                raise ConfigError(f"{key} must be one of {allowed['choices']}, got {value!r}")
        elif not allowed["lo"] <= value:
            raise ConfigError(f"{key} must be at least {allowed['lo']}, got {value}")
        elif not value <= allowed["hi"]:
            raise ConfigError(f"{key} must be at most {allowed['hi']}, got {value}")


@dataclass
class CaptionConfig:
    """Shape of ``captioner.CaptionModel``; run keys ``sat_<field>``."""

    embed_dim: int                   # m
    decoder_dim: int                 # n
    attention_dim: int
    dropout: float
    doubly_stochastic_weight: float  # attention-coverage penalty; 0 turns it off
    pooled_side: int                 # r; attention runs over r*r regions
    encoder_channels: int            # F
    kernel_size: int
    fine_tune_encoder: bool
    max_caption_len: int             # includes <start> and <end>

    def validate(self) -> None:
        _check_fields(self, "sat_")


@dataclass
class LmConfig:
    """Shape of ``lm.TransformerLm``; run keys ``lm_<field>``."""

    layers: int
    heads: int
    model_dim: int
    ffn_dim: int
    block_size: int

    def validate(self) -> None:
        _check_fields(self, "lm_")
        if self.model_dim % self.heads:
            raise ConfigError(
                f"lm_model_dim {self.model_dim} must divide evenly into {self.heads} heads"
            )


@dataclass
class RunConfig:
    seed: int = _key(0, 0)
    image_side: int = _key(32, 1)
    min_word_freq: int = _key(1, 1)
    train_ratio: float = _key(0.75, 0.0, 1.0)
    val_ratio: float = _key(0.125, 0.0, 1.0)
    test_ratio: float = _key(0.125, 0.0, 1.0)

    # caption model
    sat_embed_dim: int = _key(24, 1)
    sat_decoder_dim: int = _key(64, 1)
    sat_attention_dim: int = _key(32, 1)
    sat_dropout: float = _key(0.0, 0.0, _BELOW_ONE)
    sat_doubly_stochastic_weight: float = _key(0.0, 0.0)
    sat_pooled_side: int = _key(4, 1)
    sat_encoder_channels: int = _key(32, 1)
    sat_kernel_size: int = _key(3, 1)
    sat_fine_tune_encoder: bool = _key(False, choices=(False, True))
    sat_max_caption_len: int = _key(24, 2)
    sat_epochs: int = _key(40, 1)
    sat_batch_size: int = _key(8, 1)
    sat_decoder_lr: float = _key(5e-3, _POSITIVE)
    sat_encoder_lr: float = _key(1e-3, _POSITIVE)
    sat_clip_norm: float = _key(5.0, _POSITIVE)

    # language model
    lm_layers: int = _key(2, 1)
    lm_heads: int = _key(2, 1)
    lm_model_dim: int = _key(32, 1)
    lm_ffn_dim: int = _key(64, 1)
    lm_block_size: int = _key(64, 2)
    lm_merges: int = _key(80, 0)
    lm_epochs: int = _key(40, 1)
    lm_batch_size: int = _key(1, 1)
    lm_lr: float = _key(3e-3, _POSITIVE)
    lm_clip_norm: float = _key(1.0, _POSITIVE)

    # decoding
    decode_strategy: str = _key("beam", choices=("greedy", "beam"))
    beam_width: int = _key(5, 1)
    lm_rank: int = _key(2, 1)
    lm_max_new: int = _key(48, 1)
    length_normalize: bool = _key(True, choices=(False, True))

    def _model_config(self, cls, prefix: str):
        return cls(**{f.name: getattr(self, prefix + f.name) for f in dataclasses.fields(cls)})

    def caption_config(self) -> CaptionConfig:
        return self._model_config(CaptionConfig, "sat_")

    def lm_config(self) -> LmConfig:
        return self._model_config(LmConfig, "lm_")

    def validate(self) -> None:
        _check_fields(self, "")
        if abs(self.train_ratio + self.val_ratio + self.test_ratio - 1.0) > 1e-9:
            raise ConfigError("split ratios must sum to 1")
        if self.lm_rank > self.beam_width:
            raise ConfigError(
                f"lm_rank {self.lm_rank} cannot exceed beam_width {self.beam_width}"
            )
        if self.image_side < self.sat_pooled_side:
            raise ConfigError("image_side must be at least sat_pooled_side")
        self.lm_config().validate()  # heads divide model_dim


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str, where: str = ""):
    """``raw`` parsed as the type of run key ``name``; errors start with ``where``."""
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"{where}unknown configuration key {name!r}")
    raw = raw.strip()
    kind = type(field.default)
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}{name}: expected {_NOUNS[kind]}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values, lines = {}, {}
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{n}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{source}:{n}: {key} is already set on line {lines[key]}")
        values[key] = _parse_value(key, raw, f"{source}:{n}: ")
        lines[key] = n
    return values


def load_run_config(config_path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for key, value in parse_config_text(path.read_text(encoding="utf-8"), str(path)).items():
            setattr(cfg, key, value)
    for key, raw in (overrides or {}).items():
        setattr(cfg, key, _parse_value(key, raw))
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED}: expected an integer, got {env_seed!r}") from None
    cfg.validate()
    return cfg
