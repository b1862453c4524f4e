"""Flat key=value run configuration shared by all CLI commands, and the
shapes of the two models it builds.

Precedence, lowest to highest: built-in desk defaults, the --config file,
--set key=value flags, and finally the CAPSEQ_SEED environment variable
(which overrides the seed only). Validation runs before any work starts and
rejects values that would violate a downstream precondition.

Each model field has one run key, its stage prefix plus the field name
(``sat_embed_dim``, ``lm_layers``), and one check, in the model config's
``validate``; ``RunConfig.validate`` runs both and names the run key.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

ENV_SEED = "CAPSEQ_SEED"


class ConfigError(ValueError):
    pass


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
        for name in ("embed_dim", "decoder_dim", "attention_dim", "pooled_side",
                     "encoder_channels", "kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.doubly_stochastic_weight < 0:
            raise ConfigError("doubly_stochastic_weight must be non-negative")
        if self.max_caption_len < 2:
            raise ConfigError("max_caption_len must be at least 2")


@dataclass
class LmConfig:
    """Shape of ``lm.TransformerLm``; run keys ``lm_<field>``."""

    layers: int
    heads: int
    model_dim: int
    ffn_dim: int
    block_size: int

    def validate(self) -> None:
        for name in ("layers", "heads", "model_dim", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.block_size < 2:
            raise ConfigError(f"block_size must be at least 2, got {self.block_size}")
        if self.model_dim % self.heads:
            raise ConfigError(
                f"model_dim {self.model_dim} must divide evenly into {self.heads} heads"
            )


@dataclass
class RunConfig:
    seed: int = 0
    image_side: int = 32
    min_word_freq: int = 1
    train_ratio: float = 0.75
    val_ratio: float = 0.125
    test_ratio: float = 0.125

    # caption model
    sat_embed_dim: int = 24
    sat_decoder_dim: int = 64
    sat_attention_dim: int = 32
    sat_dropout: float = 0.0
    sat_doubly_stochastic_weight: float = 0.0
    sat_pooled_side: int = 4
    sat_encoder_channels: int = 32
    sat_kernel_size: int = 3
    sat_fine_tune_encoder: bool = False
    sat_max_caption_len: int = 24
    sat_epochs: int = 40
    sat_batch_size: int = 8
    sat_decoder_lr: float = 5e-3
    sat_encoder_lr: float = 1e-3
    sat_clip_norm: float = 5.0

    # language model
    lm_layers: int = 2
    lm_heads: int = 2
    lm_model_dim: int = 32
    lm_ffn_dim: int = 64
    lm_block_size: int = 64
    lm_merges: int = 80
    lm_epochs: int = 40
    lm_batch_size: int = 1
    lm_lr: float = 3e-3
    lm_clip_norm: float = 1.0

    # decoding
    decode_strategy: str = "beam"
    beam_width: int = 5
    lm_rank: int = 2
    lm_max_new: int = 48
    length_normalize: bool = True

    def _model_config(self, cls, prefix: str):
        return cls(**{f.name: getattr(self, prefix + f.name) for f in dataclasses.fields(cls)})

    def caption_config(self) -> CaptionConfig:
        return self._model_config(CaptionConfig, "sat_")

    def lm_config(self) -> LmConfig:
        return self._model_config(LmConfig, "lm_")

    def validate(self) -> None:
        for prefix, model_config in (("sat_", self.caption_config), ("lm_", self.lm_config)):
            try:
                model_config().validate()
            except ConfigError as exc:  # every model message starts with its field name
                raise ConfigError(prefix + str(exc)) from None
        for name in ("image_side", "min_word_freq", "sat_epochs", "sat_batch_size",
                     "lm_epochs", "lm_batch_size", "lm_max_new", "beam_width", "lm_rank"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("sat_decoder_lr", "sat_encoder_lr", "lm_lr", "sat_clip_norm", "lm_clip_norm"):
            if not getattr(self, name) > 0:  # NaN fails this too
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if abs(self.train_ratio + self.val_ratio + self.test_ratio - 1.0) > 1e-9:
            raise ConfigError("split ratios must sum to 1")
        if self.lm_merges < 0:
            raise ConfigError("lm_merges must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.decode_strategy not in ("greedy", "beam"):
            raise ConfigError(f"unknown decode_strategy {self.decode_strategy!r}")
        if self.lm_rank > self.beam_width:
            raise ConfigError(
                f"lm_rank {self.lm_rank} cannot exceed beam_width {self.beam_width}"
            )
        if self.image_side < self.sat_pooled_side:
            raise ConfigError("image_side must be at least sat_pooled_side")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str):
    field = _FIELDS.get(name)
    if field is None:
        raise ConfigError(f"unknown configuration key {name!r}")
    raw = raw.strip()
    tp = field.type
    if tp == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if tp == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}")
    if tp == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}")
    return raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = {}
    for n, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{n}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _parse_value(key.strip(), raw)
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
