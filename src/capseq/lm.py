"""Decoder-only transformer language model over byte-pair tokens.

Pre-norm residual blocks of masked self-attention plus a feed-forward net,
fed by token embeddings with fixed sinusoidal positional encodings. The
causal mask is strict: logits at position t depend only on tokens at
positions <= t, bit-exactly (masked scores sit at -1e30, which underflows to
an exact zero weight after the stabilized softmax).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import decoding
from .config import RunConfig
from .optim import Adam, train_epochs
from .tokenizers import BpeVocabulary

logger = logging.getLogger(__name__)

LN_EPS = 1e-5
MASK_VALUE = -1e30


@dataclass
class LmConfig:
    n_layers: int = 2
    n_heads: int = 2
    model_dim: int = 32
    ffn_dim: int = 64
    block_size: int = 64

    def validate(self) -> None:
        for name in ("n_layers", "n_heads", "model_dim", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.block_size < 2:
            raise ValueError(f"block_size must be at least 2, got {self.block_size}")
        if self.model_dim % self.n_heads:
            raise ValueError(
                f"model_dim {self.model_dim} must divide evenly into {self.n_heads} heads"
            )


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed position table: sin on even channels, cos on odd ones."""
    pos = np.arange(length)[:, None]
    channel = np.arange(dim)[None, :]
    freq = np.power(10000.0, -2.0 * (channel // 2) / dim)
    table = pos * freq
    out = np.empty((length, dim))
    out[:, 0::2] = np.sin(table[:, 0::2])
    out[:, 1::2] = np.cos(table[:, 1::2])
    return out


class TransformerLm:
    def __init__(self, config: LmConfig, vocab: BpeVocabulary, seed: int):
        config.validate()
        self.config = config
        self.vocab = vocab
        self.vocab_size = len(vocab)
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, ad.Parameter] = {}
        self._positions = sinusoidal_positions(config.block_size, config.model_dim)

        d, f = config.model_dim, config.ffn_dim
        self._matrix("embedding", (self.vocab_size, d), scale=0.1)
        for layer in range(config.n_layers):
            p = f"layer{layer}."
            self._norm(p + "ln1")
            self._affine(p + "q", d, d)
            self._affine(p + "k", d, d)
            self._affine(p + "v", d, d)
            self._affine(p + "proj", d, d)
            self._norm(p + "ln2")
            self._affine(p + "ffn1", d, f)
            self._affine(p + "ffn2", f, d)
        self._norm("final_ln")
        self._affine("head", d, self.vocab_size)

    def _matrix(self, name, shape, scale=None):
        s = scale if scale is not None else 1.0 / np.sqrt(shape[0])
        p = ad.Parameter(self._rng.uniform(-s, s, size=shape), name)
        self._params[name] = p
        return p

    def _affine(self, name, fan_in, fan_out):
        self._matrix(f"{name}.weight", (fan_in, fan_out))
        self._params[f"{name}.bias"] = ad.Parameter(np.zeros(fan_out), f"{name}.bias")

    def _norm(self, name):
        self._params[f"{name}.gain"] = ad.Parameter(np.ones(self.config.model_dim), f"{name}.gain")
        self._params[f"{name}.bias"] = ad.Parameter(np.zeros(self.config.model_dim), f"{name}.bias")

    def parameters(self) -> dict[str, ad.Parameter]:
        return dict(self._params)

    def _p(self, name) -> ad.Parameter:
        return self._params[name]

    def _layernorm(self, x: ad.Tensor, name: str) -> ad.Tensor:
        mu = x.mean(axis=1, keepdims=True)
        centered = ad.sub(x, mu)
        var = (centered * centered).mean(axis=1, keepdims=True)
        inv = ad.powc(ad.add(var, LN_EPS), -0.5)
        return centered * inv * self._p(f"{name}.gain") + self._p(f"{name}.bias")

    def _apply_affine(self, x: ad.Tensor, name: str) -> ad.Tensor:
        return x @ self._p(f"{name}.weight") + self._p(f"{name}.bias")

    def forward(self, ids) -> ad.Tensor:
        """Token ids (length T <= block size) -> logits (T, vocab)."""
        ids = self._check_ids(ids)
        t = len(ids)
        cfg = self.config
        x = ad.embedding_lookup(self._p("embedding"), ids) + ad.as_constant(self._positions[:t])
        mask = ad.as_constant(np.triu(np.full((t, t), MASK_VALUE), k=1))
        dk = cfg.model_dim // cfg.n_heads
        scale = 1.0 / np.sqrt(dk)
        for layer in range(cfg.n_layers):
            p = f"layer{layer}."
            normed = self._layernorm(x, p + "ln1")
            q = self._apply_affine(normed, p + "q")
            k = self._apply_affine(normed, p + "k")
            v = self._apply_affine(normed, p + "v")
            heads = []
            for h in range(cfg.n_heads):
                qh = ad.narrow(q, 1, h * dk, dk)
                kh = ad.narrow(k, 1, h * dk, dk)
                vh = ad.narrow(v, 1, h * dk, dk)
                scores = (qh @ kh.transpose()) * scale + mask
                weights = ad.softmax(scores, axis=1)
                heads.append(weights @ vh)
            attended = self._apply_affine(ad.concat(heads, axis=1), p + "proj")
            x = x + attended
            normed = self._layernorm(x, p + "ln2")
            hidden = ad.relu(self._apply_affine(normed, p + "ffn1"))
            x = x + self._apply_affine(hidden, p + "ffn2")
        x = self._layernorm(x, "final_ln")
        return self._apply_affine(x, "head")

    def _check_ids(self, ids) -> np.ndarray:
        ids = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(f"expected a non-empty 1-D token sequence, got shape {ids.shape}")
        if ids.size > self.config.block_size:
            raise ValueError(
                f"input length {ids.size} exceeds block size {self.config.block_size}"
            )
        return ids

    def loss(self, ids) -> ad.Tensor:
        """Mean next-token cross-entropy: positions 1..T-1 from their prefixes."""
        ids = self._check_ids(ids)
        if ids.size < 2:
            raise ValueError("need at least 2 tokens to score next-token prediction")
        logits = self.forward(ids)
        logprobs = ad.log_softmax(logits, axis=1)
        preds = ad.narrow(logprobs, 0, 0, ids.size - 1)
        picked = ad.pick(preds, ids[1:])
        return -picked.mean()

    # -- generation -------------------------------------------------------------

    def step_function(self, seed_ids: list[int]):
        """Next-token log-probabilities given seed + generated prefix. When
        the context outgrows the block size the window slides left."""

        def step(prefix) -> np.ndarray:
            ids = list(seed_ids) + list(prefix)
            window = ids[-self.config.block_size:]
            logits = self.forward(window).data[-1]
            shifted = logits - logits.max()
            return shifted - np.log(np.exp(shifted).sum())

        return step

    def continuation_beams(self, seed_ids: list[int], k: int, max_new: int,
                           length_normalize: bool = True) -> list[decoding.Beam]:
        if len(seed_ids) >= self.config.block_size:
            raise ValueError(
                f"seed length {len(seed_ids)} already at block size {self.config.block_size}"
            )
        return decoding.beam_search(
            self.step_function(seed_ids), k, max_new,
            end_token=self.vocab.end_of_text_id,
            length_normalize=length_normalize,
        )

    def generate_continuation(self, seed_ids: list[int], max_new: int,
                              strategy: str = "greedy", beam_width: int = 5,
                              rank: int = 1, length_normalize: bool = True) -> list[int]:
        """Continue a seed until <|endoftext|> or the cap; returns the new
        tokens only (no seed, no terminator)."""
        if len(seed_ids) >= self.config.block_size:
            raise ValueError(
                f"seed length {len(seed_ids)} already at block size {self.config.block_size}"
            )
        if strategy == "greedy":
            return decoding.greedy_decode(
                self.step_function(seed_ids), max_new, end_token=self.vocab.end_of_text_id)
        if strategy == "beam":
            beams = self.continuation_beams(seed_ids, beam_width, max_new, length_normalize)
            return decoding.select_beam(beams, rank, end_token=self.vocab.end_of_text_id)
        raise ValueError(f"unknown decode strategy {strategy!r}")


# ---------------------------------------------------------------------------
# self-supervised training


def build_token_stream(lines: list[str], vocab: BpeVocabulary) -> list[int]:
    """Encode one report per line, appending the end-of-text terminator."""
    stream: list[int] = []
    for line in lines:
        stream.extend(vocab.encode(line).ids)
        stream.append(vocab.end_of_text_id)
    return stream


def chunk_stream(stream: list[int], block_size: int) -> list[np.ndarray]:
    """Non-overlapping block-size windows; a trailing 1-token stub is dropped
    because it has nothing to predict."""
    windows = []
    for i in range(0, len(stream), block_size):
        w = stream[i:i + block_size]
        if len(w) >= 2:
            windows.append(np.asarray(w, dtype=np.int64))
    return windows


def make_optimizer(model: TransformerLm, cfg: RunConfig) -> Adam:
    """Adam over every LM parameter from the ``lm_*`` keys."""
    return Adam(list(model.parameters().values()), lr=cfg.lm_lr, eps=cfg.lm_adam_eps,
                clip_norm=cfg.lm_clip_norm)


def train_lm(model: TransformerLm, stream: list[int], cfg: RunConfig,
             optimizer: Adam | None = None, epoch_callback=None,
             shuffle_rng=None, trace=None, start_epoch: int = 0) -> list[float]:
    """Next-token training over block windows for ``cfg.lm_epochs`` epochs of
    ``cfg.lm_batch_size``; returns per-batch loss trace. ``shuffle_rng`` (by
    default seeded with ``cfg.seed``), ``trace`` and ``start_epoch`` are
    passed on to ``optim.train_epochs``."""
    cfg.validate()
    if len(stream) < 2:
        raise ValueError("corpus too small: need at least 2 tokens")
    windows = chunk_stream(stream, model.config.block_size)
    if not windows:
        raise ValueError("corpus produced no trainable windows")
    opt = optimizer or make_optimizer(model, cfg)
    if shuffle_rng is None:
        shuffle_rng = np.random.default_rng(cfg.seed)

    def batch_loss(idx):
        total = None
        for i in idx:
            piece = model.loss(windows[i])
            total = piece if total is None else total + piece
        return total * (1.0 / len(idx))

    return train_epochs(model, len(windows), batch_loss, [opt], cfg.lm_epochs,
                        cfg.lm_batch_size, shuffle_rng, epoch_callback, trace, start_epoch)
