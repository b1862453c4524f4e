"""Attention-based image captioner: a small convolutional encoder produces a
grid of region vectors, an LSTM decoder attends over them step by step and
emits words through a deep output layer.

Shapes throughout: B batch, R = pooled_side**2 regions, F encoder channels,
m embedding dim, n decoder dim, W word-vocabulary size. Region vectors are
the unit attention operates over, so the per-step weights reshape into a 2-D
map over the pooled grid for heatmap export.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import decoding
from .config import RunConfig
from .optim import Adam, Sgd, train_epochs
from .reportprep import bilinear_resize

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


@dataclass
class CaptionConfig:
    embed_dim: int = 16            # m
    decoder_dim: int = 32          # n
    attention_dim: int = 16
    dropout: float = 0.1
    doubly_stochastic_weight: float = 0.0  # attention-coverage penalty; off by default
    pooled_side: int = 4           # r; attention runs over r*r regions
    encoder_channels: int = 32     # F
    kernel_size: int = 3
    fine_tune_encoder: bool = False
    max_caption_len: int = 24      # includes <start> and <end>

    def validate(self) -> None:
        for name in ("embed_dim", "decoder_dim", "attention_dim", "pooled_side",
                     "encoder_channels", "kernel_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.doubly_stochastic_weight < 0:
            raise ValueError("doubly_stochastic_weight must be non-negative")
        if self.max_caption_len < 2:
            raise ValueError("max_caption_len must be at least 2")


class CaptionModel:
    """Encoder + soft attention + LSTM decoder + deep output layer."""

    def __init__(self, config: CaptionConfig, vocab_size: int, seed: int):
        config.validate()
        if vocab_size < 5:
            raise ValueError(f"word vocabulary too small ({vocab_size})")
        self.config = config
        self.vocab_size = vocab_size
        self.training = True
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, ad.Parameter] = {}

        c = config
        k = c.kernel_size
        f = c.encoder_channels
        # the two lower conv layers stay frozen random features; fine-tuning
        # only ever unfreezes the last layer
        self._conv("encoder.conv1", f, 1, k, trainable=False)
        self._conv("encoder.conv2", f, f, k, trainable=False)
        self._conv("encoder.conv3", f, f, k, trainable=c.fine_tune_encoder)

        self._affine("init_h", f, c.decoder_dim)
        self._affine("init_c", f, c.decoder_dim)
        self._affine("attn.regions", f, c.attention_dim)
        self._affine("attn.hidden", c.decoder_dim, c.attention_dim)
        self._affine("attn.score", c.attention_dim, 1)
        self._matrix("embedding", (vocab_size, c.embed_dim), scale=0.1)
        self._affine("lstm", c.embed_dim + c.decoder_dim + f, 4 * c.decoder_dim)
        self._matrix("out.l_h", (c.decoder_dim, c.embed_dim))
        self._matrix("out.l_a", (f, c.embed_dim))
        self._matrix("out.l_o", (c.embed_dim, vocab_size))

    # -- parameter plumbing --------------------------------------------------

    def _matrix(self, name, shape, scale=None, trainable=True):
        fan_in = shape[0]
        s = scale if scale is not None else 1.0 / np.sqrt(fan_in)
        p = ad.Parameter(self._rng.uniform(-s, s, size=shape), name, trainable)
        self._params[name] = p
        return p

    def _affine(self, name, fan_in, fan_out, trainable=True):
        self._matrix(f"{name}.weight", (fan_in, fan_out), trainable=trainable)
        self._params[f"{name}.bias"] = ad.Parameter(
            np.zeros(fan_out), f"{name}.bias", trainable)

    def _conv(self, name, out_ch, in_ch, k, trainable):
        s = 1.0 / np.sqrt(in_ch * k * k)
        self._params[f"{name}.weight"] = ad.Parameter(
            self._rng.uniform(-s, s, size=(out_ch, in_ch, k, k)), f"{name}.weight", trainable)
        self._params[f"{name}.bias"] = ad.Parameter(
            np.zeros(out_ch), f"{name}.bias", trainable)

    def parameters(self) -> dict[str, ad.Parameter]:
        return dict(self._params)

    def encoder_parameters(self) -> list[ad.Parameter]:
        return [p for name, p in self._params.items() if name.startswith("encoder.")]

    def decoder_parameters(self) -> list[ad.Parameter]:
        return [p for name, p in self._params.items() if not name.startswith("encoder.")]

    def _p(self, name) -> ad.Parameter:
        return self._params[name]

    def set_encoder_finetune(self, enabled: bool) -> None:
        """Toggle gradients for the last encoder layer; the lower layers stay
        frozen either way. Idempotent."""
        self.config.fine_tune_encoder = bool(enabled)
        self._p("encoder.conv3.weight").trainable = bool(enabled)
        self._p("encoder.conv3.bias").trainable = bool(enabled)

    def train_mode(self, training: bool = True) -> None:
        self.training = training

    # -- forward pieces -------------------------------------------------------

    def encode(self, images) -> ad.Tensor:
        """(B, H, W) normalized grayscale -> (B, R, F) annotation grid."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[None]
        r = self.config.pooled_side
        grids = []
        for i in range(images.shape[0]):
            x = ad.as_constant(images[i][None])  # (1, H, W)
            # edge padding keeps constant images constant, so uniform inputs
            # yield identical region vectors after pooling
            for layer in ("encoder.conv1", "encoder.conv2", "encoder.conv3"):
                x = ad.relu(ad.conv2d(x, self._p(f"{layer}.weight"),
                                      self._p(f"{layer}.bias"), pad_mode="edge"))
            pooled = ad.adaptive_avg_pool(x, r, r)             # (F, r, r)
            flat = pooled.reshape((self.config.encoder_channels, r * r))
            grids.append(flat.transpose())                      # (R, F)
        return ad.stack_rows(grids)                             # (B, R, F)

    def init_state(self, annotations: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        """Mean region vector through two separate one-layer tanh MLPs."""
        mean = annotations.mean(axis=1)  # (B, F)
        h = ad.tanh(mean @ self._p("init_h.weight") + self._p("init_h.bias"))
        c = ad.tanh(mean @ self._p("init_c.weight") + self._p("init_c.bias"))
        return h, c

    def attend(self, annotations: ad.Tensor, h_prev: ad.Tensor):
        """Additive attention: score each region against the previous hidden
        state, softmax into weights, take the weighted sum of regions.

        Returns (alpha (B, R), context (B, F)).
        """
        b, r, f = annotations.shape
        d = self.config.attention_dim
        flat = annotations.reshape((b * r, f))
        proj_regions = (flat @ self._p("attn.regions.weight")
                        + self._p("attn.regions.bias")).reshape((b, r, d))
        proj_hidden = (h_prev @ self._p("attn.hidden.weight")
                       + self._p("attn.hidden.bias")).reshape((b, 1, d))
        hidden = ad.relu(proj_regions + proj_hidden)
        scores = (hidden.reshape((b * r, d)) @ self._p("attn.score.weight")
                  + self._p("attn.score.bias")).reshape((b, r))
        alpha = ad.softmax(scores, axis=1)
        context = (alpha.reshape((b, r, 1)) * annotations).sum(axis=1)  # (B, F)
        return alpha, context

    def lstm_step(self, tokens, h_prev: ad.Tensor, c_prev: ad.Tensor,
                  context: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        """One decoder step: gates from the affine of [embedding, hidden,
        context], then the usual memory/hidden updates."""
        n = self.config.decoder_dim
        emb = ad.embedding_lookup(self._p("embedding"), np.asarray(tokens, dtype=np.int64))
        z = ad.concat([emb, h_prev, context], axis=1) @ self._p("lstm.weight") + self._p("lstm.bias")
        i = ad.sigmoid(ad.narrow(z, 1, 0, n))
        f = ad.sigmoid(ad.narrow(z, 1, n, n))
        o = ad.sigmoid(ad.narrow(z, 1, 2 * n, n))
        g = ad.tanh(ad.narrow(z, 1, 3 * n, n))
        c = f * c_prev + i * g
        h = o * ad.tanh(c)
        return h, c

    def output_distribution(self, h: ad.Tensor, context: ad.Tensor, tokens) -> ad.Tensor:
        """Next-word probabilities conditioned on hidden state, context vector
        and the previous word's embedding. Dropout hits the hidden state at
        train time only."""
        hd = ad.dropout(h, self.config.dropout, self._rng, self.training)
        emb = ad.embedding_lookup(self._p("embedding"), np.asarray(tokens, dtype=np.int64))
        logits = (hd @ self._p("out.l_h") + context @ self._p("out.l_a") + emb) @ self._p("out.l_o")
        return ad.softmax(logits, axis=1)

    # -- loss ------------------------------------------------------------------

    def sequence_loss(self, annotations: ad.Tensor, captions: np.ndarray,
                      lengths: np.ndarray) -> ad.Tensor:
        """Teacher-forced loss over a batch already sorted by decreasing length.

        captions: (B, L) ids starting with <start>; lengths[i] counts the
        predictions for caption i (content tokens plus <end>). Step t feeds
        the ground-truth token t and scores only the captions still active,
        so padding never contributes. Loss = mean token NLL, plus the
        attention-coverage penalty sum_i (1 - sum_t alpha_ti)^2 per sample
        (averaged over the batch) when its weight is positive.
        """
        lengths = np.asarray(lengths)
        if captions.shape[0] == 0:
            raise ValueError("empty batch")
        if np.any(np.diff(lengths) > 0):
            raise ValueError("captions must be sorted by decreasing length")
        b = captions.shape[0]
        h, c = self.init_state(annotations)
        a_t = annotations
        total_nll = None
        count = 0
        alpha_steps: list[ad.Tensor] = []
        for t in range(int(lengths.max())):
            bt = int(np.sum(lengths > t))
            if bt < a_t.shape[0]:
                a_t = ad.narrow(a_t, 0, 0, bt)
                h = ad.narrow(h, 0, 0, bt)
                c = ad.narrow(c, 0, 0, bt)
            alpha, context = self.attend(a_t, h)
            inputs = captions[:bt, t]
            h, c = self.lstm_step(inputs, h, c, context)
            probs = self.output_distribution(h, context, inputs)
            target_p = ad.pick(probs, captions[:bt, t + 1])
            if np.any(target_p.data <= PROB_FLOOR):
                logger.warning("target probability underflow at step %d; clamping to %g",
                               t, PROB_FLOOR)
            step_nll = -ad.log(ad.clamp_min(target_p, PROB_FLOOR)).sum()
            total_nll = step_nll if total_nll is None else total_nll + step_nll
            count += bt
            alpha_steps.append(alpha)
        loss = total_nll * (1.0 / count)
        weight = self.config.doubly_stochastic_weight
        if weight > 0.0:
            penalty = None
            for i in range(b):
                rows = [ad.narrow(alpha_steps[t], 0, i, 1) for t in range(int(lengths[i]))]
                coverage = ad.concat(rows, axis=0).sum(axis=0)      # (R,)
                deficit = ad.powc(ad.sub(1.0, coverage), 2.0).sum()
                penalty = deficit if penalty is None else penalty + deficit
            loss = loss + penalty * (weight / b)
        return loss

    # -- decoding ----------------------------------------------------------------

    def step_function(self, annotations: ad.Tensor, start_id: int) -> Callable:
        """Prefix-driven step function for the generic decoders. States are
        cached per prefix so each extension costs one LSTM step."""
        cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

        def advance(state, token):
            h = ad.as_constant(state[0])
            c = ad.as_constant(state[1])
            alpha, context = self.attend(annotations, h)
            h2, c2 = self.lstm_step(np.array([token]), h, c, context)
            probs = self.output_distribution(h2, context, np.array([token]))
            return (h2.data, c2.data), probs.data[0], alpha.data[0]

        def initial_state():
            h, c = self.init_state(annotations)
            return (h.data, c.data)

        def materialize(prefix: tuple[int, ...]):
            """State after consuming <start> followed by the prefix tokens."""
            if prefix in cache:
                return cache[prefix]
            if not prefix:
                state = advance(initial_state(), start_id)[0]
            else:
                state = advance(materialize(prefix[:-1]), prefix[-1])[0]
            cache[prefix] = state
            return state

        def step(prefix) -> np.ndarray:
            prefix = tuple(prefix)
            if not prefix:
                state, probs, _ = advance(initial_state(), start_id)
            else:
                state, probs, _ = advance(materialize(prefix[:-1]), prefix[-1])
            cache[prefix] = state
            return np.log(np.maximum(probs, PROB_FLOOR))

        return step

    def decode_caption(self, image, strategy: str = "greedy", beam_width: int = 5,
                       max_len: int | None = None, length_normalize: bool = True,
                       start_id: int = 1, end_id: int = 2):
        """Generate a caption for one image. Returns (token ids without
        specials, attention weights per emitted token)."""
        was_training = self.training
        self.training = False
        try:
            annotations = self.encode(np.asarray(image))
            max_len = max_len or self.config.max_caption_len
            step = self.step_function(annotations, start_id)
            if strategy == "greedy":
                ids = decoding.greedy_decode(step, max_len, end_token=end_id)
            elif strategy == "beam":
                beams = decoding.beam_search(step, beam_width, max_len,
                                             end_token=end_id,
                                             length_normalize=length_normalize)
                ids = decoding.select_beam(beams, 1, end_token=end_id) if beams else []
            else:
                raise ValueError(f"unknown decode strategy {strategy!r}")
            alphas = self.replay_attention(annotations, ids, start_id)
            return ids, alphas
        finally:
            self.training = was_training

    def replay_attention(self, annotations: ad.Tensor, ids: list[int],
                         start_id: int) -> list[np.ndarray]:
        """Re-run the decoder over a fixed output sequence collecting the
        attention map used to emit each token."""
        h, c = self.init_state(annotations)
        alphas: list[np.ndarray] = []
        inputs = [start_id] + list(ids[:-1])
        for token in inputs[: len(ids)]:
            alpha, context = self.attend(annotations, h)
            h, c = self.lstm_step(np.array([token]), h, c, context)
            alphas.append(alpha.data[0].copy())
        return alphas


# ---------------------------------------------------------------------------
# teacher-forcing training loop


@dataclass
class CaptionExample:
    study_id: str
    image: np.ndarray            # (H, W) normalized
    caption: np.ndarray          # (L,) ids beginning with <start>
    decode_len: int              # predictions to make: content tokens + <end>


def sort_batch_by_length(captions: np.ndarray, lengths: np.ndarray):
    """Stable decreasing-length order; returns (captions, lengths, order)."""
    order = np.argsort(-np.asarray(lengths), kind="stable")
    return captions[order], np.asarray(lengths)[order], order


def effective_batch_sizes(sorted_lengths) -> list[int]:
    """Captions still active at each timestep, given decreasing lengths."""
    lengths = np.asarray(sorted_lengths)
    return [int(np.sum(lengths > t)) for t in range(int(lengths.max()))]


def make_optimizers(model: CaptionModel, cfg: RunConfig):
    """Decoder and encoder optimizers from the ``sat_*`` keys."""
    cls = Adam if cfg.sat_optimizer == "adam" else Sgd
    kwargs = {"clip_norm": cfg.sat_clip_norm}
    if cfg.sat_optimizer == "adam":
        kwargs["eps"] = cfg.sat_adam_eps
    dec = cls(model.decoder_parameters(), lr=cfg.sat_decoder_lr, **kwargs)
    enc = cls(model.encoder_parameters(), lr=cfg.sat_encoder_lr, **kwargs)
    return dec, enc


def train_teacher_forcing(model: CaptionModel, examples: list[CaptionExample],
                          cfg: RunConfig, optimizers=None, epoch_callback=None,
                          shuffle_rng=None, trace=None, start_epoch: int = 0) -> list[float]:
    """Train with teacher forcing for ``cfg.sat_epochs`` epochs of
    ``cfg.sat_batch_size``; returns the per-batch loss trace.

    When the encoder is frozen the annotation grids are computed once up
    front (they cannot change), which keeps desk-scale runs fast; with
    fine-tuning enabled the encoder runs inside the tape every batch.
    ``shuffle_rng`` (by default seeded with ``cfg.seed``), ``trace`` and
    ``start_epoch`` are passed on to ``optim.train_epochs``.
    """
    cfg.validate()
    if not examples:
        raise ValueError("no training examples")
    dec_opt, enc_opt = optimizers if optimizers else make_optimizers(model, cfg)
    if shuffle_rng is None:
        shuffle_rng = np.random.default_rng(cfg.seed)
    fine_tune = model.config.fine_tune_encoder
    cached = None
    if not fine_tune:
        model.train_mode(False)
        cached = [model.encode(ex.image).data[0] for ex in examples]
    model.train_mode(True)

    def batch_loss(idx):
        captions = np.stack([examples[i].caption for i in idx])
        lengths = np.array([examples[i].decode_len for i in idx])
        captions, lengths, sort_order = sort_batch_by_length(captions, lengths)
        sorted_idx = idx[sort_order]
        if fine_tune:
            annotations = model.encode(np.stack([examples[i].image for i in sorted_idx]))
        else:
            annotations = ad.as_constant(np.stack([cached[i] for i in sorted_idx]))
        return model.sequence_loss(annotations, captions, lengths)

    return train_epochs(model, len(examples), batch_loss,
                        [dec_opt, enc_opt] if fine_tune else [dec_opt],
                        cfg.sat_epochs, cfg.sat_batch_size, shuffle_rng,
                        epoch_callback, trace, start_epoch)


# ---------------------------------------------------------------------------
# attention heatmaps


def attention_heatmap(alpha: np.ndarray, pooled_side: int, out_h: int, out_w: int) -> np.ndarray:
    """Reshape a weight vector onto the pooled grid, upsample bilinearly to
    the target extents, and min-max normalize into [0, 1]. A constant map
    (nothing to localize) normalizes to all zeros."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (pooled_side * pooled_side,):
        raise ValueError(
            f"expected {pooled_side * pooled_side} attention weights, got shape {alpha.shape}"
        )
    grid = alpha.reshape(pooled_side, pooled_side)
    up = bilinear_resize(grid, out_h, out_w)
    lo, hi = up.min(), up.max()
    if hi - lo < 1e-15:
        return np.zeros((out_h, out_w))
    return (up - lo) / (hi - lo)
