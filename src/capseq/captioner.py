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

import numpy as np

from . import autodiff as ad
from . import decoding
from .config import CaptionConfig, RunConfig
from .optim import Adam, train_epochs
from .reportprep import bilinear_resize
from .tokenizers import END_ID, START_ID

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class CaptionModel(ad.ParameterStore):
    """Encoder + soft attention + LSTM decoder + deep output layer."""

    def __init__(self, config: CaptionConfig, vocab_size: int, seed: int):
        config.validate()
        if vocab_size < 5:
            raise ValueError(f"word vocabulary too small ({vocab_size})")
        self.config = config
        self.vocab_size = vocab_size
        super().__init__(seed)

        c = config
        k = c.kernel_size
        f = c.encoder_channels
        # the two lower conv layers stay fixed random features; fine-tuning
        # only ever trains the last layer (see make_optimizers)
        self._conv("encoder.conv1", f, 1, k)
        self._conv("encoder.conv2", f, f, k)
        self._conv("encoder.conv3", f, f, k)

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

    def _conv(self, name, out_ch, in_ch, k):
        self._matrix(f"{name}.weight", (out_ch, in_ch, k, k), 1.0 / np.sqrt(in_ch * k * k))
        self._store(f"{name}.bias", np.zeros(out_ch))

    # -- forward pieces -------------------------------------------------------

    def encode(self, images) -> ad.Tensor:
        """(B, H, W) or (H, W) normalized grayscale -> (B, R, F) annotation grid."""
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[None]
        x = ad.operand(images[:, None])                          # (B, 1, H, W)
        r = self.config.pooled_side
        with ad.FpTraps():
            # edge padding keeps constant images constant, so uniform inputs
            # yield identical region vectors after pooling
            for layer in ("encoder.conv1", "encoder.conv2", "encoder.conv3"):
                x = ad.relu(ad.conv2d(x, self._params[f"{layer}.weight"],
                                      self._params[f"{layer}.bias"]))
            pooled = ad.adaptive_avg_pool(x, r, r)               # (B, F, r, r)
        flat = pooled.reshape((images.shape[0], self.config.encoder_channels, r * r))
        return flat.transpose((0, 2, 1))                         # (B, R, F)

    @ad.executed
    def init_state(self, annotations: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        """Mean region vector through two separate one-layer tanh MLPs."""
        ops = ad.ops()
        mean = ops.reduce_mean(ops.operand(annotations), 1)  # (B, F)
        h = ops.tanh(self._apply_affine(ops, mean, "init_h"))
        c = ops.tanh(self._apply_affine(ops, mean, "init_c"))
        return h, c

    @ad.executed
    def _project_regions(self, annotations: ad.Tensor) -> ad.Tensor:
        """(B, R, F) annotations -> (B, R, attention_dim) region projections."""
        ops = ad.ops()
        annotations = ops.operand(annotations)
        b, r, f = annotations.shape
        flat = annotations.reshape((b * r, f))
        projected = self._apply_affine(ops, flat, "attn.regions")
        return projected.reshape((b, r, self.config.attention_dim))

    @ad.executed
    def step(self, annotations: ad.Tensor, tokens, h_prev: ad.Tensor, c_prev: ad.Tensor,
             proj_regions: ad.Tensor | None = None):
        """One decoder step, ``attend``, ``lstm_step`` and then
        ``output_distribution``; returns (h, c, alpha, probs).

        ``step`` is an ``ad.executed`` body: on the tape ops while a ``Tape``
        records (``sequence_loss``), on plain arrays otherwise (decoding),
        with the same bytes; its three parts run on its executor.
        """
        alpha, context = self.attend(annotations, h_prev, proj_regions)
        h, c = self.lstm_step(tokens, h_prev, c_prev, context)
        return h, c, alpha, self.output_distribution(h, context, tokens)

    def attend(self, annotations: ad.Tensor, h_prev: ad.Tensor,
               proj_regions: ad.Tensor | None = None):
        """Additive attention: score each region against the previous hidden
        state, softmax into weights, take the weighted sum of regions.
        ``proj_regions`` is the annotations' region projection when the
        caller already holds it (it depends on the annotations only).

        ``h_prev`` is (B, n), one row per image, or (K, B, n) with a leading
        beam axis over the same (B, R, F) annotations; every reduction runs
        on a trailing axis. Returns (alpha h_prev.shape[:-1] + (R,), context
        h_prev.shape[:-1] + (F,)).
        """
        ops = ad.ops()
        annotations, h_prev = ops.operand(annotations), ops.operand(h_prev)
        rows = h_prev.shape[:-1]
        r = annotations.shape[1]
        d = self.config.attention_dim
        proj_regions = (self._project_regions(annotations) if proj_regions is None
                        else ops.operand(proj_regions))
        proj_hidden = self._apply_affine(ops, h_prev, "attn.hidden").reshape(rows + (1, d))
        hidden = ops.relu(proj_regions + proj_hidden)                 # rows + (R, d)
        # the beam axis stays a leading matmul axis: each beam's (B*R, d)
        # product is then the one an unbatched step computes, bit for bit
        scores = self._apply_affine(ops, hidden.reshape(rows[:-1] + (rows[-1] * r, d)),
                                 "attn.score").reshape(rows + (r,))
        alpha = ops.softmax(scores, -1)
        context = (alpha.reshape(rows + (r, 1)) * annotations).sum(axis=-2)
        return alpha, context

    def lstm_step(self, tokens, h_prev: ad.Tensor, c_prev: ad.Tensor,
                  context: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
        """One decoder step: gates from the affine of [embedding, hidden,
        context], then the usual memory/hidden updates. ``tokens`` has the
        state's leading shape."""
        ops = ad.ops()
        h_prev, c_prev, context = (ops.operand(a) for a in (h_prev, c_prev, context))
        n = self.config.decoder_dim
        emb = ops.embedding_lookup(self._operand(ops, "embedding"),
                                   np.asarray(tokens, dtype=np.int64))
        z = self._apply_affine(ops, ops.concat([emb, h_prev, context], -1), "lstm")
        i = ops.sigmoid(ops.narrow(z, -1, 0, n))
        f = ops.sigmoid(ops.narrow(z, -1, n, n))
        o = ops.sigmoid(ops.narrow(z, -1, 2 * n, n))
        g = ops.tanh(ops.narrow(z, -1, 3 * n, n))
        c = f * c_prev + i * g
        h = o * ops.tanh(c)
        return h, c

    def output_distribution(self, h: ad.Tensor, context: ad.Tensor, tokens) -> ad.Tensor:
        """Next-word probabilities conditioned on hidden state, context vector
        and the previous word's embedding, over the last axis. Dropout hits
        the hidden state while a ``Tape`` records (training) only."""
        ops = ad.ops()
        h, context = ops.operand(h), ops.operand(context)
        hd = ops.dropout(h, self.config.dropout, self._rng)
        emb = ops.embedding_lookup(self._operand(ops, "embedding"),
                                   np.asarray(tokens, dtype=np.int64))
        mixed = (ops.matmul(hd, self._operand(ops, "out.l_h"))
                 + ops.matmul(context, self._operand(ops, "out.l_a")) + emb)
        return ops.softmax(ops.matmul(mixed, self._operand(ops, "out.l_o")), -1)

    # -- loss ------------------------------------------------------------------

    def sequence_loss(self, annotations: ad.Tensor, captions: np.ndarray) -> ad.Tensor:
        """Teacher-forced loss over a batch already sorted by decreasing length.

        captions: (B, L) ids starting with <start>; caption i makes
        ``caption_lengths(captions)[i]`` predictions (content tokens plus
        <end>). Step t feeds the ground-truth token t and scores only the
        captions still active, so padding never contributes. Loss = mean
        token NLL, plus the attention-coverage penalty
        sum_i (1 - sum_t alpha_ti)^2 per sample (averaged over the batch)
        when its weight is positive.
        """
        if captions.shape[0] == 0:
            raise ValueError("empty batch")
        lengths = caption_lengths(captions)
        if np.any(np.diff(lengths) > 0):
            raise ValueError("captions must be sorted by decreasing length")
        b = captions.shape[0]
        with ad.FpTraps():
            h, c = self.init_state(annotations)
            a_t = annotations
            total_nll = None
            count = 0
            alpha_steps: list[ad.Tensor] = []
            for t, bt in enumerate(effective_batch_sizes(lengths)):
                if bt < a_t.shape[0]:
                    a_t = ad.narrow(a_t, 0, 0, bt)
                    h = ad.narrow(h, 0, 0, bt)
                    c = ad.narrow(c, 0, 0, bt)
                h, c, alpha, probs = self.step(a_t, captions[:bt, t], h, c)
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

    def step_function(self, annotations: ad.Tensor, start_id: int):
        """Prefix-driven step function for ``decoding.decode``, plus its record.

        ``record[prefix]`` holds ``(h, c, alpha)``: the decoder state after
        consuming <start> and the prefix tokens, and the attention weights
        used to emit the token that follows the prefix. A prefix extends one
        already evaluated (the decoding prefix contract), so each step costs
        one attention and one LSTM step; the region projection and the
        initial state are computed once, here.

        ``step`` is ``decoding.deferred_step``: the first numpy conversion of
        a queued handle runs one attention, LSTM and output step over every
        queued prefix, their (1, n) states stacked on a leading beam axis, a
        lone prefix (every greedy step) as (1, 1, n). With no tape recording,
        the step runs on plain arrays (see ``step``), and the states pass
        from step to step as arrays, not scanned again.
        """
        proj_regions = self._project_regions(annotations)
        initial = tuple(t.data for t in self.init_state(annotations))
        record: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

        def evaluate(prefixes) -> np.ndarray:
            k = len(prefixes)
            states = [record[p[:-1]] if p else initial for p in prefixes]
            tokens = np.array([[p[-1] if p else start_id] for p in prefixes])
            # (K, 1, n): each beam's products stay the (1, n) ones
            h, c = (np.array([s[i] for s in states]) for i in (0, 1))
            out = self.step(annotations, tokens, h, c, proj_regions)
            h2, c2, alpha, probs = (t.data for t in out)
            alphas = alpha.reshape(k, -1)
            for i, prefix in enumerate(prefixes):
                record[prefix] = (h2[i], c2[i], alphas[i])
            return np.log(np.maximum(probs.reshape(k, -1), PROB_FLOOR))

        return decoding.deferred_step(evaluate), record

    def decode_caption(self, image, strategy: str = "greedy", beam_width: int = 5,
                       max_len: int | None = None, length_normalize: bool = True,
                       start_id: int = START_ID, end_id: int = END_ID):
        """Generate a caption for one image, given as an (H, W) array or as
        its annotation grid from ``encode``, which a caller may keep while the
        encoder is frozen. Returns (token ids without specials, attention
        weights per emitted token)."""
        if max_len is None:
            max_len = self.config.max_caption_len
        annotations = image if isinstance(image, ad.Tensor) else self.encode(np.asarray(image))
        step, record = self.step_function(annotations, start_id)
        ids = decoding.decode(step, max_len, end_id, strategy=strategy,
                              beam_width=beam_width, length_normalize=length_normalize)
        return ids, [record[tuple(ids[:i])][2] for i in range(len(ids))]


# ---------------------------------------------------------------------------
# teacher-forcing training loop


@dataclass
class CaptionExample:
    study_id: str
    image: np.ndarray            # (H, W) normalized
    caption: np.ndarray          # (L,) ids: <start>, content, <end>, padding


def caption_lengths(captions) -> np.ndarray:
    """Predictions each row of ``captions`` makes: the position of its last
    <end>, the terminator ``WordVocabulary.encode`` appends after the
    content tokens (a content token may itself be <end>). A row with no
    <end> after its first position raises ``ValueError``."""
    is_end = np.asarray(captions)[:, 1:] == END_ID
    ended = is_end.any(axis=1)
    if not ended.all():
        raise ValueError(f"caption {int(np.argmin(ended))} has no <end> after its first position")
    return is_end.shape[1] - np.argmax(is_end[:, ::-1], axis=1)


def sort_batch_by_length(captions: np.ndarray):
    """Stable decreasing-length order; returns (captions, order)."""
    order = np.argsort(-caption_lengths(captions), kind="stable")
    return captions[order], order


def effective_batch_sizes(sorted_lengths) -> list[int]:
    """Captions still active at each timestep, given decreasing lengths."""
    lengths = np.asarray(sorted_lengths)
    return [int(np.sum(lengths > t)) for t in range(int(lengths.max()))]


def make_optimizers(model: CaptionModel, cfg: RunConfig) -> dict[str, Adam]:
    """The run's optimizers from the ``sat_*`` keys, keyed by their prefix in
    ``sat-last.opt``: ``dec.`` over every parameter outside the encoder, and
    ``enc.`` over the last conv layer only when ``fine_tune_encoder`` is on."""
    params = model.parameters()
    optimizers = {"dec.": Adam([p for n, p in params.items() if not n.startswith("encoder.")],
                               cfg.sat_decoder_lr, cfg.sat_clip_norm)}
    if model.config.fine_tune_encoder:
        optimizers["enc."] = Adam([params["encoder.conv3.weight"], params["encoder.conv3.bias"]],
                                  cfg.sat_encoder_lr, cfg.sat_clip_norm)
    return optimizers


def trains_encoder(optimizers: dict) -> bool:
    """Whether any of ``optimizers`` holds an encoder parameter: the one
    record of whether an image's annotations can change during training."""
    return any(p.name.startswith("encoder.") for opt in optimizers.values() for p in opt.params)


def train_teacher_forcing(model: CaptionModel, examples: list[CaptionExample],
                          cfg: RunConfig, optimizers=None, epoch_callback=None,
                          shuffle_rng=None, trace=None, start_epoch: int = 0) -> list[float]:
    """Train with teacher forcing for ``cfg.sat_epochs`` epochs of
    ``cfg.sat_batch_size``; returns the per-batch loss trace.

    Each batch steps every value of ``optimizers``, by default
    ``make_optimizers(model, cfg)``. When no optimizer holds an encoder
    parameter (``trains_encoder``) the annotation grids are computed once up
    front (they cannot change), which keeps desk-scale runs fast; otherwise
    the encoder runs inside the tape every batch. ``shuffle_rng`` (by
    default seeded with ``cfg.seed``), ``trace`` and ``start_epoch`` go to
    ``optim.train_epochs``.
    """
    cfg.validate()
    if not examples:
        raise ValueError("no training examples")
    optimizers = optimizers or make_optimizers(model, cfg)
    if shuffle_rng is None:
        shuffle_rng = np.random.default_rng(cfg.seed)
    encoder_trains = trains_encoder(optimizers)
    # one image per call: a batched call would hold every image's
    # activation maps at once
    cached = None if encoder_trains else [model.encode(ex.image).data[0] for ex in examples]

    def batch_loss(idx):
        captions, sort_order = sort_batch_by_length(np.stack([examples[i].caption for i in idx]))
        sorted_idx = idx[sort_order]
        if encoder_trains:
            annotations = model.encode(np.stack([examples[i].image for i in sorted_idx]))
        else:
            annotations = ad.operand(np.stack([cached[i] for i in sorted_idx]))
        return model.sequence_loss(annotations, captions)

    return train_epochs(model, len(examples), batch_loss, list(optimizers.values()),
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
