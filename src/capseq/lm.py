"""Decoder-only transformer language model over byte-pair tokens.

Pre-norm residual blocks of masked self-attention plus a feed-forward net,
fed by token embeddings with fixed sinusoidal positional encodings. The
causal mask is strict: logits at position t depend only on tokens at
positions <= t, bit-exactly (masked scores sit at -1e30, which underflows to
an exact zero weight after the stabilized softmax).
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from . import decoding
from .config import LmConfig, RunConfig
from .optim import Adam, train_epochs
from .tokenizers import BpeVocabulary

logger = logging.getLogger(__name__)

LN_EPS = 1e-5
MASK_VALUE = -1e30
# Head width from which decoding runs every row. OpenBLAS computes the
# attention scores, whose keys are a transposed view, through kernels that
# change with the product's size and the keys' layout once the reduction over
# d_k holds 32 or more terms (scipy-openblas 0.3.31): score rows on whole tiles
# differed between windows of 34 and 35 tokens at d_k = 32, not at d_k = 31.
WIDE_HEAD_DIM = 32
# Windows whose keys and values decoding caches: a forward from cached rows
# keeps the full forward's bytes only while each reduction over the window's
# length groups its terms as it did when the rows were cached. Measured with
# numpy 2.4.6 and scipy-openblas 0.3.31:
# - OpenBLAS's small-matrix kernel sums fewer than 16 terms unlike 16 or more
#   for some output widths (the attention mix at d_k = 4 or 12, not at 8, 16 or
#   32), so rows cached from a window under 16 tokens can differ later;
# - numpy sums up to 128 numbers in one unrolled block (its pairwise-sum block)
#   and splits longer sums in halves, so the softmax row sums regroup past 128
#   tokens: a block-256 model's cached rows differed from row 129 on.
KV_CACHE_MIN_TOKENS = 16
KV_CACHE_MAX_TOKENS = 128


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


class TransformerLm(ad.ParameterStore):
    def __init__(self, config: LmConfig, vocab: BpeVocabulary, seed: int):
        config.validate()
        super().__init__(seed)
        self.config = config
        self.vocab = vocab
        self.vocab_size = len(vocab)
        self._positions = sinusoidal_positions(config.block_size, config.model_dim)

        d, f = config.model_dim, config.ffn_dim
        self._matrix("embedding", (self.vocab_size, d), scale=0.1)
        for layer in range(config.layers):
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

    def _norm(self, name):
        self._store(f"{name}.gain", np.ones(self.config.model_dim))
        self._store(f"{name}.bias", np.zeros(self.config.model_dim))

    def _layernorm(self, ops, x, name: str):
        mu = ops.reduce_mean(x, -1, True)
        centered = x - mu
        var = ops.reduce_mean(centered * centered, -1, True)
        inv = ops.powc(var + LN_EPS, -0.5)
        gain, bias = self._operand(ops, f"{name}.gain"), self._operand(ops, f"{name}.bias")
        return centered * inv * gain + bias

    def forward(self, ids, start: int = 0, past=None, present=None) -> ad.Tensor:
        """Token ids (T,) -> logits (T, vocab), or a batch (B, T) -> logits
        (B, T, vocab), with T <= block size. Every op reduces over the last
        axis or multiplies over the last two, so each row of a batch equals
        the forward of that sequence alone, bitwise.

        The body is ``ad.executed``: it runs on the tape ops while a
        ``Tape`` records (``loss`` and training), and on plain arrays
        otherwise (decoding), with the same bytes and, on a non-finite
        value, the tape ops' warning and error.

        With ``start`` > 0 only rows ``start..T-1`` of the logits are
        computed: (..., T - start, vocab). Earlier layers, and the last
        layer's keys and values, still run on all T rows; the last layer's
        queries, attention, projection and feed-forward net, the final norm
        and the head run on the tail rows only. Those rows equal
        ``forward(ids)[..., start:, :]`` bitwise when ``start`` is a multiple
        of 8, so the tail keeps OpenBLAS's 8-row tiles whole (unaligned
        starts were measured to differ), the tail holds at least 2 rows (a
        1-row product is a gemv), and no full-height product it cuts exceeds
        ``ad.SMALL_GEMM_MULADDS``, the head's aside: ``_tail_start`` picks
        such a row. When the head's full-height product exceeds the bound and
        the tail's would not, the head runs on T rows, the tail rows in their
        own places under zero rows, and its logits are narrowed to the tail,
        so the head's product has the full forward's shape.

        ``past``, given with ``start`` > 0, holds each layer's keys and values
        of rows ``0..start-1`` as arrays, (..., heads, d_k, start) and (...,
        heads, start, d_k). Then every layer runs on rows ``start..T-1`` only,
        attending over the cached and the new keys; ``ids[..., :start]`` are
        not read. The rows equal ``forward(ids)[..., start:, :]`` bitwise when
        ``start`` is ``_tail_start(T)`` and the cached rows came from forwards
        of the same tokens over windows of ``KV_CACHE_MIN_TOKENS`` to T tokens,
        with T at most ``KV_CACHE_MAX_TOKENS``, as ``step_function`` keeps
        them. A list given as ``present`` receives each layer's keys and
        values over all T rows, as arrays.
        """
        ids = self._check_ids(ids)
        t = ids.shape[-1]
        if not 0 <= start < t:
            raise ValueError(f"start row {start} outside a {t}-token input")
        cfg = self.config
        if past is not None and (not start or len(past) != cfg.layers
                                 or any(k.shape[-1] != start for k, _ in past)):
            raise ValueError(f"past must hold {cfg.layers} layers of keys and values "
                             f"for rows 0..{start - 1}")
        return self._forward(ids, start, past, present)

    @ad.executed
    def _forward(self, ids, start, past, present):
        ops = ad.ops()
        cfg = self.config
        t = ids.shape[-1]
        first = start if past is not None else 0  # first row that every layer computes
        x = (ops.embedding_lookup(self._operand(ops, "embedding"), ids[..., first:])
             + ops.operand(self._positions[first:t]))
        mask = ops.operand(np.triu(np.full((t - first, t), MASK_VALUE), k=1 + first))
        dk = cfg.model_dim // cfg.heads
        scale = 1.0 / np.sqrt(dk)
        # heads on a leading axis: q and v (..., h, T, d_k), K (..., h, d_k, T);
        # each head's slice views its own d_k columns, as a per-head slice would
        n = ids.ndim - 1
        head_major = (*range(n), n + 1, n, n + 2)
        key_major = (*range(n), n + 1, n + 2, n)
        split = q_split = ids.shape[:-1] + (t - first, cfg.heads, dk)
        kept = []
        for layer in range(cfg.layers):
            p = f"layer{layer}."
            normed = queries = self._layernorm(ops, x, p + "ln1")
            if start > first and layer == cfg.layers - 1:
                # from here on only the tail rows, but keys and values see all
                x, queries, mask = (ops.narrow(a, -2, start, t - start)
                                    for a in (x, normed, mask))
                q_split = ids.shape[:-1] + (t - start, cfg.heads, dk)
            q = self._apply_affine(ops, queries, p + "q").reshape(q_split).transpose(head_major)
            k = self._apply_affine(ops, normed, p + "k").reshape(split).transpose(key_major)
            v = self._apply_affine(ops, normed, p + "v").reshape(split).transpose(head_major)
            if past is not None:
                k = ops.concat([ops.operand(past[layer][0]), k], -1)
                v = ops.concat([ops.operand(past[layer][1]), v], -2)
            if present is not None:
                kept.append((k, v))
            weights = ops.softmax(ops.matmul(q, k) * scale + mask, -1)   # (..., h, T, T)
            heads = ops.matmul(weights, v).transpose(head_major).reshape(x.shape)
            x = x + self._apply_affine(ops, heads, p + "proj")
            normed = self._layernorm(ops, x, p + "ln2")
            hidden = ops.relu(self._apply_affine(ops, normed, p + "ffn1"))
            x = x + self._apply_affine(ops, hidden, p + "ffn2")
        x = self._layernorm(ops, x, "final_ln")
        if start and self._head_needs_full_height(t, start):
            # the tail rows in place under zero rows, so the head's product has the
            # full forward's shape; the bias goes on the tail rows only
            pad = ops.operand(np.zeros(x.shape[:-2] + (start, cfg.model_dim)))
            product = ops.matmul(ops.concat([pad, x], -2), self._operand(ops, "head.weight"))
            logits = ops.narrow(product, -2, start, t - start) + self._operand(ops, "head.bias")
        else:
            logits = self._apply_affine(ops, x, "head")
        if present is not None:
            present.extend((ops.array_of(k), ops.array_of(v)) for k, v in kept)
        return logits

    def _head_needs_full_height(self, t: int, start: int) -> bool:
        """Whether the head of a forward from row ``start`` runs on all T
        rows: the full forward's head product is above
        ``ad.SMALL_GEMM_MULADDS`` and the tail's own would fall under it, to
        the small-matrix kernel (measured: the desk head at T >= 93)."""
        per_row = self.config.model_dim * self.vocab_size
        return (t - start) * per_row <= ad.SMALL_GEMM_MULADDS < t * per_row

    def _tail_start(self, t: int) -> int:
        """First row of a T-token forward that decoding needs computed: the
        largest multiple of 8 at most T - 2, so the tail holds 2-9 rows on
        whole 8-row tiles. 0 (every row) when a full-height product the tail
        would cut, other than the head's, exceeds ``ad.SMALL_GEMM_MULADDS``:
        a tail under the bound goes to OpenBLAS's small-matrix kernel and can
        round unlike the full product. The head is left out because
        ``forward`` runs it at full height when its tail would fall under
        the bound (``_head_needs_full_height``). Also 0 when the heads are
        ``WIDE_HEAD_DIM`` or more wide. At ``full.cfg`` shape (d_k = 32) it
        is 0 for every T, so neither a tail nor the key/value cache of
        ``step_function`` applies there."""
        cfg = self.config
        dk = cfg.model_dim // cfg.heads
        # per slice: q, proj (d x d), ffn1/ffn2 (d x f), scores and mix (T x d_k)
        widest = t * max(cfg.model_dim * max(cfg.model_dim, cfg.ffn_dim), t * dk)
        if dk >= WIDE_HEAD_DIM or widest > ad.SMALL_GEMM_MULADDS:
            return 0
        return max(0, (t - 2) // ad.GEMM_TILE * ad.GEMM_TILE)

    def _check_ids(self, ids) -> np.ndarray:
        ids = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise ValueError(f"expected token ids of shape (T,) or (B, T), got shape {ids.shape}")
        if ids.ndim == 2 and ids.shape[0] == 0:
            raise ValueError(f"empty batch: token ids of shape {ids.shape}")
        if ids.shape[-1] == 0:
            raise ValueError(f"expected a non-empty token sequence, got shape {ids.shape}")
        if ids.shape[-1] > self.config.block_size:
            raise ValueError(
                f"input length {ids.shape[-1]} exceeds block size {self.config.block_size}"
            )
        return ids

    def loss(self, ids) -> ad.Tensor:
        """Mean next-token cross-entropy: positions 1..T-1 from their prefixes."""
        ids = self._check_ids(ids)
        if ids.ndim != 1:
            raise ValueError(f"loss scores one (T,) token sequence, got shape {ids.shape}")
        if ids.size < 2:
            raise ValueError("need at least 2 tokens to score next-token prediction")
        logits = self.forward(ids)
        logprobs = ad.log_softmax(logits, axis=1)
        preds = ad.narrow(logprobs, 0, 0, ids.size - 1)
        picked = ad.pick(preds, ids[1:])
        return -picked.mean()

    # -- generation -------------------------------------------------------------

    def step_function(self, seed_ids: list[int]):
        """Next-token log-probabilities given seed + generated prefix, for
        ``decoding.decode``. The seed must leave room for one token; when the
        context outgrows the block size the window slides left.

        ``step`` is ``decoding.deferred_step``: a call queues the prefix, and
        the first numpy conversion of any queued handle runs one ``forward``
        over every queued window, stacked as (B, T), a lone greedy window as
        (1, T). With no tape recording, the forward runs on plain arrays (see
        ``forward``), and the step's log-softmax is one call over the
        stacked last rows. The queued windows must share one length, as the
        prefixes of one decoding step do: greedy converts each step at once,
        and a beam step queues all its live prefixes before converting any,
        so the whole step is one forward. Windows of mixed lengths do not
        stack: their conversion raises ``ValueError``.

        Only the last row of the logits is read, so each forward starts at
        ``_tail_start(T)``: the largest multiple of 8 at most T - 2, whose
        2-9 tail rows equal the full forward's bitwise, or row 0 when a
        product other than the head's would fall under OpenBLAS's
        small-matrix bound in the tail while the full product is above it,
        or when the heads are ``WIDE_HEAD_DIM`` wide or wider. At desk dims
        the head passes the bound from T = 93 on; it then runs at full
        height (see ``forward``), and the tail and the cache still apply.

        The step function keeps, for the prefixes of the last evaluated step
        only, every layer's keys and values of rows ``0..8*(T//8)-1``, whole
        8-row tiles. When every queued prefix's parent is among them and the
        tail starts after row 0, the forward takes those rows as ``past`` and
        runs every layer on the tail rows only. A step keeps its rows when
        its window holds ``KV_CACHE_MIN_TOKENS`` tokens or more and the next
        window, one token longer, neither slides nor exceeds
        ``KV_CACHE_MAX_TOKENS``. So at desk and fit dims every step whose
        window holds 17 to 128 tokens and does not slide runs from the cache,
        when its parents come from the step before. At ``full.cfg`` shape
        (d_k = 32) ``_tail_start`` is 0 for every T, so neither the tail nor
        the cache applies there.
        """
        block = self.config.block_size
        if len(seed_ids) >= block:
            raise ValueError(f"seed length {len(seed_ids)} already at block size {block}")
        seed = np.asarray(seed_ids, dtype=np.int64)

        # the last evaluated step's prefixes, each with its batch row, and each
        # layer's keys and values of their windows over whole 8-row tiles
        rows: dict[tuple[int, ...], int] = {}
        cache: list[tuple[np.ndarray, np.ndarray]] = []

        def evaluate(prefixes) -> np.ndarray:
            """Each window's next-token log-probabilities, one row per
            prefix, from its parent's cached keys and values when every
            parent has them; keeps this step's in their place."""
            t = len(seed) + len(prefixes[0])
            start = self._tail_start(min(t, block))
            parents = [rows.get(p[:-1]) if p else None for p in prefixes]
            past = None
            if start and None not in parents:
                past = [(k[parents, ..., :start], v[parents, ..., :start, :]) for k, v in cache]
            keep = KV_CACHE_MIN_TOKENS <= t < min(block, KV_CACHE_MAX_TOKENS)
            present = [] if keep else None
            # (B, T) windows, seed + prefix cut to the block; mixed lengths raise ValueError
            tails = np.array(prefixes, dtype=np.int64).reshape(len(prefixes), -1)[:, -block:]
            head = seed[max(0, len(seed) + tails.shape[1] - block):]
            ids = np.concatenate((np.broadcast_to(head, (len(tails), len(head))), tails), 1)
            last = self.forward(ids, start, past, present).data[:, -1]
            rows.clear()
            cache.clear()
            if keep:
                tiles = t // ad.GEMM_TILE * ad.GEMM_TILE
                rows.update((p, i) for i, p in enumerate(prefixes))
                cache.extend((k[..., :tiles], v[..., :tiles, :]) for k, v in present)
            return ad._log_softmax(last, axis=-1)

        return decoding.deferred_step(evaluate)


# ---------------------------------------------------------------------------
# self-supervised training


def build_token_stream(lines: list[str], vocab: BpeVocabulary) -> list[int]:
    """Encode one report per line, appending the end-of-text terminator."""
    stream: list[int] = []
    for line in lines:
        stream.extend(vocab.encode(line))
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
    return Adam(list(model.parameters().values()), cfg.lm_lr, cfg.lm_clip_norm)


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
