"""Independent reference implementations used as test oracles.

Everything here is deliberately written as straight-line, brute-force code
with no imports from the modules it checks: finite differences for
gradients, exhaustive enumeration for beam search, sliding-window counting
for BPE, dictionary arithmetic for the NLG metrics, and a plain-numpy
transformer forward pass.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

from capseq import autodiff as ad


# ---------------------------------------------------------------------------
# gradients


def finite_difference_gradients(compute_loss, params, eps=1e-5):
    """Central differences per component; params is a list of (name, Parameter)."""
    out = {}
    for name, p in params:
        flat = p.data.reshape(-1)
        grad = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = compute_loss().item()
            flat[i] = orig - eps
            lo = compute_loss().item()
            flat[i] = orig
            grad[i] = (hi - lo) / (2 * eps)
        out[name] = grad.reshape(p.data.shape)
    return out


def worst_relative_error(ad_grads, fd_grads, floor=1e-6):
    worst = 0.0
    worst_name = None
    for name, fd in fd_grads.items():
        ag = ad_grads[name]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(ag)), floor)
        err = float((np.abs(fd - ag) / denom).max())
        if err > worst:
            worst, worst_name = err, name
    return worst, worst_name


def relu_kink_margin(fn):
    """Smallest |pre-activation| any relu sees while running fn.

    A finite-difference check is only meaningful when no relu input sits
    inside the perturbation window, so instances are screened with this
    before the oracle runs. ``fn`` runs under a recording tape, so the model
    bodies run on the tape ops, whose ``relu`` the spy replaces.
    """
    orig = ad.relu
    closest = [np.inf]
    calls = [0]

    def spy(x):
        calls[0] += 1
        if x.data.size:
            closest[0] = min(closest[0], float(np.abs(x.data).min()))
        return orig(x)

    ad.relu = spy
    try:
        with ad.Tape():
            fn()
    finally:
        ad.relu = orig
    assert calls[0], "no relu ran"
    return closest[0]


# ---------------------------------------------------------------------------
# byte-pair encoding


def sliding_pair_counts(symbols):
    counts = {}
    for i in range(len(symbols) - 1):
        pair = (symbols[i], symbols[i + 1])
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def replay_merges(text: str, merges) -> list[bytes]:
    """Apply each learned merge across the whole symbol string, in order."""
    symbols = [bytes([b]) for b in text.encode("utf-8")]
    for left, right in merges:
        merged = left + right
        out = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return symbols


# ---------------------------------------------------------------------------
# decoding


def enumerate_sequences(step_fn, vocab_size: int, length: int):
    """Score every vocab_size**length sequence by summed log-probabilities."""
    scored = []

    def extend(prefix, logprob):
        if len(prefix) == length:
            scored.append((prefix, logprob))
            return
        lp = step_fn(prefix)
        for tok in range(vocab_size):
            extend(prefix + (tok,), logprob + float(lp[tok]))

    extend((), 0.0)
    return scored


def _pass_step(beams, width, step_fn, end_token):
    """One step of a pass, one Python candidate per token: every live beam
    extended by every token, finished beams held, the candidates
    stable-sorted by cumulative log-probability (ties keep generation order)
    and the top ``width`` kept."""
    candidates = []
    for tokens, logprob, finished in beams:
        if finished:
            candidates.append((tokens, logprob, finished))
            continue
        lp = step_fn(tokens)
        for tok in range(len(lp)):
            candidates.append((tokens + (tok,), logprob + float(lp[tok]),
                               end_token is not None and tok == end_token))
    candidates.sort(key=lambda c: -c[1])
    return candidates[:width]


def pooled_beam_search(step_fn, k, max_len, end_token=None, length_normalize=True):
    """Pooled-width beam search with one Python candidate per token.

    Returns (tokens, logprob, finished) triples, best first. Each pass
    extends every live beam by every token, holds finished beams in place,
    stable-sorts the candidates by cumulative log-probability (ties keep
    generation order) and keeps the top `width`; the union of the passes for
    widths 1..k is ranked by (score, tokens).
    """
    vocab = len(step_fn(()))
    k = min(k, vocab ** max_len)
    pool = {}
    for width in range(1, k + 1):
        beams = [((), 0.0, False)]
        for _ in range(max_len):
            if all(finished for _, _, finished in beams):
                break
            beams = _pass_step(beams, width, step_fn, end_token)
        for beam in beams:
            if beam[0]:
                pool.setdefault(beam[0], beam)

    def score(beam):
        tokens, logprob, _ = beam
        return logprob / len(tokens) if length_normalize and tokens else logprob

    return sorted(pool.values(), key=lambda b: (-score(b), b[0]))[:k]


def lockstep_step_prefixes(step_fn, k, max_len, end_token=None):
    """The prefixes a lockstep pooled search asks its step function for, in
    order: ``()`` first; then, one step at a time, for each width 1..k whose
    pass has a live beam, the tokens of each of its live beams in the pass's
    order, each prefix once. The passes advance as in
    ``pooled_beam_search``; ``step_fn`` itself is not recorded."""
    vocab = len(step_fn(()))
    k = min(k, vocab ** max_len)
    passes = {width: [((), 0.0, False)] for width in range(1, k + 1)}
    asked = [()]
    for _ in range(max_len):
        live = [width for width, beams in passes.items()
                if not all(finished for _, _, finished in beams)]
        for width in live:
            for tokens, _, finished in passes[width]:
                if not finished and tokens not in asked:
                    asked.append(tokens)
        for width in live:
            passes[width] = _pass_step(passes[width], width, step_fn, end_token)
    return asked


# ---------------------------------------------------------------------------
# metrics


def brute_bleu(pairs, n):
    """Corpus BLEU recomputed with dictionary arithmetic."""
    log_precisions = []
    for k in range(1, n + 1):
        matched = 0
        attempted = 0
        for cand, refs in pairs:
            grams = [tuple(cand[i:i + k]) for i in range(len(cand) - k + 1)]
            cand_counts = Counter(grams)
            limits = {}
            for ref in refs:
                rc = Counter(tuple(ref[i:i + k]) for i in range(len(ref) - k + 1))
                for g, c in rc.items():
                    limits[g] = max(limits.get(g, 0), c)
            attempted += len(grams)
            matched += sum(min(c, limits.get(g, 0)) for g, c in cand_counts.items())
        if attempted == 0 or matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / attempted))
    c_total = sum(len(cand) for cand, _ in pairs)
    r_total = 0
    for cand, refs in pairs:
        r_total += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    bp = math.exp(1 - r_total / c_total) if c_total < r_total else 1.0
    return bp * math.exp(sum(log_precisions) / n)


def brute_lcs(a, b):
    """LCS by full-table DP over the other orientation than the tested code."""
    table = [[0] * (len(a) + 1) for _ in range(len(b) + 1)]
    for j in range(1, len(b) + 1):
        for i in range(1, len(a) + 1):
            if b[j - 1] == a[i - 1]:
                table[j][i] = table[j - 1][i - 1] + 1
            else:
                table[j][i] = max(table[j - 1][i], table[j][i - 1])
    return table[len(b)][len(a)]


def brute_rouge_l(pairs, beta=1.2):
    scores = []
    for cand, refs in pairs:
        best = 0.0
        for ref in refs:
            if not cand or not ref:
                continue
            lcs = brute_lcs(cand, ref)
            if lcs == 0:
                continue
            p = lcs / len(cand)
            r = lcs / len(ref)
            best = max(best, (1 + beta ** 2) * p * r / (r + beta ** 2 * p))
        scores.append(best)
    return sum(scores) / len(scores)


def brute_cider(pairs, max_order=4):
    """CIDEr over dense vectors in an enumerated n-gram universe."""
    n_docs = len(pairs)
    total = 0.0
    for k in range(1, max_order + 1):
        def grams(tokens):
            return [tuple(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]

        universe = sorted({g for cand, refs in pairs for seq in [cand, *refs] for g in grams(seq)})
        index = {g: i for i, g in enumerate(universe)}
        df = np.zeros(len(universe))
        for _, refs in pairs:
            seen = {g for ref in refs for g in grams(ref)}
            for g in seen:
                df[index[g]] += 1
        idf = np.log(n_docs / np.maximum(1.0, df)) if len(universe) else np.zeros(0)

        def vec(tokens):
            v = np.zeros(len(universe))
            for g in grams(tokens):
                v[index[g]] += 1
            return v * idf

        for cand, refs in pairs:
            cv = vec(cand)
            cn = np.linalg.norm(cv)
            sim = 0.0
            for ref in refs:
                rv = vec(ref)
                rn = np.linalg.norm(rv)
                if cn > 0 and rn > 0:
                    sim += float(cv @ rv) / (cn * rn)
            total += sim / len(refs)
    return 10.0 * total / (max_order * n_docs)


# ---------------------------------------------------------------------------
# convolution


def full_im2col_conv2d(x, weight, bias):
    """``autodiff.conv2d`` as it was before its forward went in bands: one
    ``(N, C_in*kh*kw, H*W)`` im2col buffer for the whole batch and one
    broadcast product, recorded on the active tape with the same VJP."""
    x, weight, bias = (t if isinstance(t, ad.Tensor) else ad.Tensor(t) for t in (x, weight, bias))
    c_out, c_in, kh, kw = weight.shape
    h, w = x.shape[-2:]
    pt, pb = (kh - 1) // 2, kh // 2
    pl, pr = (kw - 1) // 2, kw // 2
    images = x.data.reshape((-1, c_in, h, w))
    padded = np.pad(images, ((0, 0), (0, 0), (pt, pb), (pl, pr)), mode="edge")
    col = np.empty((len(images), c_in, kh, kw, h, w))
    for dy in range(kh):
        for dx in range(kw):
            col[:, :, dy, dx] = padded[:, :, dy:dy + h, dx:dx + w]
    colm = col.reshape(len(images), c_in * kh * kw, h * w)
    wflat = weight.data.reshape(c_out, c_in * kh * kw)
    out = ad.Tensor((wflat @ colm + bias.data[:, None]).reshape(x.shape[:-3] + (c_out, h, w)))

    def vjp(g):
        gflat = g.reshape(len(images), c_out, h * w)
        gb = functools.reduce(np.add, gflat.sum(axis=2)[::-1])
        gw = functools.reduce(np.add, (gflat @ colm.mT)[::-1]).reshape(weight.shape)
        gcol = (wflat.T @ gflat).reshape(col.shape)
        gpad = np.zeros_like(padded)
        for dy in range(kh):
            for dx in range(kw):
                gpad[:, :, dy:dy + h, dx:dx + w] += gcol[:, :, dy, dx]
        rows = np.clip(np.arange(h + pt + pb) - pt, 0, h - 1)
        cols = np.clip(np.arange(w + pl + pr) - pl, 0, w - 1)
        gx = np.zeros_like(images)
        np.add.at(gx, (..., rows[:, None], cols[None, :]), gpad)
        return gx.reshape(x.shape), gw, gb

    ad._record(out, (x, weight, bias), vjp)
    return out


# ---------------------------------------------------------------------------
# caption attention


def replay_caption_attention(model, annotations, ids, start_id=1):
    """Re-run the caption decoder over a fixed output sequence from <start>,
    collecting the attention weights used to emit each token."""
    h, c = model.init_state(annotations)
    alphas = []
    for token in ([start_id] + list(ids))[:len(ids)]:
        alpha, context = model.attend(annotations, h)
        h, c = model.lstm_step(np.array([token]), h, c, context)
        alphas.append(alpha.data[0].copy())
    return alphas


def eager_caption_step(model, annotations, start_id=1, floor=1e-12):
    """The caption step function evaluated one prefix per call, on (1, n)
    state and on the tape ops (each step under a recording tape):
    ``(step, record)`` as ``CaptionModel.step_function`` returns them, with
    every step eager."""
    with ad.Tape():
        proj_regions = model._project_regions(annotations)
    record = {}

    def step(prefix):
        prefix = tuple(prefix)
        with ad.Tape():
            if prefix:
                h, c, _ = record[prefix[:-1]]
                h, c, token = ad.operand(h), ad.operand(c), prefix[-1]
            else:
                (h, c), token = model.init_state(annotations), start_id
            alpha, context = model.attend(annotations, h, proj_regions)
            h2, c2 = model.lstm_step(np.array([token]), h, c, context)
            probs = model.output_distribution(h2, context, np.array([token]))
        record[prefix] = (h2.data, c2.data, alpha.data[0])
        return np.log(np.maximum(probs.data[0], floor))

    return step, record


# ---------------------------------------------------------------------------
# image resampling


def gather_bilinear(image, out_h, out_w):
    """Half-pixel-centered bilinear resampling, four 2-D gathers over the
    full output: each output pixel blends its top and bottom source rows,
    each of those blended between its left and right source columns."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


# ---------------------------------------------------------------------------
# PGM rasters


def scan_pgm_tokens(data: bytes):
    """(token, end offset) pairs of a PGM byte string, scanned byte by byte:
    whitespace is what ``bytes.isspace`` accepts, and a "#" that starts a
    token starts a comment running to the end of its line."""
    out = []
    i = 0
    while i < len(data):
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            out.append((data[i:j], j))
            i = j
    return out


def per_pixel_p2(values01, maxval=255):
    """P2 bytes of a [0, 1] grid, one ``str`` per sample."""
    arr = np.asarray(values01, dtype=np.float64)
    quantized = np.clip(np.rint(arr * maxval), 0, maxval).astype(np.int64)
    lines = ["P2", f"{arr.shape[1]} {arr.shape[0]}", str(maxval)]
    for row in quantized:
        lines.append(" ".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# transformer forward


def straightline_lm_logits(model, ids):
    """Plain-numpy mirror of the documented block wiring, no tape involved."""
    cfg = model.config
    P = {k: p.data for k, p in model.parameters().items()}
    t = len(ids)
    pos = model._positions[:t]
    x = P["embedding"][np.asarray(ids)] + pos

    def layernorm(v, name):
        mu = v.mean(axis=1, keepdims=True)
        cen = v - mu
        var = (cen * cen).mean(axis=1, keepdims=True)
        return cen / np.sqrt(var + 1e-5) * P[f"{name}.gain"] + P[f"{name}.bias"]

    def softmax_rows(m):
        e = np.exp(m - m.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    dk = cfg.model_dim // cfg.heads
    mask = np.triu(np.full((t, t), -1e30), k=1)
    for layer in range(cfg.layers):
        p = f"layer{layer}."
        normed = layernorm(x, p + "ln1")
        q = normed @ P[p + "q.weight"] + P[p + "q.bias"]
        k = normed @ P[p + "k.weight"] + P[p + "k.bias"]
        v = normed @ P[p + "v.weight"] + P[p + "v.bias"]
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * dk, (h + 1) * dk)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk) + mask
            heads.append(softmax_rows(scores) @ v[:, sl])
        x = x + np.concatenate(heads, axis=1) @ P[p + "proj.weight"] + P[p + "proj.bias"]
        normed = layernorm(x, p + "ln2")
        hidden = np.maximum(normed @ P[p + "ffn1.weight"] + P[p + "ffn1.bias"], 0.0)
        x = x + hidden @ P[p + "ffn2.weight"] + P[p + "ffn2.bias"]
    x = layernorm(x, "final_ln")
    return x @ P["head.weight"] + P["head.bias"]


def tape_lm_logits(model, ids):
    """The LM forward over every row of a (T,) window, written directly
    against the tape ops in the model's op order: the reference for the
    tape executor's records and gradients."""
    cfg = model.config
    P = model.parameters()
    t = len(ids)
    dk = cfg.model_dim // cfg.heads
    split = (t, cfg.heads, dk)

    def layernorm(v, name):
        mu = v.mean(axis=-1, keepdims=True)
        centered = ad.sub(v, mu)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = ad.powc(ad.add(var, 1e-5), -0.5)
        return centered * inv * P[f"{name}.gain"] + P[f"{name}.bias"]

    def affine(v, name):
        return v @ P[f"{name}.weight"] + P[f"{name}.bias"]

    with ad.FpTraps():
        x = ad.embedding_lookup(P["embedding"], ids) + ad.operand(model._positions[:t])
        mask = ad.operand(np.triu(np.full((t, t), -1e30), k=1))
        for layer in range(cfg.layers):
            p = f"layer{layer}."
            normed = layernorm(x, p + "ln1")
            q = affine(normed, p + "q").reshape(split).transpose((1, 0, 2))
            k = affine(normed, p + "k").reshape(split).transpose((1, 2, 0))
            v = affine(normed, p + "v").reshape(split).transpose((1, 0, 2))
            weights = ad.softmax((q @ k) * (1.0 / np.sqrt(dk)) + mask, axis=-1)
            heads = (weights @ v).transpose((1, 0, 2)).reshape(x.shape)
            x = x + affine(heads, p + "proj")
            normed = layernorm(x, p + "ln2")
            x = x + affine(ad.relu(affine(normed, p + "ffn1")), p + "ffn2")
        return affine(layernorm(x, "final_ln"), "head")
