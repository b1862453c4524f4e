"""Greedy and K-beam sequence decoding, plus the two-stage pipeline that
chains the caption model's output into the language model.

A decoder is driven by a *step function* ``step(prefix) -> log-probs`` giving
next-token log-probabilities for the tokens generated so far; the fixed
conditioning (image annotations, language-model seed) lives in the closure.
``decode`` is the one entry point both models use: greedy, or beam search
followed by the selection of one ranked beam.

A step may return its log-probabilities eagerly, as an array, or deferred, as
a handle that ``np.asarray`` converts. Both models defer: their step functions
are ``deferred_step`` over a batched evaluation, which queues each prefix and
evaluates everything queued on the first conversion. Greedy converts every
result at once; beam search queues all the unseen live prefixes of a step,
which have one length, before it converts any, so the step costs one batched
evaluation.

Prefix contract: the first call is ``step(())``, and every later prefix is an
earlier-evaluated prefix extended by one token. Greedy and beam search only
ever extend a prefix they have already evaluated, so a step function may keep
per-prefix state (the caption model keeps its LSTM state and attention
weights) and look up ``prefix[:-1]`` instead of recomputing it.

``beam_search(K)`` runs one standard beam pass per width 1..K and ranks the
union of everything found. A single fixed-width pass can evict the eventual
best sequence and end up strictly worse than a narrower search; pooling the
widths makes the top score monotone in K and never below the greedy result.
The passes run in lockstep, one step at a time. A pass is a plain list of
(cumulative log-probability, tokens, finished) triples; ``Beam`` objects are
built only for the final pool, which is filled in width order. At a step every
live prefix has the step's length, so the step's distinct prefixes are
evaluated once, in the order the passes hold them (width order, then beam
order), and shared by every pass.

Selection rule of a pass: at each step the candidates are laid out in
generation order, beam-major and token-minor (a finished beam is one
candidate, itself; a live beam is one candidate per token id), and the
``width`` with the highest cumulative log-probability survive. Ties keep
generation order: the earlier beam first, then the lower token id. The pick
equals a stable sort of every candidate cut to ``width``, but sorts only a
few: once per step, ``np.partition`` finds the w-th best score in each
evaluated prefix's row, w the width of the widest live pass, and each pass
stable-sorts only the tokens at or above it, the only ones it can keep. A
candidate's score is its parent's cumulative log-probability plus the
token's, one IEEE addition, the same in every pass that holds the parent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .config import RunConfig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Beam:
    """A (possibly finished) hypothesis. ``tokens`` includes the terminator
    when finished, so the cumulative log-probability is exactly the sum of
    the per-step log-probabilities of the tokens held."""

    tokens: tuple[int, ...]
    logprob: float
    finished: bool

    def score(self, length_normalize: bool) -> float:
        if length_normalize and self.tokens:
            return self.logprob / len(self.tokens)
        return self.logprob


class PendingLogprobs:
    """One queued step result; ``np.asarray`` on it runs the queued batch."""

    __slots__ = ("_flush", "value")

    def __init__(self, flush):
        self._flush = flush
        self.value: np.ndarray | None = None

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self.value is None:
            self._flush()
        value = self.value if dtype is None else self.value.astype(dtype, copy=False)
        return value.copy() if copy else value


def deferred_step(evaluate):
    """A deferring step function over ``evaluate(prefixes) -> rows``.

    ``step(prefix)`` queues the prefix and returns a ``PendingLogprobs``. The
    first conversion of any queued handle calls ``evaluate`` once with every
    queued prefix, in queue order, a lone prefix (every greedy step) too, and
    fills each handle with its row of log-probabilities.
    """
    queue: list[tuple[tuple[int, ...], PendingLogprobs]] = []

    def flush() -> None:
        rows = evaluate([prefix for prefix, _ in queue])
        for row, (_, handle) in zip(rows, queue):
            handle.value = row
        queue.clear()

    def step(prefix) -> PendingLogprobs:
        handle = PendingLogprobs(flush)
        queue.append((tuple(prefix), handle))
        return handle

    return step


def greedy_decode(step_fn, max_len: int, end_token: int | None = None) -> list[int]:
    """Argmax token per step (ties to the lowest id); stops at the end token
    or after max_len emissions. The terminator is not returned."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    prefix: tuple[int, ...] = ()
    for _ in range(max_len):
        logprobs = np.asarray(step_fn(prefix))
        token = int(np.argmax(logprobs))
        if end_token is not None and token == end_token:
            break
        prefix = prefix + (token,)
    return list(prefix)


def _shortlists(rows: dict, width: int, end_token: int | None) -> dict:
    """The candidates of each evaluated prefix that a pass of at most
    ``width`` beams can keep. ``rows`` maps each prefix to its next-token
    log-probabilities and its own cumulative log-probability; a shortlist
    holds, in token order, every token whose candidate score is at or above
    the row's ``width``-th best (every token of a row shorter than
    ``width``), as the extended beam (score, tokens, finished). Any other
    token has ``width`` better candidates in its own row, so no pass keeps
    it."""
    prefixes = list(rows)
    scores = (np.array([logprob for _, logprob in rows.values()])[:, None]
              + np.array([row for row, _ in rows.values()]))
    kth = max(scores.shape[1] - width, 0)
    cut = np.partition(scores, kth, axis=1)[:, kth]
    owners, tokens = np.nonzero(scores >= cut[:, None])
    edges = np.searchsorted(owners, np.arange(len(prefixes) + 1)).tolist()
    picked = list(zip(scores[owners, tokens].tolist(), tokens.tolist()))
    return {prefix: [(score, prefix + (token,), token == end_token)
                     for score, token in picked[edges[i]:edges[i + 1]]]
            for i, prefix in enumerate(prefixes)}


def _advance(beams: list, width: int, shortlists: dict) -> list:
    """One step of a standard beam pass over (cumulative log-probability,
    tokens, finished) beams: every live beam extended by the tokens of its
    shortlist, top-``width`` by cumulative log-probability kept; finished
    beams are held and count against the width."""
    candidates = []  # in generation order (see the module docstring)
    for beam in beams:
        if beam[2]:
            candidates.append(beam)
        else:
            candidates.extend(shortlists[beam[1]])
    return sorted(candidates, key=itemgetter(0), reverse=True)[:width]  # stable


def beam_search(step_fn, k: int, max_len: int, end_token: int | None = None,
                length_normalize: bool = True) -> list[Beam]:
    """Return up to K beams sorted by descending score.

    Scores are length-normalized (cumulative log-probability / token count)
    unless ``length_normalize`` is off, in which case raw cumulative
    log-probability ranks the output.
    """
    if k < 1:
        raise ValueError(f"beam width must be at least 1, got {k}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    first = np.asarray(step_fn(()), dtype=np.float64)
    reachable = first.shape[0] ** max_len
    if k > reachable:
        logger.warning("beam width %d exceeds the %d reachable sequences; clamping", k, reachable)
        k = reachable
    passes = {width: [(0.0, (), False)] for width in range(1, k + 1)}
    rows = {(): (first, 0.0)}  # this step's prefixes: (log-probabilities, cumulative)
    for length in range(max_len):
        live = [width for width, beams in passes.items() if not all(b[2] for b in beams)]
        if not live:
            break
        if length:
            # every live prefix holds `length` tokens, so none was evaluated
            # yet; queue them all before converting any, so a deferring step
            # function can evaluate them as one batch
            queued = {}
            for width in live:
                for logprob, prefix, finished in passes[width]:
                    if not (finished or prefix in queued):
                        queued[prefix] = (step_fn(prefix), logprob)
            rows = {prefix: (np.asarray(result, dtype=np.float64), logprob)
                    for prefix, (result, logprob) in queued.items()}
        shortlists = _shortlists(rows, max(live), end_token)
        for width in live:
            passes[width] = _advance(passes[width], width, shortlists)
    pool: dict[tuple[int, ...], Beam] = {}
    for beams in passes.values():
        for logprob, tokens, finished in beams:
            pool.setdefault(tokens, Beam(tokens, logprob, finished))
    ranked = sorted(pool.values(), key=lambda b: (-b.score(length_normalize), b.tokens))
    return ranked[:k]


def select_beam(beams: list[Beam], rank: int, end_token: int | None = None) -> list[int]:
    """1-indexed selection from a ranked beam list; strips the terminator."""
    if not 1 <= rank <= len(beams):
        raise ValueError(f"beam rank {rank} out of range [1, {len(beams)}]")
    tokens = list(beams[rank - 1].tokens)
    if end_token is not None and tokens and tokens[-1] == end_token:
        tokens.pop()
    return tokens


def decode(step_fn, max_len: int, end_token: int | None, strategy: str = "greedy",
           beam_width: int = 1, rank: int = 1, length_normalize: bool = True) -> list[int]:
    """Token ids without the terminator: the greedy ids, or else beam
    ``min(rank, len(beams))`` of a ``beam_width`` search (``[]`` when the
    search finds no beam)."""
    if strategy == "greedy":
        return greedy_decode(step_fn, max_len, end_token=end_token)
    if strategy == "beam":
        beams = beam_search(step_fn, beam_width, max_len, end_token=end_token,
                            length_normalize=length_normalize)
        return select_beam(beams, min(rank, len(beams)), end_token) if beams else []
    raise ValueError(f"unknown decode strategy {strategy!r}")


# ---------------------------------------------------------------------------
# two-stage pipeline

LM_START_MARKER = "<start>"


def lm_seed(text: str, bpe_vocab, block_size: int) -> list[int]:
    """The language model's seed for a text: the BPE encoding of the text
    plus the start marker, cut to its last ``block_size - 1`` ids so that a
    long text keeps the most recent context and one token still fits."""
    ids = list(bpe_vocab.encode(text + " " + LM_START_MARKER))
    return ids[-(block_size - 1):]


@dataclass
class PipelineOutput:
    study_id: str
    seed_tokens: list[str]
    continuation_text: str
    combined_text: str
    attention_weights: list[np.ndarray] = field(default_factory=list)

    @property
    def seed_text(self) -> str:
        return " ".join(self.seed_tokens)


def two_stage_generate(image: np.ndarray, captioner, word_vocab, lm, bpe_vocab,
                       cfg: RunConfig, study_id: str = "") -> PipelineOutput:
    """Caption the image, then let the language model continue the text.

    The caption seed is detokenized and ``lm_seed`` turns it into the
    language model's seed, which the model continues with a beam search until
    it emits its end-of-text token or hits the cap. The combined report is
    the seed text plus the continuation separated by one space; per-step
    caption attention weights ride along for heatmap export. With ``lm``
    None the report is the caption alone. Both stages search with
    ``cfg.beam_width``; the continuation is taken from beam ``cfg.lm_rank``.
    """
    cfg.validate()
    seed_ids, alphas = captioner.decode_caption(
        image,
        strategy=cfg.decode_strategy,
        beam_width=cfg.beam_width,
        max_len=cfg.sat_max_caption_len,
        length_normalize=cfg.length_normalize,
    )
    seed_tokens = word_vocab.decode(seed_ids)
    if not seed_tokens:
        logger.warning("caption model produced an empty seed for %r; skipping LM stage", study_id)
        return PipelineOutput(study_id, [], "", "", [])
    out = PipelineOutput(study_id, seed_tokens, "", " ".join(seed_tokens), list(alphas))
    if lm is None:
        return out
    continuation_ids = decode(
        lm.step_function(lm_seed(out.seed_text, bpe_vocab, lm.config.block_size)),
        cfg.lm_max_new,
        bpe_vocab.end_of_text_id,
        strategy="beam",
        beam_width=cfg.beam_width,
        rank=cfg.lm_rank,
        length_normalize=cfg.length_normalize,
    )
    continuation = bpe_vocab.decode(continuation_ids).strip()
    out.continuation_text = continuation
    if continuation:
        out.combined_text = out.seed_text + " " + continuation
    return out
