"""Greedy and K-beam sequence decoding, plus the two-stage pipeline that
chains the caption model's output into the language model.

A decoder is driven by a *step function* ``step(prefix) -> log-probs`` giving
next-token log-probabilities for the tokens generated so far; the fixed
conditioning (image annotations, language-model seed) lives in the closure.

``beam_search(K)`` runs one standard beam pass per width 1..K and ranks the
union of everything found. A single fixed-width pass can evict the eventual
best sequence and end up strictly worse than a narrower search; pooling the
widths makes the top score monotone in K and never below the greedy result,
at a cost that is negligible at desk scale (step results are memoized).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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


def strip_terminator(tokens, end_token: int | None) -> list[int]:
    out = list(tokens)
    if end_token is not None and out and out[-1] == end_token:
        out.pop()
    return out


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


def _beam_pass(step_fn, width: int, max_len: int, end_token: int | None,
               memo: dict) -> list[Beam]:
    """One standard beam pass: every live beam extended by every token,
    top-`width` by cumulative log-probability kept; finished beams are held
    and count against the width."""

    def logprobs(prefix: tuple[int, ...]) -> np.ndarray:
        cached = memo.get(prefix)
        if cached is None:
            cached = np.asarray(step_fn(prefix), dtype=np.float64)
            memo[prefix] = cached
        return cached

    beams = [Beam((), 0.0, False)]
    for _ in range(max_len):
        if all(b.finished for b in beams):
            break
        candidates: list[Beam] = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            lp = logprobs(beam.tokens)
            for token in range(lp.shape[0]):
                candidates.append(Beam(
                    beam.tokens + (token,),
                    beam.logprob + float(lp[token]),
                    finished=(end_token is not None and token == end_token),
                ))
        # stable sort: ties keep generation order, i.e. the lower token id
        candidates.sort(key=lambda b: -b.logprob)
        beams = candidates[:width]
    return [b for b in beams if b.tokens]


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
    memo: dict[tuple[int, ...], np.ndarray] = {}
    vocab = np.asarray(step_fn(())).shape[0]
    reachable = vocab ** max_len
    if k > reachable:
        logger.warning("beam width %d exceeds the %d reachable sequences; clamping", k, reachable)
        k = reachable
    pool: dict[tuple[int, ...], Beam] = {}
    for width in range(1, k + 1):
        for beam in _beam_pass(step_fn, width, max_len, end_token, memo):
            pool.setdefault(beam.tokens, beam)
    ranked = sorted(pool.values(), key=lambda b: (-b.score(length_normalize), b.tokens))
    return ranked[:k]


def select_beam(beams: list[Beam], rank: int, end_token: int | None = None) -> list[int]:
    """1-indexed selection from a ranked beam list; strips the terminator."""
    if not 1 <= rank <= len(beams):
        raise ValueError(f"beam rank {rank} out of range [1, {len(beams)}]")
    return strip_terminator(beams[rank - 1].tokens, end_token)


# ---------------------------------------------------------------------------
# two-stage pipeline

LM_START_MARKER = "<start>"


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

    The caption seed is detokenized, the literal start marker is appended,
    and the language model continues from the BPE encoding of that text until
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
    seed_tokens = word_vocab.decode(seed_ids, strip_specials=True)
    if not seed_tokens:
        logger.warning("caption model produced an empty seed for %r; skipping LM stage", study_id)
        return PipelineOutput(study_id, [], "", "", [])
    out = PipelineOutput(study_id, seed_tokens, "", " ".join(seed_tokens), list(alphas))
    if lm is None:
        return out
    seed_text = out.seed_text + " " + LM_START_MARKER
    seed_ids = list(bpe_vocab.encode(seed_text).ids)
    # long seeds keep only the most recent context the LM can hold
    window = lm.config.block_size - 1
    if len(seed_ids) > window:
        seed_ids = seed_ids[-window:]
    beams = lm.continuation_beams(
        seed_ids,
        k=cfg.beam_width,
        max_new=cfg.lm_max_new,
        length_normalize=cfg.length_normalize,
    )
    rank = min(cfg.lm_rank, len(beams)) if beams else 0
    if rank == 0:
        return out
    continuation_ids = select_beam(beams, rank, end_token=bpe_vocab.end_of_text_id)
    continuation = bpe_vocab.decode(continuation_ids).strip()
    out.continuation_text = continuation
    if continuation:
        out.combined_text = out.seed_text + " " + continuation
    return out
