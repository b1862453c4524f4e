"""Corpus-level caption evaluation: BLEU-1..4, ROUGE-L, CIDEr, and the
geometric-mean BLEU summary used for model selection.

Conventions (documented because the common toolkits disagree):

* BLEU is corpus-level: clipped n-gram matches and candidate n-gram counts
  are summed over the corpus before the precision ratio, the geometric mean
  runs over orders 1..n, and the brevity penalty exp(1 - r/c) uses the
  closest reference length per pair (ties to the shorter reference).
* ROUGE-L is the recall-weighted LCS F-measure (beta = 1.2) per pair,
  maximised over references, then averaged over the corpus.
* CIDEr uses raw-count TF times idf = log(N / max(1, df)) vectors per n-gram
  order 1..4, cosine similarity against each reference averaged over
  references, then the mean over orders scaled by 10. No length penalty.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

ROUGE_BETA = 1.2  # recall weight of the ROUGE-L F-measure
CIDER_MAX_ORDER = 4


@dataclass
class EvalPair:
    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references or all(len(r) == 0 for r in self.references):
            raise ValueError("every pair needs at least one non-empty reference")


@dataclass
class EvalReport:
    bleu: tuple[float, float, float, float]
    rouge_l: float
    cider: float
    geometric_mean_bleu: float
    corpus_size: int

    def format(self) -> str:
        lines = []
        for i, b in enumerate(self.bleu, start=1):
            lines.append(f"bleu_{i} {b:.6f}")
        lines.append(f"rouge_l {self.rouge_l:.6f}")
        lines.append(f"cider {self.cider:.6f}")
        lines.append(f"geometric_mean_bleu {self.geometric_mean_bleu:.6f}")
        lines.append(f"corpus_size {self.corpus_size}")
        return "\n".join(lines) + "\n"


def ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def _closest_ref_length(cand_len: int, ref_lens: list[int]) -> int:
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def bleu_components(pairs: list[EvalPair], n: int) -> dict:
    """Corpus totals backing bleu_n; exposed so the fixed hand-derived cases
    can be checked exactly."""
    if not 1 <= n <= 4:
        raise ValueError(f"BLEU order must lie in [1, 4], got {n}")
    if not pairs:
        raise ValueError("cannot score an empty corpus")
    matched = [0] * n
    attempted = [0] * n
    cand_total = 0
    ref_total = 0
    for pair in pairs:
        cand_total += len(pair.candidate)
        ref_total += _closest_ref_length(len(pair.candidate), [len(r) for r in pair.references])
        for k in range(1, n + 1):
            counts = ngram_counts(pair.candidate, k)
            if not counts:
                continue
            clip = Counter()
            for ref in pair.references:
                for g, c in ngram_counts(ref, k).items():
                    clip[g] = max(clip[g], c)
            attempted[k - 1] += sum(counts.values())
            matched[k - 1] += sum(min(c, clip[g]) for g, c in counts.items())
    precisions = [m / a if a else 0.0 for m, a in zip(matched, attempted)]
    if cand_total == 0:
        bp = 0.0
    elif cand_total < ref_total:
        bp = math.exp(1.0 - ref_total / cand_total)
    else:
        bp = 1.0
    return {
        "precisions": precisions,
        "brevity_penalty": bp,
        "candidate_length": cand_total,
        "reference_length": ref_total,
    }


def bleu_n(pairs: list[EvalPair], n: int) -> float:
    comps = bleu_components(pairs, n)
    precisions = comps["precisions"][:n]
    if any(p == 0.0 for p in precisions):
        return 0.0
    log_mean = sum(math.log(p) for p in precisions) / n
    return comps["brevity_penalty"] * math.exp(log_mean)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Classic dynamic-programming longest common subsequence length."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(pairs: list[EvalPair]) -> float:
    if not pairs:
        raise ValueError("cannot score an empty corpus")
    beta_sq = ROUGE_BETA * ROUGE_BETA
    total = 0.0
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            if not pair.candidate or not ref:
                continue
            lcs = lcs_length(pair.candidate, ref)
            if lcs == 0:
                continue
            precision = lcs / len(pair.candidate)
            recall = lcs / len(ref)
            f = ((1 + beta_sq) * precision * recall) / (recall + beta_sq * precision)
            best = max(best, f)
        total += best
    return total / len(pairs)


def cider(pairs: list[EvalPair]) -> float:
    scores = cider_scores(pairs)
    return sum(scores) / len(scores)


def cider_scores(pairs: list[EvalPair]) -> list[float]:
    """Per-pair CIDEr (already on the x10 scale)."""
    if len(pairs) < 2:
        raise ValueError(
            "CIDEr needs a corpus of at least 2 pairs: its idf weights come "
            "from the reference population"
        )
    n_docs = len(pairs)
    # document frequency: in how many pairs' reference sets each n-gram occurs
    df: list[Counter] = [Counter() for _ in range(CIDER_MAX_ORDER)]
    for pair in pairs:
        for k in range(1, CIDER_MAX_ORDER + 1):
            seen = set()
            for ref in pair.references:
                seen.update(ngram_counts(ref, k))
            for g in seen:
                df[k - 1][g] += 1

    def tfidf(tokens: list[str], k: int) -> dict:
        return {
            g: c * math.log(n_docs / max(1.0, df[k - 1][g]))
            for g, c in ngram_counts(tokens, k).items()
        }

    def cosine(u: dict, v: dict) -> float:
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        dot = sum(x * v[g] for g, x in u.items() if g in v)
        return dot / (nu * nv)

    scores = []
    for pair in pairs:
        per_order = 0.0
        for k in range(1, CIDER_MAX_ORDER + 1):
            cand_vec = tfidf(pair.candidate, k)
            sim = sum(cosine(cand_vec, tfidf(ref, k)) for ref in pair.references)
            per_order += sim / len(pair.references)
        scores.append(10.0 * per_order / CIDER_MAX_ORDER)
    return scores


def geometric_mean_bleu(values) -> float:
    values = list(values)
    if any(v < 0 for v in values):
        raise ValueError("BLEU values must be non-negative")
    product = 1.0
    for v in values:
        product *= v
    if product == 0.0:
        return 0.0
    return product ** (1.0 / len(values))


def evaluate_corpus(pairs: list[EvalPair]) -> EvalReport:
    bleu = tuple(bleu_n(pairs, n) for n in range(1, 5))
    return EvalReport(
        bleu=bleu,
        rouge_l=rouge_l(pairs),
        cider=cider(pairs),
        geometric_mean_bleu=geometric_mean_bleu(bleu),
        corpus_size=len(pairs),
    )
