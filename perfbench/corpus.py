"""Seeded synthetic study corpora for the benchmark.

Every study draws, from its own random stream:

* one of eight global image patterns, plus Gaussian pixel noise of a drawn
  strength;
* 0-2 label sentences with mixed polarity, each also drawn into the image
  as a small bright mark whose position names the pathology;
* 0-3 findings sentences written with lexicon abbreviations (``pa``, ``ett``,
  ``ptx``, ``svc`` ...), which prep expands.

Together these vary the caption seed length and the continuation length.
The benchmark writes images and JSONL itself, so its inputs do not change
when the program's own synthetic or PGM code changes.

Composition is stratified: pattern, label count and findings count each
cycle through all their values within a pool, and only the pairing, the
label/finding choices, the noise and the order come from the seed. A pool
of N studies therefore has nearly the same mix of short and long reports for
every seed, which keeps throughput comparable between seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PATTERNS = (
    "vertical gradient",
    "horizontal gradient",
    "diagonal gradient",
    "central bright focus",
    "vertical stripe texture",
    "horizontal stripe texture",
    "checkered block texture",
    "dark outer frame",
)

PATHOLOGIES = (
    "lung opacity",
    "edema",
    "cardiomegaly",
    "pleural effusion",
    "pneumothorax",
    "atelectasis",
    "pneumonia",
    "consolidation",
)

POLARITIES = ("present", "absent", "uncertain")

# Findings sentences; abbreviations come from data/abbreviations_sample.tsv.
FINDINGS = (
    "pa and lat views of the chest were obtained.",
    "ett tip terminates above the carina.",
    "no ptx is seen.",
    "svc catheter tip is in good position.",
    "ngt courses below the diaphragm.",
    "picc line ends in the low svc.",
    "ap portable cxr shows stable lines.",
    "bibasilar effs are small.",
    "no evidence of pna.",
    "history of htn and chf.",
)


def _pattern(name: str, side: int) -> np.ndarray:
    yy, xx = np.mgrid[0:side, 0:side] / (side - 1)
    if name == "vertical gradient":
        return yy
    if name == "horizontal gradient":
        return xx
    if name == "diagonal gradient":
        return (xx + yy) / 2
    if name == "central bright focus":
        return np.exp(-(((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / 0.08))
    if name == "vertical stripe texture":
        return (np.sin(xx * np.pi * 6) + 1) / 2
    if name == "horizontal stripe texture":
        return (np.sin(yy * np.pi * 6) + 1) / 2
    if name == "checkered block texture":
        return (np.floor(xx * 4) + np.floor(yy * 4)) % 2
    if name == "dark outer frame":
        pad = max(1, side // 8)
        img = np.zeros((side, side))
        img[pad:side - pad, pad:side - pad] = 1.0
        return img
    raise ValueError(f"unknown pattern {name!r}")


def _image(pattern: str, labels, noise: float, side: int,
           rng: np.random.Generator) -> np.ndarray:
    img = _pattern(pattern, side) + rng.normal(0.0, noise, size=(side, side))
    cell = side // 8
    for name, polarity in labels:
        # one mark per label: the column names the pathology, the row the polarity
        col = PATHOLOGIES.index(name) * cell
        row = (1 + 2 * POLARITIES.index(polarity)) * cell
        img[row:row + cell, col:col + cell] = 1.0 if polarity != "absent" else 0.0
    return np.clip(img, 0.0, 1.0)


def _write_pgm(path: Path, values01: np.ndarray) -> None:
    raster = np.rint(values01 * 255).astype(np.uint8)
    h, w = raster.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + raster.tobytes())


def _stratified(values: int, n: int, chunk: int, rng: np.random.Generator) -> np.ndarray:
    """n draws that cycle through range(values) within every run of ``chunk``
    consecutive studies, in seeded order."""
    return np.concatenate([rng.permutation(np.arange(min(chunk, n - lo)) % values)
                           for lo in range(0, n, chunk)])


def write_corpus(directory, seed: int, studies: int, side: int, purpose: int,
                 chunk: int | None = None, prefix: str = "s") -> Path:
    """Write ``studies`` PGM images and a JSONL corpus; returns the corpus path.

    ``purpose`` separates the random streams of corpora made for different
    uses, so a workload seed never reproduces the model-training corpus.
    Stratification holds within each ``chunk`` consecutive studies (default:
    the whole corpus), so a leading pool of that size is balanced too.
    """
    directory = Path(directory)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([purpose, seed])
    chunk = chunk or studies
    patterns = _stratified(len(PATTERNS), studies, chunk, rng)
    label_counts = _stratified(3, studies, chunk, rng)
    finding_counts = _stratified(4, studies, chunk, rng)
    lines = []
    for i in range(studies):
        study_rng = np.random.default_rng([purpose, seed, i])
        pattern = PATTERNS[patterns[i]]
        picked = study_rng.choice(len(PATHOLOGIES), size=label_counts[i], replace=False)
        labels = [(PATHOLOGIES[p], POLARITIES[study_rng.integers(3)]) for p in picked]
        findings = study_rng.choice(len(FINDINGS), size=finding_counts[i], replace=False)
        noise = float(study_rng.uniform(0.02, 0.10))
        study_id = f"{prefix}{i:04d}"
        rel = f"images/{study_id}.pgm"
        _write_pgm(directory / rel, _image(pattern, labels, noise, side, study_rng))
        record = {
            "id": study_id,
            "impression": f"{pattern} appears across the whole lung field.",
            "findings": " ".join(FINDINGS[f] for f in findings),
            "labels": [list(label) for label in labels],
            "image": rel,
        }
        lines.append(json.dumps(record, sort_keys=True))
    corpus = directory / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus
