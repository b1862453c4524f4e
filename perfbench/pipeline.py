"""Workloads of the capseq benchmark, driven through ``capseq.cli.main``.

Every run of every workload executes each command of the desk pipeline
(``prep``, ``train-sat``, ``train-lm``, ``generate``, ``evaluate``), so every
end-to-end metric is measured on every workload. The workload decides the
settings and which command its closed loop repeats for the measured seconds;
the other commands are sampled a fixed number of times, spread over the loop:

* generation workloads repeat ``generate`` over blocks of the seeded study
  pool, with models trained at desk epochs during set-up. They sample the
  set-up probe, ``prep`` of the seeded corpus, and a one-epoch training probe
  on a fixed slice of the set-up corpus.
* ``train-desk`` repeats ``prep`` + ``train-sat`` + ``train-lm`` from scratch
  on its seeded corpus with a fixed epoch count. It samples the set-up probe
  and caption-only ``generate`` over the same corpus.

Each unit's primary outputs are compared byte for byte with its first run in
this invocation, which is untimed (warm-up and reference). Every timing is
scaled to a reference host speed by ``calibrate.Calibration``; the raw
medians are printed beside the metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .build import POOL, ensure_models
from .calibrate import Calibration
from .commands import (BUILD_DIR, CONFIG, ROOT, SRC, CheckError, Ops, cli, config_args,
                       digest, prep as run_prep)
from .corpus import write_corpus

# The training probe of generation workloads trains on the first 8 studies of
# the set-up corpus and validates on the next 2. Fixed inputs keep it free of
# seed-to-seed variance: after one epoch, whether validation decoding stops
# early is a coin toss per corpus.
PROBE_TRAIN, PROBE_VAL = 8, 2
# Samples each run takes of the units its loop does not repeat. Each metric is
# a median over its samples, and every sample has its own scale factor.
SETUP_SAMPLES, PREP_SAMPLES, TRAIN_SAMPLES, GENERATE_SAMPLES = 7, 9, 9, 9
SAMPLED = ("setup_s", "prep_s", "train_sat_s", "train_lm_s", "report_s")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]   # --set values for every command
    raw_side: int                # side of the seeded raw images
    studies: int                 # seeded corpus size (what prep packs)
    pool: int                    # leading studies the generate commands cover
    block: int                   # studies per generate command
    sat_models: str              # model set holding the captioner
    lm_models: str | None        # model set holding the LM; None: --no-lm
    train_epochs: tuple[int, int]  # (train-sat, train-lm) epochs
    repeats: str                 # main unit of the loop: "generate" or "train"
    guards: tuple[str, ...]      # property guards checked on traced counts


WORKLOADS = {w.name: w for w in (
    Workload("report-slide", (), 32, 64, 16, 1, "desk", "desk", (1, 1), "generate",
             ("slides", "no-tape")),
    Workload("report-fit", ("lm_block_size=128",), 32, 64, 16, 1, "desk", "fit", (1, 1),
             "generate", ("fits", "no-tape")),
    Workload("caption-wide", ("image_side=128",), 128, 48, 48, 4, "wide", None, (1, 1),
             "generate", ("no-lm", "no-tape")),
    Workload("train-desk", (), 32, 16, 16, 4, "desk", None, (6, 3), "train", ("tape",)),
)}


# ---------------------------------------------------------------------------
# running commands


class Hooks:
    """Counting hooks that stay on for the whole run: study start times and
    optimizer-step outcomes. They forward to whatever function the module
    holds at call time, so a tracer installed later still sees each call."""

    def __init__(self, ops: Ops):
        import capseq.cli
        import capseq.decoding
        import capseq.optim

        self._restore = []
        self.tracer = None
        decoding, optimizer = capseq.decoding, capseq.optim._Optimizer
        original_step = optimizer.__dict__["step"]

        def study(*args, **kwargs):
            ops.attempted += 1
            ops.study_starts.append(time.perf_counter())
            if self.tracer is not None:
                self.tracer.set_context(f"study:{kwargs.get('study_id', '')}")
            try:
                return decoding.two_stage_generate(*args, **kwargs)
            except Exception:
                ops.failed += 1
                raise

        def step(opt):
            ops.attempted += 1
            ok = original_step(opt)
            if ok is False:
                ops.failed += 1
            return ok

        self._patch(capseq.cli, "two_stage_generate", study)
        self._patch(optimizer, "step", step)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# output checks


def _words(vocab: Path) -> set[str]:
    lines = vocab.read_text(encoding="utf-8").splitlines()[1:]
    return {line.split("\t")[0] for line in lines if line}


def _read_p2(path: Path) -> np.ndarray:
    tokens = path.read_text(encoding="ascii").split()
    if tokens[0] != "P2":
        raise CheckError(f"{path.name}: not an ASCII PGM")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = np.array(tokens[4:], dtype=np.int64)
    if maxval != 255 or values.size != w * h:
        raise CheckError(f"{path.name}: bad PGM header or sample count")
    return values.reshape(h, w)


def check_reports(out: Path, ids: list[str], words: set[str], use_lm: bool,
                  pooled_side: int, image_side: int) -> tuple[list[dict], int]:
    """Validate one generate command's outputs; returns (records, empty seeds)."""
    lines = (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if [r.get("id") for r in records] != ids:
        raise CheckError(f"reports.jsonl ids {[r.get('id') for r in records]} != {ids}")
    empty = 0
    for rec in records:
        if set(rec) != {"id", "seed", "continuation", "combined", "heatmaps"}:
            raise CheckError(f"{rec['id']}: unexpected record keys {sorted(rec)}")
        seed = rec["seed"].split()
        if not seed:
            empty += 1
            continue
        if not set(seed) <= words:
            raise CheckError(f"{rec['id']}: seed has words outside the vocabulary")
        cont = rec["continuation"]
        if not use_lm and cont:
            raise CheckError(f"{rec['id']}: --no-lm report has a continuation")
        if rec["combined"] != (rec["seed"] + " " + cont if cont else rec["seed"]):
            raise CheckError(f"{rec['id']}: combined != seed + continuation")
        alphas = (out / "heat" / f"{rec['id']}_alphas.csv").read_text().splitlines()
        if len(alphas) != len(seed) or len(rec["heatmaps"]) != len(seed):
            raise CheckError(f"{rec['id']}: {len(alphas)} attention rows, "
                             f"{len(rec['heatmaps'])} heatmaps, {len(seed)} seed words")
        for row, name in zip(alphas, rec["heatmaps"]):
            alpha = np.array(row.split(","), dtype=np.float64)
            if alpha.size != pooled_side ** 2 or abs(alpha.sum() - 1.0) > 1e-9 or alpha.min() < 0:
                raise CheckError(f"{rec['id']}: attention row is not a distribution")
            grid = _read_p2(out / "heat" / name)
            if grid.shape != (image_side, image_side) or grid.min() != 0 or grid.max() not in (0, 255):
                raise CheckError(f"{name}: heatmap is not a min-max normalized map")
    return records, empty


_BEST = re.compile(r"best epoch (-?\d+) \(GM-BLEU ([0-9.]+)\)")


def check_training(run: Path, stage: str, epochs: int, stdout: str) -> float:
    """Validate a train-sat/train-lm output directory; returns best GM-BLEU."""
    vocab = run / ("words.vocab" if stage == "sat" else "bpe.vocab")
    header = "capseq-wordvocab 1" if stage == "sat" else "capseq-bpevocab 1"
    if vocab.read_text(encoding="utf-8").splitlines()[0] != header:
        raise CheckError(f"{vocab.name}: bad header")
    for ckpt in (f"{stage}-last.ckpt", f"{stage}-best.ckpt"):
        if (run / ckpt).read_bytes()[:4] != b"CSQ1":
            raise CheckError(f"{ckpt}: bad checkpoint magic")
    state = json.loads((run / f"{stage}-state.json").read_text(encoding="utf-8"))
    if state["next_epoch"] != epochs:
        raise CheckError(f"{stage}-state.json: next_epoch {state['next_epoch']} != {epochs}")
    losses = np.loadtxt(run / f"{stage}-loss.tsv", ndmin=2)[:, 2]
    if not np.all(np.isfinite(losses)):
        raise CheckError(f"{stage}-loss.tsv: non-finite loss")
    scores = np.loadtxt(run / f"{stage}-val-metrics.tsv", ndmin=2)
    match = _BEST.search(stdout)
    if scores.shape[0] != epochs or match is None:
        raise CheckError(f"train-{stage}: expected {epochs} validation rows and a best epoch")
    best = float(match.group(2))
    if abs(best - scores[:, 1].max()) > 1e-6 or abs(best - state["best"]["gm_bleu"]) > 1e-6:
        raise CheckError(f"train-{stage}: printed best GM-BLEU disagrees with its files")
    return best


def _train(dataset: Path, manifest: Path, out: Path, overrides, epochs: tuple[int, int],
           ops: Ops) -> dict:
    """Run train-sat then train-lm; returns each command's wall time and the
    best validation GM-BLEU it prints."""
    result = {}
    data = ["--dataset", dataset, "--manifest", manifest, "--out", out, "--overwrite"]
    for stage, count in zip(("sat", "lm"), epochs):
        args = config_args((*overrides, f"{stage}_epochs={count}"))
        start = time.perf_counter()
        stdout = cli([f"train-{stage}", *data, *args], ops)
        result[f"train_{stage}_s"] = time.perf_counter() - start
        result[f"{stage}_val_gm_bleu"] = check_training(out, stage, count, stdout)
    return result


def check_prep(prep: Path, ids: list[str]) -> None:
    if (prep / "dataset.csds").read_bytes()[:4] != b"CSDS":
        raise CheckError("dataset.csds: bad magic")
    manifest = json.loads((prep / "manifest.json").read_text(encoding="utf-8"))
    split = [i for part in ("train", "validation", "test") for i in manifest["splits"][part]]
    if manifest["record_count"] != len(ids) or sorted(split) != sorted(ids):
        raise CheckError("manifest.json: splits do not partition the corpus")


def evaluate(records: list[dict], references: dict[str, str], work: Path, ops: Ops) -> float:
    """GM-BLEU of the combined reports through ``capseq evaluate``."""
    cand, refs = work / "candidates.txt", work / "references.txt"
    cand.write_text("".join(r["combined"] + "\n" for r in records), encoding="utf-8")
    refs.write_text("".join(references[r["id"]] + "\n" for r in records), encoding="utf-8")
    scores = dict(line.split() for line in cli(
        ["evaluate", "--candidates", cand, "--references", refs], ops).splitlines())
    if int(scores["corpus_size"]) != len(records):
        raise CheckError("evaluate: corpus size mismatch")
    value = float(scores["geometric_mean_bleu"])
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"evaluate: GM-BLEU {value} out of range")
    return value


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunResult:
    metrics: dict[str, float]
    info: dict[str, object]
    ops: Ops


def _median(values) -> float:
    return float(statistics.median(values))


def _manifest(path: Path, train=(), validation=(), test=()) -> Path:
    path.write_text(json.dumps({"seed": 0, "ratios": [0.0, 0.0, 1.0], "splits": {
        "train": list(train), "validation": list(validation), "test": list(test)}}),
        encoding="utf-8")
    return path


def _setup_probe(argv: list, out: Path) -> float:
    """Seconds from process start to a loaded ``generate`` (first study)."""
    probe = Path(__file__).with_name("setup_probe.py")
    args = [sys.executable, str(probe), str(SRC), *[str(a) for a in argv],
            "--heatmap-dir", str(out / "heat"), "--out", str(out / "reports.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise CheckError(f"setup probe failed (exit {code})")
    return elapsed


class _Run:
    """One run of one workload: inputs, units of work, samples and checks.

    Each unit's first call is the untimed warm-up and the byte reference for
    its later calls. Calls with ``record=True`` add samples.
    """

    def __init__(self, wl: Workload, seed: int, models: Path, work: Path, ops: Ops):
        import capseq.config
        from capseq.reportprep import load_dataset

        self.wl, self.models, self.work, self.ops = wl, models, work, ops
        self.raw: dict[str, list[float]] = {k: [] for k in SAMPLED}
        self.scaled: dict[str, list[float]] = {k: [] for k in SAMPLED}
        self._pending: list[tuple[str, float]] = []
        self.reference: dict[str, str] = {}
        self.info: dict[str, object] = {}
        self.corpus = write_corpus(work / "raw", seed, wl.studies, wl.raw_side,
                                   purpose=POOL, chunk=wl.pool)
        self.ids = [json.loads(line)["id"] for line in self.corpus.read_text().splitlines()]
        self.prep_dir = work / "prep"
        self.prep(record=False)
        self.references = {r.study_id: " ".join(r.tokens)
                           for r in load_dataset(self.prep_dir / "dataset.csds")}
        pool = self.ids[:wl.pool]
        self.blocks = [pool[i:i + wl.block] for i in range(0, len(pool), wl.block)]
        self.block_visits = [0] * len(self.blocks)
        self.records: dict[int, list[dict]] = {}
        self.empty: dict[int, int] = {}
        cfg = capseq.config.load_run_config(CONFIG, dict(s.split("=") for s in wl.overrides))
        self.pooled_side, self.image_side = cfg.sat_pooled_side, cfg.image_side
        self.words = _words(models / wl.sat_models / "run" / "words.vocab")
        self.probe_dataset = models / wl.sat_models / "prep" / "dataset.csds"
        probe_ids = [f"b{i:04d}" for i in range(PROBE_TRAIN + PROBE_VAL)]
        self.probe_manifest = _manifest(work / "probe-train.json", train=probe_ids[:PROBE_TRAIN],
                                        validation=probe_ids[PROBE_TRAIN:])

    def _record(self, name: str, seconds: float) -> None:
        """Raw sample of the unit being timed; scaled when the unit ends."""
        self._pending.append((name, seconds))

    def _commit(self, scale: float) -> None:
        for name, seconds in self._pending:
            self.raw[name].append(seconds)
            self.scaled[name].append(seconds * scale)
        self._pending.clear()

    def _same(self, unit: str, path: Path) -> bool:
        """Compare ``path`` with the unit's first output; True on first call."""
        got = digest(path)
        first = self.reference.setdefault(unit, got)
        if got != first:
            raise CheckError(f"{unit}: outputs differ from the first run of this invocation")
        return got is first

    def _generate_argv(self, manifest: Path) -> list:
        wl, sat = self.wl, self.models / self.wl.sat_models / "run"
        argv = ["generate", "--dataset", self.prep_dir / "dataset.csds", "--manifest", manifest,
                "--split", "test", "--sat-checkpoint", sat / "sat-best.ckpt",
                "--word-vocab", sat / "words.vocab"]
        if wl.lm_models is None:
            argv.append("--no-lm")
        else:
            lm = self.models / wl.lm_models / "run"
            argv += ["--lm-checkpoint", lm / "lm-best.ckpt", "--bpe-vocab", lm / "bpe.vocab"]
        return argv + config_args(wl.overrides)

    # -- units ----------------------------------------------------------------

    def setup(self, record: bool) -> None:
        manifest = _manifest(self.work / "probe.json", test=self.ids[:1])
        elapsed = _setup_probe(self._generate_argv(manifest), self.work / "probe")
        if record:
            self._record("setup_s", elapsed)

    def prep(self, record: bool) -> None:
        out = self.prep_dir if not self.reference else self.work / "prep-again"
        start = time.perf_counter()
        run_prep(self.corpus, out, self.wl.overrides, self.ops)
        elapsed = time.perf_counter() - start
        if self._same("prep", out):
            check_prep(out, self.ids)
            self.info["digest.prep"] = self.reference["prep"][:16]
        else:
            shutil.rmtree(out)
        if record:
            self._record("prep_s", elapsed)

    def train(self, record: bool) -> float:
        """Training probe of generation workloads: both training commands, one
        epoch each, on a fixed small split of the set-up corpus."""
        out = self.work / "train"
        result = _train(self.probe_dataset, self.probe_manifest, out,
                        self.wl.overrides, self.wl.train_epochs, self.ops)
        if self._same("train", out):
            self.info.update({k: v for k, v in result.items() if k.endswith("gm_bleu")})
            self.info["digest.train"] = self.reference["train"][:16]
        shutil.rmtree(out)
        if record:
            self._record("train_sat_s", result["train_sat_s"])
            self._record("train_lm_s", result["train_lm_s"])
        return result["train_sat_s"] + result["train_lm_s"]

    def cycle(self, record: bool) -> float:
        """train-desk's unit: prep, then train-sat and train-lm from scratch."""
        out = self.work / "cycle"
        start = time.perf_counter()
        run_prep(self.corpus, out / "prep", self.wl.overrides, self.ops)
        prep_s = time.perf_counter() - start
        result = _train(out / "prep" / "dataset.csds", out / "prep" / "manifest.json",
                        out / "run", self.wl.overrides, self.wl.train_epochs, self.ops)
        elapsed = time.perf_counter() - start
        if self._same("cycle", out):
            self.info.update({k: v for k, v in result.items() if k.endswith("gm_bleu")})
            self.info["digest.cycle"] = self.reference["cycle"][:16]
        shutil.rmtree(out)
        if record:
            self._record("prep_s", prep_s)
            self._record("train_sat_s", result["train_sat_s"])
            self._record("train_lm_s", result["train_lm_s"])
        return elapsed

    def generate(self, record: bool) -> float:
        """One ``generate`` command over the next block of the pool; the
        warm-up call covers block 0, which the timed calls then start from."""
        if record:
            block = sum(self.block_visits) % len(self.blocks)
            self.block_visits[block] += 1
        else:
            block = 0
        ids = self.blocks[block]
        out = self.work / "gen"
        argv = self._generate_argv(_manifest(self.work / "block.json", test=ids))
        argv += ["--heatmap-dir", out / "heat", "--out", out / "reports.jsonl"]
        self.ops.study_starts.clear()
        start = time.perf_counter()
        cli(argv, self.ops)
        end = time.perf_counter()
        if self._same(f"generate block {block}", out):
            self.records[block], self.empty[block] = check_reports(
                out, ids, self.words, self.wl.lm_models is not None,
                self.pooled_side, self.image_side)
        self.ops.failed += self.empty[block]
        shutil.rmtree(out)
        if record:
            marks = self.ops.study_starts + [end]
            for a, b in zip(marks, marks[1:]):
                self._record("report_s", b - a)
        return end - start

    # -- the loop -------------------------------------------------------------

    def loop(self, seconds: float, tracer, hooks: Hooks, calib: Calibration) -> None:
        """Closed loop, one client: repeat the main unit for ``seconds`` of
        wall time, which includes the samples of the other units and the
        calibration kernel. Those samples fall due at even steps of the run,
        so each metric's samples spread over all of it. Only main units are
        traced."""
        if self.wl.repeats == "generate":
            main = self.generate
            others = [(self.setup, SETUP_SAMPLES), (self.prep, PREP_SAMPLES),
                      (self.train, TRAIN_SAMPLES)]
        else:
            main = self.cycle
            others = [(self.setup, SETUP_SAMPLES), (self.generate, GENERATE_SAMPLES)]
        reference_s = main(record=False)
        for unit, _ in others:
            unit(record=False)
        schedule = [unit for r in range(max(n for _, n in others))
                    for unit, n in others if r < n]
        due = [seconds * (k + 1) / (len(schedule) + 1) for k in range(len(schedule))]
        units = 0
        start = time.perf_counter()
        calib.start()
        while True:
            elapsed = time.perf_counter() - start
            if schedule and (elapsed >= due[0] or elapsed >= seconds):
                due.pop(0)
                schedule.pop(0)(record=True)
            elif elapsed < seconds or units == 0:
                if tracer is not None:
                    tracer.install()
                    hooks.tracer = tracer
                try:
                    unit_s = main(record=True)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                        hooks.tracer = None
                if units == 0:
                    self.info["_trace_first_unit_s"] = (unit_s, reference_s)
                units += 1
            else:
                break
            self._commit(calib.tick())
        self.info["trace.units"] = len(self.raw["report_s"]) if main == self.generate else units
        self.info["loop_units"] = units

    def metrics(self, calib: Calibration) -> dict[str, float]:
        records = [r for b in sorted(self.records) for r in self.records[b]]
        report_s = self.scaled["report_s"]
        out = {name: _median(self.scaled[name])
               for name in ("setup_s", "prep_s", "train_sat_s", "train_lm_s")}
        out.update({
            "reports_per_s": len(report_s) / sum(report_s),
            "report_ms.p50": _median(report_s) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        self.info["report_gm_bleu"] = evaluate(records, self.references, self.work, self.ops)
        blocks = "".join(self.reference[f"generate block {b}"] for b in sorted(self.records))
        self.info["digest.generate"] = hashlib.sha256(blocks.encode()).hexdigest()[:16]
        self.info["samples"] = {k: len(v) for k, v in self.raw.items()}
        self.info["raw_median_s"] = {k: round(_median(v), 6) for k, v in self.raw.items()}
        self.info["kernel_ms"] = {
            "p50": round(_median(calib.kernel_s) * 1e3, 3),
            "min": round(min(calib.kernel_s) * 1e3, 3),
            "max": round(max(calib.kernel_s) * 1e3, 3)}
        return out


def run_workload(wl: Workload, seed: int, seconds: float, tracer) -> RunResult:
    """One run: set-up, the closed loop, output checks and metrics."""
    models = ensure_models()
    # One CPU for the rest of the run: the calibration kernel and the units
    # it scales then run on the same core; the set-up probe inherits it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = BUILD_DIR / "work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    hooks = Hooks(ops)
    try:
        run = _Run(wl, seed, models, work, ops)
        calib = Calibration()
        run.loop(seconds, tracer, hooks, calib)
        metrics = run.metrics(calib)
        return RunResult(metrics, run.info, ops)
    finally:
        hooks.remove()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
