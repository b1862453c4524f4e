"""Desk-epoch models, trained once per checkout during set-up.

The generation workloads need trained models, and training them at desk
epochs takes minutes, so it happens once per checkout: on a fixed corpus,
through the same ``capseq`` commands a user runs, into
``.bench_build/models-<key>``. The key is a digest of every file the models
depend on (the capseq sources, the desk config, the lexicon and this
benchmark's corpus and build code), so a changed program retrains.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .commands import BUILD_DIR, CONFIG, LEXICON, ROOT, SRC, cli, config_args, prep
from .corpus import write_corpus

BUILD_SEED = 0
BUILD_STUDIES = 48       # 36 train / 6 validation / 6 test after prep
BUILD, POOL = 0, 1       # corpus purposes: model training vs workload inputs


@dataclass(frozen=True)
class ModelSet:
    overrides: tuple[str, ...]
    raw_side: int
    train_sat: bool
    train_lm: bool


MODEL_SETS = {
    "desk": ModelSet((), 32, True, True),
    "fit": ModelSet(("lm_block_size=128",), 32, False, True),
    "wide": ModelSet(("image_side=128",), 128, True, False),
}
# Two child processes, one BLAS thread each (nproc is 2): desk takes about as
# long as fit and wide together.
BUILD_GROUPS = (("desk",), ("fit", "wide"))


def _source_key() -> str:
    h = hashlib.sha256()
    here = Path(__file__).parent
    files = sorted((SRC / "capseq").rglob("*.py")) + [CONFIG, LEXICON]
    files += [here / "build.py", here / "commands.py", here / "corpus.py"]
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def ensure_models() -> Path:
    """Directory holding one ``<set>/run`` per model set. Trains missing sets
    in child processes, so the run's own peak memory excludes them."""
    final = BUILD_DIR / f"models-{_source_key()}"
    if (final / "DONE").is_file():
        return final
    tmp = BUILD_DIR / f"{final.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"training desk-epoch models into {final.relative_to(ROOT)}", file=sys.stderr)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    children = [subprocess.Popen([sys.executable, "-m", "perfbench.build", str(tmp), *group],
                                 cwd=ROOT, env=env, stdout=sys.stderr)
                for group in BUILD_GROUPS]
    codes = []
    for child in children:
        try:
            codes.append(child.wait(timeout=840))
        except subprocess.TimeoutExpired:
            child.kill()
            codes.append(child.wait())
    if any(codes):
        for child in children:
            child.kill()
            child.wait()
        raise RuntimeError(f"model build failed (exit codes {codes})")
    (tmp / "DONE").write_text("ok\n", encoding="utf-8")
    for stale in BUILD_DIR.glob("models-*"):
        if stale != tmp:
            shutil.rmtree(stale, ignore_errors=True)
    os.replace(tmp, final)
    return final


def build_sets(tmp: Path, names) -> None:
    """Prep the fixed corpus and train each named set at desk epochs."""
    for name in names:
        spec, d = MODEL_SETS[name], tmp / name
        corpus = write_corpus(d / "raw", BUILD_SEED, BUILD_STUDIES, spec.raw_side,
                              purpose=BUILD, prefix="b")
        prep(corpus, d / "prep", spec.overrides)
        # no epoch override: train-sat/train-lm use the desk epoch counts
        for stage, wanted in (("sat", spec.train_sat), ("lm", spec.train_lm)):
            if wanted:
                start = time.perf_counter()
                cli([f"train-{stage}", "--dataset", d / "prep" / "dataset.csds",
                     "--manifest", d / "prep" / "manifest.json", "--out", d / "run",
                     *config_args(spec.overrides)])
                print(f"  {name}: train-{stage} {time.perf_counter() - start:.1f} s",
                      file=sys.stderr)


if __name__ == "__main__":
    build_sets(Path(sys.argv[1]), sys.argv[2:])
