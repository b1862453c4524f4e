"""Paths, in-process capseq commands, operation accounting and digests."""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "desk.cfg"
LEXICON = ROOT / "data" / "abbreviations_sample.tsv"
BUILD_DIR = ROOT / ".bench_build"


class CheckError(RuntimeError):
    """A program output failed a check; the run is not valid."""


@dataclass
class Ops:
    """Operation accounting: commands, studies and optimizer steps."""
    attempted: int = 0
    failed: int = 0
    study_starts: list[float] = field(default_factory=list)


def cli(argv: list, ops: Ops | None = None) -> str:
    """Run one capseq command in-process through ``capseq.cli.main``;
    returns its standard output. A non-zero exit fails the run."""
    import capseq.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = capseq.cli.main([str(a) for a in argv])
    if ops is not None:
        ops.attempted += 1
        ops.failed += code != 0
    if code != 0:
        raise CheckError(f"capseq {argv[0]} exited with {code}")
    return out.getvalue()


def config_args(overrides) -> list:
    out = ["--config", CONFIG]
    for item in overrides:
        out += ["--set", item]
    return out


def prep(corpus: Path, out: Path, overrides, ops: Ops | None = None) -> str:
    return cli(["prep", "--corpus", corpus, "--lexicon", LEXICON, "--out", out,
                *config_args(overrides)], ops)


def digest(path: Path) -> str:
    """sha256 over every file below ``path``: relative name, then bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()
