"""Model checkpoint container.

Layout (all integers little-endian): magic ``CSQ1``, u32 format version,
u32 parameter count, then per parameter: u32 name length + UTF-8 name,
u32 rank, rank u64 extents, and the raw little-endian float64 values in
row-major order. Round trips are bit-exact. Checkpoints are written through
``write_atomic``, so a crash leaves either the old file or the new one.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .binio import BinaryFormatError, ByteReader, ByteWriter

MAGIC = b"CSQ1"
VERSION = 1


class CheckpointError(BinaryFormatError):
    pass


def write_atomic(path, payload: bytes) -> None:
    """Write ``<path>.tmp`` and rename it over ``path``; a failed rename
    deletes ``<path>.tmp`` and re-raises."""
    tmp = Path(f"{path}.tmp")
    tmp.write_bytes(payload)
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


def save_tensors(path, named: dict) -> None:
    """Write an ordered mapping of name -> float array."""
    w = ByteWriter()
    w.raw(MAGIC)
    w.u32(VERSION)
    w.u32(len(named))
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        w.utf8(name)
        w.u32(arr.ndim)
        for extent in arr.shape:
            w.u64(extent)
        w.f64_array(arr)
    write_atomic(path, w.getvalue())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an insertion-ordered name -> array dict."""
    payload = Path(path).read_bytes()
    r = ByteReader(payload, str(path))
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r} at byte offset 0")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    count = r.u32()
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.utf8()
        rank = r.u32()
        if rank > 8:
            r.fail(f"implausible rank {rank}")
        shape = tuple(r.u64() for _ in range(rank))
        size = 1
        for extent in shape:
            size *= extent
        out[name] = r.f64_array(size, shape)
    if not r.exhausted():
        r.fail(f"{len(payload) - r.offset} trailing bytes after last parameter")
    return out


def save_model(path, parameters: dict) -> None:
    """Persist a model's named Parameter mapping."""
    save_tensors(path, {name: p.data for name, p in parameters.items()})


def load_into_model(path, parameters: dict) -> None:
    """Load a checkpoint into an existing model, validating names and shapes."""
    arrays = load_tensors(path)
    missing = set(parameters) - set(arrays)
    extra = set(arrays) - set(parameters)
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match model "
            f"(missing={sorted(missing)}, unexpected={sorted(extra)})"
        )
    for name, p in parameters.items():
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: checkpoint {arrays[name].shape} "
                f"vs model {p.data.shape}"
            )
    for name, p in parameters.items():
        p.data = arrays[name]
        p.grad = np.zeros_like(p.data)
