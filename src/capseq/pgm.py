"""Minimal portable graymap (PGM) reader/writer.

Reads P2 (ASCII) and P5 (binary) grayscale images; writes P2 so heatmaps stay
diffable text. The maxval from the header doubles as the declared intensity
ceiling for normalization.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import numpy as np


# Netpbm requires maxval < 65536; P5 stores samples above 255 in two bytes
MAX_MAXVAL = 65535


class PgmError(ValueError):
    pass


# a "#" that starts a token starts a comment, which runs to the end of its
# line; for bytes, \s is exactly the ASCII whitespace that isspace() accepts
_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def _tokens(data: bytes):
    """Yield each token and its end offset, skipping whitespace and # comments."""
    for match in _TOKEN.finditer(data):
        if match.group(1):
            yield match.group(1), match.end()


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Return (pixels as int array (H, W), maxval)."""
    data = Path(path).read_bytes()
    gen = _tokens(data)
    try:
        magic, _ = next(gen)
        (w_tok, _), (h_tok, _), (max_tok, end) = next(gen), next(gen), next(gen)
    except StopIteration:
        raise PgmError(f"{path}: truncated PGM header")
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: unsupported magic {magic!r} (want P2 or P5)")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise PgmError(f"{path}: non-numeric PGM header fields")
    if width <= 0 or height <= 0 or maxval <= 0:
        raise PgmError(f"{path}: invalid PGM dimensions {width}x{height} maxval {maxval}")
    if maxval > MAX_MAXVAL:
        raise PgmError(f"{path}: maxval {maxval} exceeds the PGM limit {MAX_MAXVAL}")
    if magic == b"P2":
        raster = data[end:]
        # bytes.split() breaks on exactly the bytes isspace() accepts, so
        # without comments it yields the tokenizer's tokens
        tokens = [tok for tok, _ in _tokens(raster)] if b"#" in raster else raster.split()
        if len(tokens) != width * height:
            raise PgmError(f"{path}: expected {width * height} samples, found {len(tokens)}")
        # int() would also take "-3", "+7" and "1_0"
        if not b"".join(tokens).isdigit():
            raise PgmError(f"{path}: P2 samples must be unsigned decimal integers")
        arr = np.array(list(map(int, tokens)), dtype=np.int64).reshape(height, width)
    else:
        body = data[end + 1:]
        itemsize = 1 if maxval < 256 else 2
        needed = width * height * itemsize
        if len(body) < needed:
            raise PgmError(f"{path}: expected {needed} raster bytes, found {len(body)}")
        dt = np.uint8 if itemsize == 1 else ">u2"
        arr = np.frombuffer(body[:needed], dtype=dt).astype(np.int64).reshape(height, width)
    if arr.max(initial=0) > maxval:
        raise PgmError(f"{path}: sample exceeds declared maxval {maxval}")
    return arr, maxval


@functools.lru_cache(maxsize=None)
def _decimals(places: int) -> np.ndarray:
    """The decimal text of 0 .. 10**places - 1, null-padded to ``places`` bytes."""
    table = np.arange(10 ** places).astype(f"S{places}")
    table.flags.writeable = False  # every caller shares the cached table
    return table


def _p2_raster(samples: np.ndarray) -> bytes:
    """Decimal text of a non-negative (H, W) int grid, as ``str`` writes
    each sample: one space after each sample, a newline after each row.

    Each cell is a sample's ``_decimals`` text and its separator; dropping
    the pad bytes leaves ``str``'s digits. A 128-px heatmap took 0.11 ms, a
    digit scatter 0.21 ms (median of 31, 1 BLAS thread), ``" ".join`` over
    ``tolist()`` rows 3.7 ms and one ``str`` per sample 4.8 ms (median of
    11). Rebuilt per call, the table made a 32-px raster slower than the
    scatter; cached, a 16-bit one costs 6.6 ms once."""
    table = _decimals(len(str(int(samples.max()))))
    cells = np.empty(samples.shape, dtype=[("digits", table.dtype), ("sep", "S1")])
    cells["digits"] = table[samples]
    cells["sep"] = b" "
    cells["sep"][:, -1] = b"\n"
    return cells.tobytes().replace(b"\0", b"")


def write_pgm(path, values01: np.ndarray, maxval: int = 255) -> None:
    """Write a [0, 1] float grid as ASCII P2."""
    arr = np.asarray(values01, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise PgmError(f"write_pgm: expected a non-empty 2-D grid, got shape {arr.shape}")
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PgmError(f"write_pgm: maxval must be in [1, {MAX_MAXVAL}], got {maxval}")
    if np.isnan(arr).any():  # the clip below takes +-inf to maxval and 0
        raise PgmError("write_pgm: grid contains NaN")
    quantized = np.clip(np.rint(arr * maxval), 0, maxval).astype(np.int64)
    header = f"P2\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + _p2_raster(quantized))
