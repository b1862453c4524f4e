"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

Every forward op validates its inputs, computes with numpy, and (when a Tape
is active) records a vector-Jacobian callback. ``Tape.backward`` replays the
records in exact reverse execution order, accumulating gradients into the
``grad`` slot of every tensor it touched. Gradient accumulators are reset at
the start of each backward pass, so repeated backward calls from the same tape
state are bit-identical.

The engine is single-threaded: one tape, one execution context. With no tape
active the ops are pure numpy functions and may run concurrently (inference),
and so may the array executor below.

Every op that computes on values rejects NaN and infinities in its inputs. A
tensor's array is scanned once: a passing scan marks the tensor finite, and
only assigning to ``data`` clears the mark, so a parameter is scanned again
after an optimizer step or a checkpoint load, not on every use. Change a
tensor's values by assigning to ``data`` (``p.data = a`` or ``p.data -= d``),
never by writing through an alias of the array (``p.data[i] = v``, ``out=``,
``np.copyto``): such a write does not clear the mark, and a non-finite value
written that way goes unseen.

Inside an ``FpTraps`` scope, op outputs are finite by construction: numpy
raises on overflow, invalid operations and division by zero, so a value op
(add, sub and mul through ``_binary_op``, each one-input op through
``_value_op``) that ran on finite inputs with no trap firing marks its output
finite. On a trap the op computes again under the caller's errstate, so
numpy's warning still shows, and leaves its output unmarked for the next op
to reject. Structural ops (concat, and the one-input ops run through
``_structural_op``) pass their input's mark on, in a scope or not. Still
scanned: matmul and conv2d outputs (BLAS worker threads keep their own FP
flags, so a trap there can go unseen), arrays from outside the ops, and
``data`` after assignment. The scope's state is per thread, as numpy's
errstate is.

Each model writes its forward and its caption step once, against the op
namespace ``ops()``, as bodies decorated ``executed``. Two executors run
them. While a ``Tape`` records (the losses and training), a body runs on this
module's ops, the tape executor. Otherwise (decoding) it runs on
``ArrayOps``, the array executor: the tape ops' own kernels in the same
order, on plain float64 arrays, with no tensors and no tape records, so its
outputs have the tape executor's bytes. The array executor keeps the
finiteness contract above. It enters ``FpTraps`` once per body and scans each matmul
product. It scans a tensor operand, such as a parameter, only while the
operand is not marked finite. The checks of a lookup's ids (plain
indexing would wrap a negative id) and of a narrow's range live in the
kernels, ``_lookup`` and ``_narrow``, so both executors make them.
On a trap, a failed scan or any ``ValueError``, the body runs again on the
tape ops, so the warning and the error are the tape ops' own, and an output
that run leaves non-finite is rejected.
A recording tape is also the only switch between training and inference:
``dropout`` draws a mask only then. Both models keep their parameters in a
``ParameterStore``, which draws them from one seeded generator in creation
order and reads them in a body on the running executor.

``conv2d`` unrolls its input into im2col columns one band of output rows at
a time (about ``CONV_BAND_COLUMNS`` columns, on whole ``GEMM_TILE`` tiles),
so the forward never holds the full column buffer. Each band's product is
bitwise the full product's columns: a GEMM computes each output column from
its own column of the second operand, in tiles that the bands keep intact
(``conv2d`` names the one measured limit). The VJP keeps only the padded
input and rebuilds the full columns, so the weight gradient's reduction over
all pixels stays one GEMM.
"""

from __future__ import annotations

import contextvars
import functools
import logging
import math
import operator
import sys

import numpy as np

logger = logging.getLogger(__name__)


class ShapeMismatchError(ValueError):
    """Raised when operand shapes cannot be combined; names both shapes."""


class NonFiniteInputError(ValueError):
    """Raised when an op receives NaN or infinite values."""


def _as_f64(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


# the caller's errstate while an FpTraps scope is open in this context (numpy
# keeps its errstate per context too), else None
_CALLER_ERRSTATE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "capseq_caller_errstate", default=None)


class FpTraps:
    """Scope in which op outputs computed without a floating-point trap are
    marked finite (see the module docstring).

    The outermost entry makes numpy raise ``FloatingPointError`` on overflow,
    invalid operations and division by zero (underflow stays silent); nested
    entries change nothing, and exit restores the caller's errstate. Ops
    catch their own traps; other numpy code run inside the scope raises on
    them too.
    """

    __slots__ = ("_token", "_errstate")

    def __enter__(self) -> "FpTraps":
        self._token = None
        if _CALLER_ERRSTATE.get() is None:
            self._errstate = np.errstate(over="raise", invalid="raise", divide="raise",
                                         under="ignore")
            self._token = _CALLER_ERRSTATE.set(np.geterr())
            self._errstate.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            self._errstate.__exit__(exc_type, exc, tb)
            _CALLER_ERRSTATE.reset(self._token)
        return False


def _run(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and whether it ran trapped with no trap firing.
    A trap repeats the call under the caller's errstate, so numpy warns as it
    would outside the scope; ``fn`` must draw no random numbers."""
    caller = _CALLER_ERRSTATE.get()
    if caller is None:
        return fn(*args, **kwargs), False
    try:
        return fn(*args, **kwargs), True
    except FloatingPointError:
        with np.errstate(**caller):
            return fn(*args, **kwargs), False


def _marked(value: np.ndarray, finite: bool) -> Tensor:
    """A new tensor over ``value`` whose finite mark is ``finite``; a
    structural op passes on its input's mark. A float64 array is taken as it
    is; other values convert as ``Tensor`` converts them."""
    if type(value) is np.ndarray and value.dtype == np.float64:
        out = Tensor.__new__(Tensor)
        out._data = value
        out.grad = None
    else:
        out = Tensor(value)
    out._finite = finite
    return out


def _fresh(fn, *args, **kwargs) -> Tensor:
    """A value op's output from finite inputs: ``fn(*args, **kwargs)``,
    marked finite when it ran trapped and no trap fired."""
    return _marked(*_run(fn, *args, **kwargs))


def _require_finite(op: str, *tensors: Tensor) -> None:
    """Scan each tensor not yet marked finite, and mark it if it passes."""
    for t in tensors:
        if not t._finite:
            if not np.isfinite(t._data).all():
                raise NonFiniteInputError(f"{op}: input contains non-finite values")
            t._finite = True


class Tensor:
    """Dense float64 array plus a gradient slot filled in by Tape.backward."""

    __slots__ = ("_data", "_finite", "grad")

    def __init__(self, data):
        self._data = _as_f64(data)
        self._finite = False
        self.grad: np.ndarray | None = None

    def _set_data(self, value: np.ndarray) -> None:
        self._data = value
        self._finite = False

    # assignment, plain or augmented, goes through the setter and clears the
    # finite mark (see the module docstring)
    data = property(operator.attrgetter("_data"), _set_data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self._data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # arithmetic sugar; all routed through the module-level ops

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)


class Parameter(Tensor):
    """Named leaf tensor of a model.

    ``grad`` is allocated at creation and always matches the value shape;
    parameters never reached by a backward pass keep their zero gradient.
    A parameter trains exactly when an optimizer holds it.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self._data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of executed ops, replayed backward for gradients."""

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every tensor reachable from ``loss``.

        Rejects non-scalar losses. Accumulators are zeroed first, then the
        records are replayed newest-to-oldest.
        """
        if loss._data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        touched: list[Tensor] = []
        seen: set[int] = set()
        on_tape = False
        for out, inputs, _ in self._entries:
            for t in (out, *inputs):
                if id(t) not in seen:
                    seen.add(id(t))
                    touched.append(t)
            if out is loss:
                on_tape = True
        if not on_tape:
            raise ValueError("loss tensor was not produced on this tape")
        for t in touched:
            t.grad = np.zeros_like(t._data)
        loss.grad = np.ones_like(loss._data)
        for out, inputs, vjp in reversed(self._entries):
            grads = vjp(out.grad)
            for t, g in zip(inputs, grads):
                if g is not None:
                    t.grad += g


def _record(out: Tensor, inputs, vjp) -> None:
    if _TAPES:
        _TAPES[-1]._entries.append((out, tuple(inputs), vjp))


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    t = Tensor(value)
    # a finite Python number (an epsilon, a scale) needs no scan on each use
    t._finite = isinstance(value, (int, float)) and math.isfinite(value)
    return t


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _binary_op(op: str, ufunc, a, b, vjp) -> Tensor:
    """``ufunc`` of two finite operands under numpy broadcasting, recorded
    with the backward ``vjp(g, a_array, b_array)``, whose two gradients are
    each summed back to their operand's shape. A pair that does not
    broadcast raises ShapeMismatchError, also when it is not finite; the
    shapes are checked only once numpy or the scan has failed."""
    a, b = _coerce(a), _coerce(b)
    try:
        _require_finite(op, a, b)
        out = _fresh(ufunc, a._data, b._data)
    except ValueError:
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
        raise

    def backward(g):
        ga, gb = vjp(g, a._data, b._data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    _record(out, (a, b), backward)
    return out


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a, b) -> Tensor:
    return _binary_op("add", np.add, a, b, lambda g, a, b: (g, g))


def sub(a, b) -> Tensor:
    return _binary_op("sub", np.subtract, a, b, lambda g, a, b: (g, -g))


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    return _binary_op("mul", np.multiply, a, b, lambda g, a, b: (g * b, g * a))


def matmul(a, b) -> Tensor:
    """Product over the last two axes. Leading axes broadcast as in
    ``np.matmul``, which runs every slice as its own 2-D product: a stacked
    product equals the per-slice products bitwise (the tests pin this)."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul: expected operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")
    _require_finite("matmul", a, b)
    try:
        # never marked: BLAS worker threads keep their own FP flags
        out = Tensor(_run(operator.matmul, a._data, b._data)[0])
    except ValueError:  # the leading axes, checked by numpy
        raise ShapeMismatchError(f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast")

    def vjp(g):
        return _unbroadcast(g @ b._data.mT, a.shape), _unbroadcast(a._data.mT @ g, b.shape)

    _record(out, (a, b), vjp)
    return out


def _value_op(op: str, x, kernel, vjp, *args) -> Tensor:
    """A one-input value op: ``kernel(x_array, *args)`` on a finite ``x``,
    its output marked as ``_fresh`` marks it, recorded with the backward
    ``vjp(g, x_array, y_array, *args)`` on the arrays of the forward."""
    x = _coerce(x)
    _require_finite(op, x)
    out = _fresh(kernel, x._data, *args)
    d, y = x._data, out._data
    _record(out, (x,), lambda g: (vjp(g, d, y, *args),))
    return out


def _sigmoid(d: np.ndarray) -> np.ndarray:
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)
    return y


def sigmoid(x) -> Tensor:
    return _value_op("sigmoid", x, _sigmoid, lambda g, d, y: g * y * (1.0 - y))


def tanh(x) -> Tensor:
    return _value_op("tanh", x, np.tanh, lambda g, d, y: g * (1.0 - y * y))


def _relu(d: np.ndarray) -> np.ndarray:
    return np.maximum(d, 0.0)


def relu(x) -> Tensor:
    return _value_op("relu", x, _relu, lambda g, d, y: g * (d > 0))


def log(x) -> Tensor:
    x = _coerce(x)
    _require_finite("log", x)
    if np.any(x._data <= 0):
        raise ValueError("log: input must be strictly positive (clamp first)")
    return _value_op("log", x, np.log, lambda g, d, y: g / d)


def powc(x, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    return _value_op("powc", x, operator.pow,
                     lambda g, d, y, exponent: g * exponent * d ** (exponent - 1.0), exponent)


def clamp_min(x, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where the input was not clamped."""
    return _value_op("clamp_min", x, np.maximum, lambda g, d, y, floor: g * (d > floor), floor)


def _softmax(d: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(d - d.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g, d, y, axis):
    inner = (g * y).sum(axis=axis, keepdims=True)
    return (g - inner) * y


def _log_softmax(d: np.ndarray, axis: int) -> np.ndarray:
    shifted = d - d.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def softmax(x, axis: int = -1) -> Tensor:
    """Stable softmax; output is strictly positive and sums to 1 along axis."""
    return _value_op("softmax", x, _softmax, _softmax_vjp, axis)


def log_softmax(x, axis: int = -1) -> Tensor:
    return _value_op("log_softmax", x, _log_softmax,
                     lambda g, d, y, axis: g - np.exp(y) * g.sum(axis=axis, keepdims=True), axis)


def _sum(d: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    return d.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(g, d, y, axis, keepdims):
    """A sum's gradient broadcast back over the cells it summed."""
    if not (axis is None or keepdims):
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, d.shape).copy()


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    return _value_op("sum", x, _sum, _sum_vjp, axis, keepdims)


def _mean(d: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    count = d.size if axis is None else d.shape[axis]
    # ndarray.mean's own sum and division, without its Python wrapper
    return np.add.reduce(d, axis=axis, keepdims=keepdims) / count


def _mean_vjp(g, d, y, axis, keepdims):
    return _sum_vjp(g / (d.size if axis is None else d.shape[axis]), d, y, axis, keepdims)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    return _value_op("mean", x, _mean, _mean_vjp, axis, keepdims)


# ---------------------------------------------------------------------------
# structural ops


def _structural_op(x, select, vjp, *args) -> Tensor:
    """``select(x_array, *args)``, passing on the finite mark of ``x``,
    recorded with the backward ``vjp(g, x_array, *args)``."""
    x = _coerce(x)
    d = x._data
    out = _marked(select(d, *args), x._finite)
    _record(out, (x,), lambda g: (vjp(g, d, *args),))
    return out


def reshape(x, shape) -> Tensor:
    return _structural_op(x, np.ndarray.reshape, lambda g, d, shape: g.reshape(d.shape), shape)


def _transpose_vjp(g, d, axes):
    inverse = None if axes is None else [list(axes).index(i) for i in range(len(axes))]
    return g.transpose(inverse)


def transpose(x, axes=None) -> Tensor:
    return _structural_op(x, np.ndarray.transpose, _transpose_vjp, axes)


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [_coerce(t) for t in tensors]
    if not parts:
        raise ValueError("concat: need at least one tensor")
    out = _marked(np.concatenate([p._data for p in parts], axis=axis),
                  all(p._finite for p in parts))

    def vjp(g):
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    _record(out, tuple(parts), vjp)
    return out


def _narrow(d: np.ndarray, axis: int, start: int, length: int) -> np.ndarray:
    if start < 0 or start + length > d.shape[axis]:
        raise ShapeMismatchError(
            f"narrow: [{start}, {start + length}) out of range for extent {d.shape[axis]}"
        )
    index = [slice(None)] * d.ndim
    index[axis] = slice(start, start + length)
    return d[tuple(index)]


def _narrow_vjp(g, d, axis, start, length):
    full = np.zeros_like(d)
    _narrow(full, axis, start, length)[...] = g  # a view of full
    return full


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    return _structural_op(x, _narrow, _narrow_vjp, axis, start, length)


# ---------------------------------------------------------------------------
# lookup ops


def _check_ids(op: str, ids: np.ndarray, extent: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= extent):
        raise ValueError(f"{op}: index out of range [0, {extent})")


def _lookup(table: np.ndarray, ids) -> np.ndarray:
    """Rows ``table[ids]`` for in-range ids; plain indexing would wrap a
    negative id."""
    ids = np.asarray(ids, dtype=np.int64)
    _check_ids("embedding_lookup", ids, table.shape[0])
    return table[ids]


def _scatter_add(g, d, index):
    """The gradient of ``d[index]``: ``g`` added back at ``index``."""
    gd = np.zeros_like(d)
    np.add.at(gd, index, g)
    return gd


def embedding_lookup(table, ids) -> Tensor:
    """Rows of a (V, m) table selected by integer ids of any shape, giving
    ``ids.shape + (m,)``; gradient scatter-adds."""
    table = _coerce(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeMismatchError(f"embedding_lookup: table {table.shape} must be 2-D")
    rows = _lookup(table._data, ids)  # the ids are checked before the table's scan
    _require_finite("embedding_lookup", table)
    out, d = _marked(rows, True), table._data
    _record(out, (table,), lambda g: (_scatter_add(g, d, ids),))
    return out


def pick(x, ids) -> Tensor:
    """Per-row element selection: out[i] = x[i, ids[i]] for a 2-D input."""
    x = _coerce(x)
    ids = np.asarray(ids, dtype=np.int64)
    if x.ndim != 2 or ids.shape != (x.shape[0],):
        raise ShapeMismatchError(f"pick: input {x.shape} needs ids of shape ({x.shape[0]},)")
    _check_ids("pick", ids, x.shape[1])
    return _structural_op(x, operator.getitem, _scatter_add, (np.arange(x.shape[0]), ids))


# ---------------------------------------------------------------------------
# convolution, pooling, dropout


# OpenBLAS (measured: scipy-openblas 0.3.31) hands a GEMM of at most this many
# multiply-adds (M*N*K) to a small-matrix kernel, which can round unlike the
# regular kernel: measured for reductions longer than _SMALL_GEMM_SPLIT, which
# it does not split, and for the LM head's (T, 32) @ (32, 337) product. So a
# band or row tail of a GEMM above the bound that falls under it can differ
# from the full product's columns or rows. The LM therefore runs its head at
# full height, zero rows above the tail, from T = 93 on at desk dims.
SMALL_GEMM_MULADDS = 1_000_000
_SMALL_GEMM_SPLIT = 384

# Columns of one im2col band in conv2d's forward: whole output rows, at least
# one. 1024 columns of a 32-channel 3x3 layer are 2.4 MB, about one core's
# L2 cache; widths from 256 to 2048 ran a 128 px 32-channel layer about
# equally fast.
CONV_BAND_COLUMNS = 1024
# OpenBLAS computes a product in tiles of 8 rows and 8 columns; rows or
# columns past the last whole tile go through narrower kernels that can round
# differently, and a 1-wide product is a gemv. So conv2d bands hold whole
# column tiles (one band if H*W is not a multiple), LM decoding whole row tiles.
GEMM_TILE = 8


def _band_rows(h: int, w: int, least: int = 1) -> int:
    """Output rows per im2col band of an (h, w) image, at least ``least``."""
    if (h * w) % GEMM_TILE:
        return h
    step = GEMM_TILE // math.gcd(w, GEMM_TILE)
    return min(h, max(step, -(-least // step) * step, CONV_BAND_COLUMNS // w // step * step))


def _band_edges(h: int, w: int, c_out: int, ckk: int) -> list[int]:
    """Row edges ``[0, ..., h]`` of the im2col bands of an (h, w) image for a
    (c_out, ckk) kernel matrix. When the full product is above
    ``SMALL_GEMM_MULADDS`` and its reduction longer than ``_SMALL_GEMM_SPLIT``,
    every band stays above the bound too: bands get enough rows, and a short
    last band joins the one before."""
    per_row = c_out * ckk * w  # multiply-adds of one output row
    small = ckk > _SMALL_GEMM_SPLIT and per_row * h > SMALL_GEMM_MULADDS
    edges = list(range(0, h, _band_rows(h, w, SMALL_GEMM_MULADDS // per_row + 1 if small else 1)))
    if small and len(edges) > 1 and (h - edges[-1]) * per_row <= SMALL_GEMM_MULADDS:
        edges.pop()
    return edges + [h]


def _unroll(padded: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Fill ``cols`` (..., C, kh, kw, h, w) with the im2col columns of
    ``padded`` (..., C, h + kh - 1, w + kw - 1) and return it."""
    kh, kw, h, w = cols.shape[-4:]
    for dy in range(kh):
        for dx in range(kw):
            cols[..., dy, dx, :, :] = padded[..., dy:dy + h, dx:dx + w]
    return cols


def conv2d(x, weight, bias) -> Tensor:
    """Stride-1 cross-correlation with edge padding that preserves extents;
    replicating the border keeps spatially constant inputs exactly constant.

    x: (..., C_in, H, W); weight: (C_out, C_in, kh, kw); bias: (C_out,).
    Each image of the leading axes is its own 2-D product, so each output
    slice equals the call on that image alone, bitwise. The weight and bias
    gradients add the per-image terms last image first, as a tape of one
    call per image accumulates them, so those are bitwise equal too.

    The im2col columns (Chellapilla et al. 2006) are built one band of whole
    output rows at a time, about ``CONV_BAND_COLUMNS`` columns, so a band
    stays in cache while the GEMM reads it (Goto & van de Geijn 2008) and
    the full ``(C_in*kh*kw, H*W)`` buffer never exists in the forward. A
    band is bitwise the full product's columns: each output column of a
    GEMM comes from its own column of the second operand, OpenBLAS splits
    the reduction by its length alone, and the bands keep its 8-column tiles
    whole. One limit, measured with scipy-openblas 0.3.31: a product of at
    most ``SMALL_GEMM_MULADDS`` goes to a small-matrix kernel that does not
    split a reduction longer than 384, so a band that small with
    C_in*kh*kw > 384 could round unlike a full product above the bound.
    ``_band_edges`` keeps every band of such a product above the bound.
    The VJP keeps only the padded input and rebuilds the full columns,
    because the weight gradient's reduction over H*W must stay one GEMM to
    keep its bytes.
    """
    x, weight, bias = _coerce(x), _coerce(weight), _coerce(bias)
    if x.ndim < 3 or weight.ndim != 4 or bias.ndim != 1:
        raise ShapeMismatchError(
            f"conv2d: expected (...,C,H,W), (O,C,kh,kw), (O,), got {x.shape}, {weight.shape}, {bias.shape}"
        )
    c_out, c_in, kh, kw = weight.shape
    if x.shape[-3] != c_in or bias.shape[0] != c_out:
        raise ShapeMismatchError(f"conv2d: channel mismatch, input {x.shape} vs kernel {weight.shape}")
    _require_finite("conv2d", x, weight, bias)
    h, w = x.shape[-2:]
    pt, pb = (kh - 1) // 2, kh // 2
    pl, pr = (kw - 1) // 2, kw // 2
    images = x._data.reshape((-1, c_in, h, w))
    padded = np.pad(images, ((0, 0), (0, 0), (pt, pb), (pl, pr)), mode="edge")
    ckk = c_in * kh * kw
    wflat = weight._data.reshape(c_out, ckk)
    edges = _band_edges(h, w, c_out, ckk)
    bands = list(zip(edges, edges[1:]))

    def banded():
        product = np.empty((len(images), c_out, h * w))
        # per call: no-tape ops may run concurrently
        band = np.empty(ckk * max(bottom - top for top, bottom in bands) * w)
        for i in range(len(images)):
            for top, bottom in bands:
                cols = band[:ckk * (bottom - top) * w].reshape(c_in, kh, kw, bottom - top, w)
                _unroll(padded[i, :, top:bottom + kh - 1], cols)
                np.add(wflat @ cols.reshape(ckk, -1), bias._data[:, None],
                       out=product[i, :, top * w:bottom * w])
        return product

    # never marked, as matmul
    out = Tensor(_run(banded)[0].reshape(x.shape[:-3] + (c_out, h, w)))

    def vjp(g):
        shape = (len(images), c_in, kh, kw, h, w)
        colm = _unroll(padded, np.empty(shape)).reshape(len(images), ckk, h * w)
        gflat = g.reshape(len(images), c_out, h * w)
        gb = functools.reduce(np.add, gflat.sum(axis=2)[::-1])
        gw = functools.reduce(np.add, (gflat @ colm.mT)[::-1]).reshape(weight.shape)
        del colm  # before gcol, which is as large
        gcol = (wflat.T @ gflat).reshape(shape)
        gpad = np.zeros_like(padded)
        for dy in range(kh):
            for dx in range(kw):
                gpad[:, :, dy:dy + h, dx:dx + w] += gcol[:, :, dy, dx]
        # replicated border cells fold their gradient back onto the source
        # edge pixels
        rows = np.clip(np.arange(h + pt + pb) - pt, 0, h - 1)
        cols = np.clip(np.arange(w + pl + pr) - pl, 0, w - 1)
        gx = np.zeros_like(images)
        np.add.at(gx, (..., rows[:, None], cols[None, :]), gpad)
        return gx.reshape(x.shape), gw, gb

    _record(out, (x, weight, bias), vjp)
    return out


def _pool_bounds(extent: int, cells: int, i: int) -> tuple[int, int]:
    lo = (i * extent) // cells
    hi = -((-(i + 1) * extent) // cells)
    return lo, hi


def adaptive_avg_pool(x, out_h: int, out_w: int) -> Tensor:
    """Average-pool a (..., C, H, W) map to the requested spatial extents."""
    x = _coerce(x)
    if x.ndim < 3:
        raise ShapeMismatchError(f"adaptive_avg_pool: expected (...,C,H,W), got {x.shape}")
    h, w = x.shape[-2:]
    if h < out_h or w < out_w:
        raise ShapeMismatchError(
            f"adaptive_avg_pool: input extents {(h, w)} smaller than output {(out_h, out_w)}"
        )
    windows = [(i, j, *_pool_bounds(h, out_h, i), *_pool_bounds(w, out_w, j))
               for i in range(out_h) for j in range(out_w)]

    def pooled(d):
        y = np.empty(d.shape[:-2] + (out_h, out_w))
        for i, j, y0, y1, x0, x1 in windows:
            y[..., i, j] = d[..., y0:y1, x0:x1].mean(axis=(-2, -1))
        return y

    def vjp(g, d, y):
        gx = np.zeros_like(d)
        for i, j, y0, y1, x0, x1 in windows:
            area = (y1 - y0) * (x1 - x0)
            gx[..., y0:y1, x0:x1] += g[..., i, j, None, None] / area
        return gx

    return _value_op("adaptive_avg_pool", x, pooled, vjp)


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must lie in [0, 1), got {rate}")


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout while a ``Tape`` records: survivors are scaled by
    1/(1-rate). The identity with no tape recording, or at rate 0."""
    _check_rate(rate)
    x = _coerce(x)
    if not _TAPES or rate == 0.0:
        return x
    _require_finite("dropout", x)  # before the mask is drawn
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _value_op("dropout", x, np.multiply, lambda g, d, y, mask: g * mask, mask)


# ---------------------------------------------------------------------------
# executors


def operand(value) -> Tensor:
    """``value`` as the tape ops take it: a tensor as it is, an array as a
    constant, scanned on first use."""
    return _coerce(value)


def array_of(t: Tensor) -> np.ndarray:
    """The values of a tape operand."""
    return t.data


class ArrayOps:
    """The array executor: the ops of ``ops`` on plain float64 arrays. Each
    is the kernel of the tape op of its name, so its output has that op's
    bytes and it makes that op's checks; only what a kernel does not do is
    written here: ``operand``, ``array_of``, the product scan of ``matmul``
    and the identity ``dropout``. ``executed`` runs it inside ``FpTraps``,
    where a value op's output is finite by construction; each matmul
    product is scanned, as ``matmul`` has its product scanned, and a tensor
    operand unless it is marked. An array operand is taken as it is: it is
    a constant of the model, or an output of an earlier executed body."""

    @staticmethod
    def operand(value) -> np.ndarray:
        if isinstance(value, Tensor):
            _require_finite("operand", value)
            return value._data
        return value

    @staticmethod
    def array_of(a: np.ndarray) -> np.ndarray:
        return a

    @staticmethod
    def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a @ b
        if not np.isfinite(out).all():
            raise NonFiniteInputError("matmul: product contains non-finite values")
        return out

    @staticmethod
    def dropout(x: np.ndarray, rate: float, rng) -> np.ndarray:
        _check_rate(rate)  # no tape records, so no mask
        return x

    softmax = staticmethod(_softmax)
    sigmoid = staticmethod(_sigmoid)
    relu = staticmethod(_relu)
    reduce_mean = staticmethod(_mean)
    narrow = staticmethod(_narrow)
    embedding_lookup = staticmethod(_lookup)
    concat = staticmethod(np.concatenate)
    tanh = np.tanh
    powc = operator.pow


_TAPE_OPS = sys.modules[__name__]
# the executor of the executed body running in this context, if any
_STEP_OPS: contextvars.ContextVar = contextvars.ContextVar("capseq_step_ops", default=None)


def ops():
    """The op namespace a model body calls: ``ArrayOps`` while an
    ``executed`` body runs on arrays in this context, else this module, the
    tape ops. Both offer ``operand``, ``array_of``, ``matmul``, ``softmax``,
    ``relu``, ``tanh``, ``sigmoid``, ``powc``, ``reduce_mean``, ``narrow``,
    ``concat``, ``embedding_lookup`` and ``dropout``. A body adds, subtracts
    and multiplies with operators and takes ``reshape``, ``transpose`` and
    ``sum`` as methods, which arrays and tensors share; the left operand is
    always one of its executor's operands."""
    return _STEP_OPS.get() or _TAPE_OPS


def executed(body):
    """Decorate a model body written against ``ops()``, so it runs on the
    tape ops while a ``Tape`` records and on ``ArrayOps`` otherwise.

    A body called inside another runs on that one's executor. Else, with no
    tape recording, the body runs once on arrays, inside ``FpTraps``, and
    each array it returns comes back as a tensor marked finite. A trap, a
    failed scan or any ``ValueError`` makes it run again on the tape ops,
    which then warn and raise as they would have alone; an output of that
    run that is still not finite (a trap in the body's last op) raises
    ``NonFiniteInputError`` naming the body. The body must not leave a
    change behind that a second run would repeat. Tape ops run inside
    ``FpTraps`` too."""

    @functools.wraps(body)
    def run(*args, **kwargs):
        if _STEP_OPS.get() is not None:
            return body(*args, **kwargs)
        if not _TAPES:
            token = _STEP_OPS.set(ArrayOps)
            try:
                with FpTraps():
                    out = body(*args, **kwargs)
                if isinstance(out, tuple):
                    return tuple(_marked(a, True) for a in out)
                return _marked(out, True)
            except (FloatingPointError, ValueError):
                pass
            finally:
                _STEP_OPS.reset(token)
        token = _STEP_OPS.set(_TAPE_OPS)
        try:
            with FpTraps():
                out = body(*args, **kwargs)
        finally:
            _STEP_OPS.reset(token)
        if not _TAPES:
            for t in (out if isinstance(out, tuple) else (out,)):
                if not (t._finite or np.isfinite(t._data).all()):
                    raise NonFiniteInputError(
                        f"{body.__qualname__}: output contains non-finite values")
        return out

    return run


# ---------------------------------------------------------------------------
# model scaffold


class ParameterStore:
    """Named parameters of a model, drawn from one generator seeded with
    ``seed`` in creation order, so the order of the ``_matrix`` calls fixes
    every initial value. A body reads a parameter on its executor through
    ``_operand`` and ``_apply_affine``."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Parameter] = {}

    def _matrix(self, name, shape, scale=None) -> None:
        """Drawn uniformly from [-scale, scale), by default 1/sqrt(shape[0])."""
        s = scale if scale is not None else 1.0 / np.sqrt(shape[0])
        self._store(name, self._rng.uniform(-s, s, size=shape))

    def _store(self, name, values) -> None:
        self._params[name] = Parameter(values, name)

    def _affine(self, name, fan_in, fan_out) -> None:
        self._matrix(f"{name}.weight", (fan_in, fan_out))
        self._store(f"{name}.bias", np.zeros(fan_out))

    def parameters(self) -> dict[str, Parameter]:
        return dict(self._params)

    def _operand(self, ops, name: str):
        return ops.operand(self._params[name])

    def _apply_affine(self, ops, x, name: str):
        weight, bias = self._operand(ops, f"{name}.weight"), self._operand(ops, f"{name}.bias")
        return ops.matmul(x, weight) + bias
