"""Forward-op analytics, gradient fidelity against finite differences, and
optimizer/checkpoint contracts."""

import ast
import contextlib
import hashlib
import inspect
import operator
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capseq import autodiff as ad
from capseq.binio import BinaryFormatError
from capseq.captioner import CaptionModel, make_optimizers
from capseq.checkpoint import (CheckpointError, load_into_model, load_tensors, save_model,
                               save_tensors, write_atomic)
from capseq.config import load_run_config
from capseq.lm import MASK_VALUE, LmConfig, TransformerLm, make_optimizer
from capseq.optim import Adam, clip_gradients, global_grad_norm, train_epochs
from capseq.tokenizers import BpeVocabulary

from oracles import finite_difference_gradients, full_im2col_conv2d, worst_relative_error

_small_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(-20, 20),
)


class TestForwardAnalytics:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.Tensor([0.0])).data[0] == 0.5

    def test_softmax_symmetry(self):
        out = ad.softmax(ad.Tensor([1.0, 1.0, 1.0, 1.0]), axis=0)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-15)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(4, 4)))
        out = a @ ad.Tensor(np.eye(4))
        np.testing.assert_array_equal(out.data, a.data)

    def test_softmax_positive_and_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = ad.Tensor(rng.normal(scale=10, size=(3, 7)))
            y = ad.softmax(x, axis=1).data
            assert np.all(y > 0)
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_dropout_rate_zero_is_identity(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        with ad.Tape():
            out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_dropout_eval_is_identity(self):
        # no tape records: the identity, and no draw
        x = ad.Tensor(np.arange(6.0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert ad.dropout(x, 0.5, rng) is x
        assert rng.bit_generator.state == state

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(np.ones(10000))
        with ad.Tape():
            out = ad.dropout(x, 0.25, rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.mean() - 1.0) < 0.05

    def test_adaptive_pool_extents(self):
        x = ad.Tensor(np.random.default_rng(0).random((3, 9, 11)))
        assert ad.adaptive_avg_pool(x, 4, 4).shape == (3, 4, 4)

    def test_conv_preserves_extents(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.random((2, 7, 5)))
        w = ad.Tensor(rng.random((4, 2, 3, 3)))
        b = ad.Tensor(np.zeros(4))
        assert ad.conv2d(x, w, b).shape == (4, 7, 5)


class TestProperties:
    @given(_small_arrays)
    def test_softmax_rows_normalize_everywhere(self, data):
        y = ad.softmax(ad.Tensor(data), axis=-1).data
        assert np.all(y > 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    @given(_small_arrays)
    def test_dropout_rate_zero_identity_everywhere(self, data):
        x = ad.Tensor(data)
        with ad.Tape():
            assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    @given(_small_arrays)
    def test_log_softmax_exponentiates_to_softmax(self, data):
        x = ad.Tensor(data)
        np.testing.assert_allclose(np.exp(ad.log_softmax(x, axis=-1).data),
                                   ad.softmax(x, axis=-1).data, atol=1e-12)

    @given(_small_arrays)
    def test_item_round_trip_on_scalars(self, data):
        total = ad.Tensor(data).sum()
        assert total.item() == pytest.approx(float(data.sum()), rel=1e-12, abs=1e-12)


def _normal(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def _same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestOpDispatch:
    """Shortcuts in op dispatch keep every byte of what they replace."""

    def test_marked_takes_float64_arrays_as_they_are(self):
        a = np.arange(6.0).reshape(2, 3)
        out = ad._marked(a, True)
        assert out.data is a and out._finite and out.grad is None
        view = a.T
        assert ad._marked(view, False).data is view

    @pytest.mark.parametrize("value", [np.float64(2.5), 3, np.arange(4, dtype=np.int64),
                                       np.ones(3, dtype=np.float32)])
    def test_marked_converts_scalars_and_other_dtypes(self, value):
        out = ad._marked(value, False)
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64
        assert _same_bytes(out.data, np.asarray(value, dtype=np.float64))

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 32), (2, 2, 9, 130)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_reduce_mean_equals_ndarray_mean_bitwise(self, shape, keepdims):
        d = _normal(len(shape), *shape) * 1e3
        for axis in [None, *range(-len(shape), len(shape))]:
            want = d.mean(axis=axis, keepdims=keepdims)
            for scope in (contextlib.nullcontext, ad.FpTraps):
                with scope():
                    got = ad.reduce_mean(ad.Tensor(d), axis=axis, keepdims=keepdims).data
                assert _same_bytes(got, np.asarray(want)), (axis, scope)


class TestLeadingAxis:
    """An op on a (B, ...) input equals, slice for slice and bitwise, the
    same op on each 2-D slice."""

    @given(b=st.integers(1, 5), m=st.integers(1, 64), k=st.integers(1, 48),
           n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    @example(b=2, m=1, k=32, n=300, seed=0)
    @example(b=5, m=64, k=300, n=1024, seed=1)
    def test_matmul_shared_right_operand(self, b, m, k, n, seed):
        x, w = _normal(seed, b, m, k), _normal(seed + 1, k, n)
        out = ad.matmul(x, w).data
        assert out.shape == (b, m, n)
        for i in range(b):
            assert _same_bytes(out[i], ad.matmul(x[i], w).data), i

    @given(b=st.integers(1, 5), m=st.integers(1, 64), k=st.integers(1, 48),
           n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
    @example(b=2, m=1, k=32, n=1, seed=0)
    @example(b=5, m=76, k=300, n=32, seed=1)
    def test_matmul_batched_right_operand(self, b, m, k, n, seed):
        x, w = _normal(seed, b, m, k), _normal(seed + 1, b, k, n)
        # the transposed view is how the LM forms K^T per sequence
        wt = _normal(seed + 2, b, n, k).swapaxes(-1, -2)
        out, out_t = ad.matmul(x, w).data, ad.matmul(x, wt).data
        for i in range(b):
            assert _same_bytes(out[i], ad.matmul(x[i], w[i]).data), i
            assert _same_bytes(out_t[i], ad.matmul(x[i], wt[i]).data), i

    @given(b=st.integers(1, 5), t=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_embedding_lookup_on_id_rows(self, b, t, seed):
        table = _normal(seed, 11, 6)
        ids = np.random.default_rng(seed).integers(0, 11, size=(b, t))
        out = ad.embedding_lookup(table, ids).data
        assert out.shape == (b, t, 6)
        for i in range(b):
            assert _same_bytes(out[i], ad.embedding_lookup(table, ids[i]).data), i

    @given(b=st.integers(1, 5), r=st.integers(1, 12), c=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_last_axis_ops_on_rank3(self, b, r, c, seed):
        x, y = _normal(seed, b, r, c), _normal(seed + 1, b, r, 3)
        start = seed % (c - 1)
        ops = [
            (lambda v: ad.softmax(v, axis=-1), (x,)),
            (lambda v: ad.reduce_mean(v, axis=-1, keepdims=True), (x,)),
            (lambda v: ad.narrow(v, -1, start, c - 1 - start), (x,)),
            (lambda u, v: ad.concat([u, v], axis=-1), (x, y)),
        ]
        for op, args in ops:
            out = op(*args).data
            for i in range(b):
                assert _same_bytes(out[i], op(*(a[i] for a in args)).data), (op, i)

    @pytest.mark.parametrize("b", [1, 2, 5])
    @given(c=st.integers(1, 3), o=st.integers(1, 4), h=st.integers(2, 9), w=st.integers(2, 9),
           k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_conv_and_pool_on_image_batch(self, b, c, o, h, w, k, seed):
        x, weight, bias = _normal(seed, b, c, h, w), _normal(seed + 1, o, c, k, k), _normal(seed + 2, o)
        out_h, out_w = 1 + seed % h, 1 + seed % w
        conv = ad.conv2d(x, weight, bias).data
        pooled = ad.adaptive_avg_pool(x, out_h, out_w).data
        assert conv.shape == (b, o, h, w) and pooled.shape == (b, c, out_h, out_w)
        for i in range(b):
            assert _same_bytes(conv[i], ad.conv2d(x[i], weight, bias).data), i
            assert _same_bytes(pooled[i], ad.adaptive_avg_pool(x[i], out_h, out_w).data), i

    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_conv_gradients_equal_per_image_tape(self, b, k):
        """What fine-tuning the encoder on a batch relies on: one batched
        call under a tape gives the gradients of one call per image."""
        x, g = _normal(b, b, 2, 6, 5), _normal(b + 1, b, 3, 6, 5)
        weight = ad.Parameter(_normal(b + 2, 3, 2, k, k), "w")
        bias = ad.Parameter(_normal(b + 3, 3), "b")

        def gradients(images):
            with ad.Tape() as tape:
                loss = None
                for image, gi in images:
                    piece = (ad.tanh(ad.conv2d(image, weight, bias)) * gi).sum()
                    loss = piece if loss is None else loss + piece
            tape.backward(loss)
            return [image.grad for image, _ in images], weight.grad.copy(), bias.grad.copy()

        (batched,), w_batched, b_batched = gradients([(ad.Parameter(x, "x"), g)])
        per_image, w_each, b_each = gradients([(ad.Parameter(x[i], "x"), g[i]) for i in range(b)])
        assert _same_bytes(batched, np.stack(per_image))
        assert _same_bytes(w_batched, w_each)
        assert _same_bytes(b_batched, b_each)

    def test_matmul_leading_axes_must_broadcast(self):
        with pytest.raises(ad.ShapeMismatchError, match="do not broadcast"):
            ad.matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))


def _conv_results(op, x, weight, bias, g):
    """Forward output, then input, weight and bias gradients of
    ``sum(tanh(op(x, weight, bias)) * g)`` under a tape."""
    params = [ad.Parameter(v, name) for v, name in ((x, "x"), (weight, "w"), (bias, "b"))]
    with ad.Tape() as tape:
        y = op(*params)
        loss = (ad.tanh(y) * g).sum()
    tape.backward(loss)
    return [y.data] + [p.grad for p in params]


# (CONV_BAND_COLUMNS, h, w): bands of one row, of several rows with a
# partial last band, rows rounded up to whole 8-column tiles for narrow
# images, and an H*W off the 8-column tiles (one band)
_BAND_CASES = [(1, 5, 8), (16, 9, 8), (48, 6, 12), (1, 20, 6), (8, 16, 5), (1, 10, 6)]


class TestConvBands:
    """``conv2d``'s forward builds its im2col columns in bands of output
    rows; every result equals the full-im2col oracle's bitwise."""

    def test_band_rows(self, monkeypatch):
        rows = []
        for band, h, w in _BAND_CASES:
            monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", band)
            rows.append(ad._band_rows(h, w))
        assert rows == [1, 2, 4, 4, 8, 10]
        monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", 1024)
        assert ad._band_rows(128, 128) == 8 and ad._band_rows(224, 224) == 4
        assert ad._band_rows(32, 32) == 32 and ad._band_rows(60, 60) == 16

    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("band, h, w", _BAND_CASES)
    def test_bands_equal_full_im2col(self, monkeypatch, b, c_in, k, band, h, w):
        monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", band)
        seed = 1000 * b + 100 * c_in + 10 * k + h
        x, g = _normal(seed, b, c_in, h, w), _normal(seed + 1, b, 4, h, w)
        weight, bias = _normal(seed + 2, 4, c_in, k, k), _normal(seed + 3, 4)
        with ad.FpTraps():
            assert _same_bytes(ad.conv2d(x, weight, bias).data,
                               full_im2col_conv2d(x, weight, bias).data)
        banded = _conv_results(ad.conv2d, x, weight, bias, g)
        full = _conv_results(full_im2col_conv2d, x, weight, bias, g)
        for name, got, want in zip(("y", "gx", "gw", "gb"), banded, full):
            assert _same_bytes(got, want), name

    def test_band_edges(self, monkeypatch):
        monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", 8)
        # a 288-long reduction (desk): 1-row bands
        assert ad._band_edges(67, 40, 16, 288) == list(range(68))
        # a 387-long one: 5-row bands (16 * 387 * 200 > 1e6 multiply-adds),
        # and the 2 rows left join the last of them
        assert ad._band_edges(67, 40, 16, 387) == list(range(0, 61, 5)) + [67]
        # a full product under the bound keeps its bands
        assert ad._band_edges(4, 40, 16, 387) == [0, 1, 2, 3, 4]
        monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", 1024)
        assert ad._band_edges(224, 224, 64, 576) == list(range(0, 225, 4))  # full.cfg

    def test_long_reduction_bands_equal_full_im2col(self, monkeypatch):
        """C_in 43, 3x3: a 387-long reduction, which OpenBLAS's small-matrix
        kernel does not split as the regular one does. 1-row bands of this
        layer fall under its bound and differed from the full product."""
        monkeypatch.setattr(ad, "CONV_BAND_COLUMNS", 8)
        x, g = _normal(1, 1, 43, 67, 40), _normal(4, 1, 16, 67, 40)
        weight, bias = _normal(2, 16, 43, 3, 3), _normal(3, 16)
        banded = _conv_results(ad.conv2d, x, weight, bias, g)
        full = _conv_results(full_im2col_conv2d, x, weight, bias, g)
        for name, got, want in zip(("y", "gx", "gw", "gb"), banded, full):
            assert _same_bytes(got, want), name

    def test_bitwise_at_one_and_two_blas_threads(self):
        """OpenBLAS reads its thread count when it loads, so each count runs
        in its own process; the products there are large enough to thread."""
        child = textwrap.dedent("""
            from capseq import autodiff as ad
            from oracles import full_im2col_conv2d
            from test_autodiff import _conv_results, _normal, _same_bytes
            for band, (b, c, h, w) in ((1024, (1, 16, 64, 64)), (64, (2, 16, 32, 24)),
                                       (1, (1, 8, 20, 40))):
                ad.CONV_BAND_COLUMNS = band
                operands = (_normal(h, b, c, h, w), _normal(h + 1, 16, c, 3, 3),
                            _normal(h + 2, 16), _normal(h + 3, b, 16, h, w))
                banded = _conv_results(ad.conv2d, *operands)
                full = _conv_results(full_im2col_conv2d, *operands)
                assert all(map(_same_bytes, banded, full)), band
            print("bitwise")
        """)
        tests = Path(__file__).parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0 and done.stdout == "bitwise\n", (threads, done.stderr)


class TestConvMemory:
    """The forward never holds the full im2col buffer: a (1, 32, 128, 128)
    input with a 3x3 kernel would need 37.7 MB for it."""

    FULL_COLUMNS = 32 * 9 * 128 * 128 * 8

    @staticmethod
    def _operands():
        return _normal(0, 1, 32, 128, 128), _normal(1, 32, 32, 3, 3), _normal(2, 32)

    def test_no_tape_forward_peak(self):
        x, weight, bias = self._operands()
        tracemalloc.start()
        try:
            ad.conv2d(x, weight, bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.FULL_COLUMNS / 2

    def test_taped_forward_keeps_no_columns(self):
        x, weight, bias = self._operands()
        weight = ad.Parameter(weight, "w")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.Tape() as tape:
                y = ad.conv2d(x, weight, bias)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output and the padded input, about 8.5 MB
        assert len(tape) == 1 and y.shape == (1, 32, 128, 128)
        assert held < self.FULL_COLUMNS / 2


class TestErrors:
    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ad.ShapeMismatchError) as exc:
            ad.Tensor(np.zeros((2, 3))) @ ad.Tensor(np.zeros((4, 5)))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ad.NonFiniteInputError):
            ad.add(ad.Tensor([np.nan]), ad.Tensor([1.0]))

    def test_backward_non_scalar_rejected(self):
        x = ad.Parameter(np.ones(3), "x")
        with ad.Tape() as tape:
            y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_dropout_rate_domain(self):
        for rate in (1.0, -0.1):
            for scope in (contextlib.nullcontext, ad.Tape):
                with pytest.raises(ValueError), scope():
                    ad.dropout(ad.Tensor([1.0]), rate, np.random.default_rng(0))

    def test_embedding_id_out_of_range(self):
        table = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="out of range"):
            ad.embedding_lookup(table, np.array([4]))


def _non_finite_message(op):
    return rf"^{op}: input contains non-finite values$"


class TestFiniteMark:
    """A tensor's array is scanned once; assigning to ``data`` (plain,
    augmented, or by a checkpoint load) makes the next op scan it again.
    Inside ``FpTraps`` a value op's output needs no scan unless a trap fired
    or it is a matmul product."""

    OPS = [("add", lambda p: ad.add(p, 1.0)), ("mul", lambda p: ad.mul(2.0, p)),
           ("matmul", lambda p: ad.matmul(p, np.ones((2, 1)))), ("tanh", ad.tanh),
           ("softmax", ad.softmax), ("mean", ad.reduce_mean)]

    @pytest.mark.parametrize("op, apply", OPS)
    def test_assignment_rescans(self, op, apply):
        p = ad.Parameter(np.ones((1, 2)), "p")
        apply(p)
        apply(p)
        p.data = np.array([[1.0, np.nan]])
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message(op)):
            apply(p)

    @pytest.mark.parametrize("op, apply", OPS)
    def test_augmented_assignment_rescans(self, op, apply):
        p = ad.Parameter(np.ones((1, 2)), "p")
        before = p.data
        apply(p)
        p.data -= np.array([[0.0, np.inf]])
        assert p.data is before  # the array changed in place
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message(op)):
            apply(p)

    def test_optimizer_step_that_overflows_rescans(self):
        p = ad.Parameter(np.array([1e308, 1.0]), "p")
        ad.add(p, 1.0)
        opt = Adam([p], lr=1e308, clip_norm=1.0)
        p.grad = np.array([-1.0, 0.0])  # finite, so the step is taken
        with np.errstate(over="ignore"):
            assert opt.step()
        assert np.isinf(p.data[0])
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("add")):
            ad.add(p, 1.0)

    def test_checkpoint_load_rescans(self, tmp_path):
        p = ad.Parameter(np.ones(3), "w")
        ad.mul(p, p)
        path = tmp_path / "nan.ckpt"
        save_tensors(path, {"w": np.array([0.0, np.nan, 1.0])})
        load_into_model(path, {"w": p})
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("mul")):
            ad.mul(p, p)

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    @pytest.mark.parametrize("left, right", [
        ([1.0, 2.0, 3.0], [1.0, 2.0]),
        ([np.nan, 2.0, 3.0], [1.0, 2.0]),
        ([1.0, 2.0, 3.0], [np.inf, 2.0]),
        ([np.nan, 2.0, 3.0], [np.nan, np.inf]),
    ])
    def test_shapes_checked_before_values(self, op, left, right):
        a, b = ad.Tensor(left), ad.Tensor(right)
        with pytest.raises(ad.ShapeMismatchError, match=r"shapes \(3,\) and \(2,\) do not broadcast"):
            op(a, b)
        # the same values under broadcastable shapes fail on the scan
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            with pytest.raises(ad.NonFiniteInputError):
                op(a.reshape((3, 1)), b)

    def test_python_number_constants_are_not_scanned(self, monkeypatch):
        model = TransformerLm(LmConfig(layers=2, heads=2, model_dim=8, ffn_dim=16, block_size=16),
                              BpeVocabulary.train("ab", 0), seed=0)
        model.forward([5, 9, 2, 7])
        scanned = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(np.ndim(a)) or isfinite(a))
        model.forward([5, 9, 2, 7])
        assert scanned and 0 not in scanned
        monkeypatch.undo()
        x = ad.Tensor([1.0, 2.0])
        for value in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("mul")):
                ad.mul(x, value)

    def test_parameters_scanned_once_per_change(self, monkeypatch, tmp_path):
        model = TransformerLm(LmConfig(layers=2, heads=2, model_dim=8, ffn_dim=16, block_size=16),
                              BpeVocabulary.train("ab", 0), seed=0)
        params = list(model.parameters().values())
        ids = [5, 9, 2, 7, 7, 1]
        scanned = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(a) or isfinite(a))

        def parameter_scans(forward):
            scanned.clear()
            forward()
            return sorted(p.name for p in params if any(a is p.data for a in scanned))

        every = sorted(p.name for p in params)
        assert parameter_scans(lambda: model.forward(ids)) == every
        assert parameter_scans(lambda: model.forward(ids)) == []
        assert parameter_scans(lambda: model.forward([ids, ids])) == []
        opt = Adam(params, lr=1e-3, clip_norm=1.0)
        with ad.Tape() as tape:
            loss = model.loss(ids)
        tape.backward(loss)
        assert opt.step()
        assert parameter_scans(lambda: model.forward(ids)) == every
        assert parameter_scans(lambda: model.forward(ids)) == []
        save_model(tmp_path / "lm.ckpt", model.parameters())
        load_into_model(tmp_path / "lm.ckpt", model.parameters())
        assert parameter_scans(lambda: model.forward(ids)) == every
        assert parameter_scans(lambda: model.forward(ids)) == []

    @pytest.mark.parametrize("make, warning", [
        (lambda: ad.mul(ad.Tensor([1e200, 1.0]), 1e200), "overflow encountered in multiply"),
        (lambda: ad.powc(ad.Tensor([0.0, 1.0]), -0.5), "divide by zero"),
    ])
    def test_trapped_output_warns_and_stays_unmarked(self, make, warning):
        with pytest.warns(RuntimeWarning, match=warning):
            expected = make().data
        with ad.FpTraps():
            with pytest.warns(RuntimeWarning, match=warning):
                y = make()
            assert not y._finite
            with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("add")):
                ad.add(y, 1.0)
        assert _same_bytes(y.data, expected)

    def test_untrapped_outputs_marked_inside_scope_only(self):
        x = ad.Tensor([0.5, -2.0])
        assert not ad.tanh(x)._finite
        with ad.FpTraps():
            assert ad.tanh(x)._finite
        assert not ad.tanh(x)._finite

    # every op run through ``_value_op``: (name in its errors, call on x and a generator)
    VALUE_OPS = [
        ("sigmoid", lambda x, rng: ad.sigmoid(x)),
        ("tanh", lambda x, rng: ad.tanh(x)),
        ("relu", lambda x, rng: ad.relu(x)),
        ("log", lambda x, rng: ad.log(x)),
        ("powc", lambda x, rng: ad.powc(x, -0.5)),
        ("clamp_min", lambda x, rng: ad.clamp_min(x, 1.0)),
        ("softmax", lambda x, rng: ad.softmax(x, -1)),
        ("log_softmax", lambda x, rng: ad.log_softmax(x, 1)),
        ("sum", lambda x, rng: ad.reduce_sum(x, 2, True)),
        ("mean", lambda x, rng: ad.reduce_mean(x)),
        ("adaptive_avg_pool", lambda x, rng: ad.adaptive_avg_pool(x, 2, 3)),
        ("dropout", lambda x, rng: ad.dropout(x, 0.5, rng)),
    ]

    @pytest.mark.parametrize("op, apply", VALUE_OPS, ids=[op for op, _ in VALUE_OPS])
    def test_value_op_contract(self, op, apply):
        # a recording tape, so dropout draws its mask; the output is marked
        # inside the scope only, and one record is taken either way
        x = ad.Tensor(np.random.default_rng(0).uniform(0.5, 2.0, size=(2, 3, 4, 5)))
        for scope, marked in ((contextlib.nullcontext, False), (ad.FpTraps, True)):
            with ad.Tape() as tape, scope():
                y = apply(x, np.random.default_rng(1))
            assert y._finite is marked and len(tape) == 1
        rng = np.random.default_rng(1)
        untouched = rng.bit_generator.state
        bad = x.data.copy()
        bad[1, 2, 3, 4] = np.nan
        with ad.Tape() as tape, ad.FpTraps():
            with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message(op)):
                apply(ad.Tensor(bad), rng)
        assert len(tape) == 0 and rng.bit_generator.state == untouched

    @pytest.mark.parametrize("op", [
        lambda t, _: ad.reshape(t, (2, 1)), lambda t, _: ad.transpose(t),
        lambda t, _: ad.narrow(t, 1, 1, 1), lambda t, _: ad.pick(t, [1]),
        lambda t, marked: ad.concat([marked, t]),
    ])
    def test_structural_ops_pass_the_mark(self, op):
        with ad.FpTraps():
            marked = ad.tanh(ad.Tensor([[0.5, 1.0]]))
        assert op(marked, marked)._finite
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("tanh")):
            ad.tanh(op(ad.Tensor([[1.0, np.nan]]), marked))
        assert ad.embedding_lookup(ad.Tensor([[1.0], [2.0]]), [1, 0])._finite

    def test_matmul_output_never_marked(self):
        with ad.FpTraps():
            assert not ad.matmul(np.ones((2, 2)), np.ones((2, 2)))._finite
        # whether BLAS raised the overflow flag or not, the next op scans
        with np.errstate(over="ignore"), ad.FpTraps():
            big = ad.matmul(np.full((3, 2), 1e200), np.full((2, 3), 1e200))
            assert not big._finite
            with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("tanh")):
                ad.tanh(big)

    def test_scope_of_one_thread_marks_nothing_in_another(self):
        entered, release = threading.Event(), threading.Event()

        def hold_scope():
            with ad.FpTraps():
                entered.set()
                release.wait(10)

        holder = threading.Thread(target=hold_scope)
        holder.start()
        try:
            assert entered.wait(10)
            with np.errstate(over="ignore"):
                y = ad.mul(ad.Tensor([1e200]), 1e200)
            with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("add")):
                ad.add(y, 1.0)
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()

    def test_trapped_dropout_draws_one_mask(self):
        x = ad.Tensor(np.full((3, 4), 1e308))
        outputs, states = [], []
        for scope in (contextlib.nullcontext, ad.FpTraps):
            rng = np.random.default_rng(7)
            with np.errstate(over="ignore"), scope(), ad.Tape():
                y = ad.dropout(x, 0.5, rng)
                with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("sum")):
                    y.sum()
            outputs.append(y.data)
            states.append(rng.bit_generator.state)
        assert np.isinf(outputs[0]).any()
        assert _same_bytes(outputs[0], outputs[1])
        assert states[0] == states[1]

    def test_scope_restores_caller_errstate(self):
        trapped = dict(divide="raise", over="raise", under="ignore", invalid="raise")
        with np.errstate(divide="print", over="warn", under="raise", invalid="ignore"):
            caller = np.geterr()
            with ad.FpTraps():
                assert np.geterr() == trapped
                with ad.FpTraps():
                    assert np.geterr() == trapped
                assert np.geterr() == trapped
                assert ad.tanh(ad.Tensor([1.0]))._finite  # the outer scope is still open
            assert np.geterr() == caller
            with pytest.raises(KeyError):
                with ad.FpTraps():
                    raise KeyError("inside")
            assert np.geterr() == caller
            assert not ad.tanh(ad.Tensor([1.0]))._finite

    def test_forward_scans_only_products_and_constant_tables(self, monkeypatch):
        self._check_scans(monkeypatch, 0)

    def test_tail_forward_scans_only_products_and_constant_tables(self, monkeypatch):
        # the last layer narrows the mask; the first has scanned the whole table
        self._check_scans(monkeypatch, 56)

    def test_cached_forward_scans_products_tables_and_joined_keys(self, monkeypatch):
        # each layer's keys and values, cached rows joined to new ones, are
        # scanned once, as are the rows 56..63 of the two tables
        self._check_scans(monkeypatch, 56, cached=True)

    @staticmethod
    def _scan_setup(start, cached):
        """A desk-dims LM whose parameters are marked, its ids, and the
        ``past`` of its ``start`` row (None unless ``cached``)."""
        model = TransformerLm(LmConfig(layers=2, heads=2, model_dim=32, ffn_dim=64, block_size=64),
                              BpeVocabulary.train("ab", 0), seed=0)
        ids = np.arange(64) % model.vocab_size
        present = []
        model.forward(ids, 0, None, present)
        past = [(k[..., :start], v[..., :start, :]) for k, v in present] if cached else None
        model.forward(ids, start, past)
        return model, ids, past, present

    @classmethod
    def _check_scans(cls, monkeypatch, start, cached=False):
        # on the tape ops, which run while a tape records
        model, ids, past, present = cls._scan_setup(start, cached)
        products, scanned = [], []
        matmul, isfinite = ad.matmul, np.isfinite
        monkeypatch.setattr(ad, "matmul", lambda a, b: products.append(matmul(a, b)) or products[-1])
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(a) or isfinite(a))
        with ad.Tape():
            model.forward(ids, start, past)
        monkeypatch.undo()
        assert len(products) == 17  # q, k, v, scores, mix, proj, ffn1, ffn2 per layer; head
        first = start if cached else 0
        tables = [model._positions[first:], np.triu(np.full((64, 64), MASK_VALUE), k=1)[first:]]
        joined = [a for pair in present for a in pair] if cached else []

        def found_in(a, arrays):
            # a product may be scanned after a transpose and reshape
            return any(_same_bytes(np.sort(a, axis=None), np.sort(b, axis=None)) for b in arrays)

        assert sum(found_in(a, tables) for a in scanned) == len(tables)
        assert sum(found_in(a, joined) for a in scanned) == len(joined)
        assert all(found_in(a, [p.data for p in products]) for a in scanned
                   if not found_in(a, tables + joined))
        assert len(scanned) == len(products) + len(tables) + len(joined)

    @pytest.mark.parametrize("start, cached", [(0, False), (56, False), (56, True)])
    def test_array_forward_scans_only_its_products(self, monkeypatch, start, cached):
        # with no tape, the forward scans its 17 matmul products, each as it
        # comes out of the product, and nothing else: not the tables, not the
        # cached keys and values, not the marked parameters
        model, ids, past, _ = self._scan_setup(start, cached)
        products = []
        matmul = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda a, b: products.append(matmul(a, b)) or products[-1])
        with ad.Tape():
            want = model.forward(ids, start, past).data
        monkeypatch.undo()
        scanned = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(a) or isfinite(a))
        got = model.forward(ids, start, past).data
        monkeypatch.undo()
        assert _same_bytes(got, want)
        assert len(scanned) == 17
        assert [(a.shape, a.tobytes()) for a in scanned] == \
            [(p.shape, p.data.tobytes()) for p in products]


def _op_cases(rng):
    """(op name, tape arguments, array arguments) for every op a model body
    calls, on random float64 inputs with leading axes. Tensor arguments of
    the tape op are plain arrays for the array op."""
    x = rng.normal(scale=3.0, size=(2, 3, 4, 5))
    table = rng.normal(size=(7, 5))
    ids = rng.integers(0, 7, size=(2, 3))
    cases = [
        ("matmul", (x, rng.normal(size=(5, 6)))),
        ("matmul", (x, rng.normal(size=(2, 3, 5, 4)))),
        ("matmul", (x[0, 0], rng.normal(size=(3, 5, 2)))),
        ("softmax", (x, -1)),
        ("relu", (x,)),
        ("tanh", (x,)),
        ("sigmoid", (x * 20.0,)),
        ("powc", (np.abs(x) + 1e-5, -0.5)),
        ("reduce_mean", (x, -1, True)),
        ("reduce_mean", (x, 1)),
        ("reduce_mean", (x,)),
        ("narrow", (x, -1, 1, 3)),
        ("narrow", (x, -2, 2, 2)),
        ("narrow", (x, 0, 1, 1)),
        ("concat", ([x, x[..., :2]], -1)),
        ("concat", ([x[:, :1], x], 1)),
        ("embedding_lookup", (table, ids)),
        ("dropout", (x, 0.5, np.random.default_rng(0))),
        ("dropout", (x, 0.0, np.random.default_rng(0))),
    ]
    tensor = lambda a: ad.Tensor(a) if isinstance(a, np.ndarray) and a.dtype == np.float64 else a
    out = []
    for name, args in cases:
        taped = tuple([tensor(a) for a in arg] if isinstance(arg, list) else tensor(arg)
                      for arg in args)
        out.append((name, taped, args))
    return out


class TestExecutors:
    """The array executor's ops give the tape ops' bytes, and ``executed``
    bodies run on the executor the context calls for."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_op_gives_the_tape_ops_bytes(self, seed):
        for name, taped, arrays in _op_cases(np.random.default_rng(seed)):
            with ad.FpTraps():
                want = getattr(ad, name)(*taped).data
                got = getattr(ad.ArrayOps, name)(*arrays)
            assert got.shape == want.shape and _same_bytes(got, want), name

    @pytest.mark.parametrize("seed", range(5))
    def test_operators_and_methods_give_the_tape_ops_bytes(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 1))
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        pairs = [(ta + tb, a + b), (ta - tb, a - b), (ta * tb, a * b),
                 (ta + 1e-5, a + 1e-5), (ta * np.float64(0.25), a * np.float64(0.25)),
                 (ta.reshape((6, 4)), a.reshape((6, 4))),
                 (ta.transpose((1, 0, 2)), a.transpose((1, 0, 2))),
                 (ta.sum(axis=-2), a.sum(axis=-2))]
        for want, got in pairs:
            assert _same_bytes(got, want.data)

    # where each shared kernel lives: the array op is that very object, and
    # the tape op of its name looks it up there on every call
    KERNELS = {"softmax": (ad, "_softmax"), "sigmoid": (ad, "_sigmoid"), "relu": (ad, "_relu"),
               "reduce_mean": (ad, "_mean"), "narrow": (ad, "_narrow"),
               "embedding_lookup": (ad, "_lookup"), "concat": (np, "concatenate"),
               "tanh": (np, "tanh"), "powc": (operator, "pow")}

    def test_array_ops_are_tape_ops_by_name(self, monkeypatch):
        # so the two executors cannot drift apart by name
        names = [name for name in vars(ad.ArrayOps) if not name.startswith("_")]
        assert len(names) == 13
        for name in names:
            tape_op = getattr(ad, name)
            assert inspect.isfunction(tape_op) and tape_op.__module__ == ad.__name__, name
        # and every array op but these four is the kernel its tape op calls
        assert set(names) - set(self.KERNELS) == {"operand", "array_of", "matmul", "dropout"}
        cases = {name: taped for name, taped, _ in _op_cases(np.random.default_rng(0))}
        for name, (owner, attr) in self.KERNELS.items():
            kernel, calls = getattr(owner, attr), []
            assert getattr(ad.ArrayOps, name) is kernel, name
            monkeypatch.setattr(owner, attr, lambda *a, kernel=kernel, **k: calls.append(1)
                                or kernel(*a, **k))
            getattr(ad, name)(*cases[name])
            monkeypatch.undo()
            assert calls, name

    def test_out_of_range_narrow_raises_on_both_executors(self):
        message = r"^narrow: \[2, 5\) out of range for extent 3$"
        for narrow, x in ((ad.ArrayOps.narrow, np.zeros((2, 3))),
                          (ad.narrow, ad.Tensor(np.zeros((2, 3))))):
            with pytest.raises(ad.ShapeMismatchError, match=message):
                narrow(x, -1, 2, 3)

    def test_operand_scans_an_unmarked_tensor_once(self):
        p = ad.Parameter(np.ones((2, 2)), "p")
        assert ad.ArrayOps.operand(p) is p.data and p._finite
        array = np.full(2, np.nan)
        assert ad.ArrayOps.operand(array) is array  # an array is taken as it is
        p.data = np.array([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ad.NonFiniteInputError):
            ad.ArrayOps.operand(p)

    def test_array_lookup_checks_ids(self):
        table = np.zeros((4, 2))
        for ids in ([4], [-1], [[0, 1], [2, -4]]):
            with pytest.raises(ValueError, match=r"^embedding_lookup: index out of range \[0, 4\)$"):
                ad.ArrayOps.embedding_lookup(table, np.array(ids))

    @staticmethod
    @ad.executed
    def _affine(x, w):
        ops = ad.ops()
        return ops.tanh(ops.matmul(ops.operand(x), ops.operand(w)) * 2.0), ops.operand(x)

    def test_body_runs_on_arrays_with_no_tape(self):
        seen = []

        @ad.executed
        def body(x, w):
            seen.append(ad.ops())
            inner = self._affine(x, w)  # nested: on the outer body's executor
            seen.append(type(inner[0]))
            return inner

        x, w = ad.Tensor(np.ones((2, 3))), ad.Parameter(np.full((3, 2), 0.1), "w")
        y, same = body(x, w)
        assert seen == [ad.ArrayOps, np.ndarray]
        assert isinstance(y, ad.Tensor) and y._finite and same.data is x.data
        assert ad.ops() is ad  # nothing left behind
        seen.clear()
        with ad.Tape() as tape:
            taped, _ = body(x, w)
        assert seen == [ad, ad.Tensor] and len(tape) == 3
        assert _same_bytes(y.data, taped.data)

    def test_trap_reruns_on_the_tape_ops(self):
        x, w = ad.Tensor(np.full((1, 2), 1e200)), ad.Tensor(np.full((2, 2), 1e200))
        for run in (lambda: self._affine(x, w), lambda: ad.tanh(ad.matmul(x, w) * 2.0)):
            with pytest.warns(RuntimeWarning, match="overflow encountered"):
                with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("mul")):
                    run()

    def test_failed_scan_reruns_on_the_tape_ops(self):
        # an array operand is trusted by the array executor; the product's
        # scan catches its NaN, and the tape ops name the op that rejects it
        x = np.array([[1.0, np.nan]])
        with pytest.raises(ad.NonFiniteInputError, match=_non_finite_message("matmul")):
            self._affine(x, np.ones((2, 2)))

    def test_train_time_dropout_draws_one_mask_on_the_tape_ops(self):
        # and no mask with no tape recording
        @ad.executed
        def body(x, rng, rate):
            ops = ad.ops()
            return ops.dropout(ops.tanh(ops.operand(x)), rate, rng)

        x = np.random.default_rng(1).normal(size=(3, 4))
        rng, reference = np.random.default_rng(7), np.random.default_rng(7)
        untouched = rng.bit_generator.state
        assert _same_bytes(body(x, rng, 0.5).data, np.tanh(x))
        assert rng.bit_generator.state == untouched
        with ad.Tape():
            got = body(x, rng, 0.5)
            want = ad.dropout(ad.tanh(ad.Tensor(x)), 0.5, reference)
        assert _same_bytes(got.data, want.data) and not _same_bytes(got.data, np.tanh(x))
        assert rng.bit_generator.state == reference.bit_generator.state != untouched
        with pytest.raises(ValueError, match=r"^dropout: rate must lie in \[0, 1\), got 1.0$"):
            body(x, rng, 1.0)


# ndarray methods and numpy functions that write into their first operand
_IN_PLACE_METHODS = {"fill", "sort", "partition", "put", "itemset", "resize", "setfield"}
_IN_PLACE_FUNCTIONS = {"copyto", "put", "place", "putmask", "at"}


def _aims_at_data(node) -> bool:
    """Whether an expression's array is a tensor's ``data`` (or ``_data``)
    or something taken from it: ``t.data``, ``t.data[i]``,
    ``t.data.reshape(-1)``."""
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr in ("data", "_data"):
                return True
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def _alias_writes(source: str) -> list[int]:
    """Line numbers of writes into a tensor's array in place: subscript
    assignment, an ``out=`` argument, ``np.copyto`` and its kin, or an
    in-place ndarray method."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for t in (target.elts if isinstance(target, ast.Tuple) else [target]):
                    if isinstance(t, ast.Subscript) and _aims_at_data(t.value):
                        lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if any(kw.arg == "out" and _aims_at_data(kw.value) for kw in node.keywords):
                lines.append(node.lineno)
            elif name in _IN_PLACE_FUNCTIONS and node.args and _aims_at_data(node.args[0]):
                lines.append(node.lineno)
            elif (name in _IN_PLACE_METHODS and isinstance(func, ast.Attribute)
                  and _aims_at_data(func.value)):
                lines.append(node.lineno)
    return lines


class TestNoAliasWrites:
    """Only assignment to ``data`` clears a tensor's finite mark, so no code
    in the package may write into a tensor's array in place."""

    def test_package_writes_tensor_values_by_assignment_only(self):
        files = sorted(Path(ad.__file__).parent.glob("*.py"))
        assert len(files) > 10
        found = {f.name: _alias_writes(f.read_text()) for f in files}
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("source", [
        "p.data[0] = 1.0", "p.data[0] += 1.0", "t._data[:, i] = v", "a, p.data[1] = 1, 2",
        "p.data.reshape(-1)[3] = 0.0", "np.multiply(p.data, 2, out=p.data)",
        "np.copyto(p.data, x)", "np.add.at(t.data, ids, g)", "p.data.fill(0.0)",
    ])
    def test_guard_sees_each_kind_of_write(self, source):
        assert _alias_writes(source) == [1]

    @pytest.mark.parametrize("source", [
        "p.data = x", "p.data -= step", "full[x.data > 0] = g", "y = np.add(a.data, b.data)",
        "np.add.at(gx, ids, g.data)", "flat = p.data.reshape(-1)",
    ])
    def test_guard_allows_assignment_and_reads(self, source):
        assert _alias_writes(source) == []


class TestBackward:
    def test_square_gradient(self):
        # loss = x*x at x=3 -> dloss/dx = 6
        x = ad.Parameter(np.array([3.0]), "x")
        with ad.Tape() as tape:
            loss = (x * x).sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_unreachable_parameter_zero_grad(self):
        x = ad.Parameter(np.array([2.0]), "x")
        other = ad.Parameter(np.array([5.0]), "other")
        with ad.Tape() as tape:
            loss = (x * x).sum()
        tape.backward(loss)
        assert np.all(other.grad == 0)

    def test_two_backwards_bit_identical(self):
        rng = np.random.default_rng(4)
        a = ad.Parameter(rng.normal(size=(3, 4)), "a")
        b = ad.Parameter(rng.normal(size=(4, 2)), "b")
        with ad.Tape() as tape:
            loss = ad.softmax(a @ b, axis=1).sum()
        tape.backward(loss)
        first = (a.grad.copy(), b.grad.copy())
        tape.backward(loss)
        assert np.array_equal(first[0], a.grad)
        assert np.array_equal(first[1], b.grad)


def _fd_case(name, builder, param_shapes, seed):
    rng = np.random.default_rng(seed)
    params = [(f"p{i}", ad.Parameter(rng.normal(size=s) * 0.7, f"p{i}"))
              for i, s in enumerate(param_shapes)]

    def compute():
        return builder([p for _, p in params])

    with ad.Tape() as tape:
        loss = compute()
    tape.backward(loss)
    ad_grads = {n: p.grad.copy() for n, p in params}
    fd = finite_difference_gradients(compute, params, eps=1e-6)
    worst, where = worst_relative_error(ad_grads, fd)
    assert worst < 1e-4, (name, where, worst)


class TestGradientsMatchFiniteDifferences:
    """Random small tensors (extents <= 5) through every forward op."""

    def test_add_mul_broadcast(self):
        _fd_case("addmul", lambda p: (p[0] + p[1] * p[0] - p[1]).sum(),
                 [(4, 5), (1, 5)], seed=0)

    def test_matmul_sigmoid_tanh_relu(self):
        _fd_case("mix", lambda p: (ad.relu(ad.tanh(p[0] @ p[1])) * ad.sigmoid(p[0] @ p[1])).sum(),
                 [(3, 4), (4, 5)], seed=1)

    def test_softmax_log_softmax(self):
        _fd_case("softmaxes",
                 lambda p: (ad.softmax(p[0], axis=1) * ad.log_softmax(p[0], axis=1)).sum(),
                 [(4, 5)], seed=2)

    def test_reductions_and_power(self):
        _fd_case("reduce",
                 lambda p: ad.powc(p[0].mean(axis=0, keepdims=True), 2.0).sum()
                 + p[0].sum(axis=1).mean(),
                 [(4, 3)], seed=3)

    def test_concat_narrow_reshape_transpose(self):
        def build(p):
            c = ad.concat([p[0], p[1]], axis=1)
            n = ad.narrow(c, 1, 1, 4)
            return (n.reshape((2, 2, 4)).transpose((1, 0, 2)) * 0.5).sum()
        _fd_case("structural", build, [(4, 3), (4, 3)], seed=4)

    def test_embedding_and_pick(self):
        ids = np.array([0, 2, 2, 4])
        picks = np.array([1, 0, 2, 1])

        def build(p):
            rows = ad.embedding_lookup(p[0], ids)
            return ad.log(ad.clamp_min(ad.pick(ad.softmax(rows, axis=1), picks), 1e-9)).sum()
        _fd_case("lookup", build, [(5, 3)], seed=5)

    def test_conv_and_pool(self):
        def build(p):
            y = ad.conv2d(p[0], p[1], p[2])
            return ad.adaptive_avg_pool(ad.tanh(y), 2, 2).sum()
        _fd_case("conv", build, [(2, 5, 5), (3, 2, 3, 3), (3,)], seed=6)

    def test_even_kernel_conv(self):
        def build(p):
            return ad.conv2d(p[0], p[1], p[2]).sum()
        _fd_case("conv-even", build, [(1, 4, 4), (2, 1, 2, 2), (2,)], seed=7)


class TestOptimizers:
    def test_clip_scales_when_above_threshold(self):
        # global grad norm 2.0, clip 1.0 -> everything scaled by 0.5
        p = ad.Parameter(np.zeros(2), "p")
        p.grad = np.array([1.2, 1.6])  # norm 2.0
        pre = clip_gradients([p], 1.0)
        assert abs(pre - 2.0) < 1e-12
        np.testing.assert_allclose(p.grad, [0.6, 0.8])

    def test_clip_noop_below_threshold(self):
        p = ad.Parameter(np.zeros(2), "p")
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        clip_gradients([p], 1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])
        assert abs(global_grad_norm([p]) - 0.5) < 1e-12

    def test_adam_first_step_magnitude(self):
        p = ad.Parameter(np.array([1.0]), "p")
        opt = Adam([p], lr=0.05, clip_norm=5.0)
        p.grad = np.array([-2.3])
        assert opt.step()
        assert abs(abs(p.data[0] - 1.0) - 0.05) < 1e-6

    def test_non_finite_grad_refuses_step(self, caplog):
        p = ad.Parameter(np.array([1.0]), "p")
        opt = Adam([p], lr=0.1, clip_norm=1.0)
        p.grad = np.array([np.inf])
        assert opt.step() is False
        assert p.data[0] == 1.0

    def test_refused_steps_warned_per_epoch(self, caplog, capsys):
        # 5 items in batches of 2: 3 batches per epoch, 2 epochs
        p = ad.Parameter(np.array([1.0]), "p")

        class Stub:
            def __init__(self, refuse):
                self.calls, self.refuse = 0, refuse

            def step(self):
                self.calls += 1
                return self.calls not in self.refuse

        first, second = Stub(refuse={1, 3}), Stub(refuse={3})
        trace = train_epochs(None, 5, lambda idx: ad.reduce_sum(ad.mul(p, p)),
                             [first, second], 2, 2, np.random.default_rng(0))
        assert len(trace) == 6
        assert first.calls == second.calls == 6  # a refusal does not skip the others
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["epoch 0: 2 of 3 optimizer steps refused"]
        assert capsys.readouterr().out == ""


class TestCheckpointFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        arrays = {
            "embedding": rng.normal(size=(7, 3)),
            "lstm.weight": rng.normal(size=(5, 20)),
            "scalar": rng.normal(size=()),
        }
        path = tmp_path / "model.ckpt"
        save_tensors(path, arrays)
        loaded = load_tensors(path)
        assert list(loaded) == list(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(CheckpointError, match="magic"):
            load_tensors(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_tensors(path, {"w": np.ones((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(BinaryFormatError, match="offset"):
            load_tensors(path)

    def test_failed_rename_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "keep").write_text("x")
        with pytest.raises(OSError):
            write_atomic(target, b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert [p.name for p in target.iterdir()] == ["keep"]


def _parameter_digest(model, optimizers) -> str:
    """SHA-256 of a model's parameters in creation order: name, shape,
    whether one of ``optimizers`` holds it, and raw float64 bytes of each."""
    held = {id(p) for opt in optimizers for p in opt.params}
    h = hashlib.sha256()
    for name, p in model.parameters().items():
        h.update(f"{name} {p.data.shape} {id(p) in held}\n".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestParameterStore:
    """Initial parameters keep their bytes: both models draw from one seeded
    generator in a fixed order, and checkpoints and outputs depend on it."""

    DESK = Path(__file__).parent.parent / "configs" / "desk.cfg"
    CAPTIONER = {
        0: "103ae6d796859f0bdffb05318eff61281bda0ead29b2834dffd5e442c2864235",
        1: "73556de76be1936f9c4d4f1feff8c213f2c8863406071d310bcb045662dc5b74",
    }
    LM = {
        0: "2cb7882979959ece4612db869f5a43d9bb3970ff61acbdfabb8870275aa56ce8",
        1: "ee964dcbc176b5923f209a428152b3c9a4fa0de099a0dfe46933018411167b01",
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_captioner_initial_parameters_at_desk_shape(self, seed):
        cfg = load_run_config(self.DESK)
        model = CaptionModel(cfg.caption_config(), vocab_size=60, seed=seed)
        assert _parameter_digest(model, make_optimizers(model, cfg).values()) == \
            self.CAPTIONER[seed]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lm_initial_parameters_at_desk_shape(self, seed):
        cfg = load_run_config(self.DESK)
        text = "".join(np.random.default_rng(0).choice(list("abcdefgh "), 3000))
        vocab = BpeVocabulary.train(text, cfg.lm_merges)
        model = TransformerLm(cfg.lm_config(), vocab, seed=seed)
        assert _parameter_digest(model, [make_optimizer(model, cfg)]) == self.LM[seed]
