"""Forward-op analytics, gradient fidelity against finite differences, and
optimizer/checkpoint contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from capseq import autodiff as ad
from capseq.binio import BinaryFormatError
from capseq.checkpoint import CheckpointError, load_tensors, save_tensors
from capseq.optim import Adam, Sgd, clip_gradients, global_grad_norm, train_epochs

from oracles import finite_difference_gradients, worst_relative_error

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
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_dropout_eval_is_identity(self):
        x = ad.Tensor(np.arange(6.0))
        assert ad.dropout(x, 0.5, np.random.default_rng(0), training=False) is x

    def test_dropout_inverted_scaling(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(np.ones(10000))
        out = ad.dropout(x, 0.25, rng, training=True).data
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
        assert ad.dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    @given(_small_arrays)
    def test_log_softmax_exponentiates_to_softmax(self, data):
        x = ad.Tensor(data)
        np.testing.assert_allclose(np.exp(ad.log_softmax(x, axis=-1).data),
                                   ad.softmax(x, axis=-1).data, atol=1e-12)

    @given(_small_arrays)
    def test_item_round_trip_on_scalars(self, data):
        total = ad.Tensor(data).sum()
        assert total.item() == pytest.approx(float(data.sum()), rel=1e-12, abs=1e-12)


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
        with pytest.raises(ValueError):
            ad.dropout(ad.Tensor([1.0]), 1.0, np.random.default_rng(0), True)

    def test_embedding_id_out_of_range(self):
        table = ad.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="out of range"):
            ad.embedding_lookup(table, np.array([4]))


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

    def test_frozen_parameter_receives_no_grad(self):
        x = ad.Parameter(np.array([[1.0, 2.0]]), "x", trainable=False)
        w = ad.Parameter(np.array([[1.0], [1.0]]), "w")
        with ad.Tape() as tape:
            loss = (x @ w).sum()
        tape.backward(loss)
        assert np.all(x.grad == 0)
        assert np.any(w.grad != 0)


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
        opt = Adam([p], lr=0.05)
        p.grad = np.array([-2.3])
        assert opt.step()
        assert abs(abs(p.data[0] - 1.0) - 0.05) < 1e-6

    def test_sgd_step(self):
        p = ad.Parameter(np.array([1.0]), "p")
        opt = Sgd([p], lr=0.1)
        p.grad = np.array([2.0])
        assert opt.step()
        np.testing.assert_allclose(p.data, [0.8])

    def test_non_finite_grad_refuses_step(self, caplog):
        p = ad.Parameter(np.array([1.0]), "p")
        opt = Adam([p], lr=0.1)
        p.grad = np.array([np.inf])
        assert opt.step() is False
        assert p.data[0] == 1.0

    def test_frozen_params_not_updated(self):
        p = ad.Parameter(np.array([1.0]), "p", trainable=False)
        opt = Sgd([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
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
