import numpy as np
import pytest

from stockcast.autodiff import (
    Tensor,
    add,
    backward,
    concat,
    dropout,
    matmul,
    mse_loss,
    relu,
    reshape,
    topo_order,
)
from stockcast.errors import (
    DetachedGraphError,
    InvalidRateError,
    NotScalarLossError,
    ShapeMismatchError,
)

from conftest import gradient_check


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForwardOps:
    def test_activation_values(self):
        assert relu(t([-1.0])).data[0] == 0.0
        assert relu(t([2.0])).data[0] == 2.0

    def test_matmul_shape_algebra(self):
        out = matmul(t(np.ones((2, 3))), t(np.ones((3, 4))))
        assert out.shape == (2, 4)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))

    def test_concat_feature_widths(self):
        out = concat(t(np.zeros((5, 32))), t(np.zeros((5, 16))), axis=-1)
        assert out.shape == (5, 48)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            concat(t(np.zeros((5, 3))), t(np.zeros((4, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [((5, 3), (3,)), ((3,), (5, 3))])
    def test_concat_rank_mismatch(self, a_shape, b_shape):
        with pytest.raises(ShapeMismatchError):
            concat(t(np.zeros(a_shape)), t(np.zeros(b_shape)), axis=-1)

    @pytest.mark.parametrize("b_shape, axis", [((2, 3), 2), ((2, 3), -3), ((4, 3), 2)])
    def test_concat_axis_out_of_range(self, b_shape, axis):
        # axis 2 must not wrap to axis 0, where (2, 3) | (4, 3) would pass the shape check
        with pytest.raises(ShapeMismatchError, match="axis"):
            concat(t(np.zeros((2, 3))), t(np.zeros(b_shape)), axis=axis)

    def test_add_broadcasts_bias(self):
        out = add(t(np.zeros((4, 3))), t(np.array([1.0, 2.0, 3.0])))
        assert np.array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_tensor_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Tensor(np.array([1.0, np.nan]))

    def test_tensor_stores_float64(self):
        x64 = np.ones(3)
        assert Tensor(x64).data is x64
        for data in (np.ones((2, 2), dtype=np.float32), [1, 2], np.ones(2, dtype=np.float16),
                     np.arange(3), 2.5):
            assert Tensor(data).data.dtype == np.float64


class TestMseLoss:
    def test_zero_when_equal(self):
        assert mse_loss(t([1.0, 2.0]), np.array([1.0, 2.0])).item() == 0.0

    def test_by_hand(self):
        assert mse_loss(t([1.0, 1.0]), np.zeros(2)).item() == 1.0
        assert mse_loss(t([0.1, -0.1]), np.zeros(2)).item() == pytest.approx(0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(t([1.0, 2.0]), np.array([1.0]))

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(20):
            pred = rng.normal(size=6)
            target = rng.normal(size=6)
            value = mse_loss(t(pred), target).item()
            assert value >= 0.0
            assert (value == 0.0) == bool(np.array_equal(pred, target))


class TestBackward:
    def test_relu_subgradient(self):
        x = t([-1.0, 0.0, 2.0], grad=True)
        y = relu(x)
        loss = mse_loss(y, np.zeros(3))
        backward(loss)
        assert x.grad[0] == 0.0
        assert x.grad[1] == 0.0  # subgradient 0 chosen at exactly 0
        assert x.grad[2] != 0.0

    def test_matmul_chain_finite_differences(self, rng):
        params = {
            "a": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
            "b": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
        }
        target = rng.normal(size=(3, 3))

        def build(p):
            return mse_loss(matmul(p["a"], relu(matmul(p["a"], p["b"]))), target)

        assert gradient_check(build, params, max_coords=9) < 1e-4

    def test_not_scalar_loss(self):
        x = t(np.ones((2, 2)), grad=True)
        with pytest.raises(NotScalarLossError):
            backward(relu(x))

    def test_detached_graph(self):
        x = t([1.0], grad=True)
        y = t([2.0], grad=True)
        loss = mse_loss(relu(x), np.zeros(1))
        with pytest.raises(DetachedGraphError):
            backward(loss, {"y": y})

    def test_backward_frees_the_tape(self):
        x = t([[1.0], [-2.0]], grad=True)
        hidden = relu(matmul(x, t([[3.0]])))
        loss = mse_loss(hidden, np.zeros((2, 1)))
        grads = backward(loss, {"x": x})
        assert np.array_equal(grads["x"], [[9.0], [0.0]])
        assert loss._parents == () and loss._backward is None
        assert hidden._parents == () and hidden._backward is None
        # a spent tape must not hand back stale or zero grads
        with pytest.raises(DetachedGraphError):
            backward(loss, {"x": x})

    def test_untouched_leaves_get_zero(self):
        x = t([1.0], grad=True)
        unused = t([2.0], grad=True)
        grads = backward(mse_loss(x, np.zeros(1)), {"x": x, "unused": unused})
        assert np.array_equal(grads["unused"], [0.0])
        assert grads["x"][0] != 0.0

    def test_multi_consumer_accumulation(self):
        # y = 2x + 3x + x @ [[4]] has dy/dx = 9; exercises repeated add_grad on one leaf
        x = t([[3.0]], grad=True)
        y = add(add(matmul(x, t([[2.0]])), matmul(x, t([[3.0]]))), matmul(x, t([[4.0]])))
        backward(reshape(y, ()))
        assert x.grad[0, 0] == 9.0

    def test_add_same_shape_parents_keep_distinct_grads(self):
        # a's second contribution must not leak into b through a shared buffer
        a = t([[1.0, 2.0]], grad=True)
        b = t([[3.0, 4.0]], grad=True)
        out = add(add(a, b), matmul(a, t(5.0 * np.eye(2))))
        backward(mse_loss(out, np.zeros((1, 2))))
        expected_b = 2.0 / 2 * (a.data + b.data + 5.0 * a.data)
        assert np.allclose(b.grad, expected_b)
        assert np.allclose(a.grad, expected_b * 6.0)

    def test_structural_ops_roundtrip_gradients(self, rng):
        params = {"x": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
                  "y": Tensor(rng.normal(size=(6, 2)), requires_grad=True)}
        target = rng.normal(size=(6, 10))

        def build(p):
            z = concat(reshape(p["x"], (6, 4)), p["y"], axis=-1)   # (6, 6)
            z = concat(z, reshape(p["x"], (4, 6)), axis=0)          # (10, 6), x read twice
            return mse_loss(reshape(z, (6, 10)), target)

        assert gradient_check(build, params, max_coords=24) < 1e-6

    def test_topo_order_parents_first(self):
        x = t([1.0], grad=True)
        y = relu(x)
        z = reshape(y, ())
        order = topo_order(z)
        assert order.index(x) < order.index(y) < order.index(z)

    def test_determinism_bitwise(self, rng):
        x_data = rng.normal(size=(4, 4))

        def run():
            x = Tensor(x_data.copy(), requires_grad=True)
            gen = np.random.Generator(np.random.PCG64(7))
            y = dropout(relu(matmul(x, x)), 0.5, training=True, rng=gen)
            loss = mse_loss(y, np.zeros((4, 4)))
            backward(loss)
            return loss.item(), x.grad.copy()

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)


class TestDropout:
    def test_eval_mode_identity(self):
        x = t(np.ones((3, 3)))
        assert dropout(x, 0.9, training=False) is x

    def test_rate_zero_identity(self):
        x = t(np.ones((3, 3)))
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_invalid_rate(self):
        with pytest.raises(InvalidRateError):
            dropout(t([1.0]), 1.0, training=True, rng=np.random.default_rng(0))
        with pytest.raises(InvalidRateError):
            dropout(t([1.0]), -0.1, training=False)

    def test_inverted_scaling_preserves_mean(self):
        n = 100_000
        x = t(np.ones(n))
        gen = np.random.Generator(np.random.PCG64(42))
        out = dropout(x, 0.5, training=True, rng=gen).data
        # survivors are scaled by 2, so the mean stays 1 up to sampling noise
        standard_error = 1.0 / np.sqrt(n)  # std of mask*2 is 1 at rate 0.5
        assert abs(out.mean() - 1.0) < 3 * standard_error
        assert abs(out.mean() - 1.0) < 0.01

    def test_gradient_uses_same_mask(self):
        x = t(np.ones(1000), grad=True)
        gen = np.random.Generator(np.random.PCG64(3))
        out = dropout(x, 0.5, training=True, rng=gen)
        total = matmul(reshape(out, (1, 1000)), t(np.ones((1000, 1))))  # sum of outputs
        backward(reshape(total, ()))
        # zeroed outputs must have zero gradient, survivors 1/(1-rate)
        zeroed = out.data == 0.0
        assert np.all(x.grad[zeroed] == 0.0)
        assert np.all(x.grad[~zeroed] == 2.0)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_bool_mask_matches_the_float_mask_bitwise(self, rng, rate):
        # the float mask (r >= rate) / (1 - rate) holds 0 and the rounded
        # 1 / (1 - rate), so a bool mask times that scalar gives the same bits
        x = t(rng.normal(size=(50, 40)), grad=True)
        target = rng.normal(size=(50, 40))
        old_mask = (np.random.Generator(np.random.PCG64(5)).random(x.shape) >= rate) / (1.0 - rate)
        out = dropout(x, rate, training=True, rng=np.random.Generator(np.random.PCG64(5)))
        assert np.array_equal(out.data, x.data * old_mask)
        backward(mse_loss(out, target))
        upstream = (2.0 / out.data.size) * np.ones(()) * (x.data * old_mask - target)
        assert np.array_equal(x.grad, upstream * old_mask)
