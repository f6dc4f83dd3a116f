import weakref

import numpy as np
import pytest

from stockcast.autodiff import (
    Tensor,
    backward,
    concat,
    dropout,
    dropout_mask,
    linear,
    mse_loss,
    reshape,
    topo_order,
)

from conftest import coordinate_errors, gradient_check, traced_memory


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForwardOps:
    def test_activation_values(self):
        one, zero = t([[1.0]]), t([0.0])
        assert linear(t([-1.0]), one, zero, relu=True).data[0] == 0.0
        assert linear(t([2.0]), one, zero, relu=True).data[0] == 2.0

    def test_matmul_shape_algebra(self):
        out = linear(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.zeros(4)))
        assert out.shape == (2, 4)
        # a (1, M) adjacency pools each (M, K) slice to one row, as cnn1d's head does
        out = linear(t(np.ones((4, 2, 3)), grad=True), t(np.ones((3, 5))), t(np.zeros(5)),
                     adj=np.ones((1, 2)))
        assert out.shape == (4, 1, 5)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^linear \(2, 3\) @ \(4, 2\) \+ \(2,\)$"):
            linear(t(np.ones((2, 3))), t(np.ones((4, 2))), t(np.zeros(2)))

    def test_concat_feature_widths(self):
        out = concat(t(np.zeros((5, 32))), t(np.zeros((5, 16))), axis=-1)
        assert out.shape == (5, 48)

    def test_concat_mismatch(self):
        with pytest.raises(ValueError, match=r"^concat \(5, 3\) \| \(4, 2\) on axis -1$"):
            concat(t(np.zeros((5, 3))), t(np.zeros((4, 2))))

    @pytest.mark.parametrize("a_shape, b_shape", [((5, 3), (3,)), ((3,), (5, 3))])
    def test_concat_rank_mismatch(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=r"^concat \(.*\) \| \(.*\) on axis -1$"):
            concat(t(np.zeros(a_shape)), t(np.zeros(b_shape)), axis=-1)

    @pytest.mark.parametrize("b_shape, axis", [((2, 3), 2), ((2, 3), -3), ((4, 3), 2)])
    def test_concat_axis_out_of_range(self, b_shape, axis):
        # axis 2 must not wrap to axis 0, where (2, 3) | (4, 3) would pass the shape check
        with pytest.raises(ValueError, match=rf"^concat axis {axis} of \(2, 3\)$"):
            concat(t(np.zeros((2, 3))), t(np.zeros(b_shape)), axis=axis)

    def test_linear_broadcasts_bias(self):
        out = linear(t(np.zeros((4, 2))), t(np.ones((2, 3))), t(np.array([1.0, 2.0, 3.0])))
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
        with pytest.raises(ValueError, match=r"^mse_loss \(2,\) vs \(1,\)$"):
            mse_loss(t([1.0, 2.0]), np.array([1.0]))

    def test_parts_over_the_batch_count_sum_to_the_batch(self, rng):
        # two parts of a batch, each over the batch's element count: their
        # losses and gradients sum to the whole batch's mean and its gradient
        pred, target = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        whole = t(pred, grad=True)
        loss = mse_loss(whole, target)
        backward(loss)
        parts = [t(pred[rows], grad=True) for rows in (slice(0, 2), slice(2, 5))]
        losses = [mse_loss(part, target[rows], count=pred.size)
                  for part, rows in zip(parts, (slice(0, 2), slice(2, 5)))]
        for part_loss in losses:
            backward(part_loss)
        assert sum(part.item() for part in losses) == pytest.approx(loss.item(), rel=1e-15)
        assert np.array_equal(np.concatenate([part.grad for part in parts]), whole.grad)

    def test_count_below_the_element_count(self):
        with pytest.raises(ValueError, match=r"^mse_loss over 1 of 2 elements$"):
            mse_loss(t([1.0, 2.0]), np.zeros(2), count=1)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(20):
            pred = rng.normal(size=6)
            target = rng.normal(size=6)
            value = mse_loss(t(pred), target).item()
            assert value >= 0.0
            assert (value == 0.0) == bool(np.array_equal(pred, target))


class TestBackward:
    def test_relu_subgradient(self):
        # pre-activations -1, exactly 0 and 2
        x = t([[-1.0], [0.0], [2.0]], grad=True)
        y = linear(x, t([[1.0]]), t([0.0]), relu=True)
        loss = mse_loss(y, np.zeros((3, 1)))
        backward(loss)
        assert x.grad[0] == 0.0
        assert x.grad[1] == 0.0  # subgradient 0 chosen at exactly 0
        assert x.grad[2] != 0.0

    def test_matmul_chain_finite_differences(self, rng):
        params = {
            "a": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
            "b": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
            "c": Tensor(rng.normal(size=3), requires_grad=True),
        }
        target = rng.normal(size=(3, 3))

        def build(p):
            hidden = linear(p["a"], p["b"], p["c"], relu=True)
            return mse_loss(linear(p["a"], hidden, t(np.zeros(3))), target)

        assert gradient_check(build, params, max_coords=9) < 1e-4

    def test_not_scalar_loss(self):
        x = t(np.ones((2, 2)), grad=True)
        with pytest.raises(ValueError, match=r"^loss has shape \(2, 1\)$"):
            backward(linear(x, t(np.ones((2, 1))), t(np.zeros(1))))

    def test_detached_graph(self):
        x = t([1.0], grad=True)
        y = t([2.0], grad=True)
        loss = mse_loss(reshape(x, (1,)), np.zeros(1))
        with pytest.raises(ValueError, match="^loss does not depend on any given parameter$"):
            backward(loss, {"y": y})

    def test_backward_frees_the_tape(self):
        x = t([[1.0], [-2.0]], grad=True)
        hidden = linear(x, t([[3.0]]), t([0.0]), relu=True)
        loss = mse_loss(hidden, np.zeros((2, 1)))
        grads = backward(loss, {"x": x})
        assert np.array_equal(grads["x"], [[9.0], [0.0]])
        assert loss._parents == () and loss._backward is None
        assert hidden._parents == () and hidden._backward is None
        # a spent tape must not hand back stale or zero grads
        with pytest.raises(ValueError, match="^loss does not depend on any given parameter$"):
            backward(loss, {"x": x})

    def test_interior_tensor_is_freed_before_the_op_beneath_it_runs(self):
        # Tensor has no __weakref__ slot, but linear's output array lives and
        # dies with the tensor that holds it
        x = t([[1.0, -2.0]], grad=True)
        freed = []

        def below_backward(g):
            freed.append(mid_data() is None)
            x.add_grad(g)

        below = Tensor._from_op(x.data.copy(), (x,), below_backward)
        mid = linear(below, t(np.eye(2)), t(np.zeros(2)), relu=True)
        mid_data = weakref.ref(mid.data)
        loss = mse_loss(mid, np.zeros((1, 2)))
        del mid
        backward(loss)
        assert freed == [True]

    def test_untouched_leaves_get_zero(self):
        x = t([1.0], grad=True)
        unused = t([2.0], grad=True)
        grads = backward(mse_loss(x, np.zeros(1)), {"x": x, "unused": unused})
        assert np.array_equal(grads["unused"], [0.0])
        assert grads["x"][0] != 0.0

    def test_multi_consumer_accumulation(self):
        # y = 2x + 3x + 4x, summed from three consumers of x, has dy/dx = 9;
        # exercises repeated add_grad on one leaf
        x = t([[3.0]], grad=True)
        parts = concat(concat(linear(x, t([[2.0]]), t([0.0])), linear(x, t([[3.0]]), t([0.0]))),
                       linear(x, t([[4.0]]), t([0.0])))
        total = linear(parts, t(np.ones((3, 1))), t([0.0]))
        backward(reshape(total, ()))
        assert x.grad[0, 0] == 9.0

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
        y = linear(x, t([[2.0]]), t([0.0]))
        z = reshape(y, ())
        order = topo_order(z)
        assert order.index(x) < order.index(y) < order.index(z)

    def test_determinism_bitwise(self, rng):
        x_data = rng.normal(size=(4, 4))

        def run():
            x = Tensor(x_data.copy(), requires_grad=True)
            gen = np.random.Generator(np.random.PCG64(7))
            y = dropout(linear(x, x, Tensor(np.zeros(4)), relu=True), 0.5,
                        dropout_mask(gen, (4, 4), 0.5))
            loss = mse_loss(y, np.zeros((4, 4)))
            backward(loss)
            return loss.item(), x.grad.copy()

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)


class TestLinear:
    CASES = [(x_shape, use_adj, relu) for x_shape in [(5, 3), (2, 5, 3)]
             for use_adj in (False, True) for relu in (False, True)]

    def case(self, rng, x_shape, use_adj):
        x = rng.normal(size=x_shape)
        w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
        adj = rng.uniform(0.0, 1.0, size=(5, 5)) if use_adj else None
        return x, w, b, adj

    @pytest.mark.parametrize("x_shape, use_adj, relu", CASES)
    def test_forward_is_bitwise_the_composition(self, rng, x_shape, use_adj, relu):
        x, w, b, adj = self.case(rng, x_shape, use_adj)
        ref = (x @ w if adj is None else adj @ (x @ w)) + b
        if relu:
            ref = np.maximum(ref, 0.0)
        out = linear(t(x), t(w), t(b), relu=relu, adj=adj)
        assert np.array_equal(out.data, ref)

    @pytest.mark.parametrize("x_shape, use_adj, relu", CASES)
    def test_every_coordinate_matches_finite_differences(self, rng, x_shape, use_adj, relu):
        x, w, b, adj = self.case(rng, x_shape, use_adj)
        params = {"x": t(x, grad=True), "w": t(w, grad=True), "b": t(b, grad=True)}
        target = rng.normal(size=x_shape[:-1] + (4,))

        def loss(p):
            return mse_loss(linear(p["x"], p["w"], p["b"], relu=relu, adj=adj), target)

        for name, err in coordinate_errors(loss, params).items():
            assert err < 1e-6, (name, err)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape, adj_shape", [
        ((5, 3), (4, 2), (2,), None),        # inner widths differ
        ((5, 3), (3,), (3,), None),          # weight not a matrix
        ((5, 3), (3, 2), (3,), None),        # bias not one per output
        ((5, 3), (3, 2), (1, 2), None),
        ((2, 5, 3), (3, 2), (2,), (4, 4)),   # adjacency vs row count
        ((2, 5, 3), (3, 2), (2,), (5,)),     # adjacency not a matrix
        ((3,), (3, 2), (2,), (1, 1)),        # no rows to mix
    ])
    def test_shape_mismatch(self, x_shape, w_shape, b_shape, adj_shape):
        adj = None if adj_shape is None else np.ones(adj_shape)
        with pytest.raises(ValueError, match=r"^linear (adjacency )?\("):
            linear(t(np.ones(x_shape)), t(np.ones(w_shape)), t(np.ones(b_shape)), adj=adj)

    def test_backward_makes_no_per_sample_weight_product(self, rng):
        # a (B, M, K) input: x^T @ g per sample would be a (B, K, N) array
        n_batch, m, k, n = 64, 2, 64, 64
        x = t(rng.normal(size=(n_batch, m, k)), grad=True)
        w, b = t(rng.normal(size=(k, n)), grad=True), t(rng.normal(size=n), grad=True)
        loss = mse_loss(linear(x, w, b, relu=True), np.zeros((n_batch, m, n)))
        with traced_memory() as traced:
            backward(loss)
            peak = traced()[1]
        assert peak < n_batch * k * n * np.dtype(np.float64).itemsize, peak


class TestDropout:
    def test_eval_mode_identity(self):
        # eval mode passes no mask
        x = t(np.ones((3, 3)))
        assert dropout(x, 0.9) is x

    def test_rate_zero_identity(self):
        # rate 0 ignores a mask it is given
        x = t(np.ones((3, 3)))
        assert dropout(x, 0.0, np.zeros(x.shape, dtype=bool)) is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match=r"^dropout rate 1\.0$"):
            dropout(t([1.0]), 1.0, np.ones(1, dtype=bool))
        with pytest.raises(ValueError, match=r"^dropout rate -0\.1$"):
            dropout(t([1.0]), -0.1)
        with pytest.raises(ValueError, match=r"^dropout rate 1\.0$"):
            dropout_mask(np.random.default_rng(0), (1,), 1.0)

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match=r"^dropout mask \(2,\) on \(1,\)$"):
            dropout(t([1.0]), 0.5, np.ones(2, dtype=bool))

    def test_mask_is_one_draw_of_the_shape(self):
        # one rng.random(shape) >= rate: the stream moves on by exactly that draw
        gen, ref = (np.random.Generator(np.random.PCG64(9)) for _ in range(2))
        mask = dropout_mask(gen, (4, 5), 0.3)
        assert mask.dtype == bool
        assert np.array_equal(mask, ref.random((4, 5)) >= 0.3)
        assert gen.random() == ref.random()

    def test_inverted_scaling_preserves_mean(self):
        n = 100_000
        x = t(np.ones(n))
        gen = np.random.Generator(np.random.PCG64(42))
        out = dropout(x, 0.5, dropout_mask(gen, x.shape, 0.5)).data
        # survivors are scaled by 2, so the mean stays 1 up to sampling noise
        standard_error = 1.0 / np.sqrt(n)  # std of mask*2 is 1 at rate 0.5
        assert abs(out.mean() - 1.0) < 3 * standard_error
        assert abs(out.mean() - 1.0) < 0.01

    def test_gradient_uses_same_mask(self):
        x = t(np.ones(1000), grad=True)
        gen = np.random.Generator(np.random.PCG64(3))
        out = dropout(x, 0.5, dropout_mask(gen, x.shape, 0.5))
        total = linear(reshape(out, (1, 1000)), t(np.ones((1000, 1))), t([0.0]))  # the sum
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
        out = dropout(x, rate, dropout_mask(np.random.Generator(np.random.PCG64(5)), x.shape, rate))
        assert np.array_equal(out.data, x.data * old_mask)
        backward(mse_loss(out, target))
        upstream = (2.0 / out.data.size) * np.ones(()) * (x.data * old_mask - target)
        assert np.array_equal(x.grad, upstream * old_mask)
