import math

import numpy as np
import pytest

from stockcast.autodiff import Tensor, backward, gradient_check, mse_loss, narrow, reshape
from stockcast.errors import (
    DivergedLossError,
    EmptyDatasetError,
    ShapeMismatchError,
)
from stockcast import models
from stockcast.market_data import WindowDataset
from stockcast.models import (
    EarlyStopper,
    ModelSpec,
    TrainConfig,
    gcn_forward,
    init_params,
    linreg_fit,
    lstm_stack,
    model_forward,
    train,
)

from conftest import weekdays


def tiny_config(**kw):
    defaults = dict(learning_rate=0.01, lookback=4, epochs=5, dropout=0.0,
                    patience=3, val_fraction=0.2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_spec(kind, **kw):
    defaults = dict(hidden_size=4, lstm_layers=2, gcn_hidden=3, gcn_out=2,
                    fusion_hidden=(3,), dense_hidden=(5, 4), cnn_channels=3)
    defaults.update(kw)
    train_cfg = defaults.pop("train", tiny_config())
    return ModelSpec(kind, train=train_cfg, **defaults)


def make_dataset(rng, n_samples=12, lookback=4, n_stocks=3) -> WindowDataset:
    inputs = rng.uniform(0.1, 0.9, size=(n_samples, lookback, n_stocks))
    targets = rng.uniform(0.1, 0.9, size=(n_samples, n_stocks))
    return WindowDataset(lookback, inputs, targets, weekdays(n_samples))


def edgeless_adjacency(n):
    return np.eye(n)


def zero_params_like(params):
    return {name: Tensor(np.zeros_like(p.data), requires_grad=True) for name, p in params.items()}


def lstm_last_hidden(seq, params, layers, **kwargs):
    """lstm_stack over a batch of one (L, d) sequence: final hidden state (1, H)."""
    triples = [(params[f"lstm{k}.wx"], params[f"lstm{k}.wh"], params[f"lstm{k}.b"])
               for k in range(layers)]
    return lstm_stack(Tensor(seq[None]), triples, **kwargs)


def forward_one(spec, params, window, a_hat=None):
    """model_forward on a batch of one (L, N) window: predictions (1, N)."""
    return model_forward(Tensor(window[None]), spec, params, a_hat)


class TestLstm:
    def test_zero_weights_give_zero_hidden(self, rng):
        spec = tiny_spec("lstm")
        params = zero_params_like(init_params(spec, 1, 4, rng))
        h = lstm_last_hidden(rng.uniform(0, 1, (6, 1)), params, layers=2)
        assert np.array_equal(h.data, np.zeros((1, 4)))

    def test_hidden_state_strictly_inside_unit_box(self, rng):
        spec = tiny_spec("lstm")
        for trial in range(10):
            params = {
                name: Tensor(rng.normal(scale=3.0, size=p.shape), requires_grad=True)
                for name, p in init_params(spec, 1, 4, rng).items()
            }
            h = lstm_last_hidden(rng.normal(size=(7, 1)), params, layers=2)
            assert np.all(np.abs(h.data) < 1.0)

    def test_gradients_match_finite_differences(self, rng):
        spec = tiny_spec("lstm", lstm_layers=1)
        params = {
            "lstm0.wx": Tensor(rng.normal(scale=0.4, size=(2, 16)), requires_grad=True),
            "lstm0.wh": Tensor(rng.normal(scale=0.4, size=(4, 16)), requires_grad=True),
            "lstm0.b": Tensor(rng.normal(scale=0.2, size=16), requires_grad=True),
        }
        seq = rng.normal(size=(3, 2))
        target = rng.normal(size=(1, 4))

        def build(p):
            return mse_loss(lstm_last_hidden(seq, p, layers=1), Tensor(target))

        assert gradient_check(build, params, max_coords=12) < 1e-4

    def test_single_step_cell_gradients(self, rng):
        # L=1 reduces the stack to one cell update
        params = {
            "lstm0.wx": Tensor(rng.normal(scale=0.5, size=(3, 8)), requires_grad=True),
            "lstm0.wh": Tensor(rng.normal(scale=0.5, size=(2, 8)), requires_grad=True),
            "lstm0.b": Tensor(rng.normal(scale=0.3, size=8), requires_grad=True),
        }
        seq = rng.normal(size=(1, 3))
        target = rng.normal(size=(1, 2))
        err = gradient_check(
            lambda p: mse_loss(lstm_last_hidden(seq, p, layers=1), Tensor(target)),
            params,
            max_coords=12,
        )
        assert err < 1e-4

    def test_stacked_recurrence_with_dropout_gradients(self, rng):
        # four time steps through two layers, with dropout between them in
        # training mode; every coordinate of the weights and the input is probed
        shapes = {"lstm0.wx": (2, 12), "lstm0.wh": (3, 12), "lstm0.b": (12,),
                  "lstm1.wx": (3, 12), "lstm1.wh": (3, 12), "lstm1.b": (12,), "x": (2, 4, 2)}
        params = {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
                  for name, shape in shapes.items()}
        target = rng.normal(size=(2, 3))

        def build(p, training=True):
            triples = [(p[f"lstm{k}.wx"], p[f"lstm{k}.wh"], p[f"lstm{k}.b"]) for k in range(2)]
            # reseeded on every call, so each evaluation draws the same masks
            masks = np.random.Generator(np.random.PCG64(7))
            h = lstm_stack(p["x"], triples, dropout_rate=0.5, training=training, rng=masks)
            return mse_loss(h, Tensor(target))

        assert build(params).item() != build(params, training=False).item()
        assert gradient_check(build, params, max_coords=36) < 1e-4

    def test_shape_validation(self, rng):
        params = init_params(tiny_spec("lstm"), 1, 4, rng)
        triples = [(params["lstm0.wx"], params["lstm0.wh"], params["lstm0.b"])]
        with pytest.raises(ShapeMismatchError):
            lstm_stack(Tensor(np.zeros((2, 3, 5))), triples)  # input width 5 vs wx rows 1

    def test_dropout_between_layers_changes_training_output(self, rng):
        spec = tiny_spec("lstm")
        params = init_params(spec, 1, 4, rng)
        seq = rng.uniform(0, 1, (6, 1))
        eval_out = lstm_last_hidden(seq, params, layers=2, dropout_rate=0.5, training=False)
        train_out = lstm_last_hidden(
            seq, params, layers=2, dropout_rate=0.5, training=True,
            rng=np.random.Generator(np.random.PCG64(0)),
        )
        assert not np.allclose(eval_out.data, train_out.data)


class TestLstmColumnBlocks:
    """lstm_stack runs the batch in column blocks; any split must give the
    result of one block over the whole batch."""

    def make(self, rng, n_batch, d=1, hidden=4, length=5):
        shapes = {"lstm0.wx": (d, 4 * hidden), "lstm0.wh": (hidden, 4 * hidden),
                  "lstm0.b": (4 * hidden,), "lstm1.wx": (hidden, 4 * hidden),
                  "lstm1.wh": (hidden, 4 * hidden), "lstm1.b": (4 * hidden,),
                  "x": (n_batch, length, d)}
        params = {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
                  for name, shape in shapes.items()}
        return params, rng.normal(size=(n_batch, hidden))

    def loss(self, monkeypatch, width, params, target, dropout_rate):
        """MSE of the stack's output, run in blocks of `width` sequences, with
        dropout masks drawn from a generator reseeded on every call; returns the
        loss and that generator."""
        hidden = params["lstm0.wh"].shape[0]
        # the block budget holds 12 float64 rows of `hidden` per column
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES", width * 12 * 8 * hidden)
        triples = [(params[f"lstm{k}.wx"], params[f"lstm{k}.wh"], params[f"lstm{k}.b"])
                   for k in range(2)]
        masks = np.random.Generator(np.random.PCG64(7))
        h = lstm_stack(params["x"], triples, dropout_rate, dropout_rate > 0, masks)
        return mse_loss(h, Tensor(target)), masks

    @pytest.mark.parametrize("d", [1, 3])
    def test_any_split_matches_one_block(self, monkeypatch, rng, d):
        # 37 sequences in blocks of 16 are three blocks, the last one ragged;
        # a batch of 10 or of 1 fits in one block
        for n_batch in (37, 10, 1):
            params, target = self.make(rng, n_batch, d)
            for rate in (0.0, 0.5):
                runs = []
                for width in (n_batch, 16):
                    loss, masks = self.loss(monkeypatch, width, params, target, rate)
                    grads = {k: g.copy() for k, g in backward(loss, params).items()}
                    runs.append((loss.item(), grads, masks.random()))
                (loss_one, grads_one, next_one), (loss_blk, grads_blk, next_blk) = runs
                assert loss_blk == pytest.approx(loss_one, rel=1e-12, abs=0)
                for name in params:
                    np.testing.assert_allclose(grads_blk[name], grads_one[name], rtol=1e-12,
                                               atol=1e-15, err_msg=f"{name} B={n_batch}")
                # the masks are the same draws: the stream after them is too
                assert next_blk == next_one

    def test_gradients_across_blocks_match_finite_differences(self, monkeypatch, rng):
        params, target = self.make(rng, 37)
        err = gradient_check(
            lambda p: self.loss(monkeypatch, 16, p, target, 0.5)[0], params, max_coords=24
        )
        assert err < 1e-4


class TestGcn:
    def make_params(self, rng, f0=3, f1=3, f2=2):
        return {
            "gcn1.w": Tensor(rng.normal(size=(f0, f1)), requires_grad=True),
            "gcn1.b": Tensor(rng.normal(size=f1), requires_grad=True),
            "gcn2.w": Tensor(rng.normal(size=(f1, f2)), requires_grad=True),
            "gcn2.b": Tensor(rng.normal(size=f2), requires_grad=True),
        }

    def test_edgeless_graph_isolates_nodes(self, rng):
        params = self.make_params(rng)
        features = rng.normal(size=(4, 3))
        base = gcn_forward(features, edgeless_adjacency(4), params).data
        perturbed = features.copy()
        perturbed[2] += 5.0
        out = gcn_forward(perturbed, edgeless_adjacency(4), params).data
        assert np.array_equal(out[[0, 1, 3]], base[[0, 1, 3]])
        assert not np.array_equal(out[2], base[2])

    def test_symmetric_nodes_get_identical_embeddings(self, rng):
        params = self.make_params(rng)
        a_hat = np.full((2, 2), 0.5)
        features = np.tile(rng.normal(size=3), (2, 1))
        out = gcn_forward(features, a_hat, params).data
        assert np.array_equal(out[0], out[1])

    def test_gradients_match_finite_differences(self, rng):
        params = self.make_params(rng)
        a_hat = np.array(
            [[0.5, 0.5, 0.0, 0.0],
             [0.5, 0.4, 0.1, 0.0],
             [0.0, 0.1, 0.6, 0.3],
             [0.0, 0.0, 0.3, 0.7]]
        )
        features = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def build(p):
            return mse_loss(gcn_forward(features, a_hat, p), Tensor(target))

        assert gradient_check(build, params, max_coords=12) < 1e-4

    def test_feature_row_count_must_match_nodes(self, rng):
        with pytest.raises(ShapeMismatchError):
            gcn_forward(rng.normal(size=(3, 3)), edgeless_adjacency(4), self.make_params(rng))


class TestHybrid:
    def test_output_length_matches_stock_count(self, rng):
        n = 10
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        window = rng.uniform(0.1, 0.9, (4, n))
        out = forward_one(spec, params, window, edgeless_adjacency(n))
        assert out.shape == (1, n)

    def test_edgeless_graph_isolation_analytic(self, rng):
        n = 4
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        window = Tensor(rng.uniform(0.1, 0.9, (1, 4, n)), requires_grad=True)
        out = model_forward(window, spec, params, edgeless_adjacency(n))
        target_stock = 1
        backward(reshape(narrow(out, 1, target_stock, 1), ()))
        grads = window.grad[0]  # (L, N)
        others = [j for j in range(n) if j != target_stock]
        assert np.all(grads[:, others] == 0.0)
        assert np.any(grads[:, target_stock] != 0.0)

    def test_edgeless_graph_isolation_finite_difference(self, rng):
        n = 3
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        window = rng.uniform(0.1, 0.9, (4, n))
        base = forward_one(spec, params, window, edgeless_adjacency(n)).data[0]
        bumped = window.copy()
        bumped[:, 2] += 0.1
        out = forward_one(spec, params, bumped, edgeless_adjacency(n)).data[0]
        assert out[0] == base[0] and out[1] == base[1]
        assert out[2] != base[2]

    def test_connected_graph_breaks_isolation(self, rng):
        n = 3
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        a_hat = np.full((n, n), 1.0 / n)
        window = rng.uniform(0.1, 0.9, (4, n))
        base = forward_one(spec, params, window, a_hat).data[0]
        bumped = window.copy()
        bumped[:, 2] += 0.1
        out = forward_one(spec, params, bumped, a_hat).data[0]
        assert not np.array_equal(out[0], base[0])

    def test_deterministic_forward(self, rng):
        n = 5
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        window = rng.uniform(0.1, 0.9, (4, n))
        a = forward_one(spec, params, window, edgeless_adjacency(n)).data
        b = forward_one(spec, params, window, edgeless_adjacency(n)).data
        assert np.array_equal(a, b)

    def test_permutation_equivariance(self, rng):
        n = 5
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        a_hat = np.eye(n) * 0.6
        a_hat[0, 1] = a_hat[1, 0] = 0.4
        a_hat[2, 3] = a_hat[3, 2] = 0.3
        window = rng.uniform(0.1, 0.9, (4, n))
        base = forward_one(spec, params, window, a_hat).data[0]

        perm = np.array([3, 0, 4, 1, 2])
        permuted_window = window[:, perm]
        permuted_a_hat = a_hat[np.ix_(perm, perm)]
        out = forward_one(spec, params, permuted_window, permuted_a_hat).data[0]
        assert np.max(np.abs(out - base[perm])) < 1e-12

    def test_gradients_match_finite_differences(self, rng):
        n = 3
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        a_hat = np.full((n, n), 1.0 / n)
        window = rng.uniform(0.1, 0.9, (4, n))
        target = rng.uniform(0.1, 0.9, (1, n))

        def build(p):
            return mse_loss(forward_one(spec, p, window, a_hat), Tensor(target))

        assert gradient_check(build, params, max_coords=8) < 1e-4


class TestBaselines:
    def test_dense_zero_weights_predict_bias(self, rng):
        spec = tiny_spec("dense")
        params = init_params(spec, 3, 4, rng)
        zeros = zero_params_like(params)
        bias = rng.normal(size=3)
        zeros["out.b"] = Tensor(bias, requires_grad=True)
        window = rng.uniform(0, 1, (4, 3))
        out = model_forward(Tensor(window[None]), spec, zeros)
        assert np.allclose(out.data[0], bias)

    def test_cnn_output_length_for_any_lookback(self, rng):
        spec = tiny_spec("cnn1d")
        for lookback in (3, 5, 9):
            params = init_params(spec, 4, lookback, rng)
            window = rng.uniform(0, 1, (lookback, 4))
            out = model_forward(Tensor(window[None]), spec, params)
            assert out.shape == (1, 4)

    def test_cnn_needs_kernel_length(self, rng):
        spec = tiny_spec("cnn1d")
        params = init_params(spec, 2, 2, rng)
        with pytest.raises(ShapeMismatchError):
            model_forward(Tensor(np.zeros((1, 2, 2))), spec, params)

    def test_dense_and_cnn_gradients(self, rng):
        for kind in ("dense", "cnn1d"):
            spec = tiny_spec(kind)
            params = init_params(spec, 3, 5, rng)
            window = rng.uniform(0.1, 0.9, (1, 5, 3))
            target = rng.uniform(0.1, 0.9, (1, 3))
            err = gradient_check(
                lambda p: mse_loss(model_forward(Tensor(window), spec, p), Tensor(target)),
                params,
                max_coords=10,
            )
            assert err < 1e-4, kind


class TestLinreg:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=20)
        dataset = WindowDataset(
            lookback=1,
            inputs=x[:, None, None],
            targets=(2.0 * x + 1.0)[:, None],
            target_dates=weekdays(20),
        )
        coef = linreg_fit(dataset, 0)
        assert abs(coef[0] - 2.0) < 1e-9
        assert abs(coef[1] - 1.0) < 1e-9
        pred = model_forward(Tensor(np.full((1, 1, 1), 0.25)), ModelSpec("linreg"),
                             {"ols.coef": Tensor(coef[None])})
        assert pred.data[0, 0] == pytest.approx(1.5, abs=1e-9)

    def test_constant_targets_give_intercept_only(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(15, 2))
        dataset = WindowDataset(
            lookback=2,
            inputs=x[:, :, None],
            targets=np.full((15, 1), 0.7),
            target_dates=weekdays(15),
        )
        coef = linreg_fit(dataset, 0)
        assert np.all(np.abs(coef[:2]) < 1e-9)
        assert coef[2] == pytest.approx(0.7, abs=1e-9)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(7)
        n, lags = 200, 3
        x = rng.normal(size=(n, lags))
        y = rng.normal(size=n)
        dataset = WindowDataset(lags, x[:, :, None], y[:, None], weekdays(n))
        coef = linreg_fit(dataset, 0)

        design = np.hstack([x, np.ones((n, 1))])
        theta = np.zeros(lags + 1)
        gram = design.T @ design / n
        step = 0.9 / np.linalg.eigvalsh(gram).max()
        for _ in range(5000):
            theta -= step * 2 * (gram @ theta - design.T @ y / n)
        assert np.max(np.abs(coef - theta)) < 1e-6

    def test_needs_enough_samples(self):
        dataset = WindowDataset(4, np.zeros((5, 4, 1)), np.zeros((5, 1)), weekdays(5))
        with pytest.raises(EmptyDatasetError):
            linreg_fit(dataset, 0)


class TestEarlyStopper:
    def test_halts_patience_epochs_after_best(self):
        # best at epoch 2, strictly increasing afterwards: stop exactly at epoch 7
        stopper = EarlyStopper(patience=5, min_delta=1e-6)
        losses = [0.5, 0.3, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36]
        stops = [stopper.update(v)[1] for v in losses[:7]]
        assert stops == [False] * 6 + [True]
        assert stopper.best_epoch == 2

    def test_never_stops_while_improving(self):
        stopper = EarlyStopper(patience=5, min_delta=1e-6)
        for epoch in range(40):
            improved, stop = stopper.update(1.0 / (epoch + 1))
            assert improved and not stop
        assert stopper.best_epoch == 40

    def test_min_delta_gates_improvement(self):
        stopper = EarlyStopper(patience=2, min_delta=0.1)
        assert stopper.update(1.0) == (True, False)
        assert stopper.update(0.95) == (False, False)  # too small to count
        assert stopper.update(0.94) == (False, True)


class TestTrain:
    def test_empty_dataset(self):
        empty = WindowDataset(2, np.zeros((0, 2, 2)), np.zeros((0, 2)), [])
        with pytest.raises(EmptyDatasetError):
            train(tiny_spec("dense"), empty)

    def test_hybrid_requires_adjacency(self, rng):
        with pytest.raises(ValueError):
            train(tiny_spec("hybrid"), make_dataset(rng))

    def test_linreg_history_has_single_entry(self, rng):
        ds = make_dataset(rng, n_samples=14, lookback=4)
        result = train(tiny_spec("linreg"), ds)
        assert len(result.history) == 1
        assert result.best_epoch == 1

    def test_runs_exactly_to_cap_without_trigger(self, rng):
        cfg = tiny_config(epochs=4, patience=50)
        result = train(tiny_spec("dense", train=cfg), make_dataset(rng))
        assert len(result.history) == 4

    def test_returns_best_validation_params(self, rng):
        ds = make_dataset(rng, n_samples=20)
        cfg = tiny_config(epochs=12, patience=3, val_fraction=0.25)
        spec = tiny_spec("dense", train=cfg)
        result = train(spec, ds)
        vals = [v for _, v in result.history]
        n_val = round(0.25 * len(ds))
        check = model_forward(Tensor(ds.inputs[-n_val:]), spec, result.params)
        val_of_returned = float(np.mean((check.data - ds.targets[-n_val:]) ** 2))
        assert val_of_returned == pytest.approx(min(vals), abs=1e-15)
        assert result.best_epoch == int(np.argmin(vals)) + 1

    def test_early_stop_saves_epochs(self, rng):
        ds = make_dataset(rng, n_samples=20)
        cfg = tiny_config(epochs=40, patience=2, min_delta=0.5)  # brutal delta forces stop
        result = train(tiny_spec("dense", train=cfg), ds)
        assert result.stopped_early
        assert len(result.history) < 40

    def test_training_is_deterministic(self, rng):
        ds = make_dataset(rng, n_samples=16)
        cfg = tiny_config(epochs=5, seed=11, dropout=0.3)
        a = train(tiny_spec("lstm", train=cfg), ds)
        b = train(tiny_spec("lstm", train=cfg), ds)
        assert a.history == b.history
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_seed_override_changes_run(self, rng):
        ds = make_dataset(rng, n_samples=16)
        cfg = tiny_config(epochs=3)
        a = train(tiny_spec("dense", train=cfg), ds, seed=1)
        b = train(tiny_spec("dense", train=cfg), ds, seed=2)
        assert a.history != b.history

    def test_diverged_loss_detected(self, rng):
        ds = make_dataset(rng, n_samples=16)
        # Adam steps have magnitude ~lr, so overflow needs an absurd rate
        cfg = tiny_config(epochs=10, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedLossError):
                train(tiny_spec("dense", train=cfg), ds)

    def test_minibatch_training_runs(self, rng):
        ds = make_dataset(rng, n_samples=17)
        cfg = tiny_config(epochs=3, batch_size=4)
        result = train(tiny_spec("dense", train=cfg), ds)
        assert len(result.history) == 3
        assert all(math.isfinite(t) for t, _ in result.history)

    def test_train_loss_decreases_on_learnable_data(self, rng):
        # targets equal the last row of the window: an easy mapping
        inputs = rng.uniform(0.1, 0.9, size=(30, 4, 2))
        targets = inputs[:, -1, :]
        ds = WindowDataset(4, inputs, targets, weekdays(30))
        cfg = tiny_config(epochs=80, learning_rate=0.02, batch_size=8,
                          patience=80, val_fraction=0.0)
        result = train(tiny_spec("dense", dense_hidden=(16, 16), train=cfg), ds)
        first = result.history[0][0]
        last = result.history[-1][0]
        assert last < first * 0.2

