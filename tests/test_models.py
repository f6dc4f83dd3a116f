import math
import weakref

import numpy as np
import pytest

from stockcast.autodiff import Tensor, backward, dropout_mask, mse_loss, topo_order
from stockcast.errors import DivergedLossError, EmptyDatasetError
from stockcast import models
from stockcast.backtest import expanding_schedule
from stockcast.market_data import WindowDataset, daily_returns, fit_scaler, make_windows, scale
from stockcast.models import (
    EarlyStopper,
    ModelSpec,
    TrainConfig,
    gcn_forward,
    init_params,
    linreg_fit,
    lstm_stack,
    model_forward,
    predict,
    train,
)
from stockcast.relation_graph import GraphConfig, build_graph, normalized_adjacency
from stockcast.synthetic import lead_lag_panel

from conftest import coordinate_errors, gradient_check, traced_memory, weekdays


def tiny_config(**kw):
    defaults = dict(learning_rate=0.01, lookback=4, epochs=5, dropout=0.0,
                    patience=3, val_fraction=0.2)
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
    return lstm_stack(seq[None], triples, **kwargs)


def keep_masks(x, layer_params, rate, gen=None):
    """Dropout keep-masks of a stack of `layer_params` over the (B, L, d)
    input `x`, as `train` draws them: one (L, H, B) mask per layer but the
    top one, from `gen` or else a fresh generator seeded 7. None at rate 0."""
    if rate == 0.0:
        return None
    gen = np.random.Generator(np.random.PCG64(7)) if gen is None else gen
    n_batch, length, _ = x.shape
    hidden = layer_params[0][1].shape[0]
    return [dropout_mask(gen, (length, hidden, n_batch), rate) for _ in layer_params[1:]]


def forward_one(spec, params, window, a_hat=None):
    """model_forward on a batch of one (L, N) window: predictions (1, N)."""
    return model_forward(window[None], spec, params, a_hat)


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
            return mse_loss(lstm_last_hidden(seq, p, layers=1), target)

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
            lambda p: mse_loss(lstm_last_hidden(seq, p, layers=1), target),
            params,
            max_coords=12,
        )
        assert err < 1e-4

    def test_stacked_recurrence_with_dropout_gradients(self, rng):
        # four time steps through two layers, with dropout between them in
        # training mode; every coordinate of the weights is probed
        shapes = {"lstm0.wx": (2, 12), "lstm0.wh": (3, 12), "lstm0.b": (12,),
                  "lstm1.wx": (3, 12), "lstm1.wh": (3, 12), "lstm1.b": (12,)}
        params = {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
                  for name, shape in shapes.items()}
        x = rng.normal(scale=0.5, size=(2, 4, 2))
        target = rng.normal(size=(2, 3))

        def build(p, training=True):
            triples = [(p[f"lstm{k}.wx"], p[f"lstm{k}.wh"], p[f"lstm{k}.b"]) for k in range(2)]
            # drawn from a fresh generator on every call, so each evaluation has the same masks
            masks = keep_masks(x, triples, 0.5) if training else None
            h = lstm_stack(x, triples, dropout_rate=0.5, masks=masks)
            return mse_loss(h, target)

        assert build(params).item() != build(params, training=False).item()
        assert gradient_check(build, params, max_coords=36) < 1e-4

    def test_shape_validation(self, rng):
        params = init_params(tiny_spec("lstm"), 1, 4, rng)
        triples = [(params["lstm0.wx"], params["lstm0.wh"], params["lstm0.b"])]
        with pytest.raises(ValueError, match=r"^lstm layer 0 on input width 5: wx \(1, 16\)"):
            lstm_stack(np.zeros((2, 3, 5)), triples)  # input width 5 vs wx rows 1

    def test_upper_layer_input_width_is_checked(self, rng):
        # layer 1 reads layer 0's H = 4 hidden states, so its wx must have 4 rows
        triples = two_layer_triples(init_params(tiny_spec("lstm"), 1, 4, rng))
        triples[1] = (Tensor(rng.normal(size=(3, 16)), requires_grad=True), *triples[1][1:])
        with pytest.raises(ValueError, match=r"^lstm layer 1 on input width 4: wx \(3, 16\)"):
            lstm_stack(np.zeros((2, 3, 1)), triples)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
    def test_dropout_rate_outside_unit_interval(self, rng, rate):
        # 1.5 would draw all-false masks with a scale of -2, 1.0 divide by
        # zero, -0.1 keep every unit and scale it by 1 / 1.1
        triples = two_layer_triples(init_params(tiny_spec("lstm"), 1, 4, rng))
        for masks in ([np.ones((3, 4, 2), dtype=bool)], None):
            with pytest.raises(ValueError, match=rf"^dropout rate {rate}$"):
                lstm_stack(np.zeros((2, 3, 1)), triples, rate, masks)

    def test_mask_shapes_are_checked(self, rng):
        # one (L, H, B) mask per layer but the top one
        triples = two_layer_triples(init_params(tiny_spec("lstm"), 1, 4, rng))
        for masks in ([], [np.ones((3, 4, 5), dtype=bool)]):
            with pytest.raises(ValueError, match=r"^lstm dropout masks .* for 2 layers of "
                                                 r"\(3, 4, 2\)$"):
                lstm_stack(np.zeros((2, 3, 1)), triples, 0.5, masks)

    def test_dropout_between_layers_changes_training_output(self, rng):
        spec = tiny_spec("lstm")
        params = init_params(spec, 1, 4, rng)
        seq = rng.uniform(0, 1, (6, 1))
        eval_out = lstm_last_hidden(seq, params, layers=2, dropout_rate=0.5)
        masks = keep_masks(seq[None], two_layer_triples(params), 0.5,
                           np.random.Generator(np.random.PCG64(0)))
        train_out = lstm_last_hidden(seq, params, layers=2, dropout_rate=0.5, masks=masks)
        assert not np.allclose(eval_out.data, train_out.data)


def two_layer_case(rng, n_batch, d=1, hidden=4, length=5, dtype=np.float64, layers=2):
    """Tracked float64 weights of a `layers`-layer stack, an input array `x`
    of `dtype` and a (n_batch, hidden) target."""
    shapes = {}
    for k in range(layers):
        shapes |= {f"lstm{k}.wx": (d if k == 0 else hidden, 4 * hidden),
                   f"lstm{k}.wh": (hidden, 4 * hidden), f"lstm{k}.b": (4 * hidden,)}
    params = {name: Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
              for name, shape in shapes.items()}
    x = rng.normal(scale=0.5, size=(n_batch, length, d)).astype(dtype)
    return params, x, rng.normal(size=(n_batch, hidden))


def two_layer_triples(params):
    """The (wx, wh, b) triple of every `lstm{k}` layer in `params`."""
    layers = sum(name.startswith("lstm") and name.endswith(".wx") for name in params)
    return [(params[f"lstm{k}.wx"], params[f"lstm{k}.wh"], params[f"lstm{k}.b"])
            for k in range(layers)]


class TestLstmColumnBlocks:
    """lstm_stack runs the batch in column blocks; any split must give the
    result of one block over the whole batch."""

    # set from each dtype's precision: about 5,000 float64 ulps, and about
    # 80 float32 ulps (eps 1.2e-7) for a different summation order
    RTOL = {np.float64: 1e-12, np.float32: 1e-5}

    def loss(self, monkeypatch, width, params, x, target, dropout_rate):
        """MSE of the stack's output, run in blocks of `width` sequences, with
        dropout masks drawn from a generator reseeded on every call; returns the
        loss and that generator."""
        hidden = params["lstm0.wh"].shape[0]
        # the block budget holds 12 rows of `hidden` per column, in the input's dtype
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES", width * 12 * x.itemsize * hidden)
        gen = np.random.Generator(np.random.PCG64(7))
        triples = two_layer_triples(params)
        h = lstm_stack(x, triples, dropout_rate, keep_masks(x, triples, dropout_rate, gen))
        return mse_loss(h, target), gen

    @pytest.mark.parametrize("d", [1, 3])
    def test_any_split_matches_one_block(self, monkeypatch, rng, d):
        # 37 sequences in blocks of 16 are three blocks, the last one ragged;
        # a batch of 10 or of 1 fits in one block; float32 runs the 37 again
        for n_batch, dtype in ((37, np.float64), (10, np.float64), (1, np.float64),
                               (37, np.float32)):
            rtol = self.RTOL[dtype]
            params, x, target = two_layer_case(rng, n_batch, d, dtype=dtype)
            for rate in (0.0, 0.5):
                runs = []
                for width in (n_batch, 16):
                    loss, masks = self.loss(monkeypatch, width, params, x, target, rate)
                    grads = {k: g.copy() for k, g in backward(loss, params).items()}
                    runs.append((loss.item(), grads, masks.random()))
                (loss_one, grads_one, next_one), (loss_blk, grads_blk, next_blk) = runs
                assert loss_blk == pytest.approx(loss_one, rel=rtol, abs=0)
                for name in params:
                    # float64 keeps its absolute floor; float32 takes one from
                    # the tensor's gradient scale, as round-off is absolute
                    atol = 1e-15 if dtype == np.float64 else rtol * np.abs(grads_one[name]).max()
                    np.testing.assert_allclose(grads_blk[name], grads_one[name], rtol=rtol,
                                               atol=atol, err_msg=f"{name} B={n_batch} {dtype}")
                # the masks are the same draws: the stream after them is too
                assert next_blk == next_one

    def test_block_width_follows_the_itemsize(self):
        # at H = 32 the budget holds 1,024 float32 sequences and 512 float64 ones
        assert models._lstm_block_width(np.dtype(np.float32), 32) == 1024
        assert models._lstm_block_width(np.dtype(np.float64), 32) == 512

    def test_gradients_across_blocks_match_finite_differences(self, monkeypatch, rng):
        params, x, target = two_layer_case(rng, 37)
        err = gradient_check(
            lambda p: self.loss(monkeypatch, 16, p, x, target, 0.5)[0], params, max_coords=24
        )
        assert err < 1e-4


def float64_only_lstm_stack(x, layer_params, dropout_rate=0.0, masks=None):
    """lstm_stack as it was before it followed its input's dtype: float64 work
    arrays and float dropout masks mask / (1 - rate), in column blocks of
    `_LSTM_BLOCK_BYTES // (96 * H)`. The bitwise reference for float64 calls."""
    n_batch, length, _ = x.shape
    n_layers = len(layer_params)
    H = layer_params[0][1].shape[0]

    weights = [
        (np.ascontiguousarray(wx.data.T), np.ascontiguousarray(wh.data.T), b.data[:, None])
        for wx, wh, b in layer_params
    ]  # (4H, d), (4H, H), (4H, 1)
    if masks is not None and dropout_rate > 0.0:
        masks = [m / (1.0 - dropout_rate) for m in masks]
    else:
        masks = [None] * (n_layers - 1)
    width = max(1, models._LSTM_BLOCK_BYTES // (96 * H))
    blocks = []  # (columns, per-layer caches) of each column block
    h_last = np.empty((n_batch, H))
    for lo in range(0, n_batch, width):
        cols = slice(lo, lo + width)
        # time-major, feature-by-batch blocks: inp[t] is (d, n) and contiguous
        inp = np.ascontiguousarray(x[cols].transpose(1, 2, 0))
        n = inp.shape[2]
        caches = []
        for layer, (wxT, whT, bias) in enumerate(weights):
            gates = np.empty((length, 4 * H, n))
            cs = np.empty((length, H, n))
            tcs = np.empty((length, H, n))
            hs = np.empty((length, H, n))
            for t in range(length):
                z = gates[t]
                if wxT.shape[1] == 1:  # a width-1 input: the product is a broadcast
                    np.multiply(wxT, inp[t], out=z)
                else:
                    np.matmul(wxT, inp[t], out=z)
                if t > 0:
                    z += whT @ hs[t - 1]
                z += bias
                zs = z[: 3 * H]  # sigmoid gates, computed as 0.5 * (tanh(z/2) + 1)
                np.multiply(zs, 0.5, out=zs)
                np.tanh(zs, out=zs)
                zs += 1.0
                np.multiply(zs, 0.5, out=zs)
                zg = z[3 * H :]  # candidate
                np.tanh(zg, out=zg)

                i, f, o, g = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
                c = cs[t]
                if t > 0:
                    np.multiply(f, cs[t - 1], out=c)
                    c += i * g
                else:
                    np.multiply(i, g, out=c)
                np.tanh(c, out=tcs[t])
                np.multiply(o, tcs[t], out=hs[t])
            caches.append((inp, gates, cs, tcs, hs))
            if layer < n_layers - 1:
                inp = hs if masks[layer] is None else hs * masks[layer][:, :, cols]
        h_last[cols] = hs[length - 1].T
        blocks.append((cols, caches))

    def bw(grad: np.ndarray) -> None:
        dw = [(np.zeros_like(wxT), np.zeros((4 * H, H)), np.zeros(4 * H))
              for wxT, _, _ in weights]  # (dwxT, dwhT, db) summed over blocks
        for cols, caches in blocks:
            upper_dx: np.ndarray | None = None  # d(loss)/d(input seq) of the layer above
            for layer in range(n_layers - 1, -1, -1):
                inp_l, gates, cs, tcs, hs_l = caches[layer]
                wx, wh, _ = layer_params[layer]
                dwxT, dwhT, db = dw[layer]
                d, n = inp_l.shape[1:]
                mask = None if layer == n_layers - 1 else masks[layer]
                need_dx = layer > 0
                dx_seq = np.empty((length, d, n)) if need_dx else None
                dz = np.empty((4 * H, n))
                dc = np.zeros((H, n))
                dh_carry: np.ndarray | None = None
                for t in range(length - 1, -1, -1):
                    z = gates[t]
                    i, f, o, g = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
                    tc = tcs[t]
                    if layer == n_layers - 1:
                        # the stack only exposes the last hidden state
                        dh = grad[cols].T if t == length - 1 else dh_carry
                    else:
                        dh = upper_dx[t]
                        if mask is not None:
                            dh = dh * mask[t][:, cols]
                        if dh_carry is not None:
                            dh = dh + dh_carry
                    do = dh * tc
                    dc += dh * (o * (1.0 - tc * tc))
                    dz[:H] = (dc * g) * (i * (1.0 - i))
                    if t > 0:
                        dz[H : 2 * H] = (dc * cs[t - 1]) * (f * (1.0 - f))
                    else:
                        dz[H : 2 * H] = 0.0  # initial cell state is a constant
                    dz[2 * H : 3 * H] = do * (o * (1.0 - o))
                    dz[3 * H :] = (dc * i) * (1.0 - g * g)

                    if t > 0:
                        dwhT += dz @ hs_l[t - 1].T
                        dh_carry = wh.data @ dz
                    dwxT += dz @ inp_l[t].T
                    db += dz.sum(axis=1)
                    if need_dx:
                        np.matmul(wx.data, dz, out=dx_seq[t])
                    dc *= f
                upper_dx = dx_seq
        for (wx, wh, b), (dwxT, dwhT, db) in zip(layer_params, dw):
            if wx.requires_grad:
                wx.add_grad(dwxT.T.copy())
            if wh.requires_grad:
                wh.add_grad(dwhT.T.copy())
            if b.requires_grad:
                b.add_grad(db)

    parents = tuple(t for triple in layer_params for t in triple)
    return Tensor._from_op(h_last, parents, bw)


class TestLstmDtype:
    """lstm_stack computes in its input's dtype; train and predict give it
    float32 windows for the lstm and hybrid only."""

    def run(self, kernel, x, params, target, rate):
        """The kernel's output and the loss gradients of the weights, with
        masks from a freshly seeded generator."""
        triples = two_layer_triples(params)
        h = kernel(x, triples, rate, keep_masks(x, triples, rate))
        out = h.data.copy()
        grads = {k: g.copy() for k, g in backward(mse_loss(h, target), params).items()}
        return out, grads

    def test_float32_agrees_with_float64(self, rng):
        # 1,100 sequences at H = 32 are 3 column blocks in float64 and 2 in float32
        params = init_params(tiny_spec("lstm", hidden_size=32), 1, 11, rng)
        seq = rng.uniform(0.0, 1.0, size=(1100, 11, 1))
        target = rng.normal(size=(1100, 32))
        h64, g64 = self.run(lstm_stack, seq, params, target, 0.5)
        h32, g32 = self.run(lstm_stack, seq.astype(np.float32), params, target, 0.5)
        assert h64.dtype == np.float64 and h32.dtype == np.float32
        # hidden states near 0 carry absolute round-off, so the floor is 1e-5 of their scale
        np.testing.assert_allclose(h32, h64, rtol=1e-5, atol=1e-5 * np.abs(h64).max())
        for name in (f"lstm{k}.{w}" for k in range(2) for w in ("wx", "wh", "b")):
            assert g32[name].dtype == np.float64
            scale = np.abs(g64[name]).max()
            assert np.abs(g32[name] - g64[name]).max() <= 1e-4 * scale, name

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
    def test_float64_is_bitwise_the_float64_only_kernel(self, monkeypatch, rng, rate):
        # 37 sequences in 16-sequence blocks and a width-3 input, so every path
        # of the kernel runs: one layer that both starts from the loss gradient
        # and writes no input gradient, and a middle layer at 3 layers; the bool
        # masks times the rounded 1 / (1 - rate) give the float masks' bits at every rate
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES", 16 * 96 * 4)
        for layers in (1, 2, 3):
            params, x, target = two_layer_case(rng, 37, d=3, layers=layers)
            h_new, g_new = self.run(lstm_stack, x, params, target, rate)
            h_old, g_old = self.run(float64_only_lstm_stack, x, params, target, rate)
            assert np.array_equal(h_new, h_old), layers
            assert g_new.keys() == g_old.keys()
            for name in g_old:
                assert np.array_equal(g_new[name], g_old[name]), (layers, name)

    @pytest.mark.parametrize("kind", ["hybrid", "lstm"])
    def test_train_and_predict_run_the_lstm_in_float32(self, monkeypatch, rng, kind):
        real = models.lstm_stack
        calls = []

        def spy(x, layer_params, dropout_rate=0.0, masks=None):
            calls.append((masks is not None, x.dtype))
            return real(x, layer_params, dropout_rate, masks)

        monkeypatch.setattr(models, "lstm_stack", spy)
        spec = tiny_spec(kind, train=tiny_config(epochs=3, patience=10, dropout=0.3))
        ds = make_dataset(rng, n_samples=16)
        a_hat = edgeless_adjacency(3)
        result = train(spec, ds, a_hat)
        pred = predict(spec, result.params, ds.inputs[-1], a_hat)
        # 3 epochs of one training batch, with masks, and one validation
        # forward, then predict
        assert calls == [(True, np.float32), (False, np.float32)] * 3 + [(False, np.float32)]
        assert pred.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in result.params.values())

    @pytest.mark.parametrize("kind", ["dense", "cnn1d", "linreg"])
    def test_other_kinds_stay_float64(self, monkeypatch, rng, kind):
        real = models.model_forward
        dtypes = set()

        def spy(windows, *args, **kwargs):
            dtypes.add(windows.dtype)
            return real(windows, *args, **kwargs)

        monkeypatch.setattr(models, "model_forward", spy)
        spec = tiny_spec(kind, train=tiny_config(epochs=3, patience=10))
        ds = make_dataset(rng, n_samples=16)
        result = train(spec, ds)
        pred = predict(spec, result.params, ds.inputs[-1])
        assert dtypes == {np.dtype(np.float64)}
        expected = real(ds.inputs[-1:], spec, result.params).data[0]
        assert np.array_equal(pred, expected)


class TestLstmTape:
    """The tape keeps each layer's gates and layer 0's input; the backward
    recomputes the rest from them."""

    def test_tape_holds_gates_only(self, rng):
        n_batch, length, hidden = 1100, 11, 32
        params = init_params(tiny_spec("lstm", hidden_size=hidden), 1, length, rng)
        x = rng.uniform(0.0, 1.0, size=(n_batch, length, 1)).astype(np.float32)
        triples = two_layer_triples(params)
        masks = keep_masks(x, triples, 0.5)
        # what the output holds is what dropping it frees; tracemalloc sees
        # numpy's buffers, and the reused work arrays and the caller's masks
        # stay allocated
        with traced_memory() as traced:
            h = lstm_stack(x, triples, 0.5, masks)
            held = traced()[0]
            del h
            held -= traced()[0]
        # gates (4H) per step, layer and sequence
        budget = 2 * length * 4 * hidden * n_batch * np.dtype(np.float32).itemsize
        assert budget <= held <= 1.1 * budget, held / budget

    def test_tape_parents_are_the_weights_only(self, rng):
        # the input is data, so the tape reaches the weights only
        params, x, _ = two_layer_case(rng, 3)
        h = lstm_stack(x, two_layer_triples(params))
        assert h._parents == tuple(params.values())

    def test_work_arrays_are_never_read_through_a_live_tape(self, monkeypatch, rng):
        # 37 sequences in 16-sequence blocks; an eval forward of other inputs
        # and another batch size runs between A's forward and A's backward
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES", 16 * 12 * 8 * 4)
        params, x, target = two_layer_case(rng, 37, d=3)
        other = rng.normal(size=(21, 5, 3))

        def grads_of_a(between=None):
            triples = two_layer_triples(params)
            h = lstm_stack(x, triples, 0.5, keep_masks(x, triples, 0.5))
            if between is not None:
                between()
            return {k: g.copy() for k, g in backward(mse_loss(h, target), params).items()}

        alone = grads_of_a()
        interleaved = grads_of_a(lambda: lstm_stack(other, two_layer_triples(params)))
        for name in alone:
            assert np.array_equal(interleaved[name], alone[name]), name

    def test_every_coordinate_matches_finite_differences(self, monkeypatch, rng):
        # dropout between the layers, so the recomputed upper-layer input carries
        # masks; 37 sequences in 16-sequence blocks, the last one ragged; one
        # layer is both top and bottom, and at 3 layers a middle layer reads a
        # recomputed input and passes a gradient on
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES", 16 * 12 * 8 * 4)
        for layers in (1, 2, 3):
            params, x, target = two_layer_case(rng, 37, d=3, layers=layers)

            def loss(p) -> Tensor:
                triples = two_layer_triples(p)
                return mse_loss(lstm_stack(x, triples, 0.5, keep_masks(x, triples, 0.5)), target)

            for name, err in coordinate_errors(loss, params).items():
                assert err < 1e-4, (layers, name, err)


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
            return mse_loss(gcn_forward(features, a_hat, p), target)

        assert gradient_check(build, params, max_coords=12) < 1e-4

    def test_feature_row_count_must_match_nodes(self, rng):
        with pytest.raises(ValueError, match="^3 feature rows vs 4 graph nodes$"):
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
        # bump each (t, j) entry of the window in turn: only stock j's output moves
        n, length = 4, 4
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, length, rng)
        window = rng.uniform(0.1, 0.9, (length, n))
        base = forward_one(spec, params, window, edgeless_adjacency(n)).data[0]
        for t in range(length):
            for j in range(n):
                bumped = window.copy()
                bumped[t, j] += 0.05
                out = forward_one(spec, params, bumped, edgeless_adjacency(n)).data[0]
                others = [k for k in range(n) if k != j]
                assert np.array_equal(out[others], base[others]), (t, j)
                assert out[j] != base[j], (t, j)

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

    def test_training_dropout_needs_masks(self, rng):
        spec = tiny_spec("hybrid", train=tiny_config(dropout=0.5))
        params = init_params(spec, 3, 4, rng)
        window = rng.uniform(0.1, 0.9, (1, 4, 3))
        with pytest.raises(ValueError, match="^training-mode dropout needs masks$"):
            model_forward(window, spec, params, edgeless_adjacency(3), training=True)

    def test_gradients_match_finite_differences(self, rng):
        n = 3
        spec = tiny_spec("hybrid")
        params = init_params(spec, n, 4, rng)
        a_hat = np.full((n, n), 1.0 / n)
        window = rng.uniform(0.1, 0.9, (4, n))
        target = rng.uniform(0.1, 0.9, (1, n))

        def build(p):
            return mse_loss(forward_one(spec, p, window, a_hat), target)

        assert gradient_check(build, params, max_coords=8) < 1e-4


class TestBaselines:
    def test_dense_zero_weights_predict_bias(self, rng):
        spec = tiny_spec("dense")
        params = init_params(spec, 3, 4, rng)
        zeros = zero_params_like(params)
        bias = rng.normal(size=3)
        zeros["out.b"] = Tensor(bias, requires_grad=True)
        window = rng.uniform(0, 1, (4, 3))
        out = model_forward(window[None], spec, zeros)
        assert np.allclose(out.data[0], bias)

    def test_cnn_output_length_for_any_lookback(self, rng):
        spec = tiny_spec("cnn1d")
        for lookback in (3, 5, 9):
            params = init_params(spec, 4, lookback, rng)
            window = rng.uniform(0, 1, (lookback, 4))
            out = model_forward(window[None], spec, params)
            assert out.shape == (1, 4)

    def test_cnn_needs_kernel_length(self, rng):
        spec = tiny_spec("cnn1d")
        params = init_params(spec, 2, 2, rng)
        with pytest.raises(ValueError, match=rf"^window length 2 < kernel {spec.cnn_kernel}$"):
            model_forward(np.zeros((1, 2, 2)), spec, params)

    def test_cnn_matches_the_per_position_reference(self, rng):
        # numpy reference: one ReLU convolution per window position, summed,
        # divided by the position count, then the head; gradients by hand.
        # Kernels 1 and L are the edge cases of the patch matrix: L positions, and one
        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()

        n_batch, length, n_stocks = 5, 7, 3
        for k in (3, 1, length):
            spec = tiny_spec("cnn1d", cnn_channels=4, cnn_kernel=k,
                             train=tiny_config(lookback=length))
            params = init_params(spec, n_stocks, length, rng)
            window = rng.uniform(0.1, 0.9, (n_batch, length, n_stocks))
            target = rng.uniform(0.1, 0.9, (n_batch, n_stocks))
            out = model_forward(window, spec, params)
            grads = backward(mse_loss(out, target), params)

            w, b = params["conv.w"].data, params["conv.b"].data
            hw, hb = params["head.w"].data, params["head.b"].data
            series = window.transpose(0, 2, 1).reshape(-1, length)
            n_positions = length - k + 1
            patches = [series[:, p:p + k] for p in range(n_positions)]
            pre = [patch @ w + b for patch in patches]
            pooled = sum(np.maximum(z, 0.0) for z in pre) * (1.0 / n_positions)
            ref_out = (pooled @ hw + hb).reshape(n_batch, n_stocks)
            g_out = (2.0 / ref_out.size) * (ref_out - target).reshape(-1, 1)
            g_pooled = g_out @ hw.T / n_positions
            g_pre = [g_pooled * (z > 0.0) for z in pre]
            ref = {
                "conv.w": sum(patch.T @ g for patch, g in zip(patches, g_pre)),
                "conv.b": sum(g.sum(axis=0) for g in g_pre),
                "head.w": pooled.T @ g_out,
                "head.b": g_out.sum(axis=0),
            }

            assert rel(out.data, ref_out) < 1e-12, k
            for name, g in grads.items():
                assert rel(g, ref[name]) < 1e-12, (k, name)

    def test_cnn_tape_does_not_grow_with_lookback(self, rng):
        spec = tiny_spec("cnn1d")
        sizes = set()
        for lookback in (3, 5, 11):
            params = init_params(spec, 2, lookback, rng)
            out = model_forward(rng.uniform(0, 1, (2, lookback, 2)), spec, params)
            sizes.add(len(topo_order(mse_loss(out, np.zeros((2, 2))))))
        assert len(sizes) == 1

    def test_dense_and_cnn_gradients(self, rng):
        for kind in ("dense", "cnn1d"):
            spec = tiny_spec(kind)
            params = init_params(spec, 3, 5, rng)
            window = rng.uniform(0.1, 0.9, (1, 5, 3))
            target = rng.uniform(0.1, 0.9, (1, 3))
            err = gradient_check(
                lambda p: mse_loss(model_forward(window, spec, p), target),
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
        pred = model_forward(np.full((1, 1, 1), 0.25), ModelSpec("linreg"),
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
        # train and predict both meet model_forward's one check
        spec = tiny_spec("hybrid")
        ds = make_dataset(rng)
        with pytest.raises(ValueError, match="hybrid model needs a normalized adjacency"):
            train(spec, ds, a_hat=None)
        params = train(spec, ds, edgeless_adjacency(3)).params
        with pytest.raises(ValueError, match="hybrid model needs a normalized adjacency"):
            predict(spec, params, ds.inputs[-1], a_hat=None)

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
        check = model_forward(ds.inputs[-n_val:], spec, result.params)
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
        cfg = tiny_config(epochs=5, dropout=0.3)
        a = train(tiny_spec("lstm", train=cfg), ds, seed=11)
        b = train(tiny_spec("lstm", train=cfg), ds, seed=11)
        assert a.history == b.history
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_each_validation_forward_is_freed_before_the_next_epoch(self, rng, monkeypatch):
        # Tensor has no __weakref__ slot, but its backward closure, which holds
        # the forward's tape, can be weakly referenced
        real = models.model_forward
        eval_refs = []

        def spy(*args, training=False, **kwargs):
            if training:
                assert all(ref() is None for ref in eval_refs), "a validation tape is alive"
            out = real(*args, training=training, **kwargs)
            if not training:
                eval_refs.append(weakref.ref(out._backward))
            return out

        monkeypatch.setattr(models, "model_forward", spy)
        cfg = tiny_config(epochs=4, patience=10)
        train(tiny_spec("lstm", train=cfg), make_dataset(rng, n_samples=16))
        assert len(eval_refs) == 4

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
        # without a validation split every epoch counts as an improvement
        assert result.best_epoch == 80 and not result.stopped_early



class TestChunkedFit:
    """An lstm or hybrid batch whose sequences take more than one LSTM column
    block is taped in parts of whole samples, one block's worth each, with
    the batch's masks drawn once; Adam steps once per batch."""

    def fit(self, monkeypatch, kind, width, epochs, dtype=np.float32):
        """A full-batch fit of 10 training samples of 3 stocks (30 sequences)
        with `_LSTM_BLOCK_BYTES` set to `width` sequences of `dtype` windows.
        Returns the result, the sample count of each training forward, the
        gradients handed to each Adam step and the generator's state after
        the fit."""
        monkeypatch.undo()  # spy on the real functions, not on an earlier fit's spies
        spec = tiny_spec(kind, train=tiny_config(epochs=epochs, patience=epochs, dropout=0.5))
        ds = make_dataset(np.random.Generator(np.random.PCG64(4)), n_samples=12)
        monkeypatch.setattr(models, "_LSTM_BLOCK_BYTES",
                            width * 12 * np.dtype(dtype).itemsize * spec.hidden_size)
        monkeypatch.setattr(models, "_windows", lambda spec, inputs: inputs.astype(dtype))
        forwards, steps, rngs = [], [], []
        real_forward, real_adam, real_masks = models.model_forward, models.adam_step, \
            models._dropout_masks

        def forward_spy(windows, *args, training=False, **kwargs):
            if training:
                forwards.append(len(windows))
            return real_forward(windows, *args, training=training, **kwargs)

        def adam_spy(params, grads, state):
            steps.append({name: g.copy() for name, g in grads.items()})
            real_adam(params, grads, state)

        def masks_spy(spec, shape, rng):
            rngs.append(rng)
            return real_masks(spec, shape, rng)

        monkeypatch.setattr(models, "model_forward", forward_spy)
        monkeypatch.setattr(models, "adam_step", adam_spy)
        monkeypatch.setattr(models, "_dropout_masks", masks_spy)
        result = train(spec, ds, edgeless_adjacency(3), seed=3)
        return result, forwards, steps, rngs[-1].bit_generator.state

    @pytest.mark.parametrize("kind", ["lstm", "hybrid"])
    def test_parts_draw_the_masks_of_one_tape(self, monkeypatch, kind):
        # blocks of 10 sequences hold 3 samples: parts of 3, 3, 3 and 1
        one, one_forwards, _, one_state = self.fit(monkeypatch, kind, 2**20, epochs=3)
        parts, part_forwards, steps, part_state = self.fit(monkeypatch, kind, 10, epochs=3)
        assert one_forwards == [10] * 3 and part_forwards == [3, 3, 3, 1] * 3
        assert len(steps) == 3  # one Adam step per batch
        # the same draws, so the stream after the fit is the same
        assert part_state == one_state
        for (loss_p, val_p), (loss_o, val_o) in zip(parts.history, one.history):
            assert loss_p == pytest.approx(loss_o, rel=1e-6)
            assert val_p == pytest.approx(val_o, rel=1e-6)

    @pytest.mark.parametrize("kind", ["lstm", "hybrid"])
    def test_summed_gradients_match_one_tape(self, monkeypatch, kind):
        # float64 windows: the parts' gradients differ from one tape's only
        # in the order of their sums
        _, _, (one,), _ = self.fit(monkeypatch, kind, 2**20, epochs=1, dtype=np.float64)
        _, forwards, (parts,), _ = self.fit(monkeypatch, kind, 10, epochs=1, dtype=np.float64)
        assert forwards == [3, 3, 3, 1]
        assert parts.keys() == one.keys()
        for name, g in one.items():
            assert np.abs(parts[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    @pytest.mark.parametrize("kind", ["dense", "cnn1d"])
    def test_other_kinds_keep_one_tape(self, monkeypatch, kind):
        one, one_forwards, _, _ = self.fit(monkeypatch, kind, 2**20, epochs=2, dtype=np.float64)
        small, forwards, _, _ = self.fit(monkeypatch, kind, 1, epochs=2, dtype=np.float64)
        assert forwards == one_forwards == [10, 10]
        assert small.history == one.history

    def test_fit_memory_holds_one_block_of_gates(self):
        # 2 epochs of the default hybrid on step 0 of the default plan: 444
        # samples of 10 stocks, 4,440 sequences. One tape of the whole batch
        # held 68 MiB at the peak, its LSTM gates alone 50 MB; taped a block
        # of 1,020 sequences at a time the fit peaks at 24 MiB
        panel = lead_lag_panel(554, 1)
        step = expanding_schedule(panel.dates, 504, 50).steps[0]
        train_panel = panel.window(step.train_start, step.train_end)
        windows = make_windows(scale(fit_scaler(train_panel), train_panel),
                               train_panel.dates, 11)
        a_hat = normalized_adjacency(build_graph(daily_returns(train_panel), GraphConfig()))
        spec = ModelSpec("hybrid", train=TrainConfig(epochs=2, patience=2))
        with traced_memory() as traced:
            train(spec, windows, a_hat, seed=1)
            peak = traced()[1]
        assert peak < 32 * 2**20, peak / 2**20
