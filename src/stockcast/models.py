"""Forecasting architectures and the training loop.

Five model kinds share one interface: a window of scaled closes in, one
prediction per stock out. The temporal trunk is a stacked LSTM shared across
stocks; the relational trunk is a two-layer graph convolution over the
normalized adjacency; the hybrid concatenates both embeddings and regresses
through dense fusion layers. Linear regression, a dense net and a 1-D CNN
serve as baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .autodiff import (
    Tensor,
    backward,
    concat,
    dropout,
    dropout_mask,
    linear,
    mse_loss,
    reshape,
)
from .errors import DivergedLossError, EmptyDatasetError, SingularSystemError
from .market_data import WindowDataset
from .optim import AdamState, adam_step
from .relation_graph import GraphConfig

MODEL_KINDS = ("hybrid", "lstm", "linreg", "dense", "cnn1d")


@dataclass
class TrainConfig:
    learning_rate: float = 0.005
    lookback: int = 11
    epochs: int = 40
    batch_size: int = 0  # 0 trains on the full batch every epoch
    dropout: float = 0.5
    patience: int = 5
    min_delta: float = 1e-6
    val_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.lookback < 1:
            raise ValueError(f"lookback must be >= 1, got {self.lookback}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0 (0 = full batch), got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not self.min_delta >= 0.0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ModelSpec:
    kind: str
    hidden_size: int = 32
    lstm_layers: int = 2
    gcn_hidden: int = 32
    gcn_out: int = 16
    fusion_hidden: tuple[int, ...] = (32,)
    dense_hidden: tuple[int, ...] = (32, 32)
    cnn_channels: int = 16
    cnn_kernel: int = 3
    train: TrainConfig = field(default_factory=TrainConfig)
    graph: GraphConfig = GraphConfig()  # read by the hybrid alone

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        self.fusion_hidden = tuple(self.fusion_hidden)
        self.dense_hidden = tuple(self.dense_hidden)
        for name in ("hidden_size", "lstm_layers", "gcn_hidden", "gcn_out",
                     "cnn_channels", "cnn_kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("fusion_hidden", "dense_hidden"):
            if any(w < 1 for w in getattr(self, name)):
                raise ValueError(f"{name} widths must be >= 1")
        if self.kind == "cnn1d" and self.train.lookback < self.cnn_kernel:
            raise ValueError(f"lookback must be >= cnn_kernel {self.cnn_kernel} for cnn1d, "
                             f"got {self.train.lookback}")


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    history: list[tuple[float, float]]  # (train_mse, val_mse) per epoch, val is NaN without a split
    best_epoch: int  # 1-based epoch whose parameters are returned
    stopped_early: bool


class EarlyStopper:
    """Halts after `patience` consecutive epochs without improving the monitored
    loss by more than min_delta; remembers the best epoch seen."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.best_epoch = 0
        self.bad_epochs = 0
        self._epoch = 0

    def update(self, value: float) -> tuple[bool, bool]:
        """Feed one epoch's monitored loss; returns (improved, should_stop).
        A NaN loss (nothing monitored) always counts as an improvement."""
        self._epoch += 1
        if math.isnan(value) or value < self.best - self.min_delta:
            self.best = value
            self.best_epoch = self._epoch
            self.bad_epochs = 0
            return True, False
        self.bad_epochs += 1
        return False, self.bad_epochs >= self.patience


# -- fused LSTM stack --------------------------------------------------------

# Cache budget of one time step of the recurrence on one column block: the
# (4H, n) gate block plus about eight (H, n) state and temporary blocks, so
# 12 * H * itemsize bytes per column (n = 1,024 in float32 at H = 32, 512 in
# float64).
_LSTM_BLOCK_BYTES = 3 * 2**19

# Work arrays of `lstm_stack` by (name, dtype), grown on demand and reused by
# every call, so a fit does not fault in fresh pages at each forward. Each
# call overwrites them: no tape may hold one, and calls may not interleave
# across threads.
_lstm_work: dict[tuple[str, np.dtype], np.ndarray] = {}


def _lstm_block_width(dtype: np.dtype, H: int) -> int:
    """Sequences per column block of `lstm_stack` for work arrays of `dtype`."""
    return max(1, _LSTM_BLOCK_BYTES // (12 * dtype.itemsize * H))


def _work(name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """A contiguous `shape` view of the reused work array `name`, holding
    whatever its last user left there."""
    size = math.prod(shape)
    buf = _lstm_work.get((name, dtype))
    if buf is None or buf.size < size:
        buf = _lstm_work[name, dtype] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _lstm_layer_forward(
    inp: np.ndarray, wxT: np.ndarray, whT: np.ndarray, bias: np.ndarray, hs: np.ndarray
) -> np.ndarray:
    """One layer over one column block: (L, d, n) input in, hidden states
    written to `hs` (L, H, n), which may be `inp` itself. Returns the
    post-activation gates (L, 4H, n); the cell states go to a work array.

    The sigmoid rows of `wxT`, `whT` and `bias` are pre-halved, so those rows
    of the pre-activation come out as z / 2 for 0.5 * (tanh(z / 2) + 1)."""
    length, _, n = inp.shape
    H = whT.shape[1]
    dtype = inp.dtype
    gates = np.empty((length, 4 * H, n), dtype)
    cs = _work("cs0", (length, H, n), dtype)  # the backward rebuilds its own
    b = _work("bias", (4 * H, n), dtype)
    b[...] = bias[:, None]  # a contiguous add runs about twice as fast as a broadcast one
    rec = _work("rec", (4 * H, n), dtype)
    tmp = _work("tmp", (H, n), dtype)
    for t in range(length):
        z = gates[t]
        # each step's input projection just before the step, while it is in
        # cache; inp[t] is read before hs[t] is written
        if wxT.shape[1] == 1:  # a width-1 input: the product is a broadcast
            np.multiply(wxT, inp[t], out=z)
        else:
            np.matmul(wxT, inp[t], out=z)
        if t > 0:
            np.matmul(whT, hs[t - 1], out=rec)
            z += rec
        z += b
        np.tanh(z, out=z)  # the candidate, and tanh(z / 2) of the sigmoid gates
        zs = z[: 3 * H]
        zs += 1.0
        zs *= 0.5

        i, f, o, g = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
        c = cs[t]
        if t > 0:
            np.multiply(f, cs[t - 1], out=c)
            np.multiply(i, g, out=tmp)
            c += tmp
        else:
            np.multiply(i, g, out=c)
        np.tanh(c, out=tmp)
        np.multiply(o, tmp, out=hs[t])
    return gates


def _lstm_cells(gates: np.ndarray, name: str) -> np.ndarray:
    """The (L, H, n) cell states of one layer over one column block, rebuilt
    from its taped gates into the work array `name` with the forward's own
    operations, so they are bitwise the forward's cells."""
    length, H4, n = gates.shape
    H = H4 // 4
    cs = _work(name, (length, H, n), gates.dtype)
    tmp = _work("tmp", (H, n), gates.dtype)
    np.multiply(gates[0, :H], gates[0, 3 * H :], out=cs[0])
    for t in range(1, length):
        z, c = gates[t], cs[t]
        np.multiply(z[H : 2 * H], cs[t - 1], out=c)
        np.multiply(z[:H], z[3 * H :], out=tmp)
        c += tmp
    return cs


def _lstm_layer_backward(
    gates: np.ndarray, cs: np.ndarray, x_seq: np.ndarray, dh_seq: np.ndarray,
    wx: np.ndarray | None, wh: np.ndarray, dw: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Backward of one layer over one column block from its taped gates, its
    recomputed cells `cs` and its (L, d, n) input `x_seq`: layer 0's taped
    input, or an upper layer's input that `lstm_stack` rebuilds for all L
    steps at once with the forward's elementwise operations, which give the
    same bits at any array shape. `dh_seq` (L, H, n) holds the gradient of
    every hidden state from above; each step adds the recurrent gradient into
    the step before it and then, unless `wx` is None (layer 0, whose input is
    data), overwrites its own step with the input's gradient. Adds the weight
    gradients to the float64 `dw`."""
    length, H, n = cs.shape
    dtype = cs.dtype
    dwxT, dwhT, db = dw
    dz = _work("dz", (4 * H, n), dtype)
    dz_i, dz_f, dz_o, dz_g = dz[:H], dz[H : 2 * H], dz[2 * H : 3 * H], dz[3 * H :]
    dc = _work("dc", (H, n), dtype)
    dc[...] = 0.0
    h_prev = _work("h_prev", (H, n), dtype)
    tmp = _work("tmp", (H, n), dtype)
    # tanh(c_t), computed once per step and carried to step t - 1
    tc, tc_prev = _work("tc", (H, n), dtype), _work("tc_prev", (H, n), dtype)
    np.tanh(cs[length - 1], out=tc)
    for t in range(length - 1, -1, -1):
        z = gates[t]
        i, f, o, g = z[:H], z[H : 2 * H], z[2 * H : 3 * H], z[3 * H :]
        dh = dh_seq[t]
        np.multiply(dh, tc, out=dz_o)  # d(loss)/d(o), scaled below
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        tmp *= o
        tmp *= dh
        dc += tmp
        np.multiply(dc, g, out=dz_i)
        np.subtract(1.0, i, out=tmp)
        tmp *= i
        dz_i *= tmp
        if t > 0:
            np.multiply(dc, cs[t - 1], out=dz_f)
            np.subtract(1.0, f, out=tmp)
            tmp *= f
            dz_f *= tmp
        else:
            dz_f[...] = 0.0  # initial cell state is a constant
        np.subtract(1.0, o, out=tmp)
        tmp *= o
        dz_o *= tmp
        np.multiply(dc, i, out=dz_g)
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dz_g *= tmp

        if t > 0:
            np.tanh(cs[t - 1], out=tc_prev)
            np.multiply(gates[t - 1, 2 * H : 3 * H], tc_prev, out=h_prev)
            dwhT += dz @ h_prev.T
            np.matmul(wh, dz, out=tmp)
            dh_seq[t - 1] += tmp
        dwxT += dz @ x_seq[t].T
        db += dz.sum(axis=1)
        if wx is not None:
            np.matmul(wx, dz, out=dh)  # dh is no longer read
        dc *= f
        tc, tc_prev = tc_prev, tc


def lstm_stack(
    x: np.ndarray,
    layer_params: list[tuple[Tensor, Tensor, Tensor]],
    dropout_rate: float = 0.0,
    masks: Sequence[np.ndarray] | None = None,
) -> Tensor:
    """Stacked LSTM over a (B, L, d) input array as one fused tape op;
    returns the final hidden state (B, H). The input is data: the op's tape
    parents are its weights only, and no gradient flows back into `x`.

    The kernel computes in the dtype of `x`, float32 or float64: the weights
    are cast in the transposed copies it makes anyway, and the work arrays,
    the dropout scale and the output take that dtype. The weight gradients
    are summed and handed over in float64, the parameters' dtype.

    Each layer's fused weights hold the (input, forget, output, candidate)
    gate blocks; hidden and cell states start at zero. In training mode
    inverted dropout sits between layers: `masks` holds one bool (L, H, B)
    keep-mask per layer but the top one, drawn by the caller; without masks
    (eval mode) or at rate 0 there is none. Forward and backward work on
    transposed (feature, batch) blocks so every kernel touches contiguous
    memory; this op dominates training time, which is why it is hand-fused
    rather than composed from primitive tape ops.

    The sequences are independent, so the batch runs through every layer in
    column blocks of at most `_LSTM_BLOCK_BYTES // (12 * itemsize * H)`
    sequences. Each time step makes about a dozen elementwise passes over its
    blocks; on a batch of 4,400 sequences (2.3 MB float32 gate blocks at
    H = 32) every pass would go to memory, on a block it stays in the L2
    cache. The backward sums the weight gradients of all blocks. `train`
    tapes a larger batch in parts of at most one block each, so a training
    tape holds one block's gates whatever the batch size.

    Each block's backward threads one (L, H, n) gradient array down the
    stack, seeded with the loss gradient at the top layer's last step; every
    layer overwrites it with its input's gradient but layer 0 (`wx=None`).

    The tape keeps, per block, each layer's post-activation gates (4H rows
    per step and layer) and layer 0's input; caching the cells, tanh(c), h
    and each upper layer's input as well would take 7H to 8H. The backward
    recomputes those with the forward's own operations on the same operands:
    each layer's cells c_t = f_t * c_{t-1} + i_t * g_t once per block, tanh
    of the cells, h_{t-1} = o_{t-1} * tanh(c_{t-1}), and an upper layer's
    input o * tanh(c) * mask * keep of the layer below, rebuilt for all steps
    of a block at once into the forward's `hs` work array. Elementwise IEEE
    operations on the same values give the same bits at any array shape, one
    step or all L at once, so the recomputed arrays, and every result, are
    bitwise what caching them gives. The forward projects each step's input
    just before that step reads it and takes one tanh over all 4H gate rows.
    The sigmoid rows take their 0.5 from pre-halved weight and bias copies:
    halving is exact short of the subnormal range, so z / 2 comes out bitwise
    as well. Work arrays come from `_work` and are reused across calls.
    """
    if not layer_params:
        raise ValueError("lstm_stack needs at least one layer")
    n_batch, length, d0 = x.shape
    n_layers = len(layer_params)
    H = layer_params[0][1].shape[0]
    for layer, (wx, wh, b) in enumerate(layer_params):
        d = d0 if layer == 0 else H
        if wx.shape != (d, 4 * H) or wh.shape != (H, 4 * H) or b.shape != (4 * H,):
            raise ValueError(
                f"lstm layer {layer} on input width {d}: wx {wx.shape}, wh {wh.shape}, "
                f"b {b.shape}; expected ({d}, {4 * H}), ({H}, {4 * H}), ({4 * H},)"
            )
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate {dropout_rate}")
    if masks is not None and [m.shape for m in masks] != [(length, H, n_batch)] * (n_layers - 1):
        raise ValueError(f"lstm dropout masks {[m.shape for m in masks]} for {n_layers} layers "
                         f"of ({length}, {H}, {n_batch})")

    dtype = x.dtype
    weights = []  # (4H, d), (4H, H), (4H,) copies with the sigmoid rows halved
    for wx, wh, b in layer_params:
        copies = tuple(np.array(a, dtype=dtype, order="C") for a in (wx.data.T, wh.data.T, b.data))
        for a in copies:
            a[: 3 * H] *= 0.5
        weights.append(copies)
    # bool keep-masks and one rounded scale: h * mask * keep is bitwise
    # h * (mask / (1 - rate)) in float64; none after the top layer
    masks = [*masks, None] if masks is not None and dropout_rate > 0.0 else [None] * n_layers
    keep = dtype.type(1.0 / (1.0 - dropout_rate))
    width = _lstm_block_width(dtype, H)
    blocks = []  # (columns, layer-0 input, per-layer gates) of each column block
    h_last = np.empty((n_batch, H), dtype=dtype)
    for lo in range(0, n_batch, width):
        cols = slice(lo, lo + width)
        # time-major, feature-by-batch blocks: inp0[t] is (d, n) and contiguous
        inp0 = np.ascontiguousarray(x[cols].transpose(1, 2, 0))
        hs = _work("hs", (length, H, inp0.shape[2]), dtype)
        inp, tape = inp0, []
        for layer, (wxT, whT, bias) in enumerate(weights):
            tape.append(_lstm_layer_forward(inp, wxT, whT, bias, hs))
            if masks[layer] is not None:
                hs *= masks[layer][:, :, cols]
                hs *= keep
            inp = hs
        h_last[cols] = hs[length - 1].T
        blocks.append((cols, inp0, tape))

    def bw(grad: np.ndarray) -> None:
        grad = grad.astype(dtype, copy=False)
        # layer 0's input is data: it gets no gradient
        wxs = [None] + [wx.data.astype(dtype, copy=False) for wx, _, _ in layer_params[1:]]
        whs = [wh.data.astype(dtype, copy=False) for _, wh, _ in layer_params]
        dw = [(np.zeros(wxT.shape), np.zeros((4 * H, H)), np.zeros(4 * H))
              for wxT, _, _ in weights]  # float64 (dwxT, dwhT, db) summed over blocks
        for cols, inp0, tape in blocks:
            # d(loss)/d(h) from above, overwritten by each layer's input gradient
            dh_seq = _work("dh", (length, H, inp0.shape[2]), dtype)
            dh_seq[: length - 1] = 0.0
            dh_seq[length - 1] = grad[cols].T
            # a layer's cells, rebuilt once: for its own backward and, below
            # the top, for the input of the layer above; the two layers in
            # use sit in work arrays named by layer parity
            cs = _lstm_cells(tape[n_layers - 1], f"cs{(n_layers - 1) % 2}")
            for layer in range(n_layers - 1, -1, -1):
                x_seq = inp0
                if layer > 0:
                    cs_below = _lstm_cells(tape[layer - 1], f"cs{(layer - 1) % 2}")
                    # rebuilt into `hs`, which only the forward otherwise writes
                    x_seq = _work("hs", cs_below.shape, dtype)
                    np.tanh(cs_below, out=x_seq)
                    x_seq *= tape[layer - 1][:, 2 * H : 3 * H]
                    if masks[layer - 1] is not None:
                        x_seq *= masks[layer - 1][:, :, cols]
                        x_seq *= keep
                if masks[layer] is not None:
                    dh_seq *= masks[layer][:, :, cols]
                    dh_seq *= keep
                _lstm_layer_backward(tape[layer], cs, x_seq, dh_seq, wxs[layer], whs[layer],
                                     dw[layer])
                if layer > 0:
                    cs = cs_below
        for (wx, wh, b), (dwxT, dwhT, db) in zip(layer_params, dw):
            if wx.requires_grad:
                wx.add_grad(dwxT.T.copy())
            if wh.requires_grad:
                wh.add_grad(dwhT.T.copy())
            if b.requires_grad:
                b.add_grad(db)

    parents = tuple(t for triple in layer_params for t in triple)
    return Tensor._from_op(h_last, parents, bw)


# -- parameter initialization ---------------------------------------------

def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _init_lstm(params: dict[str, Tensor], rng, input_size: int, hidden: int, layers: int) -> None:
    for layer in range(layers):
        d = input_size if layer == 0 else hidden
        params[f"lstm{layer}.wx"] = _uniform(rng, (d, 4 * hidden), d)
        params[f"lstm{layer}.wh"] = _uniform(rng, (hidden, 4 * hidden), hidden)
        params[f"lstm{layer}.b"] = _uniform(rng, (4 * hidden,), hidden)


def _init_dense_stack(
    params: dict[str, Tensor], rng, prefix: str, widths: list[int]
) -> None:
    for k in range(len(widths) - 1):
        params[f"{prefix}{k}.w"] = _uniform(rng, (widths[k], widths[k + 1]), widths[k])
        params[f"{prefix}{k}.b"] = _uniform(rng, (widths[k + 1],), widths[k])


def init_params(
    spec: ModelSpec, n_stocks: int, lookback: int, rng: np.random.Generator
) -> dict[str, Tensor]:
    """Fresh seeded parameters for one model; creation order is fixed so a
    given generator state always yields identical values."""
    params: dict[str, Tensor] = {}
    if spec.kind in ("hybrid", "lstm"):
        _init_lstm(params, rng, 1, spec.hidden_size, spec.lstm_layers)
        fusion_in = spec.hidden_size
        if spec.kind == "hybrid":
            params["gcn1.w"] = _uniform(rng, (spec.hidden_size, spec.gcn_hidden), spec.hidden_size)
            params["gcn1.b"] = _uniform(rng, (spec.gcn_hidden,), spec.hidden_size)
            params["gcn2.w"] = _uniform(rng, (spec.gcn_hidden, spec.gcn_out), spec.gcn_hidden)
            params["gcn2.b"] = _uniform(rng, (spec.gcn_out,), spec.gcn_hidden)
            fusion_in += spec.gcn_out
        _init_dense_stack(params, rng, "fusion", [fusion_in, *spec.fusion_hidden])
        head_in = spec.fusion_hidden[-1] if spec.fusion_hidden else fusion_in
        params["head.w"] = _uniform(rng, (head_in, 1), head_in)
        params["head.b"] = _uniform(rng, (1,), head_in)
    elif spec.kind == "dense":
        _init_dense_stack(params, rng, "dense", [lookback * n_stocks, *spec.dense_hidden])
        last = spec.dense_hidden[-1] if spec.dense_hidden else lookback * n_stocks
        params["out.w"] = _uniform(rng, (last, n_stocks), last)
        params["out.b"] = _uniform(rng, (n_stocks,), last)
    elif spec.kind == "cnn1d":
        params["conv.w"] = _uniform(rng, (spec.cnn_kernel, spec.cnn_channels), spec.cnn_kernel)
        params["conv.b"] = _uniform(rng, (spec.cnn_channels,), spec.cnn_kernel)
        params["head.w"] = _uniform(rng, (spec.cnn_channels, 1), spec.cnn_channels)
        params["head.b"] = _uniform(rng, (1,), spec.cnn_channels)
    else:  # linreg is fitted in closed form, nothing to initialize
        pass
    return params


# -- forward passes --------------------------------------------------------

def _layer_triples(
    params: Mapping[str, Tensor], layers: int
) -> list[tuple[Tensor, Tensor, Tensor]]:
    return [
        (params[f"lstm{k}.wx"], params[f"lstm{k}.wh"], params[f"lstm{k}.b"])
        for k in range(layers)
    ]


def gcn_forward(
    features,
    a_hat: np.ndarray,
    params: Mapping[str, Tensor],
    dropout_rate: float = 0.0,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Two ReLU graph-convolution layers: relu(A relu(A X W1 + b1) W2 + b2),
    with dropout under the keep-mask `mask` between them in training mode.

    `features` rows are node features; leading batch axes broadcast through.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    adj = np.asarray(a_hat, dtype=np.float64)
    if x.shape[-2] != adj.shape[0]:
        raise ValueError(f"{x.shape[-2]} feature rows vs {adj.shape[0]} graph nodes")
    h = linear(x, params["gcn1.w"], params["gcn1.b"], relu=True, adj=adj)
    h = dropout(h, dropout_rate, mask)
    return linear(h, params["gcn2.w"], params["gcn2.b"], relu=True, adj=adj)


def _fusion_head(
    x: Tensor, params: Mapping[str, Tensor], n_hidden: int
) -> Tensor:
    h = x
    for k in range(n_hidden):
        h = linear(h, params[f"fusion{k}.w"], params[f"fusion{k}.b"], relu=True)
    return linear(h, params["head.w"], params["head.b"])


def _dropout_masks(
    spec: ModelSpec, shape: tuple[int, int, int], rng: np.random.Generator
) -> tuple[list[np.ndarray], np.ndarray | None] | None:
    """The keep-masks of one lstm or hybrid training batch of (B, L, N)
    windows, drawn in the order the forward applies them: each LSTM layer's
    but the top one's (L, H, B * N), then the (B, N, gcn_hidden) mask of the
    hybrid's graph convolution. None for the other kinds, which have no
    dropout, and at rate 0: neither draws."""
    rate = spec.train.dropout
    if rate == 0.0 or spec.kind not in ("hybrid", "lstm"):
        return None
    n_batch, length, n_stocks = shape
    lstm = [dropout_mask(rng, (length, spec.hidden_size, n_batch * n_stocks), rate)
            for _ in range(spec.lstm_layers - 1)]
    gcn = None
    if spec.kind == "hybrid":
        gcn = dropout_mask(rng, (n_batch, n_stocks, spec.gcn_hidden), rate)
    return lstm, gcn


def _sample_masks(masks, lo: int, hi: int, n_stocks: int):
    """The part of a batch's `_dropout_masks` that its samples lo:hi read."""
    if masks is None:
        return None
    lstm, gcn = masks
    return ([m[:, :, lo * n_stocks : hi * n_stocks] for m in lstm],
            None if gcn is None else gcn[lo:hi])


def _recurrent_batch(windows: np.ndarray, a_hat, spec: ModelSpec, params, masks) -> Tensor:
    """lstm and hybrid: per-stock LSTM embeddings (B, N, H), joined in the
    hybrid by their graph convolution, read by the fusion head. `masks` are
    the batch's `_dropout_masks`, None for no dropout."""
    n_batch, length, n_stocks = windows.shape
    lstm_masks, gcn_mask = (None, None) if masks is None else masks
    # one scalar sequence per (sample, stock); the LSTM weights are shared
    seq = np.ascontiguousarray(windows.swapaxes(1, 2)).reshape(n_batch * n_stocks, length, 1)
    h = lstm_stack(seq, _layer_triples(params, spec.lstm_layers), spec.train.dropout, lstm_masks)
    h = reshape(h, (n_batch, n_stocks, spec.hidden_size))
    if spec.kind == "hybrid":
        h = concat(h, gcn_forward(h, a_hat, params, spec.train.dropout, gcn_mask), axis=-1)
    out = _fusion_head(h, params, len(spec.fusion_hidden))
    return reshape(out, (n_batch, n_stocks))


def _dense_batch(windows: np.ndarray, spec: ModelSpec, params) -> Tensor:
    n_batch, length, n_stocks = windows.shape
    h = Tensor(windows.reshape(n_batch, length * n_stocks))
    for k in range(len(spec.dense_hidden)):
        h = linear(h, params[f"dense{k}.w"], params[f"dense{k}.b"], relu=True)
    return linear(h, params["out.w"], params["out.b"])


def _cnn_batch(windows: np.ndarray, spec: ModelSpec, params) -> Tensor:
    """cnn1d: one ReLU convolution over each stock's window, mean-pooled over
    its L - k + 1 positions, then a linear head shared across stocks. Pool and
    head are one `linear` op, whose `adj` row takes the mean of the positions."""
    n_batch, length, n_stocks = windows.shape
    if length < spec.cnn_kernel:
        raise ValueError(f"window length {length} < kernel {spec.cnn_kernel}")
    # (B, N, P, kernel): every window of `kernel` consecutive days of each stock
    patches = np.lib.stride_tricks.sliding_window_view(
        windows.swapaxes(1, 2), spec.cnn_kernel, axis=-1)
    n_rows, n_positions = n_batch * n_stocks, patches.shape[2]
    # every position in one op, whose weight gradient is one product
    rows = Tensor(patches.reshape(n_rows * n_positions, spec.cnn_kernel))
    conv = linear(rows, params["conv.w"], params["conv.b"], relu=True)
    act = reshape(conv, (n_rows, n_positions, spec.cnn_channels))
    out = linear(act, params["head.w"], params["head.b"],
                 adj=np.full((1, n_positions), 1.0 / n_positions))  # (B*N, 1, 1)
    return reshape(out, (n_batch, n_stocks))


def model_forward(
    windows: np.ndarray,
    spec: ModelSpec,
    params: Mapping[str, Tensor],
    a_hat=None,
    training: bool = False,
    masks=None,
) -> Tensor:
    """Batched dispatch: a (B, L, N) window array -> (B, N) predictions; the
    windows are data, so no gradient flows into them. In training mode the
    lstm and hybrid apply `masks`, the `_dropout_masks` of these windows;
    the other kinds have no dropout."""
    if spec.kind == "hybrid" and a_hat is None:
        raise ValueError("hybrid model needs a normalized adjacency")
    if spec.kind in ("hybrid", "lstm"):
        if training and masks is None and spec.train.dropout > 0.0:
            raise ValueError("training-mode dropout needs masks")
        return _recurrent_batch(windows, a_hat, spec, params, masks if training else None)
    if spec.kind == "dense":
        return _dense_batch(windows, spec, params)
    if spec.kind == "cnn1d":
        return _cnn_batch(windows, spec, params)
    if spec.kind == "linreg":
        coef = params["ols.coef"].data  # (N, L+1)
        preds = np.einsum("bln,nl->bn", windows, coef[:, :-1]) + coef[:, -1]
        return Tensor(preds)
    raise ValueError(f"unknown kind {spec.kind!r}")


# -- ordinary least squares baseline ---------------------------------------

_LINREG_RIDGE = 1e-8


def linreg_fit(dataset: WindowDataset, stock: int) -> np.ndarray:
    """OLS of the next scaled close on the stock's own lagged closes plus an
    intercept, via normal equations; falls back to ridge on singularity."""
    lags = dataset.inputs[:, :, stock]
    target = dataset.targets[:, stock]
    n_samples, lookback = lags.shape
    if n_samples <= lookback + 1:
        raise EmptyDatasetError(
            f"linreg needs more than lookback + 1 = {lookback + 1} samples, got {n_samples}"
        )
    design = np.hstack([lags, np.ones((n_samples, 1))])
    gram = design.T @ design
    rhs = design.T @ target
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(gram + _LINREG_RIDGE * np.eye(gram.shape[0]), rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError(f"stock {stock}: system singular even with ridge") from None


def _fit_linreg_all(dataset: WindowDataset) -> np.ndarray:
    n_stocks = dataset.inputs.shape[2]
    return np.stack([linreg_fit(dataset, j) for j in range(n_stocks)])


# -- training ---------------------------------------------------------------

def _snapshot(params: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.items()}


def _as_params(arrays: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(a.copy(), requires_grad=True) for name, a in arrays.items()}


def _windows(spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """The (B, L, N) window array as `train` and `predict` feed it to
    `model_forward`: float32 for the lstm and hybrid, whose LSTM kernel then
    computes in float32, float64 for the other kinds."""
    dtype = np.float32 if spec.kind in ("hybrid", "lstm") else np.float64
    return np.asarray(inputs, dtype=dtype)


def train(
    spec: ModelSpec,
    dataset: WindowDataset,
    a_hat: np.ndarray | None = None,
    seed: int = 0,
    initial_params: Mapping[str, Tensor] | None = None,
) -> TrainResult:
    """Fit one model on a window dataset.

    The chronological tail (val_fraction of the samples) is held out; Adam
    runs on the rest until the epoch cap, or until validation loss stops
    improving for `patience` consecutive epochs. The returned parameters are
    the best-validation snapshot, or the last epoch's without a split.
    Parameters, gradients and Adam are float64; the lstm and hybrid run
    their LSTM kernel on float32 windows.

    An lstm or hybrid batch whose B * N sequences take more than one LSTM
    column block is taped in parts of whole samples, one block's worth each
    (102 samples of 10 stocks at H = 32). The batch's dropout masks are
    drawn once, before its first part, in the order and shapes one tape
    draws them; each part reads its slice, runs forward, its share of the
    batch's mean loss and backward, and adds its gradients to the batch's.
    Adam then steps once per batch. The parts' gradients differ from one
    tape's by round-off in their sums only. A batch that fits one block is
    one tape as before, and so is every dense or cnn1d batch. A full-batch
    hybrid fit's tape thus holds one block's LSTM gates (11.5 MB at N = 10)
    instead of the whole batch's (50 MB at B = 444).

    `seed` draws the initialization, the shuffles and the dropout masks;
    `initial_params` warm-starts from an earlier fit instead of a fresh
    seeded initialization.
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("no training samples")
    cfg = spec.train

    if spec.kind == "linreg":
        coef = _fit_linreg_all(dataset)
        params = {"ols.coef": Tensor(coef)}
        preds = model_forward(dataset.inputs, spec, params)
        fit_mse = float(np.mean((preds.data - dataset.targets) ** 2))
        return TrainResult(params=params, history=[(fit_mse, math.nan)],
                           best_epoch=1, stopped_early=False)

    n_samples = len(dataset)
    n_val = 0
    if cfg.val_fraction > 0 and n_samples >= 2:
        n_val = min(max(1, round(cfg.val_fraction * n_samples)), n_samples - 1)
    n_train = n_samples - n_val

    windows = _windows(spec, dataset.inputs)  # cast once, not per batch
    n_stocks = windows.shape[2]
    train_x, train_y = windows[:n_train], dataset.targets[:n_train]
    val_x = windows[n_train:] if n_val else None
    val_y = dataset.targets[n_train:] if n_val else None

    rng = np.random.Generator(np.random.PCG64(seed))
    if initial_params is not None:
        params = _as_params({name: p.data for name, p in initial_params.items()})
    else:
        params = init_params(spec, n_stocks, dataset.lookback, rng)
    adam = AdamState(lr=cfg.learning_rate)
    stopper = EarlyStopper(cfg.patience, cfg.min_delta)

    batch = cfg.batch_size or n_train
    part = n_train  # samples per tape: one LSTM column block's worth for the lstm and hybrid
    if spec.kind in ("hybrid", "lstm"):
        part = max(1, _lstm_block_width(train_x.dtype, spec.hidden_size) // n_stocks)
    history: list[tuple[float, float]] = []
    stop = False

    for epoch in range(1, cfg.epochs + 1):
        if batch < n_train:
            order = rng.permutation(n_train)
        else:
            order = np.arange(n_train)
        total = 0.0
        for lo in range(0, n_train, batch):
            idx = order[lo : lo + batch]
            masks = _dropout_masks(spec, (len(idx), *train_x.shape[1:]), rng)
            value, grads = 0.0, None
            for at in range(0, len(idx), part):
                rows = idx[at : at + part]
                pred = model_forward(train_x[rows], spec, params, a_hat, training=True,
                                     masks=_sample_masks(masks, at, at + len(rows), n_stocks))
                # each part's share of the batch's mean, so the gradients sum to the batch's
                loss = mse_loss(pred, train_y[rows], count=len(idx) * n_stocks)
                value += float(loss.data)
                if not math.isfinite(value):
                    raise DivergedLossError(f"epoch {epoch}: training loss {value}")
                part_grads = backward(loss, params)
                if grads is None:
                    grads = part_grads
                else:
                    for name, g in part_grads.items():
                        grads[name] += g
            adam_step(params, grads, adam)
            total += value * len(idx)
        train_mse = total / n_train

        val_mse = math.nan
        if n_val:
            # .data at once: the forward's tape is freed before the next epoch
            val_pred = model_forward(val_x, spec, params, a_hat, training=False).data
            val_mse = float(np.mean((val_pred - val_y) ** 2))
            if not math.isfinite(val_mse):
                raise DivergedLossError(f"epoch {epoch}: validation loss {val_mse}")
        history.append((train_mse, val_mse))

        improved, stop = stopper.update(val_mse)
        if improved:
            best = _snapshot(params)
        if stop:
            break

    return TrainResult(params=_as_params(best), history=history,
                       best_epoch=stopper.best_epoch, stopped_early=stop)


def predict(
    spec: ModelSpec,
    params: Mapping[str, Tensor],
    window: np.ndarray,
    a_hat: np.ndarray | None = None,
) -> np.ndarray:
    """Eval-mode predictions (N,) for one (L, N) window."""
    x = _windows(spec, np.asarray(window)[None, :, :])
    out = model_forward(x, spec, params, a_hat, training=False)
    return out.data[0].copy()

