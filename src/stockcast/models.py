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
from typing import Mapping

import numpy as np

from .autodiff import (
    Tensor,
    add,
    backward,
    concat,
    dropout,
    matmul,
    mse_loss,
    narrow,
    relu,
    reshape,
    scale,
    swapaxes,
)
from .errors import (
    DivergedLossError,
    EmptyDatasetError,
    ShapeMismatchError,
    SingularSystemError,
)
from .market_data import WindowDataset
from .optim import AdamState, adam_step

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
    seed: int = 0

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
        """Feed one epoch's monitored loss; returns (improved, should_stop)."""
        self._epoch += 1
        if value < self.best - self.min_delta:
            self.best = value
            self.best_epoch = self._epoch
            self.bad_epochs = 0
            return True, False
        self.bad_epochs += 1
        return False, self.bad_epochs >= self.patience


# -- fused LSTM stack --------------------------------------------------------

# Cache budget of one time step of the recurrence on one column block: the
# (4H, n) gate block plus about eight (H, n) state and temporary blocks of
# float64, so 12 * H * 8 bytes per column (n = 512 at H = 32).
_LSTM_BLOCK_BYTES = 3 * 2**19


def lstm_stack(
    x: Tensor,
    layer_params: list[tuple[Tensor, Tensor, Tensor]],
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Stacked LSTM over (B, L, d) input as one fused tape op; returns the
    final hidden state (B, H).

    Each layer's fused weights hold the (input, forget, output, candidate)
    gate blocks; hidden and cell states start at zero and inverted dropout
    masks sit between layers in training mode. Forward and backward work on
    transposed (feature, batch) blocks so every kernel touches contiguous
    memory; this op dominates training time, which is why it is hand-fused
    rather than composed from primitive tape ops.

    The sequences are independent, so the batch runs through every layer in
    column blocks of at most `_LSTM_BLOCK_BYTES // (96 * H)` sequences. Each
    time step makes about a dozen elementwise passes over its blocks; on the
    whole batch of a full-batch fit (4,400 sequences, 4.5 MB gate blocks at
    H = 32) every pass would go to memory, on a block it stays in the L2
    cache. The dropout masks are drawn for the whole batch, in layer order,
    before the first block, and the backward sums the weight gradients of
    all blocks.
    """
    if not layer_params:
        raise ShapeMismatchError("lstm_stack needs at least one layer")
    n_batch, length, d0 = x.shape
    n_layers = len(layer_params)
    H = layer_params[0][1].shape[0]
    for wx, wh, b in layer_params:
        if wh.shape != (H, 4 * H) or b.shape != (4 * H,) or wx.shape[1] != 4 * H:
            raise ShapeMismatchError(
                f"lstm params wx {wx.shape}, wh {wh.shape}, b {b.shape}"
            )
    if layer_params[0][0].shape[0] != d0:
        raise ShapeMismatchError(f"input width {d0} vs wx {layer_params[0][0].shape}")
    if training and dropout_rate > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an rng")

    weights = [
        (np.ascontiguousarray(wx.data.T), np.ascontiguousarray(wh.data.T), b.data[:, None])
        for wx, wh, b in layer_params
    ]  # (4H, d), (4H, H), (4H, 1)
    masks: list[np.ndarray | None] = [None] * (n_layers - 1)
    if training and dropout_rate > 0.0:
        masks = [(rng.random((length, H, n_batch)) >= dropout_rate) / (1.0 - dropout_rate)
                 for _ in masks]
    width = max(1, _LSTM_BLOCK_BYTES // (96 * H))
    blocks = []  # (columns, per-layer caches) of each column block
    h_last = np.empty((n_batch, H))
    for lo in range(0, n_batch, width):
        cols = slice(lo, lo + width)
        # time-major, feature-by-batch blocks: inp[t] is (d, n) and contiguous
        inp = np.ascontiguousarray(x.data[cols].transpose(1, 2, 0))
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
        dx = np.empty(x.shape) if x.requires_grad else None
        for cols, caches in blocks:
            upper_dx: np.ndarray | None = None  # d(loss)/d(input seq) of the layer above
            for layer in range(n_layers - 1, -1, -1):
                inp_l, gates, cs, tcs, hs_l = caches[layer]
                wx, wh, _ = layer_params[layer]
                dwxT, dwhT, db = dw[layer]
                d, n = inp_l.shape[1:]
                mask = None if layer == n_layers - 1 else masks[layer]
                need_dx = layer > 0 or x.requires_grad
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
            if dx is not None:
                dx[cols] = upper_dx.transpose(2, 0, 1)
        for (wx, wh, b), (dwxT, dwhT, db) in zip(layer_params, dw):
            if wx.requires_grad:
                wx.add_grad(dwxT.T.copy())
            if wh.requires_grad:
                wh.add_grad(dwhT.T.copy())
            if b.requires_grad:
                b.add_grad(db)
        if dx is not None:
            x.add_grad(dx)

    parents = (x, *(t for triple in layer_params for t in triple))
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
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Two ReLU graph-convolution layers: relu(A relu(A X W1 + b1) W2 + b2).

    `features` rows are node features; leading batch axes broadcast through.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    adj = np.asarray(a_hat, dtype=np.float64)
    if x.shape[-2] != adj.shape[0]:
        raise ShapeMismatchError(f"{x.shape[-2]} feature rows vs {adj.shape[0]} graph nodes")
    a = Tensor(adj)
    h = relu(add(matmul(a, matmul(x, params["gcn1.w"])), params["gcn1.b"]))
    h = dropout(h, dropout_rate, training, rng)
    return relu(add(matmul(a, matmul(h, params["gcn2.w"])), params["gcn2.b"]))


def _fusion_head(
    x: Tensor, params: Mapping[str, Tensor], n_hidden: int
) -> Tensor:
    h = x
    for k in range(n_hidden):
        h = relu(add(matmul(h, params[f"fusion{k}.w"]), params[f"fusion{k}.b"]))
    return add(matmul(h, params["head.w"]), params["head.b"])


def _recurrent_batch(
    windows: Tensor, a_hat, spec: ModelSpec, params, training: bool, rng
) -> Tensor:
    """lstm and hybrid: per-stock LSTM embeddings (B, N, H), joined in the
    hybrid by their graph convolution, read by the fusion head."""
    n_batch, length, n_stocks = windows.shape
    # one scalar sequence per (sample, stock); the LSTM weights are shared
    seq = reshape(swapaxes(windows, 1, 2), (n_batch * n_stocks, length, 1))
    h = lstm_stack(
        seq, _layer_triples(params, spec.lstm_layers), spec.train.dropout, training, rng
    )
    h = reshape(h, (n_batch, n_stocks, spec.hidden_size))
    if spec.kind == "hybrid":
        h = concat(h, gcn_forward(h, a_hat, params, spec.train.dropout, training, rng), axis=-1)
    out = _fusion_head(h, params, len(spec.fusion_hidden))
    return reshape(out, (n_batch, n_stocks))


def _dense_batch(windows: Tensor, spec: ModelSpec, params) -> Tensor:
    n_batch, length, n_stocks = windows.shape
    h = reshape(windows, (n_batch, length * n_stocks))
    for k in range(len(spec.dense_hidden)):
        h = relu(add(matmul(h, params[f"dense{k}.w"]), params[f"dense{k}.b"]))
    return add(matmul(h, params["out.w"]), params["out.b"])


def _cnn_batch(windows: Tensor, spec: ModelSpec, params) -> Tensor:
    n_batch, length, n_stocks = windows.shape
    kernel = spec.cnn_kernel
    if length < kernel:
        raise ShapeMismatchError(f"window length {length} < kernel {kernel}")
    series = reshape(swapaxes(windows, 1, 2), (n_batch * n_stocks, length))
    n_positions = length - kernel + 1
    pooled: Tensor | None = None
    for p in range(n_positions):
        patch = narrow(series, 1, p, kernel)  # (B*N, kernel)
        act = relu(add(matmul(patch, params["conv.w"]), params["conv.b"]))
        pooled = act if pooled is None else add(pooled, act)
    pooled = scale(pooled, 1.0 / n_positions)
    out = add(matmul(pooled, params["head.w"]), params["head.b"])  # (B*N, 1)
    return reshape(out, (n_batch, n_stocks))


def model_forward(
    windows: Tensor,
    spec: ModelSpec,
    params: Mapping[str, Tensor],
    a_hat=None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Batched dispatch: (B, L, N) windows -> (B, N) predictions."""
    if spec.kind == "hybrid" and a_hat is None:
        raise ValueError("hybrid model needs a normalized adjacency")
    if spec.kind in ("hybrid", "lstm"):
        return _recurrent_batch(windows, a_hat, spec, params, training, rng)
    if spec.kind == "dense":
        return _dense_batch(windows, spec, params)
    if spec.kind == "cnn1d":
        return _cnn_batch(windows, spec, params)
    if spec.kind == "linreg":
        coef = params["ols.coef"].data  # (N, L+1)
        x = windows.data
        preds = np.einsum("bln,nl->bn", x, coef[:, :-1]) + coef[:, -1]
        return Tensor(preds)
    raise ValueError(f"unknown kind {spec.kind!r}")


# -- ordinary least squares baseline ---------------------------------------

def linreg_fit(dataset: WindowDataset, stock: int, ridge: float = 1e-8) -> np.ndarray:
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
        return np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
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


def train(
    spec: ModelSpec,
    dataset: WindowDataset,
    a_hat: np.ndarray | None = None,
    seed: int | None = None,
    initial_params: Mapping[str, Tensor] | None = None,
) -> TrainResult:
    """Fit one model on a window dataset.

    The chronological tail (val_fraction of the samples) is held out; Adam
    runs on the rest until the epoch cap, or until validation loss stops
    improving for `patience` consecutive epochs. The returned parameters are
    the best-validation snapshot. `initial_params` warm-starts from an
    earlier fit instead of a fresh seeded initialization.
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("no training samples")
    cfg = spec.train

    if spec.kind == "linreg":
        coef = _fit_linreg_all(dataset)
        params = {"ols.coef": Tensor(coef)}
        preds = model_forward(Tensor(dataset.inputs), spec, params)
        fit_mse = float(np.mean((preds.data - dataset.targets) ** 2))
        return TrainResult(params=params, history=[(fit_mse, math.nan)],
                           best_epoch=1, stopped_early=False)

    if spec.kind == "hybrid" and a_hat is None:
        raise ValueError("hybrid model needs a normalized adjacency")

    n_samples = len(dataset)
    n_val = 0
    if cfg.val_fraction > 0 and n_samples >= 2:
        n_val = min(max(1, round(cfg.val_fraction * n_samples)), n_samples - 1)
    n_train = n_samples - n_val

    train_x = dataset.inputs[:n_train]
    train_y = dataset.targets[:n_train]
    val_x = Tensor(dataset.inputs[n_train:]) if n_val else None
    val_y = dataset.targets[n_train:] if n_val else None

    rng = np.random.Generator(np.random.PCG64(cfg.seed if seed is None else seed))
    if initial_params is not None:
        params = _as_params({name: p.data for name, p in initial_params.items()})
    else:
        params = init_params(spec, dataset.inputs.shape[2], dataset.lookback, rng)
    adam = AdamState(lr=cfg.learning_rate)
    stopper = EarlyStopper(cfg.patience, cfg.min_delta)

    batch = cfg.batch_size or n_train
    history: list[tuple[float, float]] = []
    best = _snapshot(params)
    best_epoch = 1
    stopped_early = False

    for epoch in range(1, cfg.epochs + 1):
        if batch < n_train:
            order = rng.permutation(n_train)
        else:
            order = np.arange(n_train)
        total = 0.0
        for lo in range(0, n_train, batch):
            idx = order[lo : lo + batch]
            x = Tensor(train_x[idx])
            y = Tensor(train_y[idx])
            pred = model_forward(x, spec, params, a_hat, training=True, rng=rng)
            loss = mse_loss(pred, y)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergedLossError(f"epoch {epoch}: training loss {value}")
            grads = backward(loss, params)
            adam_step(params, grads, adam)
            total += value * len(idx)
        train_mse = total / n_train

        if n_val:
            val_pred = model_forward(val_x, spec, params, a_hat, training=False)
            val_mse = float(np.mean((val_pred.data - val_y) ** 2))
            if not math.isfinite(val_mse):
                raise DivergedLossError(f"epoch {epoch}: validation loss {val_mse}")
        else:
            val_mse = math.nan
        history.append((train_mse, val_mse))

        if n_val:
            improved, stop = stopper.update(val_mse)
            if improved:
                best = _snapshot(params)
                best_epoch = epoch
            if stop:
                stopped_early = True
                break
        else:
            best = _snapshot(params)
            best_epoch = epoch

    return TrainResult(params=_as_params(best), history=history,
                       best_epoch=best_epoch, stopped_early=stopped_early)


def predict(
    spec: ModelSpec,
    params: Mapping[str, Tensor],
    window: np.ndarray,
    a_hat: np.ndarray | None = None,
) -> np.ndarray:
    """Eval-mode predictions (N,) for one (L, N) window."""
    x = Tensor(np.asarray(window, dtype=np.float64)[None, :, :])
    out = model_forward(x, spec, params, a_hat, training=False)
    return out.data[0].copy()

