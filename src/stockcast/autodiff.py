"""Reverse-mode autodiff over dense numpy arrays.

A tensor stores float64 data, whatever it is built from. Only the fused
LSTM kernel (`models.lstm_stack`) computes in float32: training and
prediction of the lstm and hybrid feed it float32 windows, it returns its
hidden states as a float32 tensor, and it hands float64 weight gradients
back. Parameters, the graph convolution, the fusion head, the loss, the
gradients and Adam stay float64. Windows and targets are data, not tensors:
the models take them as numpy arrays, and no gradient flows into them.

Each op wires a backward closure onto its output tensor; backward() walks
the recorded graph in reverse topological order and accumulates gradients
into every tracked leaf. The tape is dynamic: it exists only as the parent
links of the tensors produced during one forward pass.

The ops are the ones the models use: linear (an affine layer, optionally
under a fixed row-mixing matrix, such as a graph's adjacency or a mean, and a
ReLU, as one op), concat, reshape, dropout and the MSE loss against an array
target. The LSTM is one fused op of its own in `models`. Finite difference
checks of these gradients live with the tests.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .errors import (
    DetachedGraphError,
    InvalidRateError,
    NotScalarLossError,
    ShapeMismatchError,
)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor initialized with NaN/Inf")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def add_grad(self, g: np.ndarray) -> None:
        # First contribution is adopted without a copy; closures must hand over
        # arrays (or views of dead buffers) they will not mutate afterwards.
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def topo_order(root: Tensor) -> list[Tensor]:
    """Tensors reachable from `root` through tracked parents, parents first."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(
    loss: Tensor, params: Mapping[str, Tensor] | None = None
) -> dict[str, np.ndarray] | None:
    """Propagate d(loss)/d(node) to every tracked leaf.

    With `params` given, their grads are reset first and returned by name;
    parameters the loss never touched come back as zeros. The tape is freed
    as it is consumed, so a second call on the same loss finds no parents.
    """
    if loss.data.size != 1:
        raise NotScalarLossError(f"loss has shape {loss.data.shape}")

    if params is not None:
        for p in params.values():
            p.grad = None

    order = topo_order(loss)
    reachable = {id(t) for t in order}
    loss.grad = np.ones_like(loss.data)
    while order:
        # popped, so an interior tensor dies once its op has run
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            # free interior grads and the op's closure (its forward caches) at once
            node.grad = None
            node._backward = None
            node._parents = ()

    if params is None:
        return None
    if params and not any(id(p) in reachable for p in params.values()):
        raise DetachedGraphError("loss does not depend on any given parameter")
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        out[name] = p.grad
    return out


# -- forward ops ----------------------------------------------------------


def linear(
    x: Tensor, w: Tensor, b: Tensor, relu: bool = False, adj: np.ndarray | None = None
) -> Tensor:
    """x @ w + b over the last axis of `x`, with any leading axes, as one op:
    relu(adj @ (x @ w) + b) with `relu` set and a fixed (M', M) matrix `adj`
    mixing the rows of each (M, K) slice, as a graph convolution or a mean
    pool does.

    The tape keeps the input and the output, which the backward reads for the
    ReLU's mask; no pre-activation is kept. The weight gradient is one GEMM
    over the flattened leading axes, so no per-sample (K, N) products exist.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatchError(f"linear {x.shape} @ {w.shape} + {b.shape}")
    if adj is not None and (adj.ndim != 2 or x.ndim < 2 or adj.shape[1] != x.shape[-2]):
        raise ShapeMismatchError(f"linear adjacency {adj.shape} on input {x.shape}")
    data = x.data @ w.data
    if adj is not None:
        data = adj @ data
    data += b.data
    if relu:
        np.maximum(data, 0.0, out=data)

    def bw(g: np.ndarray) -> None:
        if relu:
            g = g * (data > 0.0)  # subgradient 0 at exactly 0
        if b.requires_grad:
            b.add_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))
        if adj is not None:
            g = adj.T @ g
        if w.requires_grad:
            w.add_grad(x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        if x.requires_grad:
            x.add_grad(g @ w.data.T)

    return Tensor._from_op(data, (x, w, b), bw)


def concat(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise ShapeMismatchError(f"concat axis {axis} of {a.shape}")
    ax = axis % a.ndim
    if a.ndim != b.ndim or a.shape[:ax] + a.shape[ax + 1:] != b.shape[:ax] + b.shape[ax + 1:]:
        raise ShapeMismatchError(f"concat {a.shape} | {b.shape} on axis {axis}")
    data = np.concatenate([a.data, b.data], axis=axis)
    split = a.shape[ax]

    def bw(g: np.ndarray) -> None:
        ga, gb = np.split(g, [split], axis=ax)
        if a.requires_grad:
            a.add_grad(ga)
        if b.requires_grad:
            b.add_grad(gb)

    return Tensor._from_op(data, (a, b), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)

    def bw(g: np.ndarray) -> None:
        x.add_grad(g.reshape(x.shape))

    return Tensor._from_op(data, (x,), bw)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean over all elements of the squared difference from a fixed target."""
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"mse_loss {pred.shape} vs {target.shape}")
    diff = pred.data - target
    n = diff.size
    data = np.asarray((diff * diff).sum() / n)

    def bw(g: np.ndarray) -> None:
        pred.add_grad((2.0 / n) * g * diff)

    return Tensor._from_op(data, (pred,), bw)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Eval mode (training=False) and rate 0 are both the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidRateError(f"dropout rate {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    # a bool mask and one rounded scale: x * mask * keep equals x * (mask / (1 - rate))
    mask = rng.random(x.shape) >= rate
    keep = 1.0 / (1.0 - rate)
    data = x.data * mask * keep

    def bw(g: np.ndarray) -> None:
        x.add_grad(g * mask * keep)

    return Tensor._from_op(data, (x,), bw)
