"""Reverse-mode autodiff over dense float64 arrays.

Each op wires a backward closure onto its output tensor; backward() walks
the recorded graph in reverse topological order and accumulates gradients
into every tracked leaf. The tape is dynamic: it exists only as the parent
links of the tensors produced during one forward pass.
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting expanded it."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


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
    parameters the loss never touched come back as zeros.
    """
    if loss.data.size != 1:
        raise NotScalarLossError(f"loss has shape {loss.data.shape}")

    if params is not None:
        for p in params.values():
            p.grad = None

    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None  # free interior grads as soon as they are consumed

    if params is None:
        return None
    reachable = {id(t) for t in order}
    if params and not any(id(p) in reachable for p in params.values()):
        raise DetachedGraphError("loss does not depend on any given parameter")
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        out[name] = p.grad
    return out


# -- forward ops ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a.add_grad(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b.add_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._from_op(data, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add {a.shape} + {b.shape}") from None

    def bw(g: np.ndarray) -> None:
        donated_g = False
        if a.requires_grad:
            ga = _unbroadcast(g, a.shape)
            donated_g = ga is g
            a.add_grad(ga)
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            if gb is g and donated_g:
                gb = g.copy()  # both parents same shape: keep their grads distinct
            b.add_grad(gb)

    return Tensor._from_op(data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def bw(g: np.ndarray) -> None:
        x.add_grad(g * (x.data > 0.0))  # subgradient 0 at exactly 0

    return Tensor._from_op(data, (x,), bw)


def concat(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    a_shape = list(a.shape)
    b_shape = list(b.shape)
    ax = axis % max(a.ndim, 1)
    a_shape[ax] = b_shape[ax] = -1
    if a.ndim != b.ndim or a_shape != b_shape:
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


def swapaxes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    data = np.ascontiguousarray(np.swapaxes(x.data, axis1, axis2))

    def bw(g: np.ndarray) -> None:
        x.add_grad(np.swapaxes(g, axis1, axis2))

    return Tensor._from_op(data, (x,), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ShapeMismatchError(f"narrow [{start}:{start + length}) of {x.shape} axis {axis}")
    index: list[slice] = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    data = np.ascontiguousarray(x.data[tuple(index)])

    def bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[tuple(index)] = g
        x.add_grad(gx)

    return Tensor._from_op(data, (x,), bw)


def scale(x: Tensor, c: float) -> Tensor:
    data = x.data * c

    def bw(g: np.ndarray) -> None:
        x.add_grad(g * c)

    return Tensor._from_op(data, (x,), bw)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    target = as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"mse_loss {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    data = np.asarray((diff * diff).sum() / n)

    def bw(g: np.ndarray) -> None:
        scaled = (2.0 / n) * g * diff
        if pred.requires_grad:
            pred.add_grad(scaled)
        if target.requires_grad:
            target.add_grad(-scaled)

    return Tensor._from_op(data, (pred, target), bw)


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
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    data = x.data * mask

    def bw(g: np.ndarray) -> None:
        x.add_grad(g * mask)

    return Tensor._from_op(data, (x,), bw)


def gradient_check(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-5,
    max_coords: int = 16,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `build_loss` must be deterministic; parameters with more than
    `max_coords` entries are probed at a seeded random subset of coordinates.
    """
    loss = build_loss(params)
    grads = backward(loss, params)
    assert grads is not None
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))

    worst = 0.0
    for name in sorted(params):
        flat = params[name].data.reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= max_coords:
            coords = np.arange(flat.size)
        else:
            coords = np.sort(rng.choice(flat.size, size=max_coords, replace=False))
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            plus = float(build_loss(params).data)
            flat[idx] = orig - h
            minus = float(build_loss(params).data)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * h)
            analytic = gflat[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, err)
    return worst
