"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Tensor


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> None:
    """One in-place Adam update over all named parameters.

    m and v track exponential moving averages of the gradient and its
    square; both are bias-corrected by 1/(1 - beta^t) with t incremented
    before the correction, so the very first step has magnitude ~lr.
    """
    state.t += 1
    correct1 = 1.0 - state.beta1**state.t
    correct2 = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"{name}: grad {g.shape} vs param {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / correct1
        v_hat = v / correct2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
