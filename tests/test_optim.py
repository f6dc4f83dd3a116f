import numpy as np
import pytest

from stockcast.autodiff import Tensor
from stockcast.optim import AdamState, adam_step


def test_zero_gradient_is_fixed_point():
    params = {"w": Tensor(np.array([1.5, -2.0]), requires_grad=True)}
    before = params["w"].data.copy()
    state = AdamState(lr=0.1)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"].data, before)


def test_first_step_magnitude_close_to_lr():
    # with t=1 bias correction, m_hat/sqrt(v_hat) = g/|g|, so |step| ~ lr
    for g in (0.3, -7.0, 1e-4):
        params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState(lr=0.05)
        adam_step(params, {"w": np.array([g])}, state)
        step = -params["w"].data[0]
        assert np.sign(step) == np.sign(g)
        assert abs(abs(step) - 0.05) < 0.05 * 1e-3


def test_first_step_hand_computed():
    g = np.array([2.0])
    state = AdamState(lr=0.01)
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    adam_step(params, {"w": g}, state)
    m_hat = (0.1 * 2.0) / (1 - 0.9)
    v_hat = (0.001 * 4.0) / (1 - 0.999)
    expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params["w"].data[0] == pytest.approx(expected, rel=1e-15)


def test_quadratic_convergence():
    # minimize (x - 3)^2 from 0; the optimizer is its own oracle here
    params = {"x": Tensor(np.array([0.0]), requires_grad=True)}
    state = AdamState(lr=0.05)
    for _ in range(500):
        grad = 2.0 * (params["x"].data - 3.0)
        adam_step(params, {"x": grad}, state)
    assert abs(params["x"].data[0] - 3.0) < 0.05


def test_loss_scaling_invariance_with_zero_eps():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=3) for _ in range(20)]
    scale = 37.0

    def run(c):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = AdamState(lr=0.01, eps=0.0)
        for g in grads:
            adam_step(params, {"w": c * g}, state)
        return params["w"].data

    assert np.allclose(run(1.0), run(scale), atol=1e-12)


def test_moments_track_scaling():
    g = np.array([0.5])
    state_a = AdamState(lr=0.01)
    state_b = AdamState(lr=0.01)
    pa = {"w": Tensor(np.zeros(1), requires_grad=True)}
    pb = {"w": Tensor(np.zeros(1), requires_grad=True)}
    c = 4.0
    adam_step(pa, {"w": g}, state_a)
    adam_step(pb, {"w": c * g}, state_b)
    assert state_b.m["w"][0] == pytest.approx(c * state_a.m["w"][0])
    assert state_b.v["w"][0] == pytest.approx(c * c * state_a.v["w"][0])


def test_shape_mismatch():
    params = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    with pytest.raises(ValueError, match=r"^w: grad \(3,\) vs param \(2, 2\)$"):
        adam_step(params, {"w": np.zeros(3)}, AdamState(lr=0.1))


def test_step_counter_increments():
    params = {"w": Tensor(np.zeros(1), requires_grad=True)}
    state = AdamState(lr=0.1)
    for expected in (1, 2, 3):
        adam_step(params, {"w": np.ones(1)}, state)
        assert state.t == expected
