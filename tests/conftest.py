import tracemalloc
from contextlib import contextmanager
from datetime import date, timedelta
from typing import Callable, Iterator, Mapping

import numpy as np
import pytest

from stockcast.autodiff import Tensor, backward
from stockcast.market_data import PricePanel


def weekdays(n: int, start: date = date(2021, 1, 4)) -> list[date]:
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def make_panel(close: np.ndarray, tickers=None, start: date = date(2021, 1, 4)) -> PricePanel:
    close = np.asarray(close, dtype=np.float64)
    if tickers is None:
        tickers = [f"S{j}" for j in range(close.shape[1])]
    return PricePanel(tickers=list(tickers), dates=weekdays(close.shape[0], start), close=close)


def prices_from_returns(returns: np.ndarray, start_price: float = 100.0) -> np.ndarray:
    """Cumulate simple returns into a positive price path per column."""
    steps = np.cumprod(1.0 + returns, axis=0)
    prices = np.empty((returns.shape[0] + 1, returns.shape[1]))
    prices[0] = start_price
    prices[1:] = start_price * steps
    return prices


def random_walk_panel(
    n_stocks: int, n_days: int, seed: int, daily_vol: float = 0.01
) -> PricePanel:
    """Independent random-walk closes, useful as a neutral fixture."""
    rng = np.random.Generator(np.random.PCG64(seed))
    returns = daily_vol * rng.standard_normal((n_days - 1, n_stocks))
    tickers = [f"S{j:02d}" for j in range(n_stocks)]
    return PricePanel(
        tickers=tickers,
        dates=weekdays(n_days, date(2020, 1, 1)),
        close=prices_from_returns(returns),
    )


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


def coordinate_errors(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-5,
) -> dict[str, float]:
    """Per tensor, the max over every coordinate of |analytic - central
    difference|, divided by the tensor's max |analytic grad|. Round-off in
    the difference is absolute, so it is held to the gradient's scale; a
    tensor whose analytic gradient is all zero keeps the absolute error."""
    grads = {name: g.copy() for name, g in backward(build_loss(params), params).items()}
    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.empty(flat.size)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            plus = build_loss(params).item()
            flat[k] = orig - h
            minus = build_loss(params).item()
            flat[k] = orig
            numeric[k] = (plus - minus) / (2.0 * h)
        analytic = grads[name].reshape(-1)
        gmax = np.abs(analytic).max()
        errors[name] = float(np.abs(numeric - analytic).max() / (gmax if gmax > 0 else 1.0))
    return errors


@contextmanager
def traced_memory() -> Iterator[Callable[[], tuple[int, int]]]:
    """Traces allocations inside the block, numpy's buffers included; yields
    a function that returns the (current, peak) bytes traced so far."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))
