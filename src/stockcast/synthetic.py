"""Synthetic price panels for experiments.

`lead_lag_panel` builds the clustered lead-lag world used by the hybrid
vs. standalone-LSTM study: a latent factor drives each cluster, one leader
per cluster tracks the factor same-day, and the followers load on both the
current and the previous factor value. Followers are therefore partly
predictable one day ahead, but only through their leader's latest move.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np

from .market_data import PricePanel


def _trading_dates(n_days: int, start: date = date(2020, 1, 1)) -> list[date]:
    """n consecutive weekdays starting at `start`."""
    out: list[date] = []
    day = start
    while len(out) < n_days:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def lead_lag_panel(
    n_days: int,
    seed: int,
    n_clusters: int = 2,
    cluster_size: int = 5,
    phi: float = 0.8,
    contemporaneous: float = 1.0,
    lagged: float = 0.8,
    follower_noise: float = 0.2,
    leader_noise: float = 0.05,
    amplitude: float = 0.06,
) -> PricePanel:
    """Clustered panel where each cluster's first ticker leads by one day.

    A persistent latent factor (AR(1) with coefficient `phi`, unit stationary
    variance) drives each cluster. The leader's price tracks today's factor
    almost cleanly; followers mix today's and yesterday's factor plus noise,
    so part of a follower's next move is visible today, but only in the
    leader's column. Prices are stationary around 100, which keeps min-max
    scaled levels honest and makes the lead-lag component the dominant
    predictable structure. The contemporaneous loading keeps leader-follower
    return correlations above the 0.7 edge threshold.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n_stocks = n_clusters * cluster_size

    innovation = math.sqrt(1.0 - phi * phi)
    factors = np.empty((n_days + 1, n_clusters))
    factors[0] = rng.standard_normal(n_clusters)
    for t in range(1, n_days + 1):
        factors[t] = phi * factors[t - 1] + innovation * rng.standard_normal(n_clusters)

    signal = np.empty((n_days, n_stocks))
    tickers: list[str] = []
    for c in range(n_clusters):
        base = c * cluster_size
        tickers.append(f"C{c}LEAD")
        signal[:, base] = factors[1:, c] + leader_noise * rng.standard_normal(n_days)
        for j in range(1, cluster_size):
            tickers.append(f"C{c}F{j}")
            signal[:, base + j] = (
                contemporaneous * factors[1:, c]
                + lagged * factors[:-1, c]
                + follower_noise * rng.standard_normal(n_days)
            )

    # clip rare extremes so prices stay strictly positive
    np.clip(signal, -5.0, 5.0, out=signal)
    close = 100.0 * (1.0 + amplitude * signal)
    return PricePanel(tickers=tickers, dates=_trading_dates(n_days), close=close)
