"""Expanding-window walk-forward evaluation with per-step retraining.

Each step trains a fresh model on everything up to the day before its test
date, predicts that single day, and then hands the day to the next step's
training set. The scaler and (for graph models) the relation graph are
refit from the training interval alone, so no test information ever leaks
backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    DivergedLossError,
    InsufficientHistoryError,
    LengthMismatchError,
    StockcastError,
)
from .market_data import (
    DateRange,
    PricePanel,
    daily_returns,
    fit_scaler,
    make_windows,
    scale,
)
from .models import ModelSpec, TrainConfig, predict, train
from .relation_graph import GraphConfig, build_graph, normalized_adjacency


@dataclass(frozen=True, slots=True)
class PlanStep:
    index: int
    train_start: date
    train_end: date  # inclusive, the day before test_date
    test_date: date


@dataclass(eq=False)
class WindowPlan:
    base_train_days: int
    test_dates: list[date]
    steps: list[PlanStep]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


@dataclass(eq=False)
class FailedStep:
    index: int
    test_date: date
    reason: str


@dataclass(eq=False)
class BacktestReport:
    kind: str
    tickers: list[str]
    per_day: list[tuple[date, float]]
    per_stock: list[tuple[str, float]]
    summary_mse: float
    failed: list[FailedStep]


@dataclass(eq=False)
class GridCell:
    learning_rate: float
    lookback: int
    epochs: int
    mean_mse: float | None
    failed: bool
    rank: int = 0


@dataclass(eq=False)
class GridSpace:
    learning_rates: list[float]
    lookbacks: list[int]
    epoch_caps: list[int]
    base: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if not (self.learning_rates and self.lookbacks and self.epoch_caps):
            raise ValueError("grid axes must be nonempty")


def expanding_schedule(
    dates: Sequence[date], base_train_days: int, test_count: int = 50
) -> WindowPlan:
    """Reserve the last `test_count` dates for testing, one step per day.

    Step 0 trains on the base_train_days dates preceding the first test day;
    each later step's training set gains exactly the previous test day.
    """
    if base_train_days < 1 or test_count < 1:
        raise ValueError("base_train_days and test_count must be >= 1")
    n = len(dates)
    if n < base_train_days + test_count:
        raise InsufficientHistoryError(
            f"panel has {n} dates, need {base_train_days + test_count}"
        )
    first_test = n - test_count
    start = first_test - base_train_days
    steps = [
        PlanStep(
            index=k,
            train_start=dates[start],
            train_end=dates[first_test + k - 1],
            test_date=dates[first_test + k],
        )
        for k in range(test_count)
    ]
    return WindowPlan(
        base_train_days=base_train_days,
        test_dates=list(dates[first_test:]),
        steps=steps,
    )


def mse(predictions: Sequence[float], actuals: Sequence[float]) -> float:
    """Mean of squared prediction errors."""
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if predictions.shape != actuals.shape or predictions.ndim != 1 or predictions.size == 0:
        raise LengthMismatchError(f"{predictions.shape} vs {actuals.shape}")
    diff = predictions - actuals
    return float((diff * diff).mean())


def step_seed(base_seed: int, step_index: int) -> int:
    """Deterministic per-step training seed derived from the run seed."""
    return int(np.random.SeedSequence([base_seed, step_index]).generate_state(1)[0])


def run_backtest(
    spec: ModelSpec,
    panel: PricePanel,
    graph_config: GraphConfig,
    plan: WindowPlan,
    base_seed: int = 0,
    warm_start: bool = False,
) -> BacktestReport:
    """Walk the plan: refit scaler and graph per step, retrain, score one day.

    All reported errors are in scaled space. Each step trains from a fresh
    seeded initialization unless `warm_start` carries the previous step's
    parameters forward. A step whose training diverges is recorded under
    `failed` and excluded from the summary mean.
    """
    lookback = spec.train.lookback
    per_day: list[tuple[date, float]] = []
    failed: list[FailedStep] = []
    sq_sums = np.zeros(panel.n_stocks)
    n_scored = 0
    carried = None

    for step in plan.steps:
        train_range = DateRange(step.train_start, step.train_end)
        train_panel = panel.window(train_range)
        scaler = fit_scaler(train_panel, train_range)
        scaled_train = scale(scaler, train_panel)

        a_hat = None
        if spec.kind == "hybrid":
            returns = daily_returns(train_panel)
            graph = build_graph(returns, graph_config)
            a_hat = normalized_adjacency(graph)

        windows = make_windows(scaled_train, train_panel.dates, lookback)
        try:
            result = train(
                spec, windows, a_hat,
                seed=step_seed(base_seed, step.index),
                initial_params=carried,
            )
        except DivergedLossError as exc:
            failed.append(FailedStep(step.index, step.test_date, str(exc)))
            continue
        if warm_start:
            carried = result.params

        test_panel = panel.window(DateRange(step.test_date, step.test_date))
        actual = scale(scaler, test_panel)[0]
        prediction = predict(spec, result.params, scaled_train[-lookback:], a_hat)

        sq = (prediction - actual) ** 2
        sq_sums += sq
        n_scored += 1
        per_day.append((step.test_date, float(sq.mean())))

    summary = float(np.mean([m for _, m in per_day])) if per_day else math.nan
    per_stock = (
        [(t, float(sq_sums[j] / n_scored)) for j, t in enumerate(panel.tickers)]
        if n_scored
        else [(t, math.nan) for t in panel.tickers]
    )
    return BacktestReport(
        kind=spec.kind,
        tickers=list(panel.tickers),
        per_day=per_day,
        per_stock=per_stock,
        summary_mse=summary,
        failed=failed,
    )


def grid_search(
    space: GridSpace,
    template: ModelSpec,
    panel: PricePanel,
    graph_config: GraphConfig,
    plan: WindowPlan,
    base_seed: int = 0,
) -> list[GridCell]:
    """Backtest every (learning rate, lookback, epochs) cell and rank by mean
    MSE ascending; ties and failed cells order by the axis values."""
    cells: list[GridCell] = []
    for lr, lookback, epochs in product(space.learning_rates, space.lookbacks, space.epoch_caps):
        cfg = replace(space.base, learning_rate=lr, lookback=lookback, epochs=epochs)
        cell_spec = replace(template, train=cfg)
        try:
            report = run_backtest(cell_spec, panel, graph_config, plan, base_seed)
            mean = report.summary_mse
            cell_failed = not math.isfinite(mean)
        except StockcastError:  # a cell the data cannot support must not kill the sweep
            mean = None
            cell_failed = True
        else:
            mean = None if cell_failed else mean
        cells.append(GridCell(lr, lookback, epochs, mean, cell_failed))

    cells.sort(
        key=lambda c: (
            c.failed,
            c.mean_mse if c.mean_mse is not None else math.inf,
            c.learning_rate,
            c.lookback,
            c.epochs,
        )
    )
    for rank, cell in enumerate(cells, start=1):
        cell.rank = rank
    return cells


def compare_models(
    specs: Sequence[ModelSpec],
    panel: PricePanel,
    graph_config: GraphConfig,
    plan: WindowPlan,
    base_seed: int = 0,
    warm_start: bool = False,
) -> list[tuple[ModelSpec, BacktestReport]]:
    """Run several specs through identical plans and seeds, in given order."""
    if len(specs) < 2:
        raise ValueError("compare_models needs at least 2 specs")
    return [
        (spec, run_backtest(spec, panel, graph_config, plan, base_seed,
                            warm_start=warm_start))
        for spec in specs
    ]
