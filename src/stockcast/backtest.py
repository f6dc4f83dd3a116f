"""Expanding-window walk-forward evaluation with per-step retraining.

Each step trains a fresh model on everything up to the day before its test
date, predicts that single day, and then hands the day to the next step's
training set. The scaler and (for graph models) the relation graph are
refit from the training interval alone, so no test information ever leaks
backward. A spec carries every setting its steps read, its graph settings
included, so one walk can hold specs that differ in any of them.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, replace
from datetime import date
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import (
    DegenerateSeriesError,
    DivergedLossError,
    InsufficientHistoryError,
    ModelError,
    PanelTooShortError,
    SliceTooShortError,
    StockcastError,
    ZeroVarianceError,
)
from .market_data import (
    DateRange,
    PricePanel,
    daily_returns,
    fit_scaler,
    make_windows,
    scale,
)
from .models import ModelSpec, predict, train
from .relation_graph import GraphConfig, build_graph, normalized_adjacency


@dataclass(frozen=True, slots=True)
class PlanStep:
    index: int
    train_start: date
    train_end: date  # inclusive, the day before test_date
    test_date: date


@dataclass(eq=False)
class WindowPlan:
    steps: list[PlanStep]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


# What one step's own data or training can raise. Any other error (a shape
# or ticker mismatch, say) is a fault of the program and ends the walk.
STEP_ERRORS = (PanelTooShortError, DegenerateSeriesError, SliceTooShortError,
               ZeroVarianceError, ModelError)


@dataclass(eq=False)
class FailedStep:
    index: int
    test_date: date
    error: StockcastError

    @property
    def reason(self) -> str:
        return str(self.error)


@dataclass(eq=False)
class BacktestReport:
    kind: str
    per_day: list[tuple[date, float]]
    per_stock: list[tuple[str, float]]
    summary_mse: float
    failed: list[FailedStep]


@dataclass(eq=False)
class GridCell:
    learning_rate: float
    lookback: int
    epochs: int
    mean_mse: float | None  # None when the cell failed
    reason: str  # why the cell failed; empty when it did not
    rank: int = 0

    @property
    def failed(self) -> bool:
        return self.mean_mse is None


@dataclass(eq=False)
class GridSpace:
    learning_rates: list[float]
    lookbacks: list[int]
    epoch_caps: list[int]

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
    return WindowPlan(steps)


def step_seed(base_seed: int, step_index: int) -> int:
    """Deterministic per-step training seed derived from the run seed."""
    return int(np.random.SeedSequence([base_seed, step_index]).generate_state(1)[0])


@functools.cache
def _openblas() -> tuple | None:
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when numpy ships no OpenBLAS that exports them."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _set_blas_threads(n: int) -> int | None:
    """Give numpy's OpenBLAS `n` threads and return the count it had; without
    one, change nothing and return None."""
    found = _openblas()
    if found is None:
        return None
    get, set_ = found
    before = get()
    set_(n)
    return before


def _fork_pool(workers: int):
    """A pool of `workers` forked processes, or None when fewer than 2
    workers are asked for or the platform cannot fork.

    Forked, not spawned: a worker starts without importing the package again
    and sees the parent's module state, its BLAS thread count included. The
    parent's only other threads are OpenBLAS's, which OpenBLAS itself shuts
    down around a fork."""
    if workers < 2:
        return None
    import multiprocessing  # imported here: it would add ~30% to the CLI's start-up

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def run_step(
    spec: ModelSpec,
    panel: PricePanel,
    step: PlanStep,
    seed: int,
    initial_params: Mapping[str, Tensor] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Tensor]]:
    """One step of the walk: refit scaler and graph on the step's training
    range, train, and predict the test day.

    Returns the scaled prediction and actual closes of the test day and the
    trained parameters; raises whatever the step's data or training raises.
    """
    lookback = spec.train.lookback
    train_panel = panel.window(DateRange(step.train_start, step.train_end))
    scaler = fit_scaler(train_panel)
    scaled_train = scale(scaler, train_panel)

    a_hat = None
    if spec.kind == "hybrid":
        returns = daily_returns(train_panel)
        graph = build_graph(returns, spec.graph)
        a_hat = normalized_adjacency(graph)

    windows = make_windows(scaled_train, train_panel.dates, lookback)
    result = train(spec, windows, a_hat, seed=seed, initial_params=initial_params)
    test_panel = panel.window(DateRange(step.test_date, step.test_date))
    actual = scale(scaler, test_panel)[0]
    prediction = predict(spec, result.params, scaled_train[-lookback:], a_hat)
    return prediction, actual, result.params


def _scored_step(*args) -> tuple[np.ndarray, np.ndarray]:
    return run_step(*args)[:2]  # the trained parameters are read only by a warm start


def _report(spec: ModelSpec, panel: PricePanel, plan: WindowPlan, run) -> BacktestReport:
    """Fold one spec's steps, in step order, into its report. `run(spec, step,
    carried)` returns a step's scaled prediction, actual closes and trained
    parameters, or raises what the step raised; `carried` holds the
    parameters of the last step scored."""
    per_day: list[tuple[date, float]] = []
    failed: list[FailedStep] = []
    sq_sums = np.zeros(panel.n_stocks)
    carried = None
    for step in plan.steps:
        try:
            prediction, actual, params = run(spec, step, carried)
        except STEP_ERRORS as exc:
            # drop the traceback so a failed step does not keep its frames alive
            failed.append(FailedStep(step.index, step.test_date, exc.with_traceback(None)))
            continue
        carried = params
        sq = (prediction - actual) ** 2
        sq_sums += sq
        per_day.append((step.test_date, float(sq.mean())))

    summary = float(np.mean([m for _, m in per_day])) if per_day else math.nan
    per_stock = [(t, float(sq_sums[j] / len(per_day)) if per_day else math.nan)
                 for j, t in enumerate(panel.tickers)]
    return BacktestReport(kind=spec.kind, per_day=per_day, per_stock=per_stock,
                          summary_mse=summary, failed=failed)


def run_backtest(
    spec: ModelSpec,
    panel: PricePanel,
    graph_config: GraphConfig,
    plan: WindowPlan,
    base_seed: int = 0,
    warm_start: bool = False,
) -> BacktestReport:
    """Walk the plan: refit scaler and graph per step, retrain, score one day.

    The hybrid's graph is built with `graph_config`, which replaces
    `spec.graph`; `compare_models` reads it from each spec instead. The
    parameter stays because the benchmark's workloads pass it by position.

    All reported errors are in scaled space. Each step trains from a fresh
    seeded initialization unless `warm_start` carries the previous step's
    parameters forward. A step whose data or training fails with one of
    STEP_ERRORS (too few days, a diverged loss, ...) is recorded with its
    error under `failed`, excluded from the summary mean, and the walk goes
    on; any other exception propagates.

    Without warm start the steps are independent, so they run in forked
    worker processes, one per available CPU up to the step count. BLAS runs
    on one thread on both paths, so the results do not depend on the CPUs.
    """
    return compare_models([replace(spec, graph=graph_config)], panel, plan, base_seed,
                          warm_start)[0][1]


def grid_search(
    space: GridSpace,
    template: ModelSpec,
    panel: PricePanel,
    plan: WindowPlan,
    base_seed: int = 0,
) -> list[GridCell]:
    """Backtest every (learning rate, lookback, epochs) cell and rank by mean
    MSE ascending; ties and failed cells order by the axis values.

    Each cell trains `template` with those three settings of `template.train`
    replaced and every other setting kept; all cells run in one
    `compare_models` call.

    A cell fails when its model kind rejects its settings, when any step
    failed for a reason other than a diverged loss, or when no step was
    scored, so no cell ranks on the fewer test days its data could support.
    Its `reason` is the rejection's message, else the first such step's
    error, else the first diverged step's. Any other error ends the sweep.
    """
    cells: list[GridCell] = []
    specs: list[ModelSpec] = []
    for lr, lookback, epochs in product(space.learning_rates, space.lookbacks, space.epoch_caps):
        cfg = replace(template.train, learning_rate=lr, lookback=lookback, epochs=epochs)
        try:
            specs.append(replace(template, train=cfg))
        except ValueError as exc:  # e.g. a cnn1d lookback shorter than its kernel
            cells.append(GridCell(lr, lookback, epochs, None, str(exc)))

    reports = compare_models(specs, panel, plan, base_seed) if specs else []
    for spec, report in reports:
        fatal = [f for f in report.failed if not isinstance(f.error, DivergedLossError)]
        cell_failed = bool(fatal) or not math.isfinite(report.summary_mse)
        reason = next((f.reason for f in fatal or report.failed), "") if cell_failed else ""
        cfg = spec.train
        cells.append(GridCell(cfg.learning_rate, cfg.lookback, cfg.epochs,
                              None if cell_failed else report.summary_mse, reason))

    cells.sort(key=lambda c: (c.failed, math.inf if c.mean_mse is None else c.mean_mse,
                              c.learning_rate, c.lookback, c.epochs))
    for rank, cell in enumerate(cells, start=1):
        cell.rank = rank
    return cells


def compare_models(
    specs: Sequence[ModelSpec],
    panel: PricePanel,
    plan: WindowPlan,
    base_seed: int = 0,
    warm_start: bool = False,
) -> list[tuple[ModelSpec, BacktestReport]]:
    """Run one or more specs through identical plans and seeds, in given
    order, each as `run_backtest` does but on the graph of its own
    `spec.graph`; without warm start, the steps of all specs share one pool
    of workers, one per available CPU up to their count."""
    if not specs:
        raise ValueError("compare_models needs at least 1 spec")
    n_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)

    with ExitStack() as stack:
        # the BLAS thread count moves the last bits of a step's results, so
        # every step runs on one BLAS thread, in a worker or not
        blas_threads = _set_blas_threads(1)
        if blas_threads is not None:
            stack.callback(_set_blas_threads, blas_threads)
        pool = None if warm_start else _fork_pool(min(n_cpus, len(specs) * plan.n_steps))
        if pool is None:
            def run(spec, step, carried):
                return run_step(spec, panel, step, step_seed(base_seed, step.index),
                                carried if warm_start else None)
        else:
            stack.callback(pool.shutdown, cancel_futures=True)
            # submitted in the order the folds read them, each dropped once read
            futures = deque(
                pool.submit(_scored_step, spec, panel, step, step_seed(base_seed, step.index))
                for spec in specs for step in plan.steps
            )

            def run(spec, step, carried):
                return *futures.popleft().result(), None

        return [(spec, _report(spec, panel, plan, run)) for spec in specs]
