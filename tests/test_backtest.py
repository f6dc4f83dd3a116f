import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from stockcast import backtest
from stockcast.backtest import (
    BacktestReport,
    FailedStep,
    GridSpace,
    compare_models,
    expanding_schedule,
    grid_search,
    run_backtest,
    step_seed,
)
from stockcast.errors import (
    DivergedLossError,
    InsufficientHistoryError,
    PanelTooShortError,
    ShapeMismatchError,
    SliceTooShortError,
)
from stockcast.market_data import DateRange, fit_scaler
from stockcast.models import ModelSpec, TrainConfig
from stockcast.relation_graph import GraphConfig
from stockcast.synthetic import lead_lag_panel, random_walk_panel

from conftest import make_panel, weekdays


def linreg_spec(lookback=3, **kw):
    cfg = TrainConfig(lookback=lookback, epochs=10, dropout=0.0, seed=0, **kw)
    return ModelSpec("linreg", train=cfg)


class TestExpandingSchedule:
    def test_paper_scale_indices(self):
        dates = weekdays(554)
        plan = expanding_schedule(dates, base_train_days=504, test_count=50)
        assert plan.n_steps == 50
        first = plan.steps[0]
        assert first.train_start == dates[0]
        assert first.train_end == dates[503]
        assert first.test_date == dates[504]

    def test_last_step_covers_panel(self):
        dates = weekdays(554)
        plan = expanding_schedule(dates, 504, 50)
        last = plan.steps[-1]
        assert last.train_start == dates[0]
        assert last.train_end == dates[552]
        assert last.test_date == dates[553]

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            expanding_schedule(weekdays(100), 504, 50)

    def test_training_sets_nest_and_grow_by_one(self):
        dates = weekdays(40)
        plan = expanding_schedule(dates, 20, 10)
        index = {d: i for i, d in enumerate(dates)}
        sizes = []
        for step in plan.steps:
            lo, hi = index[step.train_start], index[step.train_end]
            sizes.append(hi - lo + 1)
            assert index[step.test_date] == hi + 1
        assert sizes == list(range(20, 30))
        # every step starts at the same first day: nesting is automatic
        assert len({s.train_start for s in plan.steps}) == 1

    def test_mid_panel_base_start(self):
        dates = weekdays(40)
        plan = expanding_schedule(dates, 20, 10)
        assert plan.steps[0].train_start == dates[10]


def arithmetic_panel(n_days=40, n_stocks=3):
    base = np.linspace(10, 30, n_days)
    offsets = np.arange(n_stocks) * 5.0
    return make_panel(base[:, None] + offsets)


class TestRunBacktest:
    def test_linear_data_scores_zero(self):
        # next close is an exact affine function of the lags, so OLS is an oracle
        panel = arithmetic_panel()
        plan = expanding_schedule(panel.dates, 20, 10)
        report = run_backtest(linreg_spec(), panel, GraphConfig(), plan)
        assert all(value < 1e-18 for _, value in report.per_day)
        assert report.summary_mse < 1e-18

    def test_report_shape(self):
        panel = random_walk_panel(10, 80, seed=3)
        plan = expanding_schedule(panel.dates, 30, 50)
        report = run_backtest(linreg_spec(), panel, GraphConfig(), plan)
        assert len(report.per_day) == 50
        assert len(report.per_stock) == 10
        assert [d for d, _ in report.per_day] == plan.test_dates

    def test_summary_is_mean_of_days(self):
        panel = random_walk_panel(4, 50, seed=4)
        plan = expanding_schedule(panel.dates, 25, 12)
        report = run_backtest(linreg_spec(), panel, GraphConfig(), plan)
        values = [v for _, v in report.per_day]
        assert report.summary_mse == pytest.approx(np.mean(values), abs=1e-12)

    def test_per_stock_aggregates_same_errors(self):
        panel = random_walk_panel(4, 50, seed=5)
        plan = expanding_schedule(panel.dates, 25, 12)
        report = run_backtest(linreg_spec(), panel, GraphConfig(), plan)
        stock_means = np.array([v for _, v in report.per_stock])
        assert np.mean(stock_means) == pytest.approx(report.summary_mse, abs=1e-12)

    def test_no_leakage_in_scaler(self):
        # the scaler of each step must see only that step's training interval
        panel = random_walk_panel(3, 40, seed=6)
        plan = expanding_schedule(panel.dates, 20, 5)
        for step in plan.steps:
            rng = DateRange(step.train_start, step.train_end)
            scaler = fit_scaler(panel.window(rng), rng)
            lo, hi = panel.range_indices(rng)
            assert np.array_equal(scaler.x_min, panel.close[lo:hi].min(axis=0))
            assert step.train_end < step.test_date

    def test_deterministic_reports(self):
        panel = lead_lag_panel(60, seed=7)
        plan = expanding_schedule(panel.dates, 40, 4)
        spec = ModelSpec(
            "lstm", hidden_size=4, lstm_layers=1, fusion_hidden=(4,),
            train=TrainConfig(lookback=5, epochs=3, dropout=0.2, seed=3),
        )
        a = run_backtest(spec, panel, GraphConfig(), plan, base_seed=9)
        b = run_backtest(spec, panel, GraphConfig(), plan, base_seed=9)
        assert a.per_day == b.per_day
        assert a.per_stock == b.per_stock

    def test_step_seeds_are_stable_and_distinct(self):
        assert step_seed(42, 3) == step_seed(42, 3)
        seeds = {step_seed(42, k) for k in range(50)}
        assert len(seeds) == 50

    def test_failed_step_is_flagged_and_excluded(self):
        panel = random_walk_panel(3, 40, seed=8)
        plan = expanding_schedule(panel.dates, 20, 5)
        spec = ModelSpec(
            "dense", dense_hidden=(4,),
            train=TrainConfig(lookback=3, epochs=10, learning_rate=1e200, dropout=0.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_backtest(spec, panel, GraphConfig(), plan)
        assert len(report.failed) == 5
        assert report.per_day == []
        assert math.isnan(report.summary_mse)

    def test_too_short_step_is_contained(self):
        # step 0's 3-day window leaves 2 return days, too few for the graph;
        # step 1 gains a day and is scored
        panel = lead_lag_panel(20, seed=3)
        plan = expanding_schedule(panel.dates, 3, 2)
        spec = ModelSpec("hybrid", hidden_size=2, lstm_layers=1, gcn_hidden=2, gcn_out=2,
                         fusion_hidden=(2,),
                         train=TrainConfig(lookback=1, epochs=10, dropout=0.0))
        report = run_backtest(spec, panel, GraphConfig(), plan)
        assert [(f.index, f.test_date) for f in report.failed] == [(0, plan.test_dates[0])]
        assert "return days" in report.failed[0].reason
        assert [d for d, _ in report.per_day] == [plan.test_dates[1]]
        assert report.summary_mse == report.per_day[0][1]

    def test_program_fault_in_a_step_propagates(self, monkeypatch):
        def broken_train(*args, **kwargs):
            raise ShapeMismatchError("broken step")

        monkeypatch.setattr(backtest, "train", broken_train)
        # two steps on two CPUs: the forked workers inherit the patch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        panel = random_walk_panel(3, 40, seed=9)
        plan = expanding_schedule(panel.dates, 30, 2)
        with pytest.raises(ShapeMismatchError, match="broken step"):
            run_backtest(linreg_spec(), panel, GraphConfig(), plan)

    def test_warm_start_changes_later_steps(self):
        panel = lead_lag_panel(44, seed=15)
        plan = expanding_schedule(panel.dates, 30, 3)
        spec = ModelSpec(
            "dense", dense_hidden=(6,),
            train=TrainConfig(lookback=4, epochs=10, dropout=0.0, batch_size=8, seed=2),
        )
        cold = run_backtest(spec, panel, GraphConfig(), plan, base_seed=1)
        warm = run_backtest(spec, panel, GraphConfig(), plan, base_seed=1, warm_start=True)
        # step 0 is identical (same fresh init), later steps diverge
        assert warm.per_day[0] == cold.per_day[0]
        assert warm.per_day[1:] != cold.per_day[1:]
        again = run_backtest(spec, panel, GraphConfig(), plan, base_seed=1, warm_start=True)
        assert again.per_day == warm.per_day  # still deterministic

    def test_hybrid_backtest_end_to_end(self):
        panel = lead_lag_panel(56, seed=9)
        plan = expanding_schedule(panel.dates, 40, 3)
        spec = ModelSpec(
            "hybrid", hidden_size=4, lstm_layers=1, gcn_hidden=3, gcn_out=2,
            fusion_hidden=(3,),
            train=TrainConfig(lookback=5, epochs=3, dropout=0.0, seed=1),
        )
        report = run_backtest(spec, panel, GraphConfig(), plan, base_seed=2)
        assert len(report.per_day) == 3
        assert all(math.isfinite(v) and v >= 0 for _, v in report.per_day)


class TestParallelWalk:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the CPU count the walk sees and count the pools it creates."""
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)

        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            pools.clear()
            return pools

        return set_cpus

    @pytest.mark.parametrize("kind", ["hybrid", "dense"])
    def test_pool_and_inline_walks_agree(self, cpus, kind):
        panel = lead_lag_panel(56, seed=9)
        plan = expanding_schedule(panel.dates, 40, 4)
        spec = ModelSpec(
            kind, hidden_size=4, lstm_layers=2, gcn_hidden=3, gcn_out=2,
            fusion_hidden=(3,), dense_hidden=(5,),
            train=TrainConfig(lookback=5, epochs=3, dropout=0.5, seed=1),
        )
        reports = []
        for n_cpus, n_pools in ((1, 0), (2, 1)):
            pools = cpus(n_cpus)
            reports.append(run_backtest(spec, panel, GraphConfig(), plan, base_seed=2))
            assert len(pools) == n_pools
        inline, pooled = reports
        assert len(inline.per_day) == 4 and not inline.failed
        assert pooled.per_day == inline.per_day
        assert pooled.per_stock == inline.per_stock
        assert pooled.summary_mse == inline.summary_mse

    def test_step_error_in_a_worker_is_contained(self, cpus):
        # step 0's 3 days cannot hold a lookback-3 window; step 1 gains a day
        panel = lead_lag_panel(20, seed=3)
        plan = expanding_schedule(panel.dates, 3, 2)
        spec = ModelSpec("dense", dense_hidden=(2,),
                         train=TrainConfig(lookback=3, epochs=10, dropout=0.0))
        failures = []
        for n_cpus, n_pools in ((1, 0), (2, 1)):
            pools = cpus(n_cpus)
            report = run_backtest(spec, panel, GraphConfig(), plan)
            assert len(pools) == n_pools
            assert [type(f.error) for f in report.failed] == [SliceTooShortError]
            assert [d for d, _ in report.per_day] == [plan.test_dates[1]]
            failures.append([(f.index, f.test_date, f.reason) for f in report.failed])
        assert failures[1] == failures[0]
        assert failures[0][0][1] == plan.test_dates[0]

    def test_one_pool_per_comparison_and_grid(self, cpus):
        panel = lead_lag_panel(44, seed=15)
        plan = expanding_schedule(panel.dates, 30, 3)
        cfg = TrainConfig(lookback=4, epochs=2, dropout=0.0)
        specs = [ModelSpec("dense", dense_hidden=(3,), train=cfg), linreg_spec(lookback=4)]
        space = GridSpace([0.01, 0.02], [3, 4], [10])
        template = ModelSpec("dense", dense_hidden=(3,), train=cfg)
        results = []
        for n_cpus, n_pools in ((1, 0), (2, 1)):
            pools = cpus(n_cpus)
            rows = compare_models(specs, panel, GraphConfig(), plan, base_seed=3)
            assert len(pools) == n_pools
            pools.clear()
            cells = grid_search(space, template, panel, GraphConfig(), plan, base_seed=3)
            assert len(pools) == n_pools
            results.append((
                [(r.per_day, r.per_stock, [f.reason for f in r.failed]) for _, r in rows],
                [(c.learning_rate, c.lookback, c.epochs, c.mean_mse, c.rank) for c in cells],
            ))
        inline, pooled = results
        assert all(len(per_day) == 3 for per_day, _, _ in inline[0])
        assert pooled == inline

    def test_warm_start_never_creates_a_pool(self, cpus):
        pools = cpus(2)
        panel = lead_lag_panel(44, seed=15)
        plan = expanding_schedule(panel.dates, 30, 3)
        spec = ModelSpec("dense", dense_hidden=(6,),
                         train=TrainConfig(lookback=4, epochs=2, dropout=0.0))
        report = run_backtest(spec, panel, GraphConfig(), plan, warm_start=True)
        assert len(report.per_day) == 3
        assert pools == []

    def test_cli_import_leaves_the_pool_unloaded(self):
        code = "import stockcast.cli, sys; assert 'multiprocessing' not in sys.modules"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestGridSearch:
    def make_inputs(self):
        panel = random_walk_panel(3, 46, seed=11)
        plan = expanding_schedule(panel.dates, 30, 4)
        return panel, plan

    def test_single_cell_trivially_best(self):
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [3], [10])
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        assert len(cells) == 1
        assert cells[0].rank == 1

    def test_paper_axes_cell_count(self):
        panel = random_walk_panel(3, 80, seed=12)
        plan = expanding_schedule(panel.dates, 40, 3)
        space = GridSpace([0.001, 0.005, 0.01], [11, 21], [10, 20, 30, 40, 50])
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        assert len(cells) == 30
        assert [c.rank for c in cells] == list(range(1, 31))

    def test_tie_break_is_documented_order(self):
        # linreg ignores learning rate and epochs, so every cell with the same
        # lookback ties exactly and ranking must fall back to the axis order
        panel, plan = self.make_inputs()
        space = GridSpace([0.01, 0.001], [3], [20, 10])
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        ordered = [(c.learning_rate, c.lookback, c.epochs) for c in cells]
        assert ordered == [(0.001, 3, 10), (0.001, 3, 20), (0.01, 3, 10), (0.01, 3, 20)]

    def test_ranking_ascending_by_mse(self):
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [2, 3, 5], [10])
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        values = [c.mean_mse for c in cells]
        assert values == sorted(values)

    def test_failed_cells_ranked_last(self):
        panel, plan = self.make_inputs()
        base = TrainConfig(lookback=3, epochs=10, dropout=0.0)
        space = GridSpace([1e200, 0.01], [3], [10])
        template = ModelSpec("dense", dense_hidden=(4,), train=base)
        with np.errstate(over="ignore", invalid="ignore"):
            cells = grid_search(space, template, panel, GraphConfig(), plan)
        assert [c.failed for c in cells] == [False, True]
        assert cells[1].mean_mse is None
        assert cells[1].rank == 2

    def test_too_short_graph_range_is_a_failed_cell(self):
        # a 3-day base window leaves 2 return days, too few for the correlations
        panel = lead_lag_panel(20, seed=3)
        plan = expanding_schedule(panel.dates, 3, 2)
        base = TrainConfig(lookback=1, epochs=10, dropout=0.0)
        space = GridSpace([0.01, 0.005], [1], [10])
        template = ModelSpec("hybrid", hidden_size=2, lstm_layers=1, gcn_hidden=2, gcn_out=2,
                             fusion_hidden=(2,), train=base)
        cells = grid_search(space, template, panel, GraphConfig(), plan)
        assert [(c.learning_rate, c.failed, c.mean_mse, c.rank) for c in cells] == [
            (0.005, True, None, 1), (0.01, True, None, 2)]

    def test_lookback_shorter_than_kernel_is_a_failed_cell(self):
        panel, plan = self.make_inputs()
        base = TrainConfig(lookback=3, epochs=10, dropout=0.0)
        space = GridSpace([0.01], [2, 3], [10])
        template = ModelSpec("cnn1d", cnn_channels=2, cnn_kernel=3, dense_hidden=(2,), train=base)
        cells = grid_search(space, template, panel, GraphConfig(), plan)
        assert [(c.lookback, c.failed, c.rank) for c in cells] == [(3, False, 1), (2, True, 2)]

    def test_failed_cell_reasons(self, monkeypatch):
        # the first step error that is not a divergence names the cell's
        # failure; a cell whose every failure diverged reads the first one
        panel, plan = self.make_inputs()
        step_errors = {
            0.01: ([DivergedLossError("epoch 2: loss nan"), PanelTooShortError("short")], 0.5),
            0.02: ([DivergedLossError("epoch 1: loss inf"), DivergedLossError("x")], math.nan),
            0.03: ([DivergedLossError("epoch 3: loss nan")], 0.5),
        }

        def fake_compare(specs, *args):
            reports = []
            for spec in specs:
                errors, mse = step_errors[spec.train.learning_rate]
                failed = [FailedStep(k, plan.test_dates[k], e) for k, e in enumerate(errors)]
                reports.append((spec, BacktestReport(spec.kind, [], [], mse, failed)))
            return reports

        monkeypatch.setattr(backtest, "compare_models", fake_compare)
        cells = grid_search(GridSpace(list(step_errors), [3], [10]), linreg_spec(), panel,
                            GraphConfig(), plan)
        assert {c.learning_rate: (c.failed, c.reason) for c in cells} == {
            0.01: (True, "short"), 0.02: (True, "epoch 1: loss inf"), 0.03: (False, "")}

        template = ModelSpec("cnn1d", cnn_kernel=3, train=linreg_spec().train)
        rejected = grid_search(GridSpace([0.01], [2], [10]), template, panel, GraphConfig(), plan)
        assert rejected[0].reason == "lookback must be >= cnn_kernel 3 for cnn1d, got 2"

    def test_programming_error_in_a_cell_propagates(self, monkeypatch):
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [3], [10])
        for error in (TypeError, ShapeMismatchError):
            def broken_train(*args, **kwargs):
                raise error("broken cell")

            monkeypatch.setattr(backtest, "train", broken_train)
            with pytest.raises(error, match="broken cell"):
                grid_search(space, linreg_spec(), panel, GraphConfig(), plan)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpace([], [3], [10])

    def test_cell_trains_on_template_settings(self):
        # every setting of template.train other than the three axes reaches the
        # cell: its MSE is that of the template's own backtest with them replaced
        panel, plan = self.make_inputs()
        template = ModelSpec("dense", dense_hidden=(4,), train=TrainConfig(
            lookback=3, epochs=10, dropout=0.25, val_fraction=0.3, patience=2))
        cells = grid_search(GridSpace([0.02], [4], [12]), template, panel, GraphConfig(), plan)
        train_cfg = replace(template.train, learning_rate=0.02, lookback=4, epochs=12)
        report = run_backtest(replace(template, train=train_cfg), panel, GraphConfig(), plan)
        assert not cells[0].failed
        assert cells[0].mean_mse == report.summary_mse


class TestCompareModels:
    def test_needs_a_spec(self):
        panel, plan = TestGridSearch().make_inputs()
        with pytest.raises(ValueError):
            compare_models([], panel, GraphConfig(), plan)

    def test_one_spec_matches_its_backtest(self):
        panel, plan = TestGridSearch().make_inputs()
        [(spec, report)] = compare_models([linreg_spec()], panel, GraphConfig(), plan, base_seed=2)
        alone = run_backtest(linreg_spec(), panel, GraphConfig(), plan, base_seed=2)
        assert spec == linreg_spec()
        assert report.per_day == alone.per_day and report.per_stock == alone.per_stock

    def test_aligned_table_and_determinism(self):
        panel = random_walk_panel(3, 46, seed=13)
        plan = expanding_schedule(panel.dates, 30, 4)
        specs = [linreg_spec(), linreg_spec()]
        rows = compare_models(specs, panel, GraphConfig(), plan, base_seed=5)
        assert len(rows) == 2
        assert rows[0][1].summary_mse == rows[1][1].summary_mse
        assert rows[0][1].per_day == rows[1][1].per_day

    def test_five_model_comparison_runs(self):
        panel = lead_lag_panel(60, seed=14)
        plan = expanding_schedule(panel.dates, 45, 2)
        cfg = TrainConfig(lookback=5, epochs=3, dropout=0.0, seed=0)
        small = dict(hidden_size=4, lstm_layers=1, gcn_hidden=3, gcn_out=2,
                     fusion_hidden=(3,), dense_hidden=(5,), cnn_channels=3)
        specs = [
            ModelSpec("hybrid", train=cfg, **small),
            ModelSpec("lstm", train=cfg, **small),
            ModelSpec("linreg", train=cfg, **small),
            ModelSpec("cnn1d", train=cfg, **small),
            ModelSpec("dense", train=cfg, **small),
        ]
        rows = compare_models(specs, panel, GraphConfig(), plan, base_seed=1)
        assert [spec.kind for spec, _ in rows] == ["hybrid", "lstm", "linreg", "cnn1d", "dense"]
        for _, report in rows:
            assert math.isfinite(report.summary_mse)
