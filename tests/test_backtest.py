import math

import numpy as np
import pytest

from stockcast import backtest
from stockcast.backtest import (
    GridSpace,
    compare_models,
    expanding_schedule,
    grid_search,
    mse,
    run_backtest,
    step_seed,
)
from stockcast.errors import InsufficientHistoryError, LengthMismatchError
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


class TestMse:
    def test_zero_when_equal(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_by_hand(self):
        assert mse([1.0, 3.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_single_prediction(self):
        assert mse([0.52], [0.5]) == pytest.approx(4e-4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatchError):
            mse([], [])


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


class TestGridSearch:
    def make_inputs(self):
        panel = random_walk_panel(3, 46, seed=11)
        plan = expanding_schedule(panel.dates, 30, 4)
        return panel, plan

    def test_single_cell_trivially_best(self):
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [3], [10], base=linreg_spec().train)
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        assert len(cells) == 1
        assert cells[0].rank == 1

    def test_paper_axes_cell_count(self):
        panel = random_walk_panel(3, 80, seed=12)
        plan = expanding_schedule(panel.dates, 40, 3)
        space = GridSpace(
            [0.001, 0.005, 0.01], [11, 21], [10, 20, 30, 40, 50],
            base=linreg_spec().train,
        )
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        assert len(cells) == 30
        assert [c.rank for c in cells] == list(range(1, 31))

    def test_tie_break_is_documented_order(self):
        # linreg ignores learning rate and epochs, so every cell with the same
        # lookback ties exactly and ranking must fall back to the axis order
        panel, plan = self.make_inputs()
        space = GridSpace([0.01, 0.001], [3], [20, 10], base=linreg_spec().train)
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        ordered = [(c.learning_rate, c.lookback, c.epochs) for c in cells]
        assert ordered == [(0.001, 3, 10), (0.001, 3, 20), (0.01, 3, 10), (0.01, 3, 20)]

    def test_ranking_ascending_by_mse(self):
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [2, 3, 5], [10], base=linreg_spec().train)
        cells = grid_search(space, linreg_spec(), panel, GraphConfig(), plan)
        values = [c.mean_mse for c in cells]
        assert values == sorted(values)

    def test_failed_cells_ranked_last(self):
        panel, plan = self.make_inputs()
        base = TrainConfig(lookback=3, epochs=10, dropout=0.0)
        space = GridSpace([1e200, 0.01], [3], [10], base=base)
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
        space = GridSpace([0.01, 0.005], [1], [10], base=base)
        template = ModelSpec("hybrid", hidden_size=2, lstm_layers=1, gcn_hidden=2, gcn_out=2,
                             fusion_hidden=(2,), train=base)
        cells = grid_search(space, template, panel, GraphConfig(), plan)
        assert [(c.learning_rate, c.failed, c.mean_mse, c.rank) for c in cells] == [
            (0.005, True, None, 1), (0.01, True, None, 2)]

    def test_programming_error_in_a_cell_propagates(self, monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("broken cell")

        monkeypatch.setattr(backtest, "train", broken_train)
        panel, plan = self.make_inputs()
        space = GridSpace([0.005], [3], [10], base=linreg_spec().train)
        with pytest.raises(TypeError, match="broken cell"):
            grid_search(space, linreg_spec(), panel, GraphConfig(), plan)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpace([], [3], [10])


class TestCompareModels:
    def test_needs_two_specs(self):
        panel, plan = TestGridSearch().make_inputs()
        with pytest.raises(ValueError):
            compare_models([linreg_spec()], panel, GraphConfig(), plan)

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
