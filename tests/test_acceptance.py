"""Release acceptance suite.

One test per criterion, each asserting its stated tolerance and printing a
one-line summary (run pytest with -s to see the lines as they pass). The two
long-running studies sit at the end of the module.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from stockcast.autodiff import Tensor, mse_loss
from stockcast.backtest import compare_models, expanding_schedule, run_backtest
from stockcast.cli import _load_inputs, main
from stockcast.config import load_config
from stockcast.market_data import (
    daily_returns,
    fit_scaler,
    invert_scale,
    make_windows,
    scale,
)
from stockcast.models import (
    EarlyStopper,
    ModelSpec,
    TrainConfig,
    gcn_forward,
    init_params,
    lstm_stack,
    model_forward,
    train,
)
from stockcast.relation_graph import (
    GraphConfig,
    apriori_frequent,
    assemble_graph,
    build_graph,
    mine_rules,
    normalized_adjacency,
    pearson_matrix,
)
from stockcast.synthetic import lead_lag_panel

from conftest import coordinate_errors, make_panel, random_walk_panel, weekdays
from test_relation_graph import (
    brute_force_frequents,
    brute_force_rules,
    pearson_oracle,
    random_txdb,
    returns_panel,
    rules_of,
    transactions_of,
)

GRAD_CHECK_SEEDS = 20
GRAD_TOLERANCE = 1e-4

# directional-study configuration: 10-asset lead-lag panels, default training
# triple (lr 0.005, lookback 11, epochs 40), minibatch size small enough that
# the 40-epoch cap allows a few hundred optimizer updates per retrain
STUDY_SEEDS = list(range(10))
STUDY_BASE_DAYS = 120
STUDY_TEST_DAYS = 10
STUDY_BATCH = 16
STUDY_DROPOUT = 0.5


def report(line: str) -> None:
    print(f"\nPASS {line}")


class TestGradientCorrectness:
    def _check(self, build, params):
        # every coordinate, each error normalised by its tensor's max |grad|
        return max(coordinate_errors(build, params, h=1e-5).values())

    def test_all_architectures_match_finite_differences(self):
        t0 = time.perf_counter()
        worst: dict[str, float] = {}

        for seed in range(GRAD_CHECK_SEEDS):
            rng = np.random.Generator(np.random.PCG64(seed))
            cfg = TrainConfig(lookback=4, epochs=10, dropout=0.0)
            small = dict(hidden_size=4, lstm_layers=2, gcn_hidden=3, gcn_out=2,
                         fusion_hidden=(3,), dense_hidden=(5, 4), cnn_channels=3)

            spec = ModelSpec("dense", train=cfg, **small)
            params = init_params(spec, 3, 4, rng)
            window = rng.uniform(0.1, 0.9, (2, 4, 3))
            target = rng.uniform(0.1, 0.9, (2, 3))
            err = self._check(
                lambda p: mse_loss(model_forward(window, spec, p), target),
                params,
            )
            worst["dense"] = max(worst.get("dense", 0.0), err)

            cell_params = {
                "lstm0.wx": Tensor(rng.normal(scale=0.5, size=(2, 12)), requires_grad=True),
                "lstm0.wh": Tensor(rng.normal(scale=0.5, size=(3, 12)), requires_grad=True),
                "lstm0.b": Tensor(rng.normal(scale=0.3, size=12), requires_grad=True),
            }
            seq = rng.normal(size=(1, 1, 2))  # one sequence, single step: one cell update
            cell_target = rng.normal(size=(1, 3))
            err = self._check(
                lambda p: mse_loss(
                    lstm_stack(seq, [(p["lstm0.wx"], p["lstm0.wh"], p["lstm0.b"])]),
                    cell_target,
                ),
                cell_params,
            )
            worst["lstm_cell"] = max(worst.get("lstm_cell", 0.0), err)

            gcn_params = {
                "gcn1.w": Tensor(rng.normal(size=(3, 3)), requires_grad=True),
                "gcn1.b": Tensor(rng.normal(size=3), requires_grad=True),
                "gcn2.w": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                "gcn2.b": Tensor(rng.normal(size=2), requires_grad=True),
            }
            a_hat = np.eye(4) * 0.7
            a_hat[0, 1] = a_hat[1, 0] = 0.3
            features = rng.normal(size=(4, 3))
            gcn_target = rng.normal(size=(4, 2))
            err = self._check(
                lambda p: mse_loss(gcn_forward(features, a_hat, p), gcn_target),
                gcn_params,
            )
            worst["gcn"] = max(worst.get("gcn", 0.0), err)

            spec_c = ModelSpec("cnn1d", train=cfg, **small)
            params_c = init_params(spec_c, 3, 5, rng)
            window_c = rng.uniform(0.1, 0.9, (2, 5, 3))
            err = self._check(
                lambda p: mse_loss(model_forward(window_c, spec_c, p), target),
                params_c,
            )
            worst["cnn1d"] = max(worst.get("cnn1d", 0.0), err)

            spec_h = ModelSpec("hybrid", train=cfg, **small)
            params_h = init_params(spec_h, 3, 4, rng)
            adj = np.full((3, 3), 1.0 / 3)
            hybrid_target = rng.uniform(0.1, 0.9, (1, 3))
            err = self._check(
                lambda p: mse_loss(
                    model_forward(window[:1], spec_h, p, adj), hybrid_target
                ),
                params_h,
            )
            worst["hybrid"] = max(worst.get("hybrid", 0.0), err)

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
        for name, err in worst.items():
            assert err < GRAD_TOLERANCE, f"{name}: {err}"
        summary = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        report(f"gradient correctness ({GRAD_CHECK_SEEDS} seeds/architecture, every coordinate, "
               f"{elapsed:.1f}s): {summary}")


class TestAprioriOracle:
    def test_equivalence_on_100_random_databases(self, rng):
        t0 = time.perf_counter()
        n_rules_checked = 0
        for _ in range(100):
            txdb = random_txdb(rng, max_items=6, max_tx=50)
            min_support = float(rng.choice([0.1, 0.2, 0.3, 0.5]))
            fast = apriori_frequent(txdb, min_support)
            assert fast == brute_force_frequents(transactions_of(txdb), min_support)

            ruleset = mine_rules(fast, min_confidence=0.4, min_lift=1.7)
            expected = brute_force_rules(fast, min_confidence=0.4, min_lift=1.7)
            got = {(r.antecedent, r.consequent, r.support, r.confidence, r.lift)
                   for r in ruleset.rules}
            assert got == expected
            for rule in ruleset.rules:
                assert rule.lift > 1.7  # strict retention
            n_rules_checked += len(ruleset.rules)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(f"apriori oracle equivalence (100 dbs, {n_rules_checked} rules, "
               f"{elapsed:.1f}s)")


class TestPearsonOracle:
    def test_equivalence_on_100_random_panels(self, rng):
        worst = 0.0
        for _ in range(100):
            n_days = int(rng.integers(3, 40))
            n = int(rng.integers(2, 7))
            block = rng.normal(0, 0.02, size=(n_days, n))
            rho = pearson_matrix(returns_panel(block))
            assert np.array_equal(rho, rho.T)
            assert np.all(np.diag(rho) == 1.0)
            assert rho.min() >= -1.0 and rho.max() <= 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    expected = pearson_oracle(block[:, i], block[:, j])
                    worst = max(worst, abs(rho[i, j] - expected))
        assert worst < 1e-12
        report(f"pearson oracle equivalence (100 panels, worst |diff| {worst:.2e})")


class TestAdjacencySpectrum:
    def test_eigenvalues_within_unit_interval_on_200_graphs(self, rng):
        worst_low, worst_high = 0.0, 0.0
        for _ in range(200):
            n = int(rng.integers(1, 11))
            tickers = [f"T{k}" for k in range(n)]
            corr = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        corr[i, j] = corr[j, i] = rng.uniform(0.01, 1.0)
            graph = assemble_graph(corr, rules_of(), tickers, lift_cap=3.0)
            a_hat = normalized_adjacency(graph)
            eigenvalues = np.linalg.eigvalsh(a_hat)
            worst_low = max(worst_low, -1.0 - eigenvalues.min())
            worst_high = max(worst_high, eigenvalues.max() - 1.0)
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9
        report(f"adjacency spectrum (200 graphs, excess below {worst_low:.2e}, "
               f"above {worst_high:.2e})")


class TestExpandingWindowProtocol:
    def test_554_day_plan(self):
        panel = random_walk_panel(10, 554, seed=1)
        plan = expanding_schedule(panel.dates, base_train_days=504, test_count=50)
        assert plan.n_steps == 50

        index = {d: i for i, d in enumerate(panel.dates)}
        previous_size = None
        for step in plan.steps:
            lo, hi = index[step.train_start], index[step.train_end]
            size = hi - lo + 1
            if previous_size is not None:
                assert size == previous_size + 1  # grows by exactly one day
            previous_size = size
            assert step.train_start == panel.dates[0]  # nested: same origin
            # leakage audit: training windows end before the test day
            windows = make_windows(
                panel.close[lo : hi + 1], panel.dates[lo : hi + 1], 11
            )
            assert max(windows.target_dates) <= step.train_end < step.test_date
        assert plan.steps[0].train_end == panel.dates[503]
        assert plan.steps[0].test_date == panel.dates[504]
        report("expanding-window protocol (50 nested steps, leakage audit clean)")


class TestScalingAndReturns:
    def test_round_trip_1000_series(self, rng):
        worst = 0.0
        for _ in range(1000):
            n_days = int(rng.integers(2, 40))
            closes = rng.uniform(0.5, 900.0, size=(n_days, 1))
            if closes.max() <= closes.min():
                continue
            panel = make_panel(closes)
            scaler = fit_scaler(panel)
            back = invert_scale(scaler, scale(scaler, panel))
            worst = max(worst, float(np.max(np.abs(back - closes) / closes)))
        assert worst < 1e-9
        report(f"min-max round trip (1000 series, worst rel err {worst:.2e})")

    def test_return_reconstruction_exact_1000_series(self, rng):
        # random dyadic prices: start at an integer, step by k/512 returns;
        # every quantity stays exactly representable, so the algebraic
        # identity P_next == P * (1 + r) must hold bit for bit
        checked = 0
        for _ in range(1000):
            length = int(rng.integers(2, 6))
            start = float(rng.integers(1 << 8, 1 << 15))
            steps = rng.integers(-90, 91, size=length - 1) / 512.0
            closes = [start]
            for s in steps:
                closes.append(closes[-1] * (1.0 + s))
            panel = make_panel(np.asarray(closes)[:, None])
            returns = daily_returns(panel).returns[:, 0]
            rebuilt = panel.close[:-1, 0] * (1.0 + returns)
            assert np.array_equal(rebuilt, panel.close[1:, 0])
            checked += 1
        assert checked == 1000
        report("return reconstruction exact on 1000 dyadic series")


class TestEarlyStopping:
    def test_injected_sequence_halts_patience_after_best(self):
        stopper = EarlyStopper(patience=5, min_delta=1e-6)
        injected = [0.9, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
        outcomes = [stopper.update(v) for v in injected[:7]]
        assert [stop for _, stop in outcomes] == [False] * 6 + [True]
        assert stopper.best_epoch == 2
        report("early stopping halts exactly patience=5 epochs after the best")

    def test_training_returns_best_epoch_parameters(self, rng):
        from stockcast.market_data import WindowDataset

        inputs = rng.uniform(0.1, 0.9, size=(24, 4, 2))
        targets = rng.uniform(0.1, 0.9, size=(24, 2))
        ds = WindowDataset(4, inputs, targets, weekdays(24))
        cfg = TrainConfig(learning_rate=0.02, lookback=4, epochs=15, dropout=0.0,
                          patience=5, val_fraction=0.25)
        spec = ModelSpec("dense", dense_hidden=(6, 5), train=cfg)
        result = train(spec, ds, seed=2)
        vals = [v for _, v in result.history]
        n_val = round(0.25 * 24)
        pred = model_forward(inputs[-n_val:], spec, result.params)
        achieved = float(np.mean((pred.data - targets[-n_val:]) ** 2))
        assert achieved == pytest.approx(min(vals), abs=1e-15)
        report("returned parameters achieve the best observed validation loss")


class TestBacktestDeterminism:
    def test_cli_rerun_byte_identical(self, tmp_path):
        from test_cli import write_panel_csvs

        panel = lead_lag_panel(64, seed=17)
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        out = tmp_path / "out"
        args = [
            "backtest",
            "--set", f"data_dir={data}",
            "--set", f"tickers={','.join(panel.tickers)}",
            "--set", "models=hybrid,lstm",
            "--set", "hidden_size=4", "--set", "lstm_layers=1",
            "--set", "gcn_hidden=3", "--set", "gcn_out=2", "--set", "fusion_hidden=3",
            "--set", "lookback=5", "--set", "epochs=10", "--set", "batch_size=8",
            "--set", "base_train_days=50", "--set", "test_count=4",
            "--out", str(out), "--seed", "123",
        ]
        assert main(args) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first == second
        assert set(first) == {
            "per_day_mse.csv", "per_stock_mse.csv", "model_comparison.csv",
            "run_manifest.txt",
        }
        report("backtest rerun reproduces all output CSVs byte-identically")


@pytest.mark.slow
class TestDirectionalStudy:
    def test_hybrid_beats_standalone_lstm_on_lead_lag_panels(self):
        # the control arm runs the hybrid on a graph with no edge, where Â = I
        # and the GCN branch is a per-stock MLP; beating it credits the graph.
        # All three arms run in one walk per seed, with the same step seeds.
        no_edges = GraphConfig(corr_threshold=0.999999, min_lift=1e9)
        t0 = time.perf_counter()
        wins = control_wins = 0
        improvements, control_gains = [], []
        for seed in STUDY_SEEDS:
            panel = lead_lag_panel(
                n_days=STUDY_BASE_DAYS + STUDY_TEST_DAYS + 1, seed=seed
            )
            plan = expanding_schedule(panel.dates, STUDY_BASE_DAYS, STUDY_TEST_DAYS)
            cfg = TrainConfig(
                learning_rate=0.005, lookback=11, epochs=40,
                batch_size=STUDY_BATCH, dropout=STUDY_DROPOUT, patience=5,
            )
            specs = [ModelSpec("hybrid", train=cfg), ModelSpec("lstm", train=cfg)]
            specs.append(replace(specs[0], graph=no_edges))
            rows = compare_models(specs, panel, plan, base_seed=seed)
            hybrid, lstm, edgeless = (r.summary_mse for _, r in rows)
            assert math.isfinite(hybrid) and math.isfinite(lstm) and math.isfinite(edgeless)
            wins += hybrid < lstm
            improvements.append((lstm - hybrid) / lstm)

            for step in plan.steps:
                window = panel.window(step.train_start, step.train_end)
                assert not build_graph(daily_returns(window), no_edges).weight.any(), step
            control_wins += hybrid < edgeless
            control_gains.append((edgeless - hybrid) / edgeless)
        elapsed = time.perf_counter() - t0
        median_improvement = float(np.median(improvements))
        median_gain = float(np.median(control_gains))
        assert elapsed < 1800.0, f"study took {elapsed:.0f}s"
        assert wins >= 7, f"hybrid won only {wins}/{len(STUDY_SEEDS)} seeds"
        assert median_improvement > 0.0
        report(
            f"directional study: hybrid better in {wins}/{len(STUDY_SEEDS)} seeds, "
            f"median MSE improvement {median_improvement:+.1%} ({elapsed:.0f}s, all arms)"
        )
        assert control_wins >= 7, (
            f"full graph beat the no-edge hybrid in only {control_wins}/{len(STUDY_SEEDS)} seeds")
        assert median_gain > 0.0
        report(
            f"no-edge control: full-graph hybrid better in {control_wins}/{len(STUDY_SEEDS)} "
            f"seeds, median MSE improvement {median_gain:+.1%} ({elapsed:.0f}s, all arms)"
        )


@pytest.mark.slow
class TestEndToEndRuntime:
    def test_default_backtest_under_fifteen_minutes(self):
        panel = lead_lag_panel(554, seed=0)
        plan = expanding_schedule(panel.dates, base_train_days=504, test_count=50)
        spec = ModelSpec("hybrid")  # all-default widths and training config
        t0 = time.perf_counter()
        result = run_backtest(spec, panel, GraphConfig(), plan, base_seed=0)
        elapsed = time.perf_counter() - t0
        assert len(result.per_day) + len(result.failed) == 50
        assert elapsed < 900.0, f"default backtest took {elapsed:.0f}s"
        report(
            f"end-to-end default backtest: 50 steps in {elapsed:.0f}s "
            f"(mean scaled MSE {result.summary_mse:.5f})"
        )


class TestRealDataCheck:
    """Best-effort check against a user-supplied 10-ticker OHLCV export.

    Set STOCKCAST_DATA_DIR to a directory of <TICKER>.csv files to enable;
    not part of the CI gate.
    """

    def test_five_model_comparison_on_real_export(self):
        data_dir = os.environ.get("STOCKCAST_DATA_DIR")
        if not data_dir:
            pytest.skip("STOCKCAST_DATA_DIR not set; best-effort real-data check skipped")
        cfg = load_config(None, {"data_dir": data_dir})
        _, panel = _load_inputs(cfg)
        plan = expanding_schedule(panel.dates, cfg.base_train_days, cfg.test_count)
        seed_wins = 0
        for seed in range(5):
            specs = [cfg.to_model_spec(k) for k in
                     ("hybrid", "lstm", "linreg", "cnn1d", "dense")]
            rows = compare_models(specs, panel, plan, base_seed=seed)
            means = {spec.kind: r.summary_mse for spec, r in rows}
            for kind, value in means.items():
                assert 0.0 < value < 0.02, f"{kind}: scaled MSE {value}"
            seed_wins += means["hybrid"] < means["lstm"]
        assert seed_wins >= 3
        report(f"real-data check: hybrid beat lstm in {seed_wins}/5 seeds")
