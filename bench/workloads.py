"""The benchmark's workloads: inputs made from a seed, one measured pass, and
checks of the pass's outputs against computations made here with numpy.

Every workload has `setup(seed, workdir) -> state`, `run_pass(state) -> Pass`
and `check(state, p) -> refs`. `check` raises `CheckFailed` on a wrong
output and returns reference figures, by per-layer metric name (MSE of
predictors that need no trained model).
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from stockcast import backtest, cli
from stockcast.models import ModelSpec, TrainConfig
from stockcast.relation_graph import GraphConfig
from stockcast.synthetic import lead_lag_panel


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close_to(a: float, b: float, rel: float, what: str) -> None:
    require(math.isclose(a, b, rel_tol=rel, abs_tol=1e-15), f"{what}: {a!r} != {b!r}")


@dataclass
class Pass:
    """One pass of a workload; `metrics` are per-layer metrics of the pass."""

    wall_s: float
    attempted: int
    failed: int
    fingerprint: str  # equal on every pass with the same inputs
    outputs: dict
    metrics: dict


def write_ohlcv_csvs(panel, directory: Path) -> None:
    """One `<TICKER>.csv` per column, in the CLI's input format."""
    directory.mkdir(parents=True, exist_ok=True)
    days = [d.isoformat() for d in panel.dates]
    for j, ticker in enumerate(panel.tickers):
        lines = ["date,open,high,low,close,adj_close,volume"]
        for day, close in zip(days, panel.close[:, j].tolist()):
            lines.append(f"{day},{close!r},{close * 1.01!r},{close * 0.99!r},{close!r},{close!r},1000")
        (directory / f"{ticker}.csv").write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


# -- expanding-window references computed without the program ----------------

def step_slices(n_days: int, base: int, test_count: int, steps: int):
    """(train rows, test row) of each step, as `expanding_schedule` lays them out."""
    first_test = n_days - test_count
    start = first_test - base
    return [(slice(start, first_test + k), first_test + k) for k in range(steps)]


def scaled_step(close: np.ndarray, rows: slice, test: int):
    train_close = close[rows]
    lo, hi = train_close.min(axis=0), train_close.max(axis=0)
    return (train_close - lo) / (hi - lo), (close[test] - lo) / (hi - lo)


def reference_mse(close: np.ndarray, slices, lookback: int) -> dict[str, float]:
    """Mean scaled MSE of three predictors that need no trained model: the
    training-window mean, the last training close (persistence), and a
    per-stock OLS on its own `lookback` lags plus an intercept, fitted by
    np.linalg.lstsq on the step's windows."""
    errors: dict[str, list[float]] = {"train_mean": [], "persistence": [], "linreg": []}
    for rows, test in slices:
        scaled, actual = scaled_step(close, rows, test)
        inputs = sliding_window_view(scaled[:-1], lookback, axis=0)  # (S, N, L)
        targets = scaled[lookback:]
        coef = np.stack([
            np.linalg.lstsq(np.hstack([inputs[:, j, :], np.ones((len(inputs), 1))]),
                            targets[:, j], rcond=None)[0]
            for j in range(scaled.shape[1])
        ])
        linreg = np.einsum("ln,nl->n", scaled[-lookback:], coef[:, :-1]) + coef[:, -1]
        for name, pred in (("train_mean", scaled.mean(axis=0)), ("persistence", scaled[-1]),
                           ("linreg", linreg)):
            errors[name].append(float(np.mean((pred - actual) ** 2)))
    return {f"backtest.mse_ref.{name}": float(np.mean(values)) for name, values in errors.items()}


# -- hybrid_default ----------------------------------------------------------

def fixed_epochs(epochs: int) -> TrainConfig:
    """The default training settings with early stopping switched off: the
    first epoch always improves, so a patience of `epochs` never runs out and
    every fit runs exactly `epochs` epochs, whatever the seed."""
    return TrainConfig(epochs=epochs, patience=epochs)


@dataclass
class HybridDefault:
    """`run_backtest` of the default hybrid, trained for a fixed number of
    epochs, on the first steps of the 504-day-base plan over
    `lead_lag_panel(554, seed)`."""

    n_days: int = 554
    base: int = 504
    test_count: int = 50
    steps: int = 2
    train: TrainConfig = field(default_factory=lambda: fixed_epochs(10))

    def setup(self, seed: int, workdir: Path):
        panel = lead_lag_panel(self.n_days, seed)
        plan = backtest.expanding_schedule(panel.dates, self.base, self.test_count)
        plan.steps = plan.steps[: self.steps]
        return {"seed": seed, "panel": panel, "plan": plan}

    def run_pass(self, st) -> Pass:
        spec = ModelSpec("hybrid", train=self.train)
        t0 = time.perf_counter()
        report = backtest.run_backtest(spec, st["panel"], GraphConfig(), st["plan"],
                                       base_seed=st["seed"])
        wall = time.perf_counter() - t0
        values = [v for _, v in report.per_day] + [v for _, v in report.per_stock]
        return Pass(
            wall_s=wall,
            attempted=len(st["plan"].steps),
            failed=len(report.failed),
            fingerprint=hashlib.sha256(np.array(values).tobytes()).hexdigest(),
            outputs={"report": report},
            metrics={"backtest.step_s.hybrid": wall / len(st["plan"].steps),
                     "backtest.mse.hybrid": report.summary_mse},
        )

    def check(self, st, p: Pass) -> dict:
        report = p.outputs["report"]
        require(not report.failed, f"failed steps: {report.failed}")
        require(len(report.per_day) == len(st["plan"].steps), "one per-day MSE per step")
        days = np.array([v for _, v in report.per_day])
        stocks = np.array([v for _, v in report.per_stock])
        require(bool(np.all(np.isfinite(days)) and np.all(days > 0)), f"per-day MSE {days}")
        close_to(report.summary_mse, float(days.mean()), 1e-12, "summary vs mean per-day MSE")
        close_to(report.summary_mse, float(stocks.mean()), 1e-9, "summary vs mean per-stock MSE")
        slices = step_slices(self.n_days, self.base, self.test_count, self.steps)
        return reference_mse(st["panel"].close, slices, self.train.lookback)


# -- graph_cli ---------------------------------------------------------------

@dataclass
class GraphCli:
    """`stockcast ingest` then `stockcast graph` on a CSV export of
    `lead_lag_panel` with 8 clusters of 5 tickers over 1,000 days."""

    n_days: int = 1000
    n_clusters: int = 8
    graph: GraphConfig = field(default_factory=GraphConfig)

    def setup(self, seed: int, workdir: Path):
        panel = lead_lag_panel(self.n_days, seed, n_clusters=self.n_clusters)
        write_ohlcv_csvs(panel, workdir / "data")
        return {"seed": seed, "panel": panel, "workdir": workdir}

    def argv(self, st, command: str) -> list[str]:
        # the thresholds are passed so the checks and the CLI read the same ones
        g = self.graph
        sets = [
            f"data_dir={st['workdir'] / 'data'}",
            f"tickers={','.join(st['panel'].tickers)}",
            f"corr_threshold={g.corr_threshold!r}",
            f"min_support={g.min_support!r}",
            f"min_confidence={g.min_confidence!r}",
            f"min_lift={g.min_lift!r}",
            f"move_threshold={g.move_threshold!r}",
            f"lift_cap={g.lift_cap!r}",
        ]
        argv = [command, "--out", str(st["workdir"] / command)]
        for item in sets:
            argv += ["--set", item]
        return argv

    def run_pass(self, st) -> Pass:
        cmd_s, codes = {}, {}
        t0 = time.perf_counter()
        for command in ("ingest", "graph"):
            t = time.perf_counter()
            codes[command] = cli.main(self.argv(st, command))
            cmd_s[command] = time.perf_counter() - t
        wall = time.perf_counter() - t0
        work = st["workdir"]
        files = [work / "ingest" / "panel_summary.csv", work / "ingest" / "ma_prices.csv",
                 work / "graph" / "graph_edges.csv", work / "graph" / "assoc_rules.csv"]
        failed = sum(code != 0 for code in codes.values())
        return Pass(
            wall_s=wall,
            attempted=len(codes),
            failed=failed,
            fingerprint="" if failed else digest(files),
            outputs={"codes": codes},
            metrics={f"cli.cmd_s.{command}": seconds for command, seconds in cmd_s.items()},
        )

    def check(self, st, p: Pass) -> dict:
        require(all(code == 0 for code in p.outputs["codes"].values()),
                f"exit codes {p.outputs['codes']}")
        panel = st["panel"]
        work = st["workdir"]
        tickers, close = panel.tickers, panel.close
        check_ma_prices(read_csv(work / "ingest" / "ma_prices.csv"), tickers, panel.dates, close)
        returns = (close[1:] - close[:-1]) / close[:-1]
        rules = read_csv(work / "graph" / "assoc_rules.csv")
        check_rules(rules, tickers, returns, self.graph)
        check_edges(read_csv(work / "graph" / "graph_edges.csv"), rules, tickers, returns, self.graph)
        return {}


def check_ma_prices(rows, tickers, dates, close) -> None:
    n_days = len(dates)
    require(len(rows) == len(tickers) * n_days, f"ma_prices.csv has {len(rows)} rows")
    for j, ticker in enumerate(tickers):
        block = rows[j * n_days:(j + 1) * n_days]
        require(all(r[1] == ticker for r in block), f"{ticker}: rows out of order")
        require([r[0] for r in block] == [d.isoformat() for d in dates], f"{ticker}: dates")
        c = close[:, j]
        norm = (c - c.min()) / (c.max() - c.min())
        got = np.array([float(r[2]) for r in block])
        require(np.allclose(got, norm, rtol=1e-12, atol=0), f"{ticker}: norm_close")
        for col, window in ((3, 50), (4, 200)):
            blank = [r[col] == "" for r in block]
            require(blank == [t < window - 1 for t in range(n_days)], f"{ticker}: blanks in ma{window}")
            if n_days >= window:
                want = sliding_window_view(norm, window).mean(axis=1)
                got = np.array([float(r[col]) for r in block[window - 1:]])
                require(np.allclose(got, want, rtol=1e-9, atol=1e-12), f"{ticker}: ma{window}")


def _parse_items(label: str, index: dict[str, int]):
    items = []
    for part in label.split("|"):
        ticker, direction = part.split(":")
        items.append((index[ticker], direction))
    return items


def check_rules(rules, tickers, returns, g: GraphConfig) -> None:
    """Recount every rule's support, confidence and lift from the returns."""
    index = {t: j for j, t in enumerate(tickers)}
    up = returns > g.move_threshold
    down = returns < -g.move_threshold

    def support(items) -> float:
        hit = np.ones(returns.shape[0], dtype=bool)
        for j, direction in items:
            hit &= up[:, j] if direction == "UP" else down[:, j]
        return float(hit.mean())

    for antecedent, consequent, supp, conf, lift in rules:
        a = _parse_items(antecedent, index)
        b = _parse_items(consequent, index)
        s_ab, s_a, s_b = support(a + b), support(a), support(b)
        what = f"rule {antecedent} -> {consequent}"
        close_to(float(supp), s_ab, 1e-12, f"{what} support")
        close_to(float(conf), s_ab / s_a, 1e-9, f"{what} confidence")
        close_to(float(lift), s_ab / s_a / s_b, 1e-9, f"{what} lift")
        require(s_ab >= g.min_support and s_ab / s_a >= g.min_confidence
                and s_ab / s_a / s_b > g.min_lift, f"{what} below the mining thresholds")


def check_edges(edges, rules, tickers, returns, g: GraphConfig) -> None:
    """corr/both edges are the pairs whose |np.corrcoef| exceeds the threshold;
    assoc/both edges are the cross pairs of the listed rules."""
    rho = np.abs(np.corrcoef(returns, rowvar=False))
    n = len(tickers)
    index = {t: j for j, t in enumerate(tickers)}
    corr_pairs = {tuple(sorted((tickers[i], tickers[j])))
                  for i in range(n) for j in range(i + 1, n) if rho[i, j] > g.corr_threshold}
    rule_weight: dict[tuple[str, str], float] = {}
    for antecedent, consequent, _, _, lift in rules:
        weight = min(1.0, float(lift) / g.lift_cap)
        for ta in {p.split(":")[0] for p in antecedent.split("|")}:
            for tb in {p.split(":")[0] for p in consequent.split("|")}:
                if ta != tb:
                    key = tuple(sorted((ta, tb)))
                    rule_weight[key] = max(rule_weight.get(key, 0.0), weight)

    got_corr = {(a, b) for a, b, _, prov in edges if prov in ("corr", "both")}
    got_assoc = {(a, b) for a, b, _, prov in edges if prov in ("assoc", "both")}
    require(got_corr == corr_pairs, f"corr edges differ: {sorted(got_corr ^ corr_pairs)[:5]}")
    require(got_assoc == set(rule_weight), f"assoc edges differ: {sorted(got_assoc ^ set(rule_weight))[:5]}")
    for a, b, weight, prov in edges:
        want = max(rho[index[a], index[b]] if prov != "assoc" else 0.0,
                   rule_weight.get((a, b), 0.0))
        close_to(float(weight), float(want), 1e-9, f"edge {a}-{b} weight")


WORKLOADS = {
    "hybrid_default": HybridDefault,
    "graph_cli": GraphCli,
}
