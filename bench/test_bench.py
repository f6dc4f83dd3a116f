"""Smoke tests of the benchmark's own code at tiny sizes; they run in seconds:

    python3 -m pytest -q bench/test_bench.py
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from stockcast import backtest, cli, models  # noqa: E402
from stockcast.models import ModelSpec  # noqa: E402
from stockcast.relation_graph import GraphConfig  # noqa: E402
from stockcast.synthetic import lead_lag_panel  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CheckFailed,
    GraphCli,
    HybridDefault,
    fixed_epochs,
    reference_mse,
    step_slices,
)

TINY = {
    "hybrid_default": HybridDefault(n_days=90, base=60, test_count=10, steps=1,
                                    train=fixed_epochs(2)),
    "graph_cli": GraphCli(n_days=260, n_clusters=2),
}


def rewrite(path: Path, row: int, col: int, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_is_correct(name, tmp_path):
    result = run.measure(TINY[name], seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_add_up_to_wall(name, tmp_path):
    result = run.measure(TINY[name], seed=4, seconds=0, trace=True, workdir=tmp_path,
                         trace_path=tmp_path / "trace.csv")
    assert result["correct"] and result["failed"] == 0
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(values) == list(run.PER_LAYER)
    layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"],
                                                                     rel=1e-9)
    assert (tmp_path / "trace.csv").read_text().startswith("index,name,label")
    if name == "graph_cli":
        assert values["relation_graph.apriori_calls"] == 2
    else:
        assert values["backtest.steps"] == 1 and values["autodiff.tape_nodes"] > 0
        assert values["models.epochs.hybrid"] == 2  # early stopping is off


def test_fixed_epochs_never_stop_early():
    cfg = fixed_epochs(10)
    stopper = models.EarlyStopper(cfg.patience, cfg.min_delta)
    # the worst case: every epoch after the first is worse than the one before
    assert not any(stopper.update(loss)[1] for loss in range(1, cfg.epochs + 1))


def test_tracer_restores_every_function():
    before = (backtest.train, models.backward, cli.apriori_frequent, cli.COMMANDS["graph"])
    with Tracer():
        assert backtest.train is not before[0]
        assert models.backward is not before[1]
        assert cli.COMMANDS["graph"] is not before[3]
    assert (backtest.train, models.backward, cli.apriori_frequent,
            cli.COMMANDS["graph"]) == before


def setup_and_pass(name, tmp_path):
    workload = TINY[name]
    state = workload.setup(5, tmp_path)
    return workload, state, workload.run_pass(state)


def test_linreg_reference_matches_the_program():
    w = TINY["hybrid_default"]
    panel = lead_lag_panel(w.n_days, 6)
    plan = backtest.expanding_schedule(panel.dates, w.base, w.test_count)
    report = backtest.run_backtest(ModelSpec("linreg"), panel, GraphConfig(), plan)
    slices = step_slices(w.n_days, w.base, w.test_count, w.test_count)
    refs = reference_mse(panel.close, slices, lookback=11)
    assert refs["backtest.mse_ref.linreg"] == pytest.approx(report.summary_mse, rel=1e-6)


def test_hybrid_check_catches_wrong_summary(tmp_path):
    workload, state, p = setup_and_pass("hybrid_default", tmp_path)
    workload.check(state, p)
    p.outputs["report"].summary_mse *= 1.001
    with pytest.raises(CheckFailed, match="summary"):
        workload.check(state, p)


@pytest.mark.parametrize("file, row, col, value, match", [
    ("ingest/ma_prices.csv", 300, 3, "0.5", "ma50"),
    ("ingest/ma_prices.csv", 5, 2, "0.5", "norm_close"),
    ("graph/assoc_rules.csv", 1, 4, "9.0", "lift"),
    ("graph/assoc_rules.csv", 1, 2, "0.9", "support"),
    ("graph/graph_edges.csv", 1, 3, "none", "edges differ"),
])
def test_graph_check_catches_wrong_output(tmp_path, file, row, col, value, match):
    workload, state, p = setup_and_pass("graph_cli", tmp_path)
    workload.check(state, p)
    rewrite(state["workdir"] / file, row, col, value)
    with pytest.raises(CheckFailed, match=match):
        workload.check(state, p)


def test_passes_with_different_outputs_are_not_correct(tmp_path):
    workload, state, p = setup_and_pass("graph_cli", tmp_path)
    q = workload.run_pass(state)
    assert run._check(workload, state, [p, q])[1] is None
    q.fingerprint = "changed"
    assert "differ between passes" in run._check(workload, state, [p, q])[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
