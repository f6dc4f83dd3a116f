import csv
import json
import re
import sys
from pathlib import Path

import pytest

from stockcast import market_data, relation_graph
from stockcast.cli import main
from stockcast.config import EPOCH_BOUNDS, RunConfig, load_config
from stockcast.errors import ConfigError
from stockcast.synthetic import lead_lag_panel, random_walk_panel


def write_panel_csvs(panel, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for j, ticker in enumerate(panel.tickers):
        lines = ["date,open,high,low,close,adj_close,volume"]
        for t, day in enumerate(panel.dates):
            close = float(panel.close[t, j])
            lines.append(
                f"{day.isoformat()},{close!r},{close * 1.01!r},{close * 0.99!r},"
                f"{close!r},{close!r},1000"
            )
        (directory / f"{ticker}.csv").write_text("\n".join(lines) + "\n")


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture
def data_dir(tmp_path):
    panel = random_walk_panel(3, 60, seed=21)
    directory = tmp_path / "data"
    write_panel_csvs(panel, directory)
    return directory


def count_calls(monkeypatch, fn):
    """Put a counting spy in place of `fn` in every loaded stockcast module
    that binds it; returns the list of positional arguments of each call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stockcast" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, spy)
    return calls


# one bad value for each key whose range check lives in TrainConfig or
# ModelSpec, plus two keys RunConfig checks itself
BAD_VALUES = [
    ("hidden_size", "0"),
    ("lstm_layers", "0"),
    ("gcn_hidden", "0"),
    ("gcn_out", "0"),
    ("cnn_channels", "0"),
    ("cnn_kernel", "0"),
    ("lookback", "0"),
    ("patience", "0"),
    ("fusion_hidden", "0"),
    ("dense_hidden", "4,0"),
    ("learning_rate", "0"),
    ("dropout", "1.0"),
    ("val_fraction", "1.0"),
    ("min_delta", "-0.001"),
    ("models", "hybrid,svm"),
    ("corr_threshold", "1.5"),
    ("batch_size", "-1"),
]


def base_args(data_dir, out_dir, tickers="S00,S01,S02"):
    return [
        "--set", f"data_dir={data_dir}",
        "--set", f"tickers={tickers}",
        "--out", str(out_dir),
    ]


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = load_config()
        assert cfg.learning_rate == 0.005
        assert cfg.lookback == 11
        assert cfg.epochs == 40
        assert cfg.base_train_days == 504
        assert cfg.test_count == 50

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"learning_rte": 0.01}))
        with pytest.raises(ConfigError, match="learning_rte"):
            load_config(path)

    def test_file_then_flag_precedence(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lookback": 21, "seed": 5}))
        cfg = load_config(path, {"lookback": "7"})
        assert cfg.lookback == 7
        assert cfg.seed == 5

    def test_named_field_diagnostics(self):
        lo, hi = EPOCH_BOUNDS
        for key, value in [*BAD_VALUES, ("epochs", str(hi + 1)), ("epochs", str(lo - 1))]:
            with pytest.raises(ConfigError) as info:
                load_config(None, {key: value})
            assert str(info.value).startswith(f"{key}: "), (key, value, str(info.value))
        # the configured bound is reported even where TrainConfig's own check would fail
        with pytest.raises(ConfigError, match=re.escape(f"epochs: must be in [{lo}, {hi}]")):
            load_config(None, {"epochs": "0"})

    def test_list_coercion(self):
        cfg = load_config(None, {"grid_learning_rates": "0.1,0.2", "fusion_hidden": "8,4"})
        assert cfg.grid_learning_rates == [0.1, 0.2]
        assert cfg.fusion_hidden == [8, 4]

    def test_bool_coercion(self):
        assert load_config(None, {"warm_start": "true"}).warm_start is True
        assert load_config(None, {"warm_start": "0"}).warm_start is False
        with pytest.raises(ConfigError, match="warm_start"):
            load_config(None, {"warm_start": "maybe"})

    def test_model_spec_round_trip(self):
        cfg = RunConfig()
        spec = cfg.to_model_spec("hybrid")
        assert spec.kind == "hybrid"
        assert spec.train.learning_rate == cfg.learning_rate
        assert spec.train.batch_size is None  # 0 means full batch


class TestIngest:
    def test_outputs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["ingest", *base_args(data_dir, out)])
        assert code == 0
        summary = read_csv(out / "panel_summary.csv")
        assert summary[0] == ["ticker", "rows", "first_date", "last_date"]
        assert len(summary) == 4
        ma = read_csv(out / "ma_prices.csv")
        assert ma[0] == ["date", "ticker", "norm_close", "ma50", "ma200"]
        assert len(ma) == 1 + 3 * 60
        # 60-day panel: ma50 defined from row 50 onwards, ma200 never
        first_stock = ma[1:61]
        assert all(row[3] == "" for row in first_stock[:49])
        assert all(row[3] != "" for row in first_stock[49:])
        assert all(row[4] == "" for row in first_stock)
        assert (out / "run_manifest.txt").exists()

    def test_missing_file_names_ticker(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["ingest", *base_args(data_dir, out, tickers="S00,MISSING")])
        assert code == 3
        assert "MISSING" in capsys.readouterr().err
        assert not (out / "panel_summary.csv").exists()

    def test_each_file_parsed_once(self, data_dir, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, market_data.parse_ohlcv_csv)
        assert main(["ingest", *base_args(data_dir, tmp_path / "out")]) == 0
        assert sorted(ticker for _, ticker in calls) == ["S00", "S01", "S02"]


class TestGraph:
    def test_rules_mined_once(self, data_dir, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, relation_graph.apriori_frequent)
        assert main(["graph", *base_args(data_dir, tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_extreme_threshold_yields_no_corr_edges(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["graph", *base_args(data_dir, out), "--set", "corr_threshold=0.999"]
        )
        assert code == 0
        edges = read_csv(out / "graph_edges.csv")
        assert edges[0] == ["ticker_a", "ticker_b", "weight", "provenance"]
        corr_rows = [r for r in edges[1:] if r[3] in ("corr", "both")]
        assert corr_rows == []

    def test_rule_dump_respects_lift_threshold(self, tmp_path):
        panel = lead_lag_panel(120, seed=3)
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        out = tmp_path / "out"
        code = main(
            ["graph", *base_args(data, out, tickers=",".join(panel.tickers)),
             "--set", "min_support=0.15", "--set", "min_confidence=0.4"]
        )
        assert code == 0
        rules = read_csv(out / "assoc_rules.csv")
        assert rules[0] == ["antecedent", "consequent", "support", "confidence", "lift"]
        for row in rules[1:]:
            assert float(row[4]) > 1.7

    def test_edges_lexicographically_ordered(self, tmp_path):
        panel = lead_lag_panel(120, seed=4)
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        out = tmp_path / "out"
        assert main(["graph", *base_args(data, out, tickers=",".join(panel.tickers))]) == 0
        edges = read_csv(out / "graph_edges.csv")[1:]
        for a, b, _, _ in edges:
            assert a < b
        pairs = [(a, b) for a, b, _, _ in edges]
        assert pairs == sorted(pairs)


def backtest_args(data_dir, out):
    return [
        "backtest", *base_args(data_dir, out),
        "--set", "models=linreg",
        "--set", "lookback=3",
        "--set", "base_train_days=30",
        "--set", "test_count=5",
        "--set", "epochs=10",
    ]


class TestBacktest:
    def test_outputs_and_row_counts(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(backtest_args(data_dir, out)) == 0
        per_day = read_csv(out / "per_day_mse.csv")
        assert per_day[0] == ["date", "mse"]
        assert len(per_day) == 6
        per_stock = read_csv(out / "per_stock_mse.csv")
        assert per_stock[0] == ["ticker", "model", "mse"]
        assert len(per_stock) == 4
        comparison = read_csv(out / "model_comparison.csv")
        assert comparison[0] == ["model", "mean_mse"]
        assert comparison[1][0] == "linreg"

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        out = tmp_path / "out"
        main(backtest_args(data_dir, out))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(backtest_args(data_dir, out))
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_invalid_learning_rate_rejected_before_work(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([*backtest_args(data_dir, out), "--set", "learning_rate=0"])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_compare_mode_writes_all_models(self, data_dir, tmp_path):
        out = tmp_path / "out"
        args = [a if a != "models=linreg" else "models=linreg,dense" for a in
                backtest_args(data_dir, out)]
        args += ["--set", "dense_hidden=4", "--set", "dropout=0.0"]
        assert main(args) == 0
        comparison = read_csv(out / "model_comparison.csv")
        assert [row[0] for row in comparison[1:]] == ["linreg", "dense"]
        per_stock = read_csv(out / "per_stock_mse.csv")
        assert len(per_stock) == 1 + 3 * 2


class TestGridsearch:
    def test_ranked_output(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main([
            "gridsearch", *base_args(data_dir, out),
            "--set", "models=linreg",
            "--set", "base_train_days=30",
            "--set", "test_count=3",
            "--set", "grid_learning_rates=0.005",
            "--set", "grid_lookbacks=2,4",
            "--set", "grid_epochs=10",
        ])
        assert code == 0
        rows = read_csv(out / "grid_results.csv")
        assert rows[0] == ["lr", "lookback", "epochs", "mean_mse", "rank", "status"]
        assert len(rows) == 3
        assert rows[1][4] == "1"
        values = [float(r[3]) for r in rows[1:] if r[3] != ""]
        assert values == sorted(values)

    def test_unknown_set_key(self, data_dir, tmp_path, capsys):
        code = main(["gridsearch", *base_args(data_dir, tmp_path / "o"),
                     "--set", "nope=1"])
        assert code == 2
        assert "nope" in capsys.readouterr().err


class TestManifest:
    def test_manifest_repeats_resolved_config(self, data_dir, tmp_path):
        out = tmp_path / "out"
        main(["ingest", *base_args(data_dir, out), "--seed", "99"])
        text = (out / "run_manifest.txt").read_text()
        assert "artifact=stockcast 0.1.0" in text
        assert "command=ingest" in text
        assert "seed=99" in text
        assert f'"{data_dir}"' in text
