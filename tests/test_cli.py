import csv
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from stockcast import market_data, relation_graph
from stockcast.cli import main
from stockcast.config import EPOCH_BOUNDS, RunConfig, load_config
from stockcast.errors import ConfigError
from stockcast.models import MODEL_KINDS, ModelSpec, TrainConfig
from stockcast.relation_graph import GraphConfig
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


# one bad value for each key whose range check lives in TrainConfig,
# ModelSpec or GraphConfig, plus keys RunConfig checks itself
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
    ("learning_rate", "nan"),
    ("dropout", "1.0"),
    ("val_fraction", "1.0"),
    ("min_delta", "-0.001"),
    ("min_delta", "nan"),
    ("models", "hybrid,svm"),
    ("corr_threshold", "1.5"),
    ("min_support", "0"),
    ("min_confidence", "5"),
    ("min_lift", "-1"),
    ("move_threshold", "-0.001"),
    ("lift_cap", "0"),
    ("batch_size", "-1"),
    ("tickers", "S00"),
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
        cfg = load_config(None, {"grid_learning_rates": "0.1,0.2", "fusion_hidden": "8,4",
                                 "models": "hybrid,lstm"})
        assert cfg.grid_learning_rates == [0.1, 0.2]
        assert cfg.fusion_hidden == [8, 4]
        assert cfg.models == ["hybrid", "lstm"]

    def test_int_keys_refuse_non_integral_numbers(self, tmp_path, data_dir, capsys):
        for raw in ({"lookback": 7.9}, {"fusion_hidden": [8.5]}, {"grid_epochs": [10.7]},
                    {"seed": True}, {"grid_lookbacks": [11, False]}, {"hidden_size": "inf"}):
            key = next(iter(raw))
            with pytest.raises(ConfigError, match=f"^{key}: cannot parse"):
                load_config(None, raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": 40.5}))
        assert main(["ingest", *base_args(data_dir, tmp_path / "out"), "--config", str(path)]) == 2
        assert "epochs: cannot parse" in capsys.readouterr().err
        cfg = load_config(None, {"lookback": 7.0, "seed": "7", "fusion_hidden": [8.0, 4],
                                 "grid_epochs": ["10", 20.0]})
        assert (cfg.lookback, cfg.seed) == (7, 7)
        assert (cfg.fusion_hidden, cfg.grid_epochs) == ([8, 4], [10, 20])
        assert all(type(v) is int for v in (cfg.lookback, *cfg.fusion_hidden, *cfg.grid_epochs))

    def test_end_date_before_start_date_rejected(self):
        with pytest.raises(ConfigError, match="^end_date: "):
            load_config(None, {"start_date": "2020-02-01", "end_date": "2020-01-31"})
        load_config(None, {"start_date": "2020-02-01", "end_date": "2020-02-01"})

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
        assert spec.train.batch_size == 0  # 0 means full batch

    def test_spec_fields_are_keys_with_library_defaults(self):
        # the to_* methods read every spec field from the key of the same name
        for cls in (GraphConfig, TrainConfig, ModelSpec):
            for f in dataclasses.fields(cls):
                if f.name not in ("kind", "train"):
                    assert f.name in RunConfig.__dataclass_fields__, (cls.__name__, f.name)
        assert RunConfig().to_graph_config() == GraphConfig()
        for kind in MODEL_KINDS:
            assert RunConfig().to_model_spec(kind) == ModelSpec(kind)


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

    def test_one_sided_range_past_the_panel_is_a_data_error(self, data_dir, tmp_path, capsys):
        for bound in ("start_date=2030-01-01", "end_date=1990-01-01"):
            code = main(["ingest", *base_args(data_dir, tmp_path / "out"), "--set", bound])
            assert code == 3, bound
            assert "date range excludes every panel day" in capsys.readouterr().err

    def test_one_day_window_names_the_short_panel(self, data_dir, tmp_path, capsys):
        last_day = random_walk_panel(3, 60, seed=21).dates[-1].isoformat()
        for command in ("ingest", "graph"):
            out = tmp_path / command
            code = main([command, *base_args(data_dir, out), "--set", f"start_date={last_day}"])
            assert code == 3, command
            assert "need >= 2 dates, panel has 1" in capsys.readouterr().err, command
            assert not out.exists(), command

    def test_out_dir_that_cannot_be_a_directory_is_refused_before_work(self, data_dir, tmp_path,
                                                                       capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("keep me\n")
        calls = count_calls(monkeypatch, market_data.parse_ohlcv_csv)
        for out in (afile, afile / "x"):
            assert main(["ingest", *base_args(data_dir, out)]) == 2, out
            err = capsys.readouterr().err
            assert err.startswith("config error: out_dir:") and str(afile) in err, err
        assert calls == []
        assert afile.read_text() == "keep me\n"

    def test_each_file_parsed_once(self, data_dir, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, market_data.parse_ohlcv_csv)
        assert main(["ingest", *base_args(data_dir, tmp_path / "out")]) == 0
        assert sorted(ticker for _, ticker in calls) == ["S00", "S01", "S02"]

    def test_constant_closes_write_nothing(self, tmp_path, capsys):
        panel = random_walk_panel(3, 60, seed=21)
        panel.close[:, 1] = 50.0
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        out = tmp_path / "out"
        code = main(["ingest", *base_args(data, out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "constant closes" in err and "S01" in err
        assert not out.exists()


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
        assert not out.exists()

    def test_cnn_lookback_below_kernel_rejected_before_work(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        args = [a if a != "models=linreg" else "models=cnn1d" for a in
                backtest_args(data_dir, out)]
        code = main([*args, "--set", "lookback=2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: lookback: ")
        assert not out.exists()

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

    def short_hybrid_args(self, tmp_path, test_count):
        # step 0's 3-day window leaves 2 return days, too few for the graph
        panel = lead_lag_panel(20, seed=3)
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        return ["backtest", *base_args(data, tmp_path / "out", tickers=",".join(panel.tickers)),
                "--set", "models=hybrid", "--set", "base_train_days=3",
                "--set", "lookback=1", "--set", f"test_count={test_count}"]

    def test_failed_step_is_excluded_and_run_goes_on(self, tmp_path):
        assert main(self.short_hybrid_args(tmp_path, 2)) == 0
        out = tmp_path / "out"
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert 'excluded_steps={"hybrid": 1}' in manifest
        assert len(read_csv(out / "per_day_mse.csv")) == 1 + 1

    def test_no_step_scored_is_a_data_error(self, tmp_path, capsys):
        assert main(self.short_hybrid_args(tmp_path, 1)) == 3
        assert "data error: need >= 3 return days, got 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "per_day_mse.csv").exists()

    def test_panel_shorter_than_the_plan_is_a_data_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["backtest", *base_args(data_dir, out)]) == 3
        assert "error: panel has 60 dates, need 554" in capsys.readouterr().err
        assert not out.exists()

    def test_every_step_diverged_is_a_training_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        args = [a if a != "models=linreg" else "models=dense" for a in
                backtest_args(data_dir, out)]
        args += ["--set", "dense_hidden=4", "--set", "learning_rate=1e200"]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(args)
        assert code == 4
        assert "training error:" in capsys.readouterr().err
        assert not (out / "per_day_mse.csv").exists()


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
        assert rows[0] == ["lr", "lookback", "epochs", "mean_mse", "rank", "status", "reason"]
        assert len(rows) == 3
        assert rows[1][4] == "1"
        values = [float(r[3]) for r in rows[1:] if r[3] != ""]
        assert values == sorted(values)

    def short_grid_args(self, tmp_path):
        panel = lead_lag_panel(60, seed=3)
        data = tmp_path / "data"
        write_panel_csvs(panel, data)
        return ["gridsearch", *base_args(data, tmp_path / "out", tickers=",".join(panel.tickers)),
                "--set", "models=linreg", "--set", "base_train_days=3", "--set", "lookback=1"]

    def test_cell_with_a_too_short_step_fails(self, tmp_path):
        # step 0's 3-day window leaves linreg 2 samples, too few to fit, so
        # every cell fails; a cell must not rank on the later days alone
        out = tmp_path / "out"
        code = main([*self.short_grid_args(tmp_path), "--set", "grid_lookbacks=1"])
        assert code == 0
        rows = read_csv(out / "grid_results.csv")
        assert len(rows) == 1 + 15
        assert {(r[3], r[5]) for r in rows[1:]} == {("", "failed")}
        reason = "linreg needs more than lookback + 1 = 2 samples, got 2"
        assert {r[6] for r in rows[1:]} == {reason}
        assert "best=null" in (out / "run_manifest.txt").read_text().splitlines()

    def test_grid_lookback_past_the_base_window_is_a_config_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        args = self.short_grid_args(tmp_path)
        calls = count_calls(monkeypatch, market_data.parse_ohlcv_csv)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(
            "config error: grid_lookbacks: base_train_days 3 must exceed lookback + 1 for [11, 21]")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_more_than_one_model_is_a_config_error(self, data_dir, tmp_path, capsys,
                                                   monkeypatch):
        calls = count_calls(monkeypatch, market_data.parse_ohlcv_csv)
        out = tmp_path / "out"
        code = main(["gridsearch", *base_args(data_dir, out), "--set", "models=linreg,dense"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: models:")
        assert not out.exists()
        assert calls == []  # refused before any data was read

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
