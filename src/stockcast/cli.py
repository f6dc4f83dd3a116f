"""Command-line pipeline: ingest, graph, backtest, gridsearch.

Every subcommand resolves one RunConfig (defaults < config file < --set
overrides), validates it before touching any data, and writes plain CSV
tables plus a run manifest into the output directory. Reruns with the same
config and seed overwrite the outputs with byte-identical content.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

from .backtest import (
    BacktestReport,
    GridSpace,
    compare_models,
    expanding_schedule,
    grid_search,
    run_backtest,
)
from .config import RunConfig, load_config, manifest_lines
from .errors import ConfigError, DataFileError, MarketDataError, ModelError, StockcastError
from .market_data import (
    DateRange,
    PricePanel,
    RawSeries,
    align_panel,
    daily_returns,
    moving_average,
    parse_ohlcv_csv,
)
# apriori_frequent has no caller here; bench/test_bench.py reads cli.apriori_frequent
# to check that its tracer restores a function bound by name in another module
from .relation_graph import apriori_frequent, build_graph, edge_records  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4

MA_SHORT = 50
MA_LONG = 200


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, cfg: RunConfig, command: str, extra=None) -> None:
    text = "\n".join(manifest_lines(cfg, command, extra)) + "\n"
    (out_dir / "run_manifest.txt").write_text(text)


def _load_inputs(cfg: RunConfig) -> tuple[list[RawSeries], PricePanel]:
    """Parse each ticker file once; returns the raw series and their aligned
    panel, restricted to the configured dates."""
    series = []
    for ticker in cfg.tickers:
        path = Path(cfg.data_dir) / f"{ticker}.csv"
        if not path.is_file():
            raise DataFileError(f"{ticker}: no data file at {path}")
        series.append(parse_ohlcv_csv(path.read_bytes(), ticker))
    panel = align_panel(series)
    if cfg.start_date or cfg.end_date:
        start = date.fromisoformat(cfg.start_date) if cfg.start_date else panel.dates[0]
        end = date.fromisoformat(cfg.end_date) if cfg.end_date else panel.dates[-1]
        panel = panel.window(DateRange(start, end))
    if panel.n_days == 0:
        raise DataFileError("date range excludes every panel day")
    return series, panel


def cmd_ingest(cfg: RunConfig, out_dir: Path) -> None:
    series, panel = _load_inputs(cfg)

    _write_csv(
        out_dir / "panel_summary.csv",
        ("ticker", "rows", "first_date", "last_date"),
        [
            (s.ticker, len(s.rows), s.rows[0].date.isoformat(), s.rows[-1].date.isoformat())
            for s in series
        ],
    )

    rows = []
    for j, ticker in enumerate(panel.tickers):
        closes = panel.close[:, j]
        lo, hi = closes.min(), closes.max()
        if hi <= lo:
            raise DataFileError(f"{ticker}: constant closes, cannot normalize")
        norm = (closes - lo) / (hi - lo)
        ma50 = moving_average(norm, MA_SHORT)
        ma200 = moving_average(norm, MA_LONG)
        for t, day in enumerate(panel.dates):
            rows.append(
                (
                    day.isoformat(),
                    ticker,
                    _fmt(norm[t]),
                    _fmt(ma50[t]) if t >= MA_SHORT - 1 else "",
                    _fmt(ma200[t]) if t >= MA_LONG - 1 else "",
                )
            )
    _write_csv(out_dir / "ma_prices.csv", ("date", "ticker", "norm_close", "ma50", "ma200"), rows)
    _write_manifest(out_dir, cfg, "ingest", {"panel_days": panel.n_days})


def _items_label(items) -> str:
    return "|".join(f"{ticker}:{direction}" for ticker, direction in sorted(items))


def cmd_graph(cfg: RunConfig, out_dir: Path) -> None:
    _, panel = _load_inputs(cfg)
    graph = build_graph(daily_returns(panel), cfg.to_graph_config())

    _write_csv(
        out_dir / "graph_edges.csv",
        ("ticker_a", "ticker_b", "weight", "provenance"),
        [(a, b, _fmt(w), p) for a, b, w, p in edge_records(graph)],
    )
    _write_csv(
        out_dir / "assoc_rules.csv",
        ("antecedent", "consequent", "support", "confidence", "lift"),
        [
            (
                _items_label(r.antecedent),
                _items_label(r.consequent),
                _fmt(r.support),
                _fmt(r.confidence),
                _fmt(r.lift),
            )
            for r in graph.rules.rules
        ],
    )
    _write_manifest(
        out_dir,
        cfg,
        "graph",
        {
            "n_corr_edges": sum("corr" in e.sources for e in graph.edges.values()),
            "n_rules": len(graph.rules.rules),
            "n_edges": len(graph.edges),
        },
    )


def _write_backtest_outputs(
    out_dir: Path, results: list[tuple[str, BacktestReport]]
) -> None:
    primary = results[0][1]
    _write_csv(
        out_dir / "per_day_mse.csv",
        ("date", "mse"),
        [(day.isoformat(), _fmt(value)) for day, value in primary.per_day],
    )
    stock_rows = []
    for kind, report in results:
        for ticker, value in report.per_stock:
            stock_rows.append((ticker, kind, _fmt(value)))
    _write_csv(out_dir / "per_stock_mse.csv", ("ticker", "model", "mse"), stock_rows)
    _write_csv(
        out_dir / "model_comparison.csv",
        ("model", "mean_mse"),
        [(kind, _fmt(report.summary_mse)) for kind, report in results],
    )


def cmd_backtest(cfg: RunConfig, out_dir: Path) -> None:
    _, panel = _load_inputs(cfg)
    plan = expanding_schedule(panel.dates, cfg.base_train_days, cfg.test_count)
    graph_config = cfg.to_graph_config()
    specs = [cfg.to_model_spec(kind) for kind in cfg.models]

    if len(specs) == 1:
        results = [(
            specs[0].kind,
            run_backtest(specs[0], panel, graph_config, plan, cfg.seed,
                         warm_start=cfg.warm_start),
        )]
    else:
        pairs = compare_models(specs, panel, graph_config, plan, cfg.seed,
                               warm_start=cfg.warm_start)
        results = [(spec.kind, report) for spec, report in pairs]

    _write_backtest_outputs(out_dir, results)
    _write_manifest(
        out_dir,
        cfg,
        "backtest",
        {
            "n_steps": plan.n_steps,
            "excluded_steps": {kind: len(r.failed) for kind, r in results},
            "mean_mse": {kind: r.summary_mse for kind, r in results},
        },
    )


def cmd_gridsearch(cfg: RunConfig, out_dir: Path) -> None:
    _, panel = _load_inputs(cfg)
    plan = expanding_schedule(panel.dates, cfg.base_train_days, cfg.test_count)
    space = GridSpace(
        learning_rates=cfg.grid_learning_rates,
        lookbacks=cfg.grid_lookbacks,
        epoch_caps=cfg.grid_epochs,
        base=cfg.to_train_config(),
    )
    template = cfg.to_model_spec(cfg.models[0])
    cells = grid_search(space, template, panel, cfg.to_graph_config(), plan, cfg.seed)

    _write_csv(
        out_dir / "grid_results.csv",
        ("lr", "lookback", "epochs", "mean_mse", "rank", "status"),
        [
            (
                _fmt(c.learning_rate),
                c.lookback,
                c.epochs,
                "" if c.mean_mse is None else _fmt(c.mean_mse),
                c.rank,
                "failed" if c.failed else "ok",
            )
            for c in cells
        ],
    )
    best = next((c for c in cells if not c.failed), None)
    _write_manifest(
        out_dir,
        cfg,
        "gridsearch",
        {
            "n_cells": len(cells),
            "best": None
            if best is None
            else {"lr": best.learning_rate, "lookback": best.lookback, "epochs": best.epochs},
        },
    )


COMMANDS = {
    "ingest": cmd_ingest,
    "graph": cmd_graph,
    "backtest": cmd_backtest,
    "gridsearch": cmd_gridsearch,
}


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="stockcast",
        description="Multi-stock forecasting pipeline: data, graph, backtest, grid search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, help="run seed (overrides seed)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config field; repeatable, lists comma-separated",
        )
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    overrides: dict[str, object] = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"config error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        overrides[key.strip()] = value
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed

    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, out_dir)
    except (DataFileError, MarketDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except StockcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
