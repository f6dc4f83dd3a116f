"""Command-line pipeline: ingest, graph, backtest, gridsearch.

Every subcommand resolves one RunConfig (defaults < config file < --set
overrides), validates it before touching any data, and returns its plain
CSV tables plus the extra fields of its run manifest. `main` creates the
output directory before the command runs and writes the tables into it only
after the command has succeeded; a refused command leaves no directory it
created. Reruns with the same config and seed overwrite the outputs with
byte-identical content.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .backtest import GridSpace, compare_models, expanding_schedule, grid_search
from .config import RunConfig, load_config, manifest_lines
from .errors import (
    ConfigError, DataFileError, MarketDataError, ModelError, PanelTooShortError, StockcastError,
)
from .market_data import (
    DateRange,
    PricePanel,
    RawSeries,
    align_panel,
    daily_returns,
    fit_scaler,
    moving_average,
    parse_ohlcv_csv,
    scale,
)
# apriori_frequent has no caller here; bench/test_bench.py reads cli.apriori_frequent
# to check that its tracer restores a function bound by name in another module
from .relation_graph import apriori_frequent, build_graph  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4

MA_SHORT = 50
MA_LONG = 200

# what a command returns: {file name: (header, rows)} and its manifest extras
Outputs = tuple[dict[str, tuple[Sequence[str], list]], dict]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _fmt_column(values, first: int) -> list[str]:
    """`_fmt` of every entry from index `first` on, with "" before it."""
    return [""] * min(first, len(values)) + list(map(repr, values[first:].tolist()))


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
        # a one-sided range can lie wholly past the panel's other end
        if start > end or (panel := panel.window(DateRange(start, end))).n_days == 0:
            raise DataFileError("date range excludes every panel day")
    return series, panel


def cmd_ingest(cfg: RunConfig) -> Outputs:
    series, panel = _load_inputs(cfg)
    if panel.n_days < 2:  # one close per ticker has no range to normalize by
        raise PanelTooShortError(f"need >= 2 dates, panel has {panel.n_days}")
    norm = scale(fit_scaler(panel), panel)

    summary = [
        (s.ticker, len(s.rows), s.dates[0].isoformat(), s.dates[-1].isoformat())
        for s in series
    ]
    days = [day.isoformat() for day in panel.dates]
    rows = []
    for j, ticker in enumerate(panel.tickers):
        rows.extend(zip(
            days,
            repeat(ticker),
            _fmt_column(norm[:, j], 0),
            _fmt_column(moving_average(norm[:, j], MA_SHORT), MA_SHORT - 1),
            _fmt_column(moving_average(norm[:, j], MA_LONG), MA_LONG - 1),
        ))
    return {
        "panel_summary.csv": (("ticker", "rows", "first_date", "last_date"), summary),
        "ma_prices.csv": (("date", "ticker", "norm_close", "ma50", "ma200"), rows),
    }, {"panel_days": panel.n_days}


def _items_label(items) -> str:
    return "|".join(f"{ticker}:{direction}" for ticker, direction in sorted(items))


def cmd_graph(cfg: RunConfig) -> Outputs:
    _, panel = _load_inputs(cfg)
    graph = build_graph(daily_returns(panel), cfg.to_graph_config())
    edges = graph.edges
    rules = [
        (
            _items_label(r.antecedent),
            _items_label(r.consequent),
            _fmt(r.support),
            _fmt(r.confidence),
            _fmt(r.lift),
        )
        for r in graph.rules.rules
    ]
    return {
        "graph_edges.csv": (("ticker_a", "ticker_b", "weight", "provenance"),
                            [(a, b, _fmt(w), p) for a, b, w, p in edges]),
        "assoc_rules.csv": (("antecedent", "consequent", "support", "confidence", "lift"),
                            rules),
    }, {
        "n_corr_edges": sum(p != "assoc" for *_, p in edges),
        "n_rules": len(graph.rules.rules),
        "n_edges": len(edges),
    }


def cmd_backtest(cfg: RunConfig) -> Outputs:
    _, panel = _load_inputs(cfg)
    plan = expanding_schedule(panel.dates, cfg.base_train_days, cfg.test_count)
    specs = [cfg.to_model_spec(kind) for kind in cfg.models]
    reports = [report for _, report in
               compare_models(specs, panel, plan, cfg.seed, warm_start=cfg.warm_start)]
    for report in reports:
        if not report.per_day:  # no step scored: fail with the first step's error
            raise report.failed[0].error

    return {
        "per_day_mse.csv": (("date", "mse"),
                            [(day.isoformat(), _fmt(value)) for day, value in reports[0].per_day]),
        "per_stock_mse.csv": (("ticker", "model", "mse"),
                              [(ticker, r.kind, _fmt(value))
                               for r in reports for ticker, value in r.per_stock]),
        "model_comparison.csv": (("model", "mean_mse"),
                                 [(r.kind, _fmt(r.summary_mse)) for r in reports]),
    }, {
        "n_steps": plan.n_steps,
        "excluded_steps": {r.kind: len(r.failed) for r in reports},
        "mean_mse": {r.kind: r.summary_mse for r in reports},
    }


def cmd_gridsearch(cfg: RunConfig) -> Outputs:
    if len(cfg.models) != 1:
        raise ConfigError(f"models: gridsearch tunes one model, got {len(cfg.models)}")
    # checked here, not in validate_config: backtest never reads grid_lookbacks
    short = [lb for lb in cfg.grid_lookbacks if cfg.base_train_days <= lb + 1]
    if short:
        raise ConfigError(f"grid_lookbacks: base_train_days {cfg.base_train_days} "
                          f"must exceed lookback + 1 for {short}")
    _, panel = _load_inputs(cfg)
    plan = expanding_schedule(panel.dates, cfg.base_train_days, cfg.test_count)
    space = GridSpace(
        learning_rates=cfg.grid_learning_rates,
        lookbacks=cfg.grid_lookbacks,
        epoch_caps=cfg.grid_epochs,
    )
    template = cfg.to_model_spec(cfg.models[0])
    cells = grid_search(space, template, panel, plan, cfg.seed)
    rows = [
        (
            _fmt(c.learning_rate),
            c.lookback,
            c.epochs,
            "" if c.mean_mse is None else _fmt(c.mean_mse),
            c.rank,
            "failed" if c.failed else "ok",
            c.reason,
        )
        for c in cells
    ]
    best = next((c for c in cells if not c.failed), None)
    return {
        "grid_results.csv": (("lr", "lookback", "epochs", "mean_mse", "rank", "status", "reason"),
                             rows),
    }, {
        "n_cells": len(cells),
        "best": None
        if best is None
        else {"lr": best.learning_rate, "lookback": best.lookback, "epochs": best.epochs},
    }


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
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
    code = None
    try:
        code = _run(args.command, cfg, out_dir)
    finally:
        if code != EXIT_OK:  # a command that fails leaves no directory it made
            for path in made:
                with contextlib.suppress(OSError):
                    path.rmdir()
    return code


def _run(command: str, cfg: RunConfig, out_dir: Path) -> int:
    """Create `out_dir`, run the command, and write its outputs into the
    directory once it has succeeded; returns the exit code."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # refused before any work
        print(f"config error: out_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        tables, extra = COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFileError, MarketDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except StockcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    text = "\n".join(manifest_lines(cfg, command, extra)) + "\n"
    (out_dir / "run_manifest.txt").write_text(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
