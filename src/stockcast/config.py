"""Run configuration: one flat, fully defaulted key-value namespace.

Values resolve in three layers: built-in defaults, then an optional JSON
config file, then command-line overrides. Unknown keys are rejected at
every layer and the resolved configuration is echoed into each run's
manifest so any experiment can be replayed exactly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError
from .models import ModelSpec, TrainConfig
from .relation_graph import GraphConfig

DEFAULT_TICKERS = [
    "AAPL", "MSFT", "CMCSA", "COST", "QCOM",
    "ADBE", "SBUX", "INTU", "AMD", "INTC",
]

# documented bounds on the training epoch cap accepted via configuration
EPOCH_BOUNDS = (10, 50)

ARTIFACT_VERSION = "stockcast 0.1.0"


@dataclass
class RunConfig:
    # data
    data_dir: str = "data"
    tickers: list[str] = field(default_factory=lambda: list(DEFAULT_TICKERS))
    start_date: str = ""  # optional ISO date; empty means panel start
    end_date: str = ""
    # graph
    corr_threshold: float = 0.7
    min_support: float = 0.30
    min_confidence: float = 0.60
    min_lift: float = 1.7
    move_threshold: float = 0.001
    lift_cap: float = 3.0
    # models
    models: list[str] = field(default_factory=lambda: ["hybrid"])
    hidden_size: int = 32
    lstm_layers: int = 2
    gcn_hidden: int = 32
    gcn_out: int = 16
    fusion_hidden: list[int] = field(default_factory=lambda: [32])
    dense_hidden: list[int] = field(default_factory=lambda: [32, 32])
    cnn_channels: int = 16
    cnn_kernel: int = 3
    # training
    learning_rate: float = 0.005
    lookback: int = 11
    epochs: int = 40
    batch_size: int = 0  # 0 means full batch
    dropout: float = 0.5
    patience: int = 5
    min_delta: float = 1e-6
    val_fraction: float = 0.1
    warm_start: bool = False  # carry parameters across backtest steps
    # backtest plan
    base_train_days: int = 504
    test_count: int = 50
    # grid search
    grid_learning_rates: list[float] = field(default_factory=lambda: [0.001, 0.005, 0.01])
    grid_lookbacks: list[int] = field(default_factory=lambda: [11, 21])
    grid_epochs: list[int] = field(default_factory=lambda: [10, 20, 30, 40, 50])
    # run
    out_dir: str = "out"
    seed: int = 0

    def to_graph_config(self) -> GraphConfig:
        return GraphConfig(
            corr_threshold=self.corr_threshold,
            min_support=self.min_support,
            min_confidence=self.min_confidence,
            min_lift=self.min_lift,
            move_threshold=self.move_threshold,
            lift_cap=self.lift_cap,
        )

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            lookback=self.lookback,
            epochs=self.epochs,
            batch_size=self.batch_size or None,
            dropout=self.dropout,
            patience=self.patience,
            min_delta=self.min_delta,
            val_fraction=self.val_fraction,
            seed=self.seed,
        )

    def to_model_spec(self, kind: str) -> ModelSpec:
        return ModelSpec(
            kind=kind,
            hidden_size=self.hidden_size,
            lstm_layers=self.lstm_layers,
            gcn_hidden=self.gcn_hidden,
            gcn_out=self.gcn_out,
            fusion_hidden=tuple(self.fusion_hidden),
            dense_hidden=tuple(self.dense_hidden),
            cnn_channels=self.cnn_channels,
            cnn_kernel=self.cnn_kernel,
            train=self.to_train_config(),
        )


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _check(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{name}: {message}")


def validate_config(cfg: RunConfig) -> None:
    """Total validation with a named-field diagnostic on the first failure.

    Model and training ranges are checked once, by building the ModelSpec of
    every configured kind; only keys that exist in RunConfig alone are
    checked here.
    """
    _check(bool(cfg.tickers), "tickers", "must not be empty")
    _check(len(set(cfg.tickers)) == len(cfg.tickers), "tickers", "contains duplicates")
    for name in ("start_date", "end_date"):
        value = getattr(cfg, name)
        if value:
            try:
                date.fromisoformat(value)
            except ValueError:
                raise ConfigError(f"{name}: not an ISO date: {value!r}") from None
    _check(0.0 < cfg.corr_threshold < 1.0, "corr_threshold", "must be in (0, 1)")
    _check(0.0 < cfg.min_support <= 1.0, "min_support", "must be in (0, 1]")
    _check(0.0 < cfg.min_confidence <= 1.0, "min_confidence", "must be in (0, 1]")
    _check(cfg.min_lift > 0.0, "min_lift", "must be > 0")
    _check(cfg.move_threshold >= 0.0, "move_threshold", "must be >= 0")
    _check(cfg.lift_cap > 0.0, "lift_cap", "must be > 0")
    _check(bool(cfg.models), "models", "must not be empty")
    _check(cfg.batch_size >= 0, "batch_size", "must be >= 0 (0 = full batch)")
    lo, hi = EPOCH_BOUNDS
    _check(lo <= cfg.epochs <= hi, "epochs", f"must be in [{lo}, {hi}]")
    for kind in cfg.models:
        try:
            cfg.to_model_spec(kind)
        except ValueError as exc:
            # the dataclasses open their messages with the field name, which is
            # also the RunConfig key; only the model kind is named differently
            key, _, rest = str(exc).partition(" ")
            if key not in _FIELDS:
                key, rest = "models", str(exc)
            raise ConfigError(f"{key}: {rest}") from None
    _check(cfg.base_train_days >= 2, "base_train_days", "must be >= 2")
    _check(cfg.test_count >= 1, "test_count", "must be >= 1")
    _check(cfg.base_train_days > cfg.lookback + 1, "base_train_days",
           "must exceed lookback + 1 so training windows exist")
    _check(bool(cfg.grid_learning_rates), "grid_learning_rates", "must not be empty")
    _check(all(v > 0 for v in cfg.grid_learning_rates), "grid_learning_rates", "must be > 0")
    _check(bool(cfg.grid_lookbacks), "grid_lookbacks", "must not be empty")
    _check(all(v >= 1 for v in cfg.grid_lookbacks), "grid_lookbacks", "must be >= 1")
    _check(bool(cfg.grid_epochs), "grid_epochs", "must not be empty")
    _check(all(lo <= v <= hi for v in cfg.grid_epochs), "grid_epochs",
           f"every cap must be in [{lo}, {hi}]")
    _check(cfg.seed >= 0, "seed", "must be >= 0")


_LIST_STR = {"tickers", "models"}
_LIST_INT = {"fusion_hidden", "dense_hidden", "grid_lookbacks", "grid_epochs"}
_LIST_FLOAT = {"grid_learning_rates"}
_DEFAULTS = RunConfig()


def _coerce(name: str, value: Any) -> Any:
    """Coerce a raw (file or flag) value to the field's declared type.

    Command-line list values arrive as comma-separated strings.
    """
    try:
        if name in _LIST_STR or name in _LIST_INT or name in _LIST_FLOAT:
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            if name in _LIST_STR:
                return [str(v) for v in value]
            cast = int if name in _LIST_INT else float
            return [cast(v) for v in value]
        default = getattr(_DEFAULTS, name)
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            lowered = str(value).strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError("expected a boolean")
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: cannot parse {value!r} ({exc})") from None


def _apply(cfg: RunConfig, updates: Mapping[str, Any], source: str) -> None:
    for name, value in updates.items():
        if name not in _FIELDS:
            raise ConfigError(f"{name}: unknown configuration key (from {source})")
        setattr(cfg, name, _coerce(name, value))


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, Any] | None = None
) -> RunConfig:
    """Defaults, then the JSON file at `path`, then `overrides`; validated."""
    cfg = RunConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file: top level must be an object")
        _apply(cfg, raw, f"file {path}")
    if overrides:
        _apply(cfg, overrides, "command line")
    validate_config(cfg)
    return cfg


def manifest_lines(cfg: RunConfig, command: str, extra: Mapping[str, Any] | None = None) -> list[str]:
    """Deterministic manifest: artifact version, command, resolved config."""
    lines = [f"artifact={ARTIFACT_VERSION}", f"command={command}"]
    for name in sorted(_FIELDS):
        lines.append(f"{name}={json.dumps(getattr(cfg, name))}")
    for key in sorted(extra or {}):
        lines.append(f"{key}={json.dumps(extra[key])}")
    return lines
