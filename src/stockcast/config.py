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

# the library defaults of every key RunConfig shares with a spec dataclass
_GRAPH = GraphConfig()
_TRAIN = TrainConfig()
_MODEL = ModelSpec("hybrid")


@dataclass
class RunConfig:
    # data
    data_dir: str = "data"
    tickers: list[str] = field(default_factory=lambda: list(DEFAULT_TICKERS))
    start_date: str = ""  # optional ISO date; empty means panel start
    end_date: str = ""
    # graph
    corr_threshold: float = _GRAPH.corr_threshold
    min_support: float = _GRAPH.min_support
    min_confidence: float = _GRAPH.min_confidence
    min_lift: float = _GRAPH.min_lift
    move_threshold: float = _GRAPH.move_threshold
    lift_cap: float = _GRAPH.lift_cap
    # models
    models: list[str] = field(default_factory=lambda: ["hybrid"])
    hidden_size: int = _MODEL.hidden_size
    lstm_layers: int = _MODEL.lstm_layers
    gcn_hidden: int = _MODEL.gcn_hidden
    gcn_out: int = _MODEL.gcn_out
    fusion_hidden: list[int] = field(default_factory=lambda: list(_MODEL.fusion_hidden))
    dense_hidden: list[int] = field(default_factory=lambda: list(_MODEL.dense_hidden))
    cnn_channels: int = _MODEL.cnn_channels
    cnn_kernel: int = _MODEL.cnn_kernel
    # training
    learning_rate: float = _TRAIN.learning_rate
    lookback: int = _TRAIN.lookback
    epochs: int = _TRAIN.epochs
    batch_size: int = _TRAIN.batch_size
    dropout: float = _TRAIN.dropout
    patience: int = _TRAIN.patience
    min_delta: float = _TRAIN.min_delta
    val_fraction: float = _TRAIN.val_fraction
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
    seed: int = _TRAIN.seed

    def _build(self, cls, **explicit):
        """`cls` with each field not in `explicit` read from the key of the
        same name; a field with no such key raises AttributeError."""
        shared = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(cls) if f.name not in explicit}
        return cls(**shared, **explicit)

    def to_graph_config(self) -> GraphConfig:
        return self._build(GraphConfig)

    def to_model_spec(self, kind: str) -> ModelSpec:
        return self._build(ModelSpec, kind=kind, train=self._build(TrainConfig))


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _check(condition: bool, name: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{name}: {message}")


def _checked_build(build, *args):
    """`build(*args)`, its ValueError raised as a ConfigError. The spec
    dataclasses open their messages with the field name, which is also the
    RunConfig key; only the model kind is named differently."""
    try:
        return build(*args)
    except ValueError as exc:
        key, _, rest = str(exc).partition(" ")
        if key not in _FIELDS:
            key, rest = "models", str(exc)
        raise ConfigError(f"{key}: {rest}") from None


def validate_config(cfg: RunConfig) -> None:
    """Total validation with a named-field diagnostic on the first failure.

    Graph, model and training ranges are checked once, by the dataclasses
    that own them: building the GraphConfig and the ModelSpec of every
    configured kind runs their checks. Only keys that exist in RunConfig
    alone, and its tighter epoch bounds, are checked here.
    """
    _check(len(cfg.tickers) >= 2, "tickers", f"needs at least 2, got {len(cfg.tickers)}")
    _check(len(set(cfg.tickers)) == len(cfg.tickers), "tickers", "contains duplicates")
    for name in ("start_date", "end_date"):
        value = getattr(cfg, name)
        if value:
            try:
                date.fromisoformat(value)
            except ValueError:
                raise ConfigError(f"{name}: not an ISO date: {value!r}") from None
    if cfg.start_date and cfg.end_date:
        _check(date.fromisoformat(cfg.end_date) >= date.fromisoformat(cfg.start_date), "end_date",
               f"{cfg.end_date} is before start_date {cfg.start_date}")
    _checked_build(cfg.to_graph_config)
    _check(bool(cfg.models), "models", "must not be empty")
    lo, hi = EPOCH_BOUNDS
    _check(lo <= cfg.epochs <= hi, "epochs", f"must be in [{lo}, {hi}]")
    for kind in cfg.models:
        _checked_build(cfg.to_model_spec, kind)
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


_DEFAULTS = RunConfig()


def _to_int(value: Any) -> int:
    """int(value), refusing a bool and a number with a fractional part,
    which int() would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _coerce(name: str, value: Any) -> Any:
    """Coerce a raw (file or flag) value to the field's declared type.

    Command-line list values arrive as comma-separated strings; a list's
    items take the type of its default's items.
    """
    default = getattr(_DEFAULTS, name)
    try:
        if isinstance(default, list):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            item = _to_int if isinstance(default[0], int) else type(default[0])
            return [item(v) for v in value]
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
            return _to_int(value)
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
