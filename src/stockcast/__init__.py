"""stockcast: multi-stock daily forecasting with a temporal/relational hybrid
model, a from-scratch gradient engine, and an expanding-window backtester."""

__version__ = "0.1.0"

from .backtest import (
    BacktestReport,
    GridSpace,
    WindowPlan,
    compare_models,
    expanding_schedule,
    grid_search,
    run_backtest,
)
from .market_data import (
    DateRange,
    PricePanel,
    RawSeries,
    ReturnPanel,
    Scaler,
    WindowDataset,
    align_panel,
    daily_returns,
    fit_scaler,
    invert_scale,
    make_windows,
    moving_average,
    parse_ohlcv_csv,
    scale,
)
from .models import EarlyStopper, ModelSpec, TrainConfig, load_model, save_model, train
from .relation_graph import (
    CorrMatrix,
    GraphConfig,
    RuleSet,
    StockGraph,
    TransactionDB,
    apriori_frequent,
    assemble_graph,
    build_graph,
    co_movement_transactions,
    correlation_edges,
    mine_rules,
    normalized_adjacency,
    pearson_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
