"""Exception types raised across the package.

Every error derives from StockcastError so callers can catch the whole
family with one clause; the leaf classes exist because tests and the CLI
distinguish failure modes.
"""


class StockcastError(Exception):
    """Base class for all stockcast errors."""


# -- market data ---------------------------------------------------------

class MarketDataError(StockcastError):
    """Base class for ingestion, scaling and windowing errors."""


class MalformedRowError(MarketDataError):
    """A CSV row could not be parsed into an OHLCV record."""


class DuplicateDateError(MarketDataError):
    """Two rows of one ticker file share a calendar date."""


class NonPositivePriceError(MarketDataError):
    """A price field was zero or negative."""


class EmptyIntersectionError(MarketDataError):
    """Input series share no common trading day."""


class PanelTooShortError(MarketDataError):
    """The panel has too few dates for the requested operation."""


class DegenerateSeriesError(MarketDataError):
    """A ticker is constant over the scaler fit range (max == min)."""


class TickerMismatchError(MarketDataError):
    """Tickers of the scaler and the data being (un)scaled disagree."""


class SliceTooShortError(MarketDataError):
    """A slice does not cover lookback + 1 days, so no window fits."""


# -- relation graph ------------------------------------------------------

class GraphError(StockcastError):
    """Base class for graph-construction errors."""


class ZeroVarianceError(GraphError):
    """A ticker has constant returns over the correlation range."""


class EmptyDatabaseError(GraphError):
    """Frequent-itemset mining was asked to run on zero transactions."""


class UnknownTickerError(GraphError):
    """A rule references a ticker outside the vertex set."""


# -- autodiff ------------------------------------------------------------

class AutodiffError(StockcastError):
    """Base class for tensor-graph errors."""


class ShapeMismatchError(AutodiffError):
    """Operand shapes are incompatible for the requested op."""


class NotScalarLossError(AutodiffError):
    """backward() was called on a non-scalar tensor."""


class DetachedGraphError(AutodiffError):
    """The loss does not depend on any of the given parameters."""


class InvalidRateError(AutodiffError):
    """Dropout rate outside [0, 1)."""


# -- models / training ---------------------------------------------------

class ModelError(StockcastError):
    """Base class for model construction and training errors."""


class EmptyDatasetError(ModelError):
    """Training was started on a dataset with no samples."""


class DivergedLossError(ModelError):
    """Training produced a NaN or infinite loss."""


class SingularSystemError(ModelError):
    """Least-squares system stayed singular even after ridge fallback."""


# -- backtest ------------------------------------------------------------

class BacktestError(StockcastError):
    """Base class for backtest errors."""


class InsufficientHistoryError(BacktestError):
    """Panel is shorter than base training window + test days."""


# -- cli / config --------------------------------------------------------

class ConfigError(StockcastError):
    """A configuration key is unknown or has an invalid value."""


class DataFileError(StockcastError):
    """A required input file is missing or unreadable."""
