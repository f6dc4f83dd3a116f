"""Exception types raised across the package.

One rule decides what is a StockcastError. A StockcastError is a condition
of the inputs: of the data, the configuration or the training. A backtest
walk records one raised by a step as that step's failure and goes on, and
the CLI maps it to an exit code. A function called outside its contract
(mismatched shapes, a rate out of range, tickers that disagree) raises
ValueError instead. No walk or command contains it: it propagates as a
fault of the program, with its traceback. Only `config` reads a ValueError,
that of a spec's own range check, and raises it as a ConfigError before any
command runs.
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


class SliceTooShortError(MarketDataError):
    """A slice does not cover lookback + 1 days, so no window fits."""


# -- relation graph ------------------------------------------------------

class ZeroVarianceError(StockcastError):
    """A ticker has constant returns over the correlation range."""


# -- models / training ---------------------------------------------------

class ModelError(StockcastError):
    """Base class for model construction and training errors."""


class EmptyDatasetError(ModelError):
    """Training was started on a dataset with no samples, or linreg on too
    few samples (at most lookback + 1) to fit its coefficients."""


class DivergedLossError(ModelError):
    """Training produced a NaN or infinite loss."""


class SingularSystemError(ModelError):
    """Least-squares system stayed singular even after ridge fallback."""


# -- backtest ------------------------------------------------------------

class InsufficientHistoryError(StockcastError):
    """Panel is shorter than base training window + test days."""


# -- cli / config --------------------------------------------------------

class ConfigError(StockcastError):
    """A configuration key is unknown or has an invalid value."""


class DataFileError(StockcastError):
    """A required input file is missing or unreadable."""
