"""OHLCV ingestion, calendar alignment, min-max scaling, windowing, moving averages."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSeriesError,
    DuplicateDateError,
    EmptyIntersectionError,
    MalformedRowError,
    NonPositivePriceError,
    PanelTooShortError,
    SliceTooShortError,
    TickerMismatchError,
)

OHLCV_COLUMNS = ("date", "open", "high", "low", "close", "adj_close", "volume")

PRICE_FIELDS = ("open", "high", "low", "close", "adj_close")

_CLOSE_COL = OHLCV_COLUMNS[1:].index("close")


@dataclass(slots=True)
class RawSeries:
    """One ticker's daily bars, sorted ascending by date."""

    ticker: str
    dates: list[date]
    rows: np.ndarray  # (days, 6) float64, columns in OHLCV_COLUMNS[1:] order


@dataclass(frozen=True, slots=True)
class DateRange:
    """Inclusive calendar interval."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"empty date range: {self.start}..{self.end}")


@dataclass(eq=False)
class PricePanel:
    """Aligned close-price matrix: one row per common trading day, one column per ticker."""

    tickers: list[str]
    dates: list[date]
    close: np.ndarray  # (T, N) float64

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    def range_indices(self, rng: DateRange) -> tuple[int, int]:
        """Half-open index span [lo, hi) of the dates inside `rng`."""
        lo = bisect_left(self.dates, rng.start)
        hi = bisect_right(self.dates, rng.end)
        return lo, hi

    def window(self, rng: DateRange) -> "PricePanel":
        """Sub-panel restricted to the dates inside `rng` (inclusive)."""
        lo, hi = self.range_indices(rng)
        return PricePanel(self.tickers, self.dates[lo:hi], self.close[lo:hi])


@dataclass(eq=False)
class ReturnPanel:
    """Simple daily returns; row t holds (close[t+1] - close[t]) / close[t] of the parent panel."""

    tickers: list[str]
    dates: list[date]  # first date of the parent panel dropped
    returns: np.ndarray  # (T-1, N) float64


@dataclass(eq=False)
class Scaler:
    """Per-ticker min-max extrema fitted over one date range."""

    tickers: list[str]
    x_min: np.ndarray  # (N,)
    x_max: np.ndarray  # (N,)


@dataclass(eq=False)
class WindowDataset:
    """Supervised next-day samples: lookback rows of scaled closes per target day."""

    lookback: int
    inputs: np.ndarray  # (S, L, N)
    targets: np.ndarray  # (S, N)
    target_dates: list[date]

    def __len__(self) -> int:
        return self.inputs.shape[0]


def parse_ohlcv_csv(content: bytes | str, ticker: str) -> RawSeries:
    """Parse one ticker's CSV export into a validated, date-sorted series.

    The header must be exactly ``date,open,high,low,close,adj_close,volume``;
    dates are ISO-8601, numbers use a period decimal separator.
    """
    if isinstance(content, bytes):
        content = content.decode("utf-8")
    reader = csv.reader(io.StringIO(content))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRowError(f"{ticker}: empty file") from None
    if tuple(h.strip() for h in header) != OHLCV_COLUMNS:
        raise MalformedRowError(
            f"{ticker}: bad header {header!r}, expected {','.join(OHLCV_COLUMNS)}"
        )

    days: list[date] = []
    rows: list[list[float]] = []
    seen: set[date] = set()
    for lineno, fields in enumerate(reader, start=2):
        if not fields:
            continue  # blank trailing line
        if len(fields) != len(OHLCV_COLUMNS):
            raise MalformedRowError(
                f"{ticker} line {lineno}: expected {len(OHLCV_COLUMNS)} fields, got {len(fields)}"
            )
        try:
            day = date.fromisoformat(fields[0].strip())
            values = [float(f) for f in fields[1:]]
        except ValueError as exc:
            raise MalformedRowError(f"{ticker} line {lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise MalformedRowError(f"{ticker} line {lineno}: non-finite value")
        if day in seen:
            raise DuplicateDateError(f"{ticker}: duplicate date {day.isoformat()}")
        seen.add(day)
        for field, value in zip(PRICE_FIELDS, values):
            if value <= 0:
                raise NonPositivePriceError(f"{ticker} line {lineno}: {field} = {value}")
        if values[-1] < 0:
            raise MalformedRowError(f"{ticker} line {lineno}: negative volume")
        days.append(day)
        rows.append(values)

    order = sorted(range(len(days)), key=days.__getitem__)
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(OHLCV_COLUMNS) - 1)
    return RawSeries(ticker=ticker, dates=[days[i] for i in order], rows=table[order])


def align_panel(series: Iterable[RawSeries]) -> PricePanel:
    """Intersect the series' calendars and assemble the close-price matrix."""
    series = list(series)
    if len(series) < 2:
        raise ValueError("align_panel needs at least 2 series")
    tickers = [s.ticker for s in series]
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"duplicate tickers: {tickers}")

    common: set[date] = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise EmptyIntersectionError("no common trading day across series")
    dates = sorted(common)

    close = np.empty((len(dates), len(series)), dtype=np.float64)
    for j, s in enumerate(series):
        index = {d: i for i, d in enumerate(s.dates)}
        close[:, j] = s.rows[[index[d] for d in dates], _CLOSE_COL]
    return PricePanel(tickers=tickers, dates=dates, close=close)


def daily_returns(panel: PricePanel) -> ReturnPanel:
    """Simple daily returns (P_next - P) / P for every ticker."""
    if panel.n_days < 2:
        raise PanelTooShortError(f"need >= 2 dates, panel has {panel.n_days}")
    prev = panel.close[:-1]
    returns = (panel.close[1:] - prev) / prev
    return ReturnPanel(tickers=list(panel.tickers), dates=panel.dates[1:], returns=returns)


def fit_scaler(panel: PricePanel, fit_range: DateRange) -> Scaler:
    """Fit per-ticker min-max extrema using only the closes inside `fit_range`."""
    lo, hi = panel.range_indices(fit_range)
    if hi <= lo:
        raise ValueError(f"fit range {fit_range} covers no panel dates")
    block = panel.close[lo:hi]
    x_min = block.min(axis=0)
    x_max = block.max(axis=0)
    flat = np.flatnonzero(x_max <= x_min)
    if flat.size:
        names = [panel.tickers[i] for i in flat]
        raise DegenerateSeriesError(f"constant closes over fit range: {names}")
    return Scaler(tickers=list(panel.tickers), x_min=x_min, x_max=x_max)


def scale(scaler: Scaler, panel: PricePanel) -> np.ndarray:
    """Map closes through (x - min) / (max - min); out-of-range values extrapolate."""
    if list(panel.tickers) != list(scaler.tickers):
        raise TickerMismatchError(f"{panel.tickers} vs scaler {scaler.tickers}")
    return (panel.close - scaler.x_min) / (scaler.x_max - scaler.x_min)


def invert_scale(
    scaler: Scaler, scaled: np.ndarray, tickers: Sequence[str] | None = None
) -> np.ndarray:
    """Inverse of `scale` for a matrix or vector ordered like scaler.tickers."""
    if tickers is not None and list(tickers) != list(scaler.tickers):
        raise TickerMismatchError(f"{list(tickers)} vs scaler {scaler.tickers}")
    scaled = np.asarray(scaled, dtype=np.float64)
    if scaled.shape[-1] != len(scaler.tickers):
        raise TickerMismatchError(
            f"last axis {scaled.shape[-1]} != {len(scaler.tickers)} tickers"
        )
    return scaled * (scaler.x_max - scaler.x_min) + scaler.x_min


def make_windows(scaled: np.ndarray, dates: Sequence[date], lookback: int) -> WindowDataset:
    """Build all (lookback days -> next day) samples from a scaled close slice.

    Sample k uses rows [k, k+lookback) as input and row k+lookback as target,
    so every input ends strictly before its target date.
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    n_days = scaled.shape[0]
    if len(dates) != n_days:
        raise ValueError(f"{len(dates)} dates for {n_days} rows")
    n_samples = n_days - lookback
    if n_samples < 1:
        raise SliceTooShortError(f"{n_days} days cannot fit lookback {lookback} + target")

    inputs = np.empty((n_samples, lookback, scaled.shape[1]), dtype=np.float64)
    for k in range(n_samples):
        inputs[k] = scaled[k : k + lookback]
    targets = scaled[lookback:].copy()
    return WindowDataset(
        lookback=lookback,
        inputs=inputs,
        targets=targets,
        target_dates=list(dates[lookback:]),
    )


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over `window` days; the first window-1 entries are NaN."""
    values = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return values.copy()
    out = np.full(values.shape[0], np.nan)
    if values.shape[0] < window:
        return out
    sums = np.concatenate(([0.0], np.cumsum(values)))
    out[window - 1 :] = (sums[window:] - sums[:-window]) / window
    return out
