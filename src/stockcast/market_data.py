"""OHLCV ingestion, calendar alignment, min-max scaling, windowing, moving averages."""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from itertools import chain
from typing import Iterable, NoReturn, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateSeriesError,
    DuplicateDateError,
    EmptyIntersectionError,
    MalformedRowError,
    NonPositivePriceError,
    PanelTooShortError,
    SliceTooShortError,
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

    def window(self, start: date, end: date) -> "PricePanel":
        """Sub-panel of the dates from `start` to `end`, both inclusive; empty
        if `end` precedes `start`."""
        lo, hi = bisect_left(self.dates, start), bisect_right(self.dates, end)
        return PricePanel(self.tickers, self.dates[lo:hi], self.close[lo:hi])


@dataclass(eq=False)
class ReturnPanel:
    """Simple daily returns; row t holds (close[t+1] - close[t]) / close[t] of the parent panel."""

    tickers: list[str]
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
    dates are ISO-8601, and each number is read by ``float()``. Fields may be
    double-quoted, and LF, CRLF and CR all end a line. Bytes are decoded as
    UTF-8 with an optional byte-order mark, and bytes that are not UTF-8 (a
    UTF-16 export, say) are a MalformedRowError; blank lines are skipped. The
    checks run over each column at once; when one fails, the first faulty
    row in file order is reported.
    """
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise MalformedRowError(
                f"{ticker}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    if '"' in content:  # a quoted field is the one thing str.split cannot read
        try:
            rows = list(csv.reader(io.StringIO(content, newline="")))
        except csv.Error as exc:  # a stray quote can open a field that runs on
            raise MalformedRowError(f"{ticker}: {exc}") from None
    else:  # the rows csv.reader gives, from str methods
        if "\r" in content:
            content = content.replace("\r\n", "\n").replace("\r", "\n")
        lines = content.split("\n")
        if not lines[-1]:
            lines.pop()  # what follows the last line end
        rows = [line.split(",") if line else [] for line in lines]
    if not rows:
        raise MalformedRowError(f"{ticker}: empty file")
    header, records = rows[0], rows[1:]
    if tuple(h.strip() for h in header) != OHLCV_COLUMNS:
        raise MalformedRowError(
            f"{ticker}: bad header {header!r}, expected {','.join(OHLCV_COLUMNS)}"
        )

    linenos: Sequence[int] = range(2, len(records) + 2)
    if not all(records):  # blank lines keep their place in the line count
        linenos = [n for n, fields in zip(linenos, records) if fields]
        records = [fields for fields in records if fields]
    if not set(map(len, records)) <= {len(OHLCV_COLUMNS)}:
        _raise_first_fault(ticker, records, linenos)
    fields = list(chain.from_iterable(records))
    try:
        days = list(map(date.fromisoformat, map(str.strip, fields[:: len(OHLCV_COLUMNS)])))
        del fields[:: len(OHLCV_COLUMNS)]
        # float() defines the accepted spellings, as in the row checks
        table = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        _raise_first_fault(ticker, records, linenos)
    table = table.reshape(len(records), len(OHLCV_COLUMNS) - 1)
    if (
        not np.isfinite(table).all()
        or not (table[:, :-1] > 0).all()
        or not (table[:, -1] >= 0).all()
        or len(set(days)) != len(days)
    ):
        _raise_first_fault(ticker, records, linenos)

    order = sorted(range(len(days)), key=days.__getitem__)
    return RawSeries(ticker=ticker, dates=[days[i] for i in order], rows=table[order])


def _raise_first_fault(
    ticker: str, records: list[list[str]], linenos: Sequence[int]
) -> NoReturn:
    """Raise the error of the first faulty row in file order. Within a row the
    checks run in the order: field count, unparsable field, non-finite value,
    duplicate date (at its later occurrence), non-positive price, negative
    volume. Called only after a whole-file check has failed."""
    seen: set[date] = set()
    for lineno, fields in zip(linenos, records):
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
    raise AssertionError(f"{ticker}: a whole-file check failed but every row passes")


def align_panel(series: Iterable[RawSeries]) -> PricePanel:
    """Intersect the series' calendars and assemble the close-price matrix."""
    series = list(series)
    if len(series) < 2:
        raise ValueError("align_panel needs at least 2 series")
    tickers = [s.ticker for s in series]
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"duplicate tickers: {tickers}")

    if series[0].dates and all(s.dates == series[0].dates for s in series[1:]):
        # one shared calendar, ascending like every series'
        close = np.stack([s.rows[:, _CLOSE_COL] for s in series], axis=1)
        return PricePanel(tickers=tickers, dates=list(series[0].dates), close=close)

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
    return ReturnPanel(tickers=list(panel.tickers), returns=returns)


def fit_scaler(panel: PricePanel) -> Scaler:
    """Fit per-ticker min-max extrema on every close of `panel`; window the
    panel first to fit on part of it."""
    x_min = panel.close.min(axis=0)
    x_max = panel.close.max(axis=0)
    flat = np.flatnonzero(x_max <= x_min)
    if flat.size:
        names = [panel.tickers[i] for i in flat]
        raise DegenerateSeriesError(f"constant closes over fit range: {names}")
    return Scaler(tickers=list(panel.tickers), x_min=x_min, x_max=x_max)


def scale(scaler: Scaler, panel: PricePanel) -> np.ndarray:
    """Map closes through (x - min) / (max - min); out-of-range values extrapolate."""
    if list(panel.tickers) != list(scaler.tickers):
        raise ValueError(f"{panel.tickers} vs scaler {scaler.tickers}")
    return (panel.close - scaler.x_min) / (scaler.x_max - scaler.x_min)


def invert_scale(
    scaler: Scaler, scaled: np.ndarray, tickers: Sequence[str] | None = None
) -> np.ndarray:
    """Inverse of `scale` for a matrix or vector ordered like scaler.tickers."""
    if tickers is not None and list(tickers) != list(scaler.tickers):
        raise ValueError(f"{list(tickers)} vs scaler {scaler.tickers}")
    scaled = np.asarray(scaled, dtype=np.float64)
    if scaled.shape[-1] != len(scaler.tickers):
        raise ValueError(f"last axis {scaled.shape[-1]} != {len(scaler.tickers)} tickers")
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

    # view (n_samples + 1, N, lookback) -> one (S, L, N) copy
    windows = sliding_window_view(scaled, lookback, axis=0)[:n_samples]
    inputs = np.ascontiguousarray(windows.transpose(0, 2, 1))
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
