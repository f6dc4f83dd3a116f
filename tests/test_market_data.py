import csv
import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.errors import (
    DegenerateSeriesError,
    DuplicateDateError,
    EmptyIntersectionError,
    MalformedRowError,
    NonPositivePriceError,
    PanelTooShortError,
    SliceTooShortError,
    StockcastError,
)
from stockcast.market_data import (
    OHLCV_COLUMNS,
    PRICE_FIELDS,
    RawSeries,
    align_panel,
    daily_returns,
    fit_scaler,
    invert_scale,
    make_windows,
    moving_average,
    parse_ohlcv_csv,
    scale,
)

from conftest import make_panel, weekdays

HEADER = "date,open,high,low,close,adj_close,volume\n"


def csv_for(rows: list[str]) -> str:
    return HEADER + "\n".join(rows) + "\n"


class TestParseOhlcv:
    def test_single_row_field_mapping(self):
        series = parse_ohlcv_csv(csv_for(["2005-01-03,1.26,1.29,1.24,1.27,1.08,172998000"]), "AAPL")
        assert series.ticker == "AAPL"
        assert len(series.rows) == 1
        assert series.dates == [date(2005, 1, 3)]
        assert series.rows[0].tolist() == [1.26, 1.29, 1.24, 1.27, 1.08, 172998000]

    def test_duplicate_date_rejected(self):
        content = csv_for(
            ["2005-01-03,1,1,1,1,1,10", "2005-01-03,2,2,2,2,2,20"]
        )
        with pytest.raises(DuplicateDateError, match="2005-01-03"):
            parse_ohlcv_csv(content, "AAPL")

    def test_nonpositive_price_rejected(self):
        with pytest.raises(NonPositivePriceError):
            parse_ohlcv_csv(csv_for(["2005-01-03,1,1,1,-5,1,10"]), "AAPL")
        with pytest.raises(NonPositivePriceError):
            parse_ohlcv_csv(csv_for(["2005-01-03,0,1,1,1,1,10"]), "AAPL")

    def test_unparseable_field(self):
        with pytest.raises(MalformedRowError, match="line 2"):
            parse_ohlcv_csv(csv_for(["2005-01-03,abc,1,1,1,1,10"]), "AAPL")

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRowError):
            parse_ohlcv_csv(csv_for(["2005-01-03,1,1,1,1,1"]), "AAPL")

    def test_bad_header(self):
        with pytest.raises(MalformedRowError, match="header"):
            parse_ohlcv_csv("date,open,close\n2005-01-03,1,1\n", "AAPL")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, value):
        # a NaN or infinite close passes the positive-price check, so only the
        # finiteness check stops it
        content = csv_for(["2005-01-03,1,1,1,1,1,10", f"2005-01-04,1,1,1,{value},1,10"])
        with pytest.raises(MalformedRowError, match="AAPL line 3: non-finite value"):
            parse_ohlcv_csv(content, "AAPL")

    def test_negative_volume_rejected(self):
        with pytest.raises(MalformedRowError):
            parse_ohlcv_csv(csv_for(["2005-01-03,1,1,1,1,1,-10"]), "AAPL")

    def test_rows_sorted_even_if_input_shuffled(self):
        content = csv_for(
            ["2005-01-05,1,1,1,1,1,10", "2005-01-03,1,1,1,2,1,10", "2005-01-04,1,1,1,3,1,10"]
        )
        series = parse_ohlcv_csv(content, "AAPL")
        assert [d.day for d in series.dates] == [3, 4, 5]
        assert series.rows[:, 3].tolist() == [2, 3, 1]  # closes move with their dates

    def test_accepts_bytes(self):
        series = parse_ohlcv_csv(csv_for(["2005-01-03,1,1,1,1,1,10"]).encode(), "A")
        assert len(series.rows) == 1

    def test_accepts_a_byte_order_mark(self):
        # spreadsheet programs save UTF-8 CSVs with a leading BOM
        content = csv_for(["2005-01-03,1,1,1,1,1,10"]).encode("utf-8-sig")
        series = parse_ohlcv_csv(content, "A")
        assert series.dates == [date(2005, 1, 3)]

    def test_quote_left_open_in_a_long_file_is_a_malformed_row(self):
        # the quoted field runs on past csv's field size limit
        rows = [f"{date.fromordinal(732000 + k).isoformat()},1,1,1,1,1,10" for k in range(6000)]
        content = csv_for(['2005-01-03,"1,1,1,1,1,10', *rows])
        with pytest.raises(MalformedRowError, match=r"^A: field larger than field limit"):
            parse_ohlcv_csv(content, "A")

    @pytest.mark.parametrize("first, second, error, message", [
        ("2005-01-03,abc,1,1,1,1,10", "2005-01-05,1,1,1,1,1,-10",
         MalformedRowError, "A line 3: could not convert"),
        ("2005-01-03,1,1,1,1,1,-10", "2005-01-05,abc,1,1,1,1,10",
         MalformedRowError, "A line 3: negative volume"),
        ("2005-01-03,1,1,1,1,1", "2005-01-05,1,1,0,1,1,10",
         MalformedRowError, "A line 3: expected 7 fields, got 6"),
        ("2005-01-03,1,1,0,1,1,10", "2005-01-05,1,1,1,1,1",
         NonPositivePriceError, "A line 3: low = 0.0"),
    ])
    def test_first_faulty_row_in_file_order_wins(self, first, second, error, message):
        # line 2 is fine, a blank line 4 still counts
        rows = ["2005-01-04,1,1,1,1,1,10", first, "", second]
        with pytest.raises(error, match=f"^{message}"):
            parse_ohlcv_csv(csv_for(rows), "A")


def row_loop_parse_ohlcv_csv(content: str, ticker: str) -> RawSeries:
    """parse_ohlcv_csv as it was before its checks ran over the whole file: one
    loop over the rows with a float() per field. The reference for every file
    and every error."""
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


# price spellings: shortest repr, fixed 6 decimals, a whole number
_SPELL = (repr, "{:.6f}".format, lambda v: str(round(v)))


@st.composite
def ohlcv_files(draw) -> str:
    """A valid OHLCV file in shuffled date order, then up to three faults on
    random rows: a dropped field, "abc", "nan" or "0" in a field, a negative
    volume, another row's date, a padded field, a blank or whitespace-only
    line, or a stray double quote. Then no field, some fields or every field
    (the header's too) is quoted, so files take both of the parser's
    tokenizers."""
    n = draw(st.integers(0, 10))
    ordinals = draw(st.lists(st.integers(732000, 732060), min_size=n, max_size=n, unique=True))
    price = st.floats(min_value=0.01, max_value=1e5)
    rows = []
    for ordinal in ordinals:
        prices = [draw(st.sampled_from(_SPELL))(draw(price)) for _ in PRICE_FIELDS]
        volume = draw(st.sampled_from(_SPELL))(draw(st.floats(min_value=0, max_value=1e9)))
        rows.append([date.fromordinal(ordinal).isoformat(), *prices, volume])
    blanks = {}
    faults = ["drop", "abc", "nan", "0", "volume", "date", "pad", "blank", "space", "stray"]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        field = draw(st.integers(0, len(OHLCV_COLUMNS) - 1))
        fault = draw(st.sampled_from(faults))
        if fault == "drop":
            del rows[k][min(field, len(rows[k]) - 1)]
        elif fault in ("abc", "nan", "0"):
            rows[k][min(field, len(rows[k]) - 1)] = fault
        elif fault == "volume":
            rows[k][-1] = "-" + rows[k][-1]
        elif fault == "date":
            rows[k][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
        elif fault == "pad":
            i = min(field, len(rows[k]) - 1)
            rows[k][i] = f"  {rows[k][i]} "
        elif fault == "stray":  # a quote inside a field, or one that opens it
            i = min(field, len(rows[k]) - 1)
            at = draw(st.integers(0, len(rows[k][i])))
            rows[k][i] = rows[k][i][:at] + '"' + rows[k][i][at:]
        else:
            blanks[k] = "" if fault == "blank" else draw(st.sampled_from([" ", "\t", "  \t "]))
    quoting = draw(st.sampled_from(["none", "some", "all"]))
    header = list(OHLCV_COLUMNS)
    for fields in [header, *rows]:
        for i, value in enumerate(fields):
            if quoting == "all" or (
                quoting == "some" and fields is not header and draw(st.booleans())
            ):
                fields[i] = '"' + value.replace('"', '""') + '"'
    lines = []
    for k, fields in enumerate(rows):
        if k in blanks:
            lines.append(blanks[k])
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))  # the last line may have no line end
    return newline.join([",".join(header), *lines, *[""] * draw(st.integers(0, 2))]) + end


def parse_outcome(parse, content):
    """What a parser returns, bitwise, or the class and message it raises."""
    try:
        s = parse(content, "T")
    except StockcastError as exc:
        return type(exc), str(exc)
    return s.ticker, s.dates, s.rows.dtype, s.rows.shape, s.rows.tobytes()


class TestParseMatchesRowLoop:
    @settings(max_examples=400, deadline=None)
    @given(content=ohlcv_files())
    def test_same_series_or_same_error(self, content):
        assert parse_outcome(parse_ohlcv_csv, content) == parse_outcome(
            row_loop_parse_ohlcv_csv, content
        )


class TestLineEnds:
    LF = csv_for(["2005-01-04,1,2,0.5,1.5,1.5,10", "", "2005-01-03,1,2,0.5,1.25,1.25,20"])

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_cr_and_crlf_read_as_lf(self, newline, quoted):
        # a classic-Mac export ends its lines with CR alone
        lf = self.LF.replace(",10", ',"10"') if quoted else self.LF
        twin = lf.replace("\n", newline)
        assert parse_outcome(parse_ohlcv_csv, twin) == parse_outcome(parse_ohlcv_csv, lf)
        assert parse_outcome(parse_ohlcv_csv, twin.encode()) == parse_outcome(
            parse_ohlcv_csv, lf)

    def test_cr_line_numbers_count_blank_lines(self):
        content = csv_for(["2005-01-04,1,1,1,1,1,10", "", "2005-01-05,1,1,1,1,1"])
        with pytest.raises(MalformedRowError, match="^A line 4: expected 7 fields, got 6$"):
            parse_ohlcv_csv(content.replace("\n", "\r"), "A")

    def test_cr_inside_a_line_ends_it(self):
        # before CR counted as a line end, csv.reader raised its own error here
        content = csv_for(["2005-01-04,1,1\r,1,1,1,10"])
        with pytest.raises(MalformedRowError, match="^A line 2: expected 7 fields, got 3$"):
            parse_ohlcv_csv(content, "A")


def series_on(ticker: str, days: list[date], close: float = 10.0):
    rows = [f"{d.isoformat()},1,20,0.5,{close},{close},100" for d in days]
    return parse_ohlcv_csv(csv_for(rows), ticker)


class TestAlignPanel:
    def test_intersection(self):
        d1, d2, d3, d4 = weekdays(4)
        a = series_on("A", [d1, d2, d3])
        b = series_on("B", [d2, d3, d4])
        panel = align_panel([a, b])
        assert panel.dates == [d2, d3]
        assert panel.tickers == ["A", "B"]
        assert panel.close.shape == (2, 2)

    def test_disjoint_calendars(self):
        days = weekdays(4)
        with pytest.raises(EmptyIntersectionError):
            align_panel([series_on("A", days[:2]), series_on("B", days[2:])])

    def test_identical_calendars_identity(self):
        days = weekdays(5)
        panel = align_panel([series_on("A", days), series_on("B", days)])
        assert panel.dates == days

    def test_needs_two_series(self):
        with pytest.raises(ValueError):
            align_panel([series_on("A", weekdays(3))])

    def test_alignment_is_maximal(self):
        # every excluded date is missing from at least one series
        days = weekdays(6)
        a = series_on("A", days[:5])
        b = series_on("B", days[1:])
        panel = align_panel([a, b])
        covered = set(panel.dates)
        for day in days:
            if day not in covered:
                assert day not in set(a.dates) or day not in set(b.dates)


class TestDailyReturns:
    def test_by_hand(self):
        panel = make_panel([[100.0], [110.0]])
        r = daily_returns(panel)
        assert r.returns.shape == (1, 1)
        assert r.returns[0, 0] == pytest.approx(0.10, abs=1e-15)

    def test_constant_prices(self):
        r = daily_returns(make_panel([[50.0], [50.0], [50.0]]))
        assert np.all(r.returns == 0.0)

    def test_negative_return(self):
        r = daily_returns(make_panel([[100.0], [90.0]]))
        assert r.returns[0, 0] == pytest.approx(-0.10, abs=1e-15)

    def test_too_short(self):
        with pytest.raises(PanelTooShortError):
            daily_returns(make_panel([[100.0]]))

    def test_reconstruction_close_to_exact(self, rng):
        closes = rng.uniform(5, 500, size=(40, 3))
        panel = make_panel(closes)
        r = daily_returns(panel)
        rebuilt = closes[:-1] * (1.0 + r.returns)
        rel = np.abs(rebuilt - closes[1:]) / closes[1:]
        assert rel.max() < 1e-14


class TestScaler:
    def test_extrema(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel)
        assert s.x_min[0] == 2.0
        assert s.x_max[0] == 6.0

    def test_degenerate_series(self):
        panel = make_panel([[5.0], [5.0]])
        with pytest.raises(DegenerateSeriesError, match="S0"):
            fit_scaler(panel)

    def test_three_tickers_three_pairs(self):
        panel = make_panel(np.arange(12.0).reshape(4, 3) + 1.0)
        s = fit_scaler(panel)
        assert s.x_min.shape == (3,) and s.x_max.shape == (3,)

    def test_fit_range_excludes_other_days(self):
        panel = make_panel([[1.0], [10.0], [20.0], [500.0]])
        s = fit_scaler(panel.window(panel.dates[1], panel.dates[2]))
        assert s.x_min[0] == 10.0 and s.x_max[0] == 20.0

    def test_scale_by_hand(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel)
        assert scale(s, panel)[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=0.0)

    def test_extrapolation(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel)
        beyond = make_panel([[8.0]])
        assert scale(s, beyond)[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_round_trip(self):
        panel = make_panel([[3.17], [5.99]])
        s = fit_scaler(panel)
        back = invert_scale(s, scale(s, panel))
        assert np.all(np.abs(back - panel.close) / panel.close < 1e-9)

    def test_ticker_mismatch(self):
        panel = make_panel([[2.0], [6.0]])
        s = fit_scaler(panel)
        other = make_panel([[2.0], [6.0]], tickers=["X"])
        with pytest.raises(ValueError, match=r"^\['X'\] vs scaler \['S0'\]$"):
            scale(s, other)
        with pytest.raises(ValueError, match=r"^\['X'\] vs scaler \['S0'\]$"):
            invert_scale(s, np.zeros((2, 1)), tickers=["X"])

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_round_trip_property(self, values):
        closes = np.asarray(values)[:, None]
        if closes.max() <= closes.min():
            return
        panel = make_panel(closes)
        s = fit_scaler(panel)
        scaled = scale(s, panel)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        back = invert_scale(s, scaled)
        assert np.all(np.abs(back - closes) <= 1e-9 * np.abs(closes))

    def test_monotonic_outside_fit_range(self, rng):
        panel = make_panel(rng.uniform(10, 20, size=(10, 1)))
        s = fit_scaler(panel)
        probes = make_panel(np.sort(rng.uniform(1, 40, size=(8, 1)), axis=0))
        scaled = scale(s, probes)[:, 0]
        assert np.all(np.diff(scaled) >= 0.0)


class TestMakeWindows:
    def test_counts(self):
        dates = weekdays(5)
        ds = make_windows(np.arange(10.0).reshape(5, 2), dates, 3)
        assert len(ds) == 2

    def test_zero_samples_is_error(self):
        with pytest.raises(SliceTooShortError):
            make_windows(np.zeros((3, 2)), weekdays(3), 3)

    def test_paper_lookback_count(self):
        ds = make_windows(np.zeros((500, 2)), weekdays(500), 11)
        assert len(ds) == 489

    def test_inputs_immediately_precede_target(self):
        dates = weekdays(6)
        scaled = np.arange(12.0).reshape(6, 2)
        ds = make_windows(scaled, dates, 2)
        for k in range(len(ds)):
            assert np.array_equal(ds.inputs[k], scaled[k : k + 2])
            assert np.array_equal(ds.targets[k], scaled[k + 2])
            assert ds.target_dates[k] == dates[k + 2]

    @pytest.mark.parametrize("n_days, n_stocks, lookback", [(2, 1, 1), (9, 3, 4), (60, 5, 11)])
    def test_inputs_match_the_sample_loop_bitwise(self, rng, n_days, n_stocks, lookback):
        scaled = rng.normal(size=(n_days, n_stocks))
        expected = np.empty((n_days - lookback, lookback, n_stocks))
        for k in range(n_days - lookback):
            expected[k] = scaled[k : k + lookback]
        ds = make_windows(scaled, weekdays(n_days), lookback)
        assert ds.inputs.flags.c_contiguous
        assert ds.inputs.shape == expected.shape
        assert ds.inputs.tobytes() == expected.tobytes()

    def test_leakage_freedom(self):
        dates = weekdays(9)
        ds = make_windows(np.random.default_rng(0).random((9, 3)), dates, 4)
        for k, target_day in enumerate(ds.target_dates):
            input_days = dates[k : k + 4]
            assert max(input_days) < target_day


class TestMovingAverage:
    def test_by_hand(self):
        out = moving_average(np.array([1.0, 2.0, 3.0]), 2)
        assert np.isnan(out[0])
        assert out[1] == 1.5 and out[2] == 2.5

    def test_window_one_is_identity(self):
        values = np.array([4.0, 5.0, 6.0])
        assert np.array_equal(moving_average(values, 1), values)

    def test_defined_count_for_50_day_window(self):
        out = moving_average(np.linspace(1, 2, 300), 50)
        assert np.count_nonzero(~np.isnan(out)) == 251

    def test_matches_naive_mean(self, rng):
        values = rng.uniform(0, 10, size=60)
        out = moving_average(values, 7)
        for t in range(6, 60):
            assert out[t] == pytest.approx(values[t - 6 : t + 1].mean(), rel=1e-12)
