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
    TickerMismatchError,
)
from stockcast.market_data import (
    DateRange,
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
        assert r.dates == panel.dates[1:]

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


def full_range(panel) -> DateRange:
    return DateRange(panel.dates[0], panel.dates[-1])


class TestScaler:
    def test_extrema(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel, full_range(panel))
        assert s.x_min[0] == 2.0
        assert s.x_max[0] == 6.0

    def test_degenerate_series(self):
        panel = make_panel([[5.0], [5.0]])
        with pytest.raises(DegenerateSeriesError, match="S0"):
            fit_scaler(panel, full_range(panel))

    def test_three_tickers_three_pairs(self):
        panel = make_panel(np.arange(12.0).reshape(4, 3) + 1.0)
        s = fit_scaler(panel, full_range(panel))
        assert s.x_min.shape == (3,) and s.x_max.shape == (3,)

    def test_fit_range_excludes_other_days(self):
        panel = make_panel([[1.0], [10.0], [20.0], [500.0]])
        fit = DateRange(panel.dates[1], panel.dates[2])
        s = fit_scaler(panel, fit)
        assert s.x_min[0] == 10.0 and s.x_max[0] == 20.0

    def test_scale_by_hand(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel, full_range(panel))
        assert scale(s, panel)[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=0.0)

    def test_extrapolation(self):
        panel = make_panel([[2.0], [4.0], [6.0]])
        s = fit_scaler(panel, full_range(panel))
        beyond = make_panel([[8.0]])
        assert scale(s, beyond)[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_round_trip(self):
        panel = make_panel([[3.17], [5.99]])
        s = fit_scaler(panel, full_range(panel))
        back = invert_scale(s, scale(s, panel))
        assert np.all(np.abs(back - panel.close) / panel.close < 1e-9)

    def test_ticker_mismatch(self):
        panel = make_panel([[2.0], [6.0]])
        s = fit_scaler(panel, full_range(panel))
        other = make_panel([[2.0], [6.0]], tickers=["X"])
        with pytest.raises(TickerMismatchError):
            scale(s, other)
        with pytest.raises(TickerMismatchError):
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
        s = fit_scaler(panel, full_range(panel))
        scaled = scale(s, panel)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        back = invert_scale(s, scaled)
        assert np.all(np.abs(back - closes) <= 1e-9 * np.abs(closes))

    def test_monotonic_outside_fit_range(self, rng):
        panel = make_panel(rng.uniform(10, 20, size=(10, 1)))
        s = fit_scaler(panel, full_range(panel))
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
