import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curvecast import (
    DataError,
    FunctionalTimeSeries,
    IntradayGrid,
    PriceMatrix,
    cidr_transform,
    ingest_price_matrix,
    inverse_cidr,
    read_price_csv,
    write_wide_csv,
)


def make_prices(seed, n, tau):
    r = np.random.default_rng(seed)
    return 100.0 * np.exp(np.cumsum(r.normal(0.0, 0.01, size=(n, tau)), axis=1))


@st.composite
def _price_matrices(draw, max_days=6, max_tau=8):
    """Positive prices, from a thousandth to a million, of one random (n, tau) shape."""
    shape = (draw(st.integers(1, max_days)), draw(st.integers(3, max_tau)))
    return draw(arrays(float, shape, elements=st.floats(1e-3, 1e6)))


class TestGrid:
    def test_regular_times(self):
        g = IntradayGrid.regular(5)
        assert g.tau == 5
        assert g.times == (0.0, 5.0, 10.0, 15.0, 20.0)

    def test_too_few_points(self):
        with pytest.raises(DataError):
            IntradayGrid.regular(2)


class TestCidr:
    def test_hand_example(self):
        pm = PriceMatrix(
            np.array([[100.0, 110.0, 121.0], [100.0, 90.0, 81.0]]),
            IntradayGrid.regular(3),
        )
        fts = cidr_transform(pm)
        expected = np.array(
            [
                [100 * math.log(1.1), 100 * math.log(1.21)],
                [100 * math.log(0.9), 100 * math.log(0.81)],
            ]
        )
        assert np.allclose(fts.values, expected, atol=1e-12)

    def test_first_point_always_zero_reference(self):
        pm = PriceMatrix(make_prices(4, 7, 9), IntradayGrid.regular(9))
        fts = cidr_transform(pm)
        assert fts.values.shape == (7, 8)
        assert fts.grid.tau == 9

    def test_round_trip(self):
        prices = make_prices(5, 12, 10)
        pm = PriceMatrix(prices, IntradayGrid.regular(10))
        back = inverse_cidr(cidr_transform(pm), prices[:, 0])
        assert np.allclose(back.prices, prices, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(prices=_price_matrices())
    def test_round_trip_property(self, prices):
        pm = PriceMatrix(prices, IntradayGrid.regular(prices.shape[1]))
        back = inverse_cidr(cidr_transform(pm), prices[:, 0])
        assert np.all(np.abs(back.prices - prices) <= 1e-10 * prices)

    def test_inverse_needs_matching_opens(self):
        pm = PriceMatrix(make_prices(6, 3, 5), IntradayGrid.regular(5))
        with pytest.raises(DataError):
            inverse_cidr(cidr_transform(pm), [100.0, 100.0])

    def test_rejects_nonpositive_price(self):
        with pytest.raises(DataError):
            PriceMatrix(np.array([[100.0, -1.0, 102.0]]), IntradayGrid.regular(3))

    def test_rejects_wrong_width(self):
        with pytest.raises(DataError):
            PriceMatrix(np.array([[100.0, 101.0]]), IntradayGrid.regular(3))


class TestSeries:
    def test_head_and_window(self):
        values = np.arange(12.0).reshape(6, 2)
        fts = FunctionalTimeSeries(values, IntradayGrid.regular(3))
        assert np.array_equal(fts.head(2).values, values[:2])
        assert np.array_equal(fts.window(2, 5).values, values[2:5])


class TestIngestion:
    def test_interior_gap_interpolated(self):
        raw = np.array([[100.0, np.nan, 104.0]])
        pm, _, summary = ingest_price_matrix(raw)
        assert pm.prices[0, 1] == pytest.approx(102.0)
        assert summary["interpolated_cells"] == 1 and np.isnan(raw[0, 1])  # input untouched

    def test_drops_bad_days_and_reports(self):
        raw = np.array(
            [
                [100.0, 101.0, 102.0, 103.0],
                [100.0, np.nan, 102.0, 103.0],
                [np.nan, np.nan, np.nan, np.nan],
                [100.0, 101.0, np.nan, np.nan],
            ]
        )
        with pytest.warns(UserWarning):
            pm, kept, summary = ingest_price_matrix(raw, dates=list("abcd"))
        assert kept == ["a", "b"]
        assert pm.prices.shape == (2, 4)
        assert summary["days_in"] == 4
        assert summary["days_kept"] == 2
        assert summary["interpolated_cells"] == 1
        assert {d["date"] for d in summary["days_dropped"]} == {"c", "d"}

    def test_max_missing_frac(self):
        raw = np.array(
            [
                [100.0, 101.0, 102.0, 103.0, 104.0, 105.0],
                [100.0, 101.0, np.nan, np.nan, np.nan, 105.0],
            ]
        )
        with pytest.warns(UserWarning):
            _, kept, _ = ingest_price_matrix(raw, max_missing_frac=0.4)
        assert kept == ["day0001"]

    def test_clean_input_no_warning(self):
        raw = make_prices(7, 4, 5)
        pm, kept, summary = ingest_price_matrix(raw)
        assert len(kept) == 4
        assert summary["days_dropped"] == []


class TestCsv:
    def test_round_trip_with_dates(self, tmp_path):
        prices = make_prices(8, 5, 6)
        dates = [f"2024-01-{d:02d}" for d in range(1, 6)]
        path = tmp_path / "px.csv"
        write_wide_csv(str(path), PriceMatrix(prices, IntradayGrid.regular(6)), dates)
        raw, grid, got_dates = read_price_csv(str(path))
        assert got_dates == dates
        assert grid.tau == 6
        assert np.allclose(raw, prices, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(prices=_price_matrices(), data=st.data())
    def test_written_prices_read_back_with_missing_tokens(self, prices, data):
        # written prices read back bit for bit; an NA or empty field reads as missing
        n, tau = prices.shape
        tokens = data.draw(
            st.lists(st.sampled_from([None, "NA", "", " NA "]), min_size=n * tau, max_size=n * tau)
        )
        missing = np.array([t is not None for t in tokens]).reshape(n, tau)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "px.csv")
            write_wide_csv(path, PriceMatrix(prices, IntradayGrid.regular(tau)))
            with open(path) as fh:
                header, *rows = fh.read().splitlines()
            cells = [row.split(",") for row in rows]
            for (t, j), token in zip(np.ndindex(n, tau), tokens):
                if token is not None:
                    cells[t][1 + j] = token
            with open(path, "w") as fh:
                fh.write("\n".join([header] + [",".join(c) for c in cells]) + "\n")
            raw, grid, dates = read_price_csv(path)
        assert grid.times == IntradayGrid.regular(tau).times
        assert dates == [f"day{t + 1:04d}" for t in range(n)]
        assert np.array_equal(np.isnan(raw), missing)
        assert np.array_equal(raw[~missing], prices[~missing])

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.text(), min_size=3, max_size=3))
    @example(labels=["t0", "t5", "t10-"])
    @example(labels=["t0", "t1-2", "t5"])
    @example(labels=["²:30", "t5", "t10"])
    @example(labels=["-inf", "0", "inf"])
    def test_any_header_reads_or_is_data_error(self, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "px.csv")
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([labels, ["100", "101", "102"]])
            try:
                read_price_csv(path)
            except DataError:
                pass

    def test_repeated_wide_date_is_data_error(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text("date,t0,t5,t10\nd1,1,2,3\nd2,1,2,3\nd1,1,2,3\n")
        with pytest.raises(DataError) as info:
            read_price_csv(str(path))
        assert str(info.value) == f"{path}:4: duplicate date 'd1'"

    @pytest.mark.parametrize("text, message", [
        ("date,t0,t5,t10\n\nd1,1,2,x\n", "unparseable price 'x' at {path}:3"),
        ("date,t0,t5,t10\nd1,1,2,3\n\n \nd1,1,2,3\n", "{path}:5: duplicate date 'd1'"),
        ("date,time,price\n\nd1,09:30,1\n,\nd1,9:xx,2\n", "{path}:5: unparseable time '9:xx'"),
        ("date,time,price\nd1,09:30,1\n\nd1,09:30,2\n",
         "{path}:4: duplicate observation for d1 09:30"),
    ], ids=["wide-price", "wide-date", "long-time", "long-repeat"])
    def test_errors_name_the_file_line_past_blank_rows(self, tmp_path, text, message):
        path = tmp_path / "px.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            read_price_csv(str(path))
        assert str(info.value) == message.format(path=path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            read_price_csv(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize("text", [
        "date,t0,t5,t10\nd1,100,101,102\nd2,103,104,105\n",
        "date,time,price\n" + "".join(
            f"{d},{t},{p}\n" for d, base in (("d1", 100), ("d2", 103))
            for p, t in enumerate(("09:30", "09:35", "09:40"), start=base)),
    ], ids=["wide", "long"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        path = tmp_path / "px.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        raw, grid, dates = read_price_csv(str(path))
        assert dates == ["d1", "d2"] and grid.tau == 3
        assert raw.tolist() == [[100.0, 101.0, 102.0], [103.0, 104.0, 105.0]]

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_bytes(b"date,t0,t5\nd\xe9,100,101\n")
        with pytest.raises(DataError, match="cannot read"):
            read_price_csv(str(path))

    def test_wide_missing_padded_and_bad_tokens(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text(
            "date,t0,t5,t10\n"
            "d1, 100.5 ,101,\t102.25\n"
            "d2,NA,,103\n"
            "d3, NA ,104,105\n"
        )
        raw, _, dates = read_price_csv(str(path))
        assert dates == ["d1", "d2", "d3"]
        assert raw[0].tolist() == [100.5, 101.0, 102.25]
        assert math.isnan(raw[1, 0]) and math.isnan(raw[1, 1]) and raw[1, 2] == 103.0
        assert math.isnan(raw[2, 0]) and raw[2, 1:].tolist() == [104.0, 105.0]
        path.write_text("date,t0,t5,t10\nd1,100,101,102\nd2,100,1o1,x\n")
        with pytest.raises(DataError) as info:
            read_price_csv(str(path))
        assert str(info.value) == f"unparseable price '1o1' at {path}:3"
