import csv
import math
import os
import tempfile
import warnings

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
from curvecast.gridcurves import _parse_clock, _parse_price


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


def ingest_row_loop_oracle(raw, grid=None, dates=None, max_missing_frac=0.5):
    """The row-by-row screening ``ingest_price_matrix`` replaced, for prices known to be valid."""
    raw = np.asarray(raw, dtype=float)
    n, tau = raw.shape
    if grid is None:
        grid = IntradayGrid.regular(tau)
    dates = [f"day{t + 1:04d}" for t in range(n)] if dates is None else list(dates)
    keep, dropped = [], []
    for t in range(n):
        miss = np.isnan(raw[t])
        frac = miss.mean()
        if frac > max_missing_frac:
            dropped.append((dates[t], f"{frac:.0%} of prices missing"))
        elif miss[0] or miss[-1]:
            dropped.append((dates[t], "missing boundary price"))
        else:
            keep.append(t)
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} of {n} days during ingestion: "
            + "; ".join(f"{d} ({why})" for d, why in dropped[:5])
            + ("..." if len(dropped) > 5 else "")
        )
    if not keep:
        raise DataError("no usable days after screening")
    kept = raw[keep]
    interpolated = int(np.isnan(kept).sum())
    idx = np.arange(tau)
    for row in kept:
        miss = np.isnan(row)
        if miss.any():
            row[miss] = np.interp(idx[miss], idx[~miss], row[~miss])
    summary = {
        "days_in": n,
        "days_kept": len(keep),
        "days_dropped": [{"date": d, "reason": why} for d, why in dropped],
        "interpolated_cells": interpolated,
        "tau": tau,
    }
    return PriceMatrix(kept, grid), [dates[t] for t in keep], summary


def _ingest_outcome(ingest, raw, max_missing_frac):
    """What an ingestion returns or raises, with the text of every warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pm, kept, summary = ingest(raw, dates=[f"d{t}" for t in range(raw.shape[0])],
                                       max_missing_frac=max_missing_frac)
            out = (pm.prices.shape, pm.prices.tobytes(), kept, summary)
        except DataError as exc:
            out = str(exc)
    return out, [str(w.message) for w in caught]


@st.composite
def _gappy_prices(draw):
    """Positive prices with random gaps, whole missing rows and missing boundary prices."""
    n, tau = draw(st.integers(1, 9)), draw(st.integers(3, 9))
    raw = draw(arrays(float, (n, tau), elements=st.floats(1e-3, 1e6)))
    kind = st.sampled_from(["full", "random", "all", "first", "last", "interior"])
    for t in range(n):
        row_kind = draw(kind)
        if row_kind == "random":
            raw[t, draw(arrays(bool, tau))] = np.nan
        elif row_kind == "all":
            raw[t] = np.nan
        elif row_kind in ("first", "last"):
            raw[t, 0 if row_kind == "first" else -1] = np.nan
        elif row_kind == "interior":
            lo = draw(st.integers(1, tau - 2))
            raw[t, lo : draw(st.integers(lo + 1, tau - 1))] = np.nan
    return raw


class TestIngestion:
    @settings(max_examples=300, deadline=None)
    @given(raw=_gappy_prices(), data=st.data())
    @example(raw=np.array([[1.0, np.nan, np.nan, 2.0], [1.0, np.nan, 3.0, 2.0]]), data=None)
    def test_array_screening_equals_the_row_loop(self, raw, data):
        fracs = sorted(set(np.isnan(raw).mean(axis=1).tolist()))
        choices = [0.0, 1.0, 0.5] + fracs
        levels = choices if data is None else [
            data.draw(st.sampled_from(choices) | st.floats(0.0, 1.0))
        ]
        for level in levels:
            want = _ingest_outcome(ingest_row_loop_oracle, raw, level)
            assert _ingest_outcome(ingest_price_matrix, raw, level) == want

    def test_bad_price_names_its_date_label(self):
        raw = np.array([[np.nan, 1, 1, 1], [1, 1, 1, 1], [1, -2, 1, 1]], dtype=float)
        with pytest.warns(UserWarning, match=r"d1 \(missing boundary price\)"):
            with pytest.raises(DataError) as info:
                ingest_price_matrix(raw, dates=["d1", "d2", "d3"])
        assert str(info.value) == "non-positive or non-finite price at d3, grid index 2"
        raw[2, 1] = np.inf  # a kept day's default label, past an interior gap
        raw[1, 2] = np.nan
        with pytest.warns(UserWarning), pytest.raises(DataError) as info:
            ingest_price_matrix(raw)
        assert str(info.value) == "non-positive or non-finite price at day0003, grid index 2"

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


def read_csv_oracle(path):
    """The reader ``read_price_csv`` replaced: a blank-row test over every field, and a
    list comprehension over a complete wide row."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader if r and any(f.strip() for f in r)]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    header = [f.strip() for f in rows[0][1]]
    if sorted(h.lower() for h in header) == ["date", "price", "time"]:
        return _read_long_oracle(rows, header, path)
    return _read_wide_oracle(rows, header, path)


def _read_long_oracle(rows, header, path):
    lowered = [h.lower() for h in header]
    c_date, c_time, c_price = (lowered.index(c) for c in ("date", "time", "price"))
    obs, times, dates = {}, {}, []
    for ln, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        date = row[c_date].strip()
        tlabel = row[c_time].strip()
        minutes = _parse_clock(tlabel)
        if minutes is None:
            raise DataError(f"{path}:{ln}: unparseable time {tlabel!r}")
        price = _parse_price(row[c_price], f"{path}:{ln}")
        if date not in obs:
            obs[date] = {}
            dates.append(date)
        if minutes in obs[date]:
            raise DataError(f"{path}:{ln}: duplicate observation for {date} {tlabel}")
        obs[date][minutes] = price
        times[minutes] = tlabel
    minutes_sorted = sorted(times)
    tau = len(minutes_sorted)
    if tau < 3:
        raise DataError(f"{path}: only {tau} distinct intraday times, need at least 3")
    grid = IntradayGrid(tau=tau, times=tuple(m - minutes_sorted[0] for m in minutes_sorted))
    raw = np.full((len(dates), tau), np.nan)
    for t, date in enumerate(dates):
        for j, m in enumerate(minutes_sorted):
            raw[t, j] = obs[date].get(m, math.nan)
    return raw, grid, dates


def _read_wide_oracle(rows, header, path):
    has_date = header[0].lower() == "date"
    price_cols = header[1:] if has_date else header
    offset = 1 if has_date else 0
    minutes = []
    for h in price_cols:
        m = _parse_clock(h)
        if m is None:
            raise DataError(f"{path}: unrecognized wide-format column {h!r}")
        minutes.append(m)
    if len(minutes) < 3:
        raise DataError(f"{path}: only {len(minutes)} price columns, need at least 3")
    if any(b <= a for a, b in zip(minutes, minutes[1:])):
        raise DataError(f"{path}: wide-format time columns must be increasing")
    grid = IntradayGrid(tau=len(minutes), times=tuple(m - minutes[0] for m in minutes))
    dates = {}
    raw = np.full((len(rows) - 1, len(minutes)), np.nan)
    for i, (ln, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        date = row[0].strip() if has_date else f"day{i + 1:04d}"
        if dates.setdefault(date, ln) != ln:
            raise DataError(f"{path}:{ln}: duplicate date {date!r}")
        try:
            raw[i] = [float(tok) for tok in row[offset:]]
        except ValueError:
            raw[i] = [_parse_price(tok, f"{path}:{ln}") for tok in row[offset:]]
    return raw, grid, list(dates)


# prices mostly parse; flawed tokens, clocks and labels are the rarer draws
_PRICE_TOKENS = st.sampled_from([
    "", "NA", " NA ", "  ", "\t", "100", " 101.5 ", "1e2", "1E-3", "-2.5e+1", "inf", "-inf",
    "nan", "1_0", "+7", ".5", "5.", "0", "-0.0", "1e400", "0x10", "1o1",
]) | st.floats(allow_nan=False).map(repr) | st.floats(1e-3, 1e6).map(repr)
_LABELS = st.sampled_from(["d1", " d1 ", "", "date", "2024-01-02"])
_CLOCKS = st.sampled_from(["09:30", "09:35", "09:40", "t0", "t5", "x"])


@st.composite
def _price_files(draw):
    """CSV text in the wide (with or without dates) or long layout, with flaws and noise."""
    layout = draw(st.sampled_from(["wide", "wide-undated", "long"]))
    if layout == "long":
        header = [draw(st.sampled_from([h, h.upper(), f" {h} "]))
                  for h in draw(st.permutations(["date", "time", "price"]))]
    else:
        times = [f"t{5 * j}" for j in range(draw(st.sampled_from([2, 3, 3, 4, 5])))]
        if draw(st.integers(0, 3)) == 0:
            times[draw(st.integers(0, len(times) - 1))] = draw(_CLOCKS)
        header = (["date"] if layout == "wide" else []) + times
    rows = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "commas", "ragged"]))
        if kind == "blank":
            rows.append([])
        elif kind == "spaces":
            rows.append([" " * draw(st.integers(1, 3))])
        elif kind == "commas":
            rows.append([draw(st.sampled_from(["", " "])) for _ in header])
        else:
            row = []
            for h in header:
                name = h.strip().lower()
                if name == "date":  # a day of its own, a repeat of the first or a flawed label
                    days = f"d{i}" if layout == "wide" else f"d{i // 3}"
                    row.append(draw(st.sampled_from([days] * 4) | _LABELS))
                elif name == "time":
                    row.append(draw(st.sampled_from(["09:30", "09:35", "09:40"]) | _CLOCKS))
                else:
                    row.append(draw(_PRICE_TOKENS))
            if kind == "ragged":
                row = row[:-1] if draw(st.booleans()) else row + [draw(_PRICE_TOKENS)]
            rows.append(row)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(",".join(r) for r in [header] + rows)
    return draw(st.sampled_from(["", "\ufeff"])) + text + "\n"


def _read_outcome(read, path):
    try:
        raw, grid, dates = read(path)
    except DataError as exc:
        return str(exc)
    return raw.shape, raw.tobytes(), grid, dates


class TestCsv:
    @settings(max_examples=400, deadline=None)
    @given(text=_price_files())
    @example(text="date,t0,t5,t10\n,1,2,3\n \nd1,1, ,3\n\n,,,\nd1,1,2,3\n")
    @example(text="\ufeffT0,t5,t10\n1_0,1e400,-inf\n")
    def test_reader_equals_the_field_by_field_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "px.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert _read_outcome(read_price_csv, path) == _read_outcome(read_csv_oracle, path)

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
