"""Intraday price grids and cumulative log-return curves.

A trading day is a vector of prices on a fixed intraday grid of ``tau``
points.  Each day is converted to a curve of cumulative log returns
relative to the day's opening price, expressed in percent:

    curve[i] = 100 * (ln P(u_i) - ln P(u_1)),   i = 2..tau

so a day of ``tau`` prices yields ``tau - 1`` curve values and the curve
always starts implicitly at zero.  All downstream inner products use the
rectangle rule over the curve grid with weight ``1 / (tau - 2)``, which
makes results invariant to how the clock times are labelled.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._docs import write_csv
from .errors import ConfigError, DataError

MISSING_TOKENS = ("", "NA")
DEFAULT_MAX_MISSING_FRAC = 0.5


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def block_weight(npoints: int) -> float:
    """Rectangle-rule weight of a block of grid points (weight 1 for a single point)."""
    return 1.0 / (npoints - 1) if npoints >= 2 else 1.0


@dataclass(frozen=True)
class IntradayGrid:
    """Uniform intraday observation grid.

    Parameters
    ----------
    tau : int
        Number of intraday observation points per day (>= 3).
    times : tuple of float
        Clock labels for the grid, minutes since the open.  Must be
        uniformly spaced and strictly increasing.
    """

    tau: int
    times: tuple

    def __post_init__(self):
        if self.tau < 3:
            raise DataError(f"grid needs at least 3 points, got tau={self.tau}")
        times = tuple(float(t) for t in self.times)
        if len(times) != self.tau:
            raise DataError(f"times has {len(times)} entries, expected tau={self.tau}")
        if not np.isfinite(times).all():
            raise DataError("grid times must be finite")
        steps = np.diff(times)
        if len(steps) and (steps <= 0).any():
            raise DataError("grid times must be strictly increasing")
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9):
            raise DataError("grid times must be uniformly spaced")
        object.__setattr__(self, "times", times)

    @classmethod
    def regular(cls, tau: int) -> "IntradayGrid":
        """``tau`` points five minutes apart, from 0."""
        return cls(tau=tau, times=tuple(5.0 * i for i in range(tau)))

    @property
    def quad_weight(self) -> float:
        """Rectangle-rule weight for inner products on the curve grid."""
        return block_weight(self.curve_size)

    @property
    def curve_size(self) -> int:
        return self.tau - 1


@dataclass(frozen=True)
class PriceMatrix:
    """Prices for ``n`` days on a shared intraday grid, shape (n, tau)."""

    prices: np.ndarray
    grid: IntradayGrid

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 2:
            raise DataError(f"price matrix must be 2-d, got shape {prices.shape}")
        if prices.shape[1] != self.grid.tau:
            raise DataError(
                f"price matrix has {prices.shape[1]} columns, expected tau={self.grid.tau}"
            )
        bad = ~np.isfinite(prices) | (prices <= 0)
        if bad.any():
            day, idx = np.argwhere(bad)[0]
            raise DataError(
                f"non-positive or non-finite price at day {day}, grid index {idx + 1}"
            )
        object.__setattr__(self, "prices", _freeze(prices))

    @property
    def n(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class FunctionalTimeSeries:
    """Daily return curves, shape (n, tau - 1), one row per day."""

    values: np.ndarray
    grid: IntradayGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError(f"curve matrix must be 2-d, got shape {values.shape}")
        if values.shape[1] != self.grid.tau - 1:
            raise DataError(
                f"curve matrix has {values.shape[1]} columns, expected {self.grid.tau - 1}"
            )
        if not np.isfinite(values).all():
            raise DataError("curve matrix contains non-finite values")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def head(self, n: int) -> "FunctionalTimeSeries":
        return FunctionalTimeSeries(self.values[:n], self.grid)

    def window(self, start: int, stop: int) -> "FunctionalTimeSeries":
        return FunctionalTimeSeries(self.values[start:stop], self.grid)


def cidr_transform(prices: PriceMatrix) -> FunctionalTimeSeries:
    """Convert daily prices to cumulative intraday log-return curves (percent)."""
    logp = np.log(prices.prices)
    curves = 100.0 * (logp[:, 1:] - logp[:, :1])
    return FunctionalTimeSeries(curves, prices.grid)


def inverse_cidr(curves: FunctionalTimeSeries, open_prices: Sequence[float]) -> PriceMatrix:
    """Rebuild a price matrix from return curves and per-day opening prices."""
    opens = np.asarray(open_prices, dtype=float)
    if opens.shape != (curves.n,):
        raise DataError(
            f"open_prices has shape {opens.shape}, expected ({curves.n},)"
        )
    if (~np.isfinite(opens)).any() or (opens <= 0).any():
        raise DataError("open prices must be positive and finite")
    rest = np.exp(curves.values / 100.0) * opens[:, None]
    prices = np.hstack([opens[:, None], rest])
    return PriceMatrix(prices, curves.grid)


def ingest_price_matrix(
    raw: np.ndarray,
    grid: Optional[IntradayGrid] = None,
    dates: Optional[Sequence[str]] = None,
    max_missing_frac: float = DEFAULT_MAX_MISSING_FRAC,
):
    """Screen raw daily prices, drop unusable days, interpolate the rest.

    ``raw`` is (n, tau) with NaN for a missing price.  Days are dropped (with a warning) when
    more than ``max_missing_frac`` (a fraction in [0, 1]) of their prices are missing or when a
    boundary price is missing, which would be the anchor of the return curve.  Interior gaps of
    the kept days are filled linearly in the grid index; a kept day's non-positive or infinite
    price is a ``DataError`` that names its date label.  Returns ``(PriceMatrix, kept_dates,
    summary_dict)``.
    """
    if not 0.0 <= max_missing_frac <= 1.0:
        raise ConfigError(f"max_missing_frac must lie in [0, 1], got {max_missing_frac}")
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise DataError(f"raw price matrix must be 2-d, got shape {raw.shape}")
    n, tau = raw.shape
    if grid is None:
        grid = IntradayGrid.regular(tau)
    if dates is None:
        dates = [f"day{t + 1:04d}" for t in range(n)]
    dates = list(dates)
    if len(dates) != n:
        raise DataError(f"{len(dates)} date labels for {n} rows")

    miss = np.isnan(raw)
    frac = miss.mean(axis=1)
    over = frac > max_missing_frac
    edge = miss[:, 0] | miss[:, -1]
    dropped = [
        (dates[t], f"{frac[t]:.0%} of prices missing" if over[t] else "missing boundary price")
        for t in np.flatnonzero(over | edge)
    ]
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} of {n} days during ingestion: "
            + "; ".join(f"{d} ({why})" for d, why in dropped[:5])
            + ("..." if len(dropped) > 5 else "")
        )
    keep = np.flatnonzero(~(over | edge))
    if not keep.size:
        raise DataError("no usable days after screening")
    kept, gaps = raw[keep], miss[keep]  # kept is a copy, filled in place
    bad = np.argwhere(np.isinf(kept) | (kept <= 0))  # a missing price compares false
    if bad.size:
        raise DataError(f"non-positive or non-finite price at {dates[keep[bad[0, 0]]]}, "
                        f"grid index {bad[0, 1] + 1}")
    interpolated = int(gaps.sum())
    idx = np.arange(tau)
    for t in np.flatnonzero(gaps.any(axis=1)):
        hole = gaps[t]
        kept[t, hole] = np.interp(idx[hole], idx[~hole], kept[t, ~hole])
    pm = PriceMatrix(kept, grid)
    summary = {
        "days_in": n,
        "days_kept": len(keep),
        "days_dropped": [{"date": d, "reason": why} for d, why in dropped],
        "interpolated_cells": interpolated,
        "tau": tau,
    }
    return pm, [dates[t] for t in keep], summary


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------


def _parse_clock(label: str) -> Optional[float]:
    """Parse a column label into minutes.  Accepts 't{min}', 'HH:MM', or a number."""
    label = label.strip()
    if not label:
        return None
    try:
        if label[0] in ("t", "T") and label[1:].replace(".", "", 1).replace("-", "", 1).isdigit():
            return float(label[1:])
        if ":" in label:
            parts = label.split(":")
            if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                return 60.0 * int(parts[0]) + int(parts[1])
            return None
        return float(label)
    except (ValueError, OverflowError):  # "t1-2", "²:30", an hour past float range
        return None


def _parse_price(token: str, where: str) -> float:
    token = token.strip()
    if token in MISSING_TOKENS:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(f"unparseable price {token!r} at {where}") from None


def read_price_csv(path: str):
    """Read raw prices from CSV, auto-detecting the layout from the header.

    Long layout has columns ``date,time,price`` (one observation per row);
    wide layout has one row per day, an optional leading ``date`` column,
    and one column per intraday time.  Missing prices are empty fields or
    ``NA``.  Returns ``(raw, grid, dates)`` where ``raw`` is an (n, tau)
    float array with NaN for missing entries.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)  # each kept row with its file line, blank rows dropped
            rows = [(reader.line_num, r) for r in reader
                    if r and (r[0].strip() or any(f.strip() for f in r))]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    header = [f.strip() for f in rows[0][1]]
    lowered = [h.lower() for h in header]
    if sorted(lowered) == ["date", "price", "time"]:
        return _read_long(rows, header, path)
    return _read_wide(rows, header, path)


def _read_long(rows, header, path):
    lowered = [h.lower() for h in header]
    c_date, c_time, c_price = (lowered.index(name) for name in ("date", "time", "price"))
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


def _read_wide(rows, header, path):
    offset = int(header[0].lower() == "date")
    minutes = []
    for h in header[offset:]:
        m = _parse_clock(h)
        if m is None:
            raise DataError(f"{path}: unrecognized wide-format column {h!r}")
        minutes.append(m)
    if len(minutes) < 3:
        raise DataError(f"{path}: only {len(minutes)} price columns, need at least 3")
    if any(b <= a for a, b in zip(minutes, minutes[1:])):
        raise DataError(f"{path}: wide-format time columns must be increasing")
    grid = IntradayGrid(tau=len(minutes), times=tuple(m - minutes[0] for m in minutes))
    dates = {}  # date -> line, in file order
    raw = np.full((len(rows) - 1, len(minutes)), np.nan)
    for i, (ln, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        date = row[0].strip() if offset else f"day{i + 1:04d}"
        if dates.setdefault(date, ln) != ln:
            raise DataError(f"{path}:{ln}: duplicate date {date!r}")
        try:
            raw[i] = list(map(float, row[offset:]))
        except ValueError:  # missing or bad tokens: parse field by field
            raw[i] = [_parse_price(tok, f"{path}:{ln}") for tok in row[offset:]]
    return raw, grid, list(dates)


def write_wide_csv(path: str, prices: PriceMatrix, dates: Optional[Sequence[str]] = None) -> None:
    """Write a price matrix in the canonical wide layout (date + t{min} columns)."""
    if dates is None:
        dates = [f"day{t + 1:04d}" for t in range(prices.n)]
    if len(dates) != prices.n:
        raise DataError(f"{len(dates)} date labels for {prices.n} rows")
    header = ["date"] + [f"t{g:g}" for g in prices.grid.times]
    write_csv(path, header, ([date, *row] for date, row in zip(dates, prices.prices)))
