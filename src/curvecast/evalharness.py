"""Out-of-sample evaluation: forecast-accuracy metrics and a backtest driver.

The backtest walks an expanding window over the curve series, refits the
full pipeline each day, and scores day-ahead forecasts on the whole
curve as well as intraday-updated forecasts on every configured
updating period.  Per-day model failures are recorded and the day
skipped; nothing is imputed.  All randomness is derived from the plan's
master seed per (stage, day), so a rerun with the same plan reproduces
every artifact byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .fpca import fit_fpca
from .gridcurves import FunctionalTimeSeries
from .sieve import (
    BootstrapConfig,
    derive_seed,
    sieve_prediction,
    ts_point_forecast,
)
from .updating import (
    DEFAULT_LAMBDA_GRID,
    LambdaSchedule,
    build_update_context,
    flr_fit,
    flr_interval_update,
    flr_update,
    normalize_lambda_grid,
    ols_update,
    pls_interval_update,
    pls_update,
    tune_lambda,
    updating_columns,
)
from .varmodel import fit_var, select_order

METHODS = ("TS", "PLS", "OLS", "FLR")

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _pair(actuals, forecasts):
    a = np.asarray(actuals, dtype=float)
    f = np.asarray(forecasts, dtype=float)
    if a.shape != f.shape or a.size == 0:
        raise DataError(f"mismatched or empty arrays: {a.shape} vs {f.shape}")
    return a, f


def msfe(actuals: np.ndarray, forecasts: np.ndarray):
    """Mean squared forecast error: per-gridpoint curve and its average.

    Inputs are (days, points); a 1-d pair is treated as one day.
    """
    a, f = _pair(actuals, forecasts)
    if a.ndim == 1:
        a = a[None]
        f = f[None]
    per_point = ((a - f) ** 2).mean(axis=0)
    return per_point, float(per_point.mean())


def ecp(actuals, lower, upper, mode: str = "pointwise") -> float:
    """Empirical coverage of interval forecasts.

    ``pointwise`` counts covered (day, point) pairs; ``uniform`` counts
    days whose whole curve stays inside.  Boundary hits count as covered.
    """
    a = np.asarray(actuals, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if a.ndim == 1:
        a, lo, hi = a[None], np.broadcast_to(lo, (1,) + lo.shape), np.broadcast_to(hi, (1,) + hi.shape)
    lo = np.broadcast_to(lo, a.shape)
    hi = np.broadcast_to(hi, a.shape)
    if a.size == 0:
        raise DataError("empty actuals")
    inside = ~(a < lo) & ~(a > hi)
    if mode == "pointwise":
        return float(inside.mean())
    if mode == "uniform":
        return float(inside.all(axis=1).mean())
    raise ConfigError(f"unknown coverage mode {mode!r}")


def interval_score(lower, upper, actual, alpha: float):
    """Proper score of a central (1 - alpha) interval; lower is better.

    Width plus ``2 / alpha`` times the distance by which the actual
    escapes the interval.  Vectorized elementwise.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    x = np.asarray(actual, dtype=float)
    if (hi < lo).any():
        raise DataError("upper interval bound below lower bound")
    return (hi - lo) + (2.0 / alpha) * ((lo - x) * (x < lo) + (x - hi) * (x > hi))


def mean_interval_score(lower, upper, actuals, alpha: float):
    """Interval score averaged over days: per-gridpoint curve and its average."""
    a = np.asarray(actuals, dtype=float)
    if a.ndim == 1:
        a = a[None]
    lo = np.broadcast_to(np.asarray(lower, dtype=float), a.shape)
    hi = np.broadcast_to(np.asarray(upper, dtype=float), a.shape)
    per_point = interval_score(lo, hi, a, alpha).mean(axis=0)
    return per_point, float(per_point.mean())


def sign_prediction_probability(actuals, forecasts) -> float:
    """Fraction of entries whose forecast sign matches the actual sign.

    Zero actuals are matched only by exactly zero forecasts.
    """
    a, f = _pair(actuals, forecasts)
    return float((np.sign(a) == np.sign(f)).mean())


# ---------------------------------------------------------------------------
# backtest plan and report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BacktestPlan:
    """Configuration of one evaluation run.

    The window expands by default (``rolling=True`` keeps its length
    fixed).  ``periods`` lists the updating periods m (last observed grid
    index); None means every feasible one.  When PLS is requested and no
    ``lambda_schedule`` is given, shrinkage is tuned on the initial
    training sample using ``tune_train``/``tune_validation`` days, all
    strictly before the test window.
    """

    initial_train: int = 200
    n_test: int = 50
    methods: tuple = METHODS
    periods: Optional[tuple] = None
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    lambda_schedule: Optional[LambdaSchedule] = None
    tune_train: int = 150
    tune_validation: int = 50
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    num_components: Optional[int] = None
    max_order: int = 10
    rolling: bool = False
    n_workers: int = 1


def validate_plan(plan: BacktestPlan, fts: FunctionalTimeSeries) -> tuple:
    """Check a plan against the data; returns the resolved updating periods."""
    if plan.initial_train < 3:
        raise ConfigError(f"initial_train must be >= 3, got {plan.initial_train}")
    if plan.n_test < 1:
        raise ConfigError(f"n_test must be >= 1, got {plan.n_test}")
    if plan.initial_train + plan.n_test > fts.n:
        raise ConfigError(
            f"plan needs {plan.initial_train + plan.n_test} days, data has {fts.n}"
        )
    if not plan.methods:
        raise ConfigError("plan requests no methods")
    for mth in plan.methods:
        if mth not in METHODS:
            raise ConfigError(f"unknown method {mth!r}; choose from {METHODS}")
    tau = fts.grid.tau
    periods = tuple(range(2, tau)) if plan.periods is None else tuple(
        sorted(set(int(m) for m in plan.periods))
    )
    for m in periods:
        if not 2 <= m < tau:
            raise ConfigError(f"updating period m={m} outside 2..{tau - 1}")
    if "PLS" in plan.methods:
        if plan.lambda_schedule is None:
            normalize_lambda_grid(plan.lambda_grid)
            if plan.tune_train + plan.tune_validation > plan.initial_train:
                raise ConfigError(
                    "shrinkage tuning must fit inside the initial training sample: "
                    f"{plan.tune_train}+{plan.tune_validation} > {plan.initial_train}"
                )
        else:
            sched = plan.lambda_schedule
            for m in periods:
                sched.point_lambda(m)
                for a in plan.bootstrap.alpha_levels:
                    sched.interval_lambda(a, m)
    if plan.n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {plan.n_workers}")
    return periods


def plan_to_dict(plan: BacktestPlan) -> dict:
    return {
        "initial_train": plan.initial_train,
        "n_test": plan.n_test,
        "methods": list(plan.methods),
        "periods": None if plan.periods is None else list(plan.periods),
        "bootstrap": {
            "num_replicates": plan.bootstrap.num_replicates,
            "seed": plan.bootstrap.seed,
            "alpha_levels": list(plan.bootstrap.alpha_levels),
            "center": plan.bootstrap.center,
        },
        "lambda_schedule_provided": plan.lambda_schedule is not None,
        "tune_train": plan.tune_train,
        "tune_validation": plan.tune_validation,
        "lambda_grid": list(plan.lambda_grid),
        "num_components": plan.num_components,
        "max_order": plan.max_order,
        "rolling": plan.rolling,
    }


def plan_hash(plan: BacktestPlan) -> str:
    text = json.dumps(plan_to_dict(plan), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class MetricReport:
    """Everything the backtest measured, ready for export."""

    alpha_levels: tuple
    methods: tuple
    periods: tuple
    n_test: int
    days_used: int
    seed: int
    full_day: dict          # method -> metrics over the whole curve grid
    updating: dict          # method -> aggregate metrics over updating periods
    per_period: dict        # method -> {m -> metrics}
    sign: dict              # method -> {m -> sign accuracy}
    lambda_schedule: Optional[LambdaSchedule]
    failures: list
    skipped_cells: dict     # (method, m) -> skip count
    plan: dict
    config_hash: str


class _Cell:
    """Accumulates per-day vectors for one (method, updating period)."""

    __slots__ = ("sq", "sign_ok", "cover", "iscore")

    def __init__(self, alphas):
        self.sq = []
        self.sign_ok = []
        self.cover = {a: [] for a in alphas}
        self.iscore = {a: [] for a in alphas}

    def add_point(self, actual, forecast):
        self.sq.append((actual - forecast) ** 2)
        self.sign_ok.append(np.sign(actual) == np.sign(forecast))

    def add_interval(self, alpha, actual, lo, hi):
        inside = ~(actual < lo) & ~(actual > hi)
        self.cover[alpha].append(inside)
        self.iscore[alpha].append(interval_score(lo, hi, actual, alpha))


def _cell_metrics(cell: _Cell, alphas) -> Optional[dict]:
    if not cell.sq:
        return None
    out = {
        "msfe": float(np.mean(np.concatenate(cell.sq))),
        "sign_accuracy": float(np.mean(np.concatenate(cell.sign_ok))),
        "days": len(cell.sq),
    }
    out["ecp_pointwise"] = {
        a: (float(np.mean(np.concatenate(v))) if v else None)
        for a, v in cell.cover.items()
    }
    out["interval_score"] = {
        a: (float(np.mean(np.concatenate(v))) if v else None)
        for a, v in cell.iscore.items()
    }
    return out


def run_backtest(fts: FunctionalTimeSeries, plan: BacktestPlan) -> MetricReport:
    """Expanding-window evaluation of the requested methods."""
    periods = validate_plan(plan, fts)
    alphas = plan.bootstrap.alpha_levels
    tau = fts.grid.tau
    d = tau - 1
    updating_methods = tuple(m for m in plan.methods if m != "TS") or ()
    track_periods = bool(periods) and (bool(updating_methods) or "TS" in plan.methods)

    schedule = plan.lambda_schedule
    if "PLS" in plan.methods and schedule is None:
        head = fts.head(plan.initial_train)
        schedule = tune_lambda(
            head,
            train_size=plan.tune_train,
            validation_size=plan.tune_validation,
            objective="both",
            lambda_grid=plan.lambda_grid,
            periods=periods,
            num_components=plan.num_components,
            max_order=plan.max_order,
            bootstrap=replace(plan.bootstrap, seed=derive_seed(plan.bootstrap.seed, 1)),
        )

    ts_sq, ts_iscore, ts_cover, ts_band_cover = [], {a: [] for a in alphas}, {a: [] for a in alphas}, {a: [] for a in alphas}
    cells = {mth: {m: _Cell(alphas) for m in periods} for mth in plan.methods}
    failures = []
    skipped = {}
    days_used = 0

    for j in range(plan.n_test):
        t_end = plan.initial_train + j
        start = j if plan.rolling else 0
        train = fts.window(start, t_end)
        actual = fts.values[t_end]
        try:
            model = fit_fpca(train, plan.num_components)
            K = model.num_components
            order = select_order(model.scores[:, :K], plan.max_order)
            var = fit_var(model.scores[:, :K], order)
            day_cfg = replace(plan.bootstrap, seed=derive_seed(plan.bootstrap.seed, 2, t_end))
            forecast = sieve_prediction(train, model, var, day_cfg, n_workers=plan.n_workers)
            ts_curve = ts_point_forecast(model, var)
        except (DataError, NumericalError, ConfigError) as exc:
            failures.append({"day": t_end, "stage": "fit", "error": str(exc)})
            continue
        days_used += 1

        if "TS" in plan.methods:
            ts_sq.append((actual - ts_curve) ** 2)
            for a in alphas:
                lo, hi = forecast.pointwise[a]
                ts_cover[a].append(~(actual < lo) & ~(actual > hi))
                ts_iscore[a].append(interval_score(lo, hi, actual, a))
                blo, bhi = forecast.band[a]
                ts_band_cover[a].append(bool((~(actual < blo) & ~(actual > bhi)).all()))

        if not track_periods:
            continue
        for m in periods:
            cols = updating_columns(tau, m)
            actual_late = actual[cols]
            if "TS" in plan.methods:
                cell = cells["TS"][m]
                cell.add_point(actual_late, ts_curve[cols])
                for a in alphas:
                    lo, hi = forecast.pointwise[a]
                    cell.add_interval(a, actual_late, lo[cols], hi[cols])
            if not updating_methods:
                continue
            ctx = build_update_context(model, var, actual[: m - 1])
            if "PLS" in plan.methods:
                cell = cells["PLS"][m]
                try:
                    curve = pls_update(ctx, schedule.point_lambda(m), model)
                    cell.add_point(actual_late, curve)
                    lam_iv = {a: schedule.interval_lambda(a, m) for a in alphas}
                    ivs = pls_interval_update(ctx, lam_iv, model, forecast.replicates, alphas)
                    for a in alphas:
                        lo, hi = ivs[a]
                        cell.add_interval(a, actual_late, lo, hi)
                except NumericalError:
                    skipped[("PLS", m)] = skipped.get(("PLS", m), 0) + 1
            if "OLS" in plan.methods:
                cell = cells["OLS"][m]
                try:
                    cell.add_point(actual_late, ols_update(ctx, model))
                except NumericalError:
                    skipped[("OLS", m)] = skipped.get(("OLS", m), 0) + 1
            if "FLR" in plan.methods:
                cell = cells["FLR"][m]
                try:
                    flr = flr_fit(train, m)
                    cell.add_point(actual_late, flr_update(flr, actual[: m - 1]))
                    ivs = flr_interval_update(flr, actual[: m - 1], forecast.replicates, alphas)
                    for a in alphas:
                        lo, hi = ivs[a]
                        cell.add_interval(a, actual_late, lo, hi)
                except (NumericalError, DataError):
                    skipped[("FLR", m)] = skipped.get(("FLR", m), 0) + 1

    if days_used == 0:
        raise NumericalError(f"every test day failed; first error: {failures[0]['error']}")

    full_day = {}
    if "TS" in plan.methods and ts_sq:
        sq = np.vstack(ts_sq)
        entry = {
            "msfe_curve": sq.mean(axis=0).tolist(),
            "msfe": float(sq.mean()),
            "ecp_pointwise": {},
            "ecp_uniform": {},
            "interval_score": {},
            "interval_score_curve": {},
        }
        for a in alphas:
            entry["ecp_pointwise"][a] = float(np.mean(np.vstack(ts_cover[a])))
            entry["ecp_uniform"][a] = float(np.mean(ts_band_cover[a]))
            curve = np.vstack(ts_iscore[a]).mean(axis=0)
            entry["interval_score_curve"][a] = curve.tolist()
            entry["interval_score"][a] = float(curve.mean())
        full_day["TS"] = entry

    per_period = {}
    sign = {}
    updating = {}
    for mth in plan.methods:
        if not track_periods:
            continue
        table = {}
        for m in periods:
            got = _cell_metrics(cells[mth][m], alphas)
            if got is not None:
                table[m] = got
        if not table:
            continue
        per_period[mth] = table
        sign[mth] = {m: v["sign_accuracy"] for m, v in table.items()}
        agg = {
            "msfe": float(np.mean([v["msfe"] for v in table.values()])),
            "sign_accuracy": float(np.mean([v["sign_accuracy"] for v in table.values()])),
            "periods_covered": sorted(table),
            "ecp_pointwise": {},
            "interval_score": {},
        }
        for a in alphas:
            covs = [v["ecp_pointwise"][a] for v in table.values() if v["ecp_pointwise"][a] is not None]
            iscs = [v["interval_score"][a] for v in table.values() if v["interval_score"][a] is not None]
            agg["ecp_pointwise"][a] = float(np.mean(covs)) if covs else None
            agg["interval_score"][a] = float(np.mean(iscs)) if iscs else None
        updating[mth] = agg

    return MetricReport(
        alpha_levels=alphas,
        methods=plan.methods,
        periods=periods,
        n_test=plan.n_test,
        days_used=days_used,
        seed=plan.bootstrap.seed,
        full_day=full_day,
        updating=updating,
        per_period=per_period,
        sign=sign,
        lambda_schedule=schedule if "PLS" in plan.methods else None,
        failures=failures,
        skipped_cells=skipped,
        plan=plan_to_dict(plan),
        config_hash=plan_hash(plan),
    )


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------


def _pct(alpha: float) -> int:
    return round(100.0 * (1.0 - alpha))


def report_to_json(report: MetricReport) -> str:
    from .updating import schedule_to_json

    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "metric_report",
        "config_hash": report.config_hash,
        "seed": report.seed,
        "alpha_levels": list(report.alpha_levels),
        "methods": list(report.methods),
        "periods": list(report.periods),
        "n_test": report.n_test,
        "days_used": report.days_used,
        "plan": report.plan,
        "full_day": {
            mth: {
                "msfe": e["msfe"],
                "msfe_curve": e["msfe_curve"],
                "ecp_pointwise": {repr(a): v for a, v in e["ecp_pointwise"].items()},
                "ecp_uniform": {repr(a): v for a, v in e["ecp_uniform"].items()},
                "interval_score": {repr(a): v for a, v in e["interval_score"].items()},
                "interval_score_curve": {
                    repr(a): v for a, v in e["interval_score_curve"].items()
                },
            }
            for mth, e in report.full_day.items()
        },
        "updating": {
            mth: {
                "msfe": e["msfe"],
                "sign_accuracy": e["sign_accuracy"],
                "periods_covered": e["periods_covered"],
                "ecp_pointwise": {repr(a): v for a, v in e["ecp_pointwise"].items()},
                "interval_score": {repr(a): v for a, v in e["interval_score"].items()},
            }
            for mth, e in report.updating.items()
        },
        "per_period": {
            mth: {
                str(m): {
                    "msfe": v["msfe"],
                    "sign_accuracy": v["sign_accuracy"],
                    "days": v["days"],
                    "ecp_pointwise": {repr(a): x for a, x in v["ecp_pointwise"].items()},
                    "interval_score": {repr(a): x for a, x in v["interval_score"].items()},
                }
                for m, v in table.items()
            }
            for mth, table in report.per_period.items()
        },
        "failures": report.failures,
        "skipped_cells": [
            {"method": mth, "m": m, "count": c}
            for (mth, m), c in sorted(report.skipped_cells.items())
        ],
        "lambda_schedule": None
        if report.lambda_schedule is None
        else json.loads(schedule_to_json(report.lambda_schedule)),
    }
    return json.dumps(doc, indent=2)


def report_from_json(text: str) -> MetricReport:
    from .updating import schedule_from_json

    doc = json.loads(text)
    if doc.get("kind") != "metric_report":
        raise DataError(f"not a metric report: kind={doc.get('kind')!r}")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise DataError(f"unsupported report schema_version {doc.get('schema_version')!r}")
    alphas = tuple(float(a) for a in doc["alpha_levels"])

    def keyed(mapping):
        return {float(k): v for k, v in mapping.items()}

    full_day = {
        mth: {
            "msfe": e["msfe"],
            "msfe_curve": e["msfe_curve"],
            "ecp_pointwise": keyed(e["ecp_pointwise"]),
            "ecp_uniform": keyed(e["ecp_uniform"]),
            "interval_score": keyed(e["interval_score"]),
            "interval_score_curve": keyed(e["interval_score_curve"]),
        }
        for mth, e in doc["full_day"].items()
    }
    updating = {
        mth: {
            "msfe": e["msfe"],
            "sign_accuracy": e["sign_accuracy"],
            "periods_covered": e["periods_covered"],
            "ecp_pointwise": keyed(e["ecp_pointwise"]),
            "interval_score": keyed(e["interval_score"]),
        }
        for mth, e in doc["updating"].items()
    }
    per_period = {
        mth: {
            int(m): {
                "msfe": v["msfe"],
                "sign_accuracy": v["sign_accuracy"],
                "days": v["days"],
                "ecp_pointwise": keyed(v["ecp_pointwise"]),
                "interval_score": keyed(v["interval_score"]),
            }
            for m, v in table.items()
        }
        for mth, table in doc["per_period"].items()
    }
    schedule = None
    if doc.get("lambda_schedule") is not None:
        schedule = schedule_from_json(json.dumps(doc["lambda_schedule"]))
    return MetricReport(
        alpha_levels=alphas,
        methods=tuple(doc["methods"]),
        periods=tuple(doc["periods"]),
        n_test=doc["n_test"],
        days_used=doc["days_used"],
        seed=doc["seed"],
        full_day=full_day,
        updating=updating,
        per_period=per_period,
        sign={mth: {m: v["sign_accuracy"] for m, v in table.items()} for mth, table in per_period.items()},
        lambda_schedule=schedule,
        failures=doc.get("failures", []),
        skipped_cells={(e["method"], e["m"]): e["count"] for e in doc.get("skipped_cells", [])},
        plan=doc.get("plan", {}),
        config_hash=doc["config_hash"],
    )


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell_str(v) -> str:
    return "" if v is None else repr(float(v))


def write_report_csvs(report: MetricReport, outdir: str) -> dict:
    """Write the flat CSV views of a report; returns {name: path}."""
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = {}
    alphas = sorted(report.alpha_levels, key=lambda a: 1.0 - a)

    header = ["method", "msfe"]
    for a in alphas:
        pct = _pct(a)
        header += [f"ecp_pointwise_{pct}", f"ecp_uniform_{pct}", f"interval_score_{pct}"]
    rows = []
    for mth, e in report.full_day.items():
        row = [mth, _cell_str(e["msfe"])]
        for a in alphas:
            row += [
                _cell_str(e["ecp_pointwise"][a]),
                _cell_str(e["ecp_uniform"][a]),
                _cell_str(e["interval_score"][a]),
            ]
        rows.append(row)
    paths["full_day"] = os.path.join(outdir, "full_day_metrics.csv")
    _write_csv(paths["full_day"], header, rows)

    header = ["method", "msfe", "sign_accuracy"]
    for a in alphas:
        pct = _pct(a)
        header += [f"ecp_pointwise_{pct}", f"interval_score_{pct}"]
    rows = []
    for mth in report.methods:
        if mth not in report.updating:
            continue
        e = report.updating[mth]
        row = [mth, _cell_str(e["msfe"]), _cell_str(e["sign_accuracy"])]
        for a in alphas:
            row += [_cell_str(e["ecp_pointwise"][a]), _cell_str(e["interval_score"][a])]
        rows.append(row)
    paths["updating"] = os.path.join(outdir, "updating_metrics.csv")
    _write_csv(paths["updating"], header, rows)

    present = [mth for mth in report.methods if mth in report.per_period]
    rows = []
    for m in report.periods:
        row = [m]
        for mth in present:
            v = report.per_period[mth].get(m)
            row.append(_cell_str(None if v is None else v["msfe"]))
        rows.append(row)
    paths["msfe_by_period"] = os.path.join(outdir, "msfe_by_period.csv")
    _write_csv(paths["msfe_by_period"], ["m"] + present, rows)

    rows = []
    for m in report.periods:
        for a in alphas:
            row = [m, repr(float(a))]
            for mth in present:
                v = report.per_period[mth].get(m)
                row.append(_cell_str(None if v is None else v["interval_score"][a]))
            rows.append(row)
    paths["interval_score_by_period"] = os.path.join(outdir, "interval_score_by_period.csv")
    _write_csv(paths["interval_score_by_period"], ["m", "alpha"] + present, rows)

    rows = []
    for m in report.periods:
        for a in alphas:
            row = [m, repr(float(a))]
            for mth in present:
                v = report.per_period[mth].get(m)
                row.append(_cell_str(None if v is None else v["ecp_pointwise"][a]))
            rows.append(row)
    paths["ecp_by_period"] = os.path.join(outdir, "ecp_by_period.csv")
    _write_csv(paths["ecp_by_period"], ["m", "alpha"] + present, rows)

    rows = []
    for m in report.periods:
        row = [m]
        for mth in present:
            v = report.sign.get(mth, {}).get(m)
            row.append(_cell_str(v))
        rows.append(row)
    paths["sign_by_period"] = os.path.join(outdir, "sign_by_period.csv")
    _write_csv(paths["sign_by_period"], ["m"] + present, rows)

    if "TS" in report.full_day:
        e = report.full_day["TS"]
        header = ["grid_index", "msfe"] + [f"interval_score_{_pct(a)}" for a in alphas]
        rows = []
        for j, v in enumerate(e["msfe_curve"]):
            row = [j + 2, repr(float(v))]
            for a in alphas:
                row.append(repr(float(e["interval_score_curve"][a][j])))
            rows.append(row)
        paths["ts_by_gridpoint"] = os.path.join(outdir, "ts_by_gridpoint.csv")
        _write_csv(paths["ts_by_gridpoint"], header, rows)

    if report.lambda_schedule is not None:
        sched = report.lambda_schedule
        rows = []
        if sched.point:
            for m in sorted(sched.point):
                rows.append([m, "point", "", repr(float(sched.point[m]))])
        if sched.interval:
            for a in sorted(sched.interval, reverse=True):
                for m in sorted(sched.interval[a]):
                    rows.append([m, "interval", repr(float(a)), repr(float(sched.interval[a][m]))])
        paths["lambda_schedule"] = os.path.join(outdir, "lambda_schedule.csv")
        _write_csv(paths["lambda_schedule"], ["m", "objective", "alpha", "lambda"], rows)

    manifest = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "backtest_manifest",
        "config_hash": report.config_hash,
        "seed": report.seed,
        "library": _library_version(),
        "files": sorted(os.path.basename(p) for p in paths.values()),
    }
    paths["manifest"] = os.path.join(outdir, "manifest.json")
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _library_version() -> str:
    from . import __version__

    return __version__
