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

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._docs import (
    by_coverage,
    coverage_pct,
    decode_keys,
    dump_doc,
    envelope,
    load_doc,
    reading,
    write_csv,
)
from .errors import ConfigError, DataError, NumericalError
from .gridcurves import FunctionalTimeSeries
from .sieve import BootstrapConfig, derive_seed, sieve_prediction, _fit_day
from .updating import (
    DEFAULT_LAMBDA_GRID,
    LambdaSchedule,
    normalize_lambda_grid,
    tune_lambda,
    updating_columns,
    _resolve_periods,
    _schedule_doc,
    _schedule_from_doc,
    _update_period,
)

METHODS = ("TS", "PLS", "OLS", "FLR")

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def msfe(actuals: np.ndarray, forecasts: np.ndarray):
    """Mean squared forecast error: per-gridpoint curve and its average.

    Inputs are (days, points); a 1-d pair is treated as one day.
    """
    a = np.asarray(actuals, dtype=float)
    f = np.asarray(forecasts, dtype=float)
    if a.shape != f.shape or a.size == 0:
        raise DataError(f"mismatched or empty arrays: {a.shape} vs {f.shape}")
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
    if len(set(plan.methods)) < len(plan.methods):
        raise ConfigError(f"plan repeats a method: {plan.methods}")
    periods = _resolve_periods(plan.periods, fts.grid.tau)
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
    lambda_schedule: Optional[LambdaSchedule]
    failures: list
    skipped_cells: dict     # (method, m) -> skip count
    plan: dict
    config_hash: str


class _Cell:
    """Accumulates per-day vectors for one (method, updating period), or for TS's whole curve."""

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


def _pooled_mean(parts: list) -> Optional[float]:
    return float(np.mean(np.concatenate(parts))) if parts else None


def _mean_present(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _cell_metrics(cell: _Cell) -> Optional[dict]:
    if not cell.sq:
        return None
    return {
        "msfe": _pooled_mean(cell.sq),
        "sign_accuracy": _pooled_mean(cell.sign_ok),
        "days": len(cell.sq),
        "ecp_pointwise": {a: _pooled_mean(v) for a, v in cell.cover.items()},
        "interval_score": {a: _pooled_mean(v) for a, v in cell.iscore.items()},
    }


def run_backtest(fts: FunctionalTimeSeries, plan: BacktestPlan) -> MetricReport:
    """Expanding-window evaluation of the requested methods."""
    periods = validate_plan(plan, fts)
    alphas = plan.bootstrap.alpha_levels
    tau = fts.grid.tau
    updating_methods = tuple(m for m in plan.methods if m != "TS")

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

    ts_full, ts_band_cover = _Cell(alphas), {a: [] for a in alphas}
    cells = {mth: {m: _Cell(alphas) for m in periods} for mth in plan.methods}
    failures = []
    skipped = {}
    days_used = 0

    for j in range(plan.n_test):
        t_end = plan.initial_train + j
        start = j if plan.rolling else 0
        actual = fts.values[t_end]
        # the previous day's replicates and their cached pool statistics go first
        forecast = None
        try:
            day = _fit_day(fts.window(start, t_end), plan.num_components, plan.max_order)
            day_cfg = replace(plan.bootstrap, seed=derive_seed(plan.bootstrap.seed, 2, t_end))
            forecast = sieve_prediction(
                day.train, day.fpca, day.var, day_cfg, n_workers=plan.n_workers
            )
        except (DataError, NumericalError, ConfigError) as exc:
            failures.append({"day": t_end, "stage": "fit", "error": str(exc)})
            continue
        days_used += 1

        if "TS" in plan.methods:
            ts_full.add_point(actual, day.ts_curve)
            for a in alphas:
                ts_full.add_interval(a, actual, *forecast.pointwise[a])
                blo, bhi = forecast.band[a]
                ts_band_cover[a].append(bool((~(actual < blo) & ~(actual > bhi)).all()))

        for m in periods:
            cols = updating_columns(tau, m)
            actual_late = actual[cols]
            if "TS" in plan.methods:
                cell = cells["TS"][m]
                cell.add_point(actual_late, day.ts_curve[cols])
                for a in alphas:
                    lo, hi = forecast.pointwise[a]
                    cell.add_interval(a, actual_late, lo[cols], hi[cols])
            lam = lam_iv = None
            if "PLS" in plan.methods:
                lam = schedule.point_lambda(m)
                lam_iv = {a: schedule.interval_lambda(a, m) for a in alphas}
            for mth in updating_methods:
                try:
                    point, ivs = _update_period(
                        day, mth, actual[: m - 1], lam, lam_iv, forecast.replicates, alphas
                    )
                except (NumericalError, DataError):
                    skipped[(mth, m)] = skipped.get((mth, m), 0) + 1
                    continue
                cells[mth][m].add_point(actual_late, point)
                for a, (lo, hi) in ivs.items():
                    cells[mth][m].add_interval(a, actual_late, lo, hi)

    if days_used == 0:
        raise NumericalError(f"every test day failed; first error: {failures[0]['error']}")

    full_day = {}
    if ts_full.sq:
        sq = np.vstack(ts_full.sq)
        iscore = {a: np.vstack(ts_full.iscore[a]).mean(axis=0) for a in alphas}
        full_day["TS"] = {
            "msfe": float(sq.mean()),
            "msfe_curve": sq.mean(axis=0).tolist(),
            "ecp_pointwise": {a: float(np.mean(np.vstack(ts_full.cover[a]))) for a in alphas},
            "ecp_uniform": {a: float(np.mean(ts_band_cover[a])) for a in alphas},
            "interval_score": {a: float(iscore[a].mean()) for a in alphas},
            "interval_score_curve": {a: iscore[a].tolist() for a in alphas},
        }

    per_period = {}
    updating = {}
    for mth in plan.methods:
        table = {}
        for m in periods:
            got = _cell_metrics(cells[mth][m])
            if got is not None:
                table[m] = got
        if not table:
            continue
        per_period[mth] = table
        rows = table.values()
        updating[mth] = {
            "msfe": _mean_present(v["msfe"] for v in rows),
            "sign_accuracy": _mean_present(v["sign_accuracy"] for v in rows),
            "periods_covered": sorted(table),
            "ecp_pointwise": {a: _mean_present(v["ecp_pointwise"][a] for v in rows) for a in alphas},
            "interval_score": {a: _mean_present(v["interval_score"][a] for v in rows) for a in alphas},
        }

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
        lambda_schedule=schedule if "PLS" in plan.methods else None,
        failures=failures,
        skipped_cells=skipped,
        plan=plan_to_dict(plan),
        config_hash=plan_hash(plan),
    )


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------

#: report fields in their order in the JSON document
_REPORT_FIELDS = (
    "config_hash", "seed", "alpha_levels", "methods", "periods", "n_test", "days_used",
    "plan", "full_day", "updating", "per_period", "failures", "skipped_cells",
    "lambda_schedule",
)


def report_to_json(report: MetricReport) -> str:
    body = {name: getattr(report, name) for name in _REPORT_FIELDS}
    body["skipped_cells"] = [
        {"method": mth, "m": m, "count": c}
        for (mth, m), c in sorted(report.skipped_cells.items())
    ]
    if report.lambda_schedule is not None:
        body["lambda_schedule"] = _schedule_doc(report.lambda_schedule)
    return dump_doc(envelope("metric_report", REPORT_SCHEMA_VERSION, body))


def report_from_json(text: str) -> MetricReport:
    doc = load_doc(text, "metric_report", REPORT_SCHEMA_VERSION, _REPORT_FIELDS)
    for name in ("full_day", "updating", "per_period"):
        if not isinstance(doc[name], dict):
            kind = type(doc[name]).__name__
            raise DataError(f"metric_report {name} must be a JSON object, got {kind}")
    with reading("metric_report"):
        f = {name: decode_keys(doc[name]) for name in _REPORT_FIELDS}
        f.update(
            alpha_levels=tuple(float(a) for a in f["alpha_levels"]),
            methods=tuple(f["methods"]),
            periods=tuple(f["periods"]),
            skipped_cells={(e["method"], e["m"]): e["count"] for e in f["skipped_cells"]},
            lambda_schedule=None
            if doc["lambda_schedule"] is None
            else _schedule_from_doc(doc["lambda_schedule"]),
        )
    return MetricReport(**f)


#: (key, file, scalar fields, per-alpha fields) of the per-method summary tables
_SUMMARY_TABLES = (
    ("full_day", "full_day_metrics.csv", ("msfe",),
     ("ecp_pointwise", "ecp_uniform", "interval_score")),
    ("updating", "updating_metrics.csv", ("msfe", "sign_accuracy"),
     ("ecp_pointwise", "interval_score")),
)

#: (key, per-period field, one row per alpha) of the method-by-period tables
_PERIOD_TABLES = (
    ("msfe_by_period", "msfe", False),
    ("interval_score_by_period", "interval_score", True),
    ("ecp_by_period", "ecp_pointwise", True),
    ("sign_by_period", "sign_accuracy", False),
)


def _report_tables(report: MetricReport):
    """Yield (key, file name, header, rows) for every CSV view of a report."""
    alphas = by_coverage(report.alpha_levels)
    pcts = [coverage_pct(a) for a in alphas]
    for key, name, scalars, per_alpha in _SUMMARY_TABLES:
        table = getattr(report, key)
        header = ["method", *scalars] + [f"{f}_{p}" for p in pcts for f in per_alpha]
        rows = [
            [mth] + [table[mth][f] for f in scalars]
            + [table[mth][f][a] for a in alphas for f in per_alpha]
            for mth in report.methods
            if mth in table
        ]
        yield key, name, header, rows

    present = [mth for mth in report.methods if mth in report.per_period]
    for key, field_name, by_alpha in _PERIOD_TABLES:
        rows = []
        for m in report.periods:
            cells = [report.per_period[mth].get(m, {}).get(field_name) for mth in present]
            if by_alpha:
                rows += [[m, a] + [None if c is None else c[a] for c in cells] for a in alphas]
            else:
                rows.append([m] + cells)
        yield key, f"{key}.csv", (["m", "alpha"] if by_alpha else ["m"]) + present, rows

    if "TS" in report.full_day:
        e = report.full_day["TS"]
        curves = [e["interval_score_curve"][a] for a in alphas]
        yield (
            "ts_by_gridpoint", "ts_by_gridpoint.csv",
            ["grid_index", "msfe"] + [f"interval_score_{p}" for p in pcts],
            [[j + 2, v] + [c[j] for c in curves] for j, v in enumerate(e["msfe_curve"])],
        )

    sched = report.lambda_schedule
    if sched is not None:
        rows = [[m, "point", "", lam] for m, lam in sorted((sched.point or {}).items())]
        for a in sorted(sched.interval or {}, reverse=True):
            rows += [[m, "interval", a, lam] for m, lam in sorted(sched.interval[a].items())]
        yield "lambda_schedule", "lambda_schedule.csv", ["m", "objective", "alpha", "lambda"], rows


def write_report_csvs(report: MetricReport, outdir: str) -> dict:
    """Write the flat CSV views of a report; returns {name: path}."""
    from . import __version__

    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for key, name, header, rows in _report_tables(report):
        paths[key] = os.path.join(outdir, name)
        write_csv(paths[key], header, rows)

    manifest = envelope("backtest_manifest", REPORT_SCHEMA_VERSION, {
        "config_hash": report.config_hash,
        "seed": report.seed,
        "library": __version__,
        "files": sorted(os.path.basename(p) for p in paths.values()),
    })
    paths["manifest"] = os.path.join(outdir, "manifest.json")
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
