"""Command-line interface.

Every subcommand accepts ``--config FILE`` pointing at a JSON object;
explicit flags override config entries, which override built-in
defaults.  List-valued flags take comma-separated values on the command
line and plain JSON lists in config files.

Exit codes: 0 success, 1 usage or configuration problem, 2 data
problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import warnings
from dataclasses import fields
from typing import Any, Callable, NamedTuple

import numpy as np

from ._docs import bounds_doc, dump_doc, envelope, write_curve_csv
from .datagen import SynthSpec, generate
from .errors import ConfigError, DataError, NumericalError
from .evalharness import (
    BacktestPlan,
    report_from_json,
    report_to_json,
    run_backtest,
    write_report_csvs,
)
from .fpca import model_to_json
from .gridcurves import (
    DEFAULT_MAX_MISSING_FRAC,
    cidr_transform,
    ingest_price_matrix,
    inverse_cidr,
    read_price_csv,
    write_wide_csv,
)
from .sieve import (
    BootstrapConfig,
    draw_replicates,
    forecast_to_json,
    sieve_prediction,
    write_forecast_csv,
    _fit_day,
)
from .updating import (
    DEFAULT_LAMBDA_GRID,
    schedule_from_json,
    schedule_to_json,
    tune_lambda,
    updating_columns,
    _update_period,
)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


def _listed(conv):
    """Converter of a list option: comma-separated text, a JSON list, or one value."""

    def convert(v) -> tuple:
        if isinstance(v, str):
            return tuple(conv(p.strip()) for p in v.split(",") if p.strip())
        if isinstance(v, (list, tuple)):
            return tuple(conv(x) for x in v)
        return (conv(v),)

    return convert


def _number(kind):
    """Converter to ``kind`` (int or float) that rejects a JSON boolean and, for int, a fraction."""

    def convert(v):
        if isinstance(v, bool) or kind is int and isinstance(v, float) and not v.is_integer():
            raise ValueError(f"expected {kind.__name__}, got {v!r}")
        return kind(v)

    return convert


_int, _float = _number(int), _number(float)
_floats = _listed(_float)
_strs = _listed(str)


def _ints(v):
    """Like the other list options; "all" (or null) means every updating period."""
    if v is None or isinstance(v, str) and v.strip().lower() == "all":
        return None
    return _listed(_int)(v)


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ConfigError(f"expected a JSON boolean, got {v!r}")


_LIST_CONVS = (_floats, _strs, _ints)
#: a separate token that opens a list of numbers, such as -0.5,0.3 or -.5
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


class _Opt(NamedTuple):
    """One merged option: flag name, converter, default, help text."""

    name: str
    conv: Callable
    default: Any
    help: str


def _add_options(parser: argparse.ArgumentParser, opts) -> None:
    parser.add_argument("--config", default=None, help="JSON config file; flags override its entries")
    for o in opts:
        arg = "--" + o.name.replace("_", "-")
        if o.conv is _bool:
            parser.add_argument(arg, dest=o.name, action="store_const", const=True,
                                default=None, help=o.help)
        else:
            text = o.help
            if o.conv in _LIST_CONVS:
                text += " (comma-separated, e.g. -0.5,0.3)"
            parser.add_argument(arg, dest=o.name, default=None, metavar="V", help=text)


def _resolve(args: argparse.Namespace, opts) -> dict:
    config = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except ValueError as exc:  # undecodable text or invalid JSON
            raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {o.name for o in opts}
        for key in config:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
    merged = {}
    for o in opts:
        value = getattr(args, o.name)
        if value is None:
            value = config.get(o.name, o.default)
        if value is not None:
            try:
                value = o.conv(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {o.name}: {exc}")
        merged[o.name] = value
    return merged


def _require(opts: dict, name: str):
    if opts.get(name) is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return opts[name]


def _manifest(opts: dict) -> dict:
    """Reproducibility stamp: hash of the merged options, seed, version."""
    from . import __version__

    canon = {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(opts.items())}
    text = json.dumps(canon, sort_keys=True, default=str)
    return {
        "config_hash": hashlib.sha256(text.encode()).hexdigest(),
        "seed": opts.get("seed"),
        "library": __version__,
    }


def _with_manifest(text: str, opts: dict) -> str:
    """A saved document's text with the run's manifest appended."""
    return json.dumps({**json.loads(text), "manifest": _manifest(opts)}, indent=2)


def _bootstrap(opts: dict) -> BootstrapConfig:
    """The command's bootstrap settings; a command without ``--center`` takes the default centre."""
    center = opts.get("center", BootstrapConfig.center)
    return BootstrapConfig(opts["replicates"], opts["seed"], opts["alphas"], center)


def _load_curves(path: str, max_missing_frac: float):
    raw, grid, dates = read_price_csv(path)
    return cidr_transform(ingest_price_matrix(raw, grid, dates, max_missing_frac)[0])


def _report_dropped(failures: list, total: int) -> None:
    """One stderr line on the validation days tuning dropped, if any."""
    dropped = [f for f in failures if f["stage"] == "tune"]
    if dropped:
        first = f"day {dropped[0]['day']}: {dropped[0]['error']}"
        print(f"dropped {len(dropped)} of {total} validation days (first: {first})",
              file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_COMMON_FIT = [
    _Opt("num_components", _int, None, "fix the number of curve components (default: automatic)"),
    _Opt("max_order", _int, BacktestPlan.max_order, "largest score autoregression order considered"),
]

_COMMON_BOOT = [
    _Opt("replicates", _int, BootstrapConfig.num_replicates, "bootstrap replicate count"),
    _Opt("seed", _int, BootstrapConfig.seed, "master random seed"),
    _Opt("alphas", _floats, BootstrapConfig.alpha_levels, "miscoverage levels, e.g. 0.2,0.05"),
]
_MISSING = _Opt("max_missing_frac", _float, DEFAULT_MAX_MISSING_FRAC, "ingestion drop threshold")
_WORKERS = _Opt("workers", _int, BacktestPlan.n_workers, "bootstrap threads (capped at usable CPUs)")
_CENTER = _Opt("center", str, BootstrapConfig.center, "interval center: far1 or ts")

INGEST_OPTS = [
    _Opt("input", str, None, "raw price CSV (wide or long layout)"),
    _Opt("output", str, None, "cleaned wide price CSV to write"),
    _Opt("summary", str, None, "optional JSON cleaning summary to write"),
    _MISSING,
]


def cmd_ingest(opts: dict) -> int:
    raw, grid, dates = read_price_csv(_require(opts, "input"))
    pm, kept, summary = ingest_price_matrix(raw, grid, dates, opts["max_missing_frac"])
    out = _require(opts, "output")
    write_wide_csv(out, pm, kept)
    print(f"kept {summary['days_kept']} of {summary['days_in']} days -> {out}")
    if opts["summary"]:
        doc = envelope("ingest_summary", 1, {"manifest": _manifest(opts), **summary})
        _write_text(opts["summary"], dump_doc(doc))
    return 0


SIMULATE_OPTS = [
    _Opt("days", _int, 250, "number of days to simulate"),
    _Opt("tau", _int, 75, "grid points per day"),
    _Opt("factors", _int, SynthSpec.num_factors, "number of latent factors"),
    _Opt("basis", str, SynthSpec.basis, "factor shapes: fourier or poly"),
    _Opt("score_ar", _floats, SynthSpec.score_ar, "per-factor AR(1) coefficients"),
    _Opt("innovation_sd", _floats, SynthSpec.innovation_sd, "per-factor innovation scale"),
    _Opt("noise_sd", _float, SynthSpec.noise_sd, "pointwise noise level"),
    _Opt("mean_scale", _float, SynthSpec.mean_scale, "scale of the common mean curve"),
    _Opt("link_split", _int, None, "generate late columns from early factors after this grid index"),
    _Opt("link_matrix", _floats, None, "row-major factor-linkage entries (requires --link-split)"),
    _Opt("late_factors", _int, None, "late-block factor count (default: same as --factors)"),
    _Opt("link_noise_sd", _floats, None, "per-late-factor linkage noise scale"),
    _Opt("open_price", _float, 100.0, "opening price used to rebuild price levels"),
    _Opt("seed", _int, SynthSpec.seed, "random seed"),
    _Opt("output", str, None, "wide price CSV to write"),
    _Opt("truth", str, None, "optional JSON ground-truth dump"),
]


#: SynthSpec fields whose simulate flag has another name; the rest are the field, dashed
_SYNTH_FLAGS = {"n": "days", "num_factors": "factors", "num_late_factors": "late_factors"}


def cmd_simulate(opts: dict) -> int:
    K = opts["factors"]
    S = opts["late_factors"] if opts["late_factors"] is not None else K
    extra = {}
    if opts["link_split"] is not None:
        if opts["link_matrix"] is not None:
            flat = opts["link_matrix"]
            if len(flat) != K * S:
                raise ConfigError(f"--link-matrix needs {K * S} entries, got {len(flat)}")
            rho = tuple(tuple(flat[r * S : (r + 1) * S]) for r in range(K))
        else:
            rho = tuple(
                tuple(1.0 if r == s else 0.4 for s in range(S)) for r in range(K)
            )
        extra = {
            "link_matrix": rho,
            "num_late_factors": S,
            "link_noise_sd": opts["link_noise_sd"] or (0.3,) * S,
        }
    try:
        fts, truth = generate(SynthSpec(
            n=opts["days"], tau=opts["tau"], num_factors=K, basis=opts["basis"],
            score_ar=opts["score_ar"], innovation_sd=opts["innovation_sd"],
            noise_sd=opts["noise_sd"], mean_scale=opts["mean_scale"], seed=opts["seed"],
            link_split=opts["link_split"], **extra,
        ))
    except ConfigError as exc:  # name the flag the user typed, not the field
        field, _, rest = str(exc).partition(" ")
        if field not in SynthSpec.__dataclass_fields__:
            raise
        raise ConfigError(f"--{_SYNTH_FLAGS.get(field, field).replace('_', '-')} {rest}") from None
    opens = np.full(fts.n, opts["open_price"])
    out = _require(opts, "output")
    write_wide_csv(out, inverse_cidr(fts, opens))
    print(f"simulated {fts.n} days on {opts['tau']} grid points -> {out}")
    if opts["truth"]:
        names = ("mean", "factors", "scores", "var_matrices", "innovation_cov", "noise_sd",
                 "link_split", "link_matrix")
        doc = envelope("synthetic_truth", 1, {
            "manifest": _manifest(opts),
            "seed": opts["seed"],
            **{name: getattr(truth, name) for name in names},
        })
        _write_text(opts["truth"], dump_doc(doc))
    return 0


FIT_OPTS = [
    _Opt("input", str, None, "price CSV"),
    _Opt("output", str, None, "fitted-model JSON to write"),
    _MISSING,
] + _COMMON_FIT


def cmd_fit(opts: dict) -> int:
    fts = _load_curves(_require(opts, "input"), opts["max_missing_frac"])
    day = _fit_day(fts, opts["num_components"], opts["max_order"])
    model, var = day.fpca, day.var
    # the document names ``is_stationary`` "stationary"
    var_names = ("order", "coeffs", "sigma", "spectral_radius", "is_stationary", "nobs")
    doc = envelope("fitted_models", 1, {
        "manifest": _manifest(opts),
        "days": fts.n,
        "grid": {"tau": fts.grid.tau, "times": list(fts.grid.times)},
        "fpca": json.loads(model_to_json(model)),
        "var": {name.removeprefix("is_"): getattr(var, name) for name in var_names},
    })
    out = _require(opts, "output")
    _write_text(out, dump_doc(doc))
    print(
        f"fitted {model.num_components} components, order {var.order} "
        f"(spectral radius {var.spectral_radius:.3f}) -> {out}"
    )
    return 0


FORECAST_OPTS = [
    _Opt("input", str, None, "price CSV"),
    _Opt("output_csv", str, None, "forecast table CSV to write"),
    _Opt("output_json", str, None, "forecast JSON to write"),
    _CENTER,
    _WORKERS,
    _MISSING,
] + _COMMON_FIT + _COMMON_BOOT


def cmd_forecast(opts: dict) -> int:
    if not opts["output_csv"] and not opts["output_json"]:
        raise ConfigError("forecast needs --output-csv and/or --output-json")
    fts = _load_curves(_require(opts, "input"), opts["max_missing_frac"])
    day = _fit_day(fts, opts["num_components"], opts["max_order"])
    forecast = sieve_prediction(
        fts, day.fpca, day.var, _bootstrap(opts), n_workers=opts["workers"]
    )
    if opts["output_csv"]:
        write_forecast_csv(opts["output_csv"], forecast)
        print(f"forecast table -> {opts['output_csv']}")
    if opts["output_json"]:
        _write_text(opts["output_json"], _with_manifest(forecast_to_json(forecast), opts))
        print(f"forecast JSON -> {opts['output_json']}")
    return 0


UPDATE_OPTS = [
    _Opt("input", str, None, "price CSV whose last row is the partially observed day"),
    _Opt("method", str, None, "updating method: pls, ols, or flr"),
    _Opt("lam", _float, None, "shrinkage weight (pls only; overrides --schedule)"),
    _Opt("schedule", str, None, "tuned shrinkage schedule JSON (pls only)"),
    _Opt("intervals", _bool, False, "also compute prediction intervals"),
    _Opt("output_csv", str, None, "updated-forecast CSV to write"),
    _Opt("output_json", str, None, "updated-forecast JSON to write"),
    _MISSING,
] + _COMMON_FIT + _COMMON_BOOT


def _split_partial_day(path: str, max_missing_frac: float):
    """The history's curves and the last day's observed block, which ends at its first NaN
    price; a price after that, or a non-positive or non-finite one before it, is a DataError."""
    raw, grid, dates = read_price_csv(path)
    if raw.shape[0] < 2:
        raise DataError("need at least one complete day before the partial day")
    last = raw[-1]
    missing = np.isnan(last)
    m = int(missing.argmax()) if missing.any() else grid.tau
    if m < 2:
        raise DataError("partial day must include at least the first two prices")
    if m >= grid.tau:
        raise DataError("last day is complete; nothing left to update")
    if not missing[m:].all():
        raise DataError("partial day has interior gaps after the observed prefix")
    bad = np.flatnonzero(~(np.isfinite(last[:m]) & (last[:m] > 0)))
    if bad.size:
        raise DataError(f"non-positive or non-finite partial-day price at grid index {bad[0] + 1}")
    pm, _, _ = ingest_price_matrix(raw[:-1], grid, dates[:-1], max_missing_frac)
    return cidr_transform(pm), 100.0 * (np.log(last[1:m]) - np.log(last[0]))


def cmd_update(opts: dict) -> int:
    method = _require(opts, "method").lower()
    if method not in ("pls", "ols", "flr"):
        raise ConfigError(f"unknown updating method {method!r}")
    if not opts["output_csv"] and not opts["output_json"]:
        raise ConfigError("update needs --output-csv and/or --output-json")
    if method == "ols" and opts["intervals"]:
        raise ConfigError("interval updating is not defined for ols")
    fts, observed = _split_partial_day(_require(opts, "input"), opts["max_missing_frac"])
    m = observed.size + 1
    day = _fit_day(fts, opts["num_components"], opts["max_order"])
    alphas = opts["alphas"]
    schedule = None
    if opts["schedule"] is not None:
        schedule = schedule_from_json(_read_text(opts["schedule"]))

    lam_point, lam_by_alpha = None, {}
    if method == "pls":
        fixed = opts["lam"]
        if fixed is None and schedule is None:
            raise ConfigError("pls needs --lam or --schedule")
        lam_point = fixed if fixed is not None else schedule.point_lambda(m)
        if opts["intervals"]:
            lam_by_alpha = {
                a: fixed if fixed is not None else schedule.interval_lambda(a, m) for a in alphas
            }
    reps = None
    if opts["intervals"]:
        reps = draw_replicates(day.fpca, day.var, _bootstrap(opts))
    point, intervals = _update_period(
        day, method.upper(), observed, lam_point, lam_by_alpha, reps, alphas
    )

    grid_indices = [int(j) + 2 for j in updating_columns(fts.grid.tau, m)]
    if opts["output_csv"]:
        write_curve_csv(opts["output_csv"], grid_indices, point, {"": intervals})
        print(f"updated forecast ({method}, m={m}) -> {opts['output_csv']}")
    if opts["output_json"]:
        doc = envelope("intraday_update", 1, {
            "manifest": _manifest(opts),
            "method": method,
            "m": m,
            "grid_indices": grid_indices,
            "point": point,
            "lambda": lam_point,
            "lambda_by_alpha": lam_by_alpha,
            "seed": opts["seed"] if opts["intervals"] else None,
            "intervals": bounds_doc(intervals),
        })
        _write_text(opts["output_json"], dump_doc(doc))
        print(f"update JSON -> {opts['output_json']}")
    return 0


TUNE_OPTS = [
    _Opt("input", str, None, "price CSV"),
    _Opt("objective", str, "msfe", "msfe, interval_score, or both"),
    _Opt("train_size", _int, BacktestPlan.tune_train, "days fitted before the first validation day"),
    _Opt("validation_size", _int, BacktestPlan.tune_validation, "validation days"),
    _Opt("lambda_grid", _floats, DEFAULT_LAMBDA_GRID, "candidate shrinkage weights"),
    _Opt("periods", _ints, None, "updating periods to tune (default: all)"),
    _Opt("output", str, None, "schedule JSON to write"),
    _MISSING,
] + _COMMON_FIT + _COMMON_BOOT


def cmd_tune(opts: dict) -> int:
    fts = _load_curves(_require(opts, "input"), opts["max_missing_frac"])
    failures = []
    schedule = tune_lambda(
        fts, opts["train_size"], opts["validation_size"], opts["objective"], opts["lambda_grid"],
        opts["periods"], opts["num_components"], opts["max_order"], _bootstrap(opts), failures,
    )
    _report_dropped(failures, opts["validation_size"])
    out = _require(opts, "output")
    _write_text(out, _with_manifest(schedule_to_json(schedule), opts))
    print(f"tuned shrinkage schedule ({opts['objective']}) -> {out}")
    return 0


BACKTEST_OPTS = [
    _Opt("input", str, None, "price CSV"),
    _Opt("initial_train", _int, BacktestPlan.initial_train, "days in the first training window"),
    _Opt("n_test", _int, BacktestPlan.n_test, "test days"),
    _Opt("methods", _strs, BacktestPlan.methods, "methods to evaluate"),
    _Opt("periods", _ints, None, "updating periods (default: all)"),
    _CENTER,
    _Opt("rolling", _bool, BacktestPlan.rolling, "keep the training window's length fixed"),
    _Opt("tune_train", _int, BacktestPlan.tune_train, "tuning: training days"),
    _Opt("tune_validation", _int, BacktestPlan.tune_validation, "tuning: validation days"),
    _Opt("lambda_grid", _floats, DEFAULT_LAMBDA_GRID, "candidate shrinkage weights"),
    _Opt("schedule", str, None, "precomputed shrinkage schedule JSON"),
    _WORKERS,
    _Opt("outdir", str, None, "directory for the report and CSV tables"),
    _MISSING,
] + _COMMON_FIT + _COMMON_BOOT


def cmd_backtest(opts: dict) -> int:
    fts = _load_curves(_require(opts, "input"), opts["max_missing_frac"])
    schedule = None
    if opts["schedule"] is not None:
        schedule = schedule_from_json(_read_text(opts["schedule"]))
    plan = BacktestPlan(**{
        **{f.name: opts[f.name] for f in fields(BacktestPlan) if f.name in opts},
        "methods": tuple(m.upper() for m in opts["methods"]),
        "bootstrap": _bootstrap(opts),
        "lambda_schedule": schedule,
        "n_workers": opts["workers"],
    })
    report = run_backtest(fts, plan)
    outdir = _require(opts, "outdir")
    os.makedirs(outdir, exist_ok=True)
    _write_text(os.path.join(outdir, "report.json"), report_to_json(report))
    write_report_csvs(report, outdir)
    _report_dropped(report.failures, plan.tune_validation)
    print(
        f"backtest used {report.days_used} of {report.n_test} days "
        f"({report.n_test - report.days_used} failed) -> {outdir}"
    )
    for mth in report.methods:
        if mth in report.updating:
            print(f"  {mth}: updating msfe {report.updating[mth]['msfe']:.6g}")
        elif mth in report.full_day:
            print(f"  {mth}: full-day msfe {report.full_day[mth]['msfe']:.6g}")
    return 0


EXPORT_OPTS = [
    _Opt("report", str, None, "report JSON produced by backtest"),
    _Opt("outdir", str, None, "directory for the CSV tables"),
]


def cmd_export_plots(opts: dict) -> int:
    report = report_from_json(_read_text(_require(opts, "report")))
    paths = write_report_csvs(report, _require(opts, "outdir"))
    print(f"wrote {len(paths)} plot tables -> {opts['outdir']}")
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_COMMANDS = [
    ("ingest", cmd_ingest, INGEST_OPTS, "clean a raw price CSV"),
    ("simulate", cmd_simulate, SIMULATE_OPTS, "generate a synthetic price history"),
    ("fit", cmd_fit, FIT_OPTS, "fit the curve decomposition and score dynamics"),
    ("forecast", cmd_forecast, FORECAST_OPTS, "day-ahead forecast with intervals and bands"),
    ("update", cmd_update, UPDATE_OPTS, "update a forecast from a partially observed day"),
    ("tune", cmd_tune, TUNE_OPTS, "tune the shrinkage schedule"),
    ("backtest", cmd_backtest, BACKTEST_OPTS, "expanding-window evaluation"),
    ("export-plots", cmd_export_plots, EXPORT_OPTS, "re-export plot tables from a report"),
]


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``curvecast`` parser; when ``argv[0]`` names a command, only that command is built."""
    parser = argparse.ArgumentParser(
        prog="curvecast",
        description="Forecasting intraday return curves with dynamic updating.",
        allow_abbrev=False,
    )
    only = argv[0] if argv and argv[0] in {name for name, *_ in _COMMANDS} else None
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, func, opts, help_text in _COMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
            _add_options(p, opts)
            p.set_defaults(func=func, opts_spec=opts)
    return parser


def _join_negative_lists(argv) -> list:
    """Join a list flag and a following value such as ``-0.5,0.3`` into ``--flag=-0.5,0.3``.

    argparse takes a separate token that starts with '-' for a flag unless
    it is a single plain negative number, so a list value would fail.
    """
    flags = {"--" + o.name.replace("_", "-")
             for _, _, opts, _ in _COMMANDS for o in opts if o.conv in _LIST_CONVS}
    joined = []
    for token in argv:
        if joined and joined[-1] in flags and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_lists(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    # warnings still reach filters and recorders; printed, each is one line with no source path
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        merged = _resolve(args, args.opts_spec)
        return args.func(merged)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
