"""The benchmark's three closed-loop workloads.

Each workload keeps one panel: C08's for ``backtest``, C06's for
``forecast_loop`` and a C08-shaped one (seed 2024) for ``cli_intraday``.
The workload seed picks one of ``VARIANTS`` bootstrap seed streams per
pass (``variant = (seed + pass_index) % VARIANTS``), so every input a run
can see has a stored reference.  Panels drawn with other seeds differ in
component count and VAR order, which moved a pass's cost by up to 40 %,
more than the bounds allow between runs; replicate draws do not change
the cost.  The library receives only what the pass builds: generated
curves, configs and CSV files.  Each pass is a fixed list of operations;
``Op.call`` is the timed part and ``Op.observe`` turns its result into
digests outside the timing.

Why each workload exists:

* ``backtest`` is the researcher's job and the paper's headline
  experiment, the C08 linked panel with lambda tuned inside the run.  It
  alone runs ``tune_lambda`` and the per-period PLS/FLR interval loop at
  scale, and reads no files.
* ``forecast_loop`` is the nightly production job on the C06 panel:
  FPCA, VAR order and fit, then the sieve bootstrap, one day at a time.
  It never touches ``updating``, and its grid (d=39) differs from the
  other two (d=74).
* ``cli_intraday`` is a live-desk session through ``curvecast.cli.main``:
  each day one ``forecast`` call, then ``update --intervals`` for PLS and
  FLR as the partial last row grows.  Every call re-reads its CSV, so
  ingest and ``draw_replicates`` carry it, and it alone writes files on
  the request path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import curvecast as cc
import curvecast.cli as cli

from checks import digest

VARIANTS = 8        # variant 0 reproduces the C06 and C08 bootstrap seeds

C08_SPEC = dict(
    n=250, tau=75, num_factors=2, score_ar=(0.85, 0.7), innovation_sd=(1.0, 0.8),
    noise_sd=0.25, mean_scale=1.0, link_split=38, link_matrix=((0.9, 0.3), (0.2, 0.8)),
    num_late_factors=2, link_noise_sd=(0.25, 0.25),
)
C06_SPEC = dict(
    n=300, tau=40, num_factors=2, score_ar=(0.6, 0.3), innovation_sd=(2.0, 1.0),
    noise_sd=0.5, mean_scale=1.0,
)
REPLICATES = 400
ALPHAS = (0.2, 0.05)
MAX_ORDER = 10

# C08 scores 50 test days after tuning on 50 validation days.  With 50
# validation days and 5 test days one run took 70 s on a busy 2-core
# machine, too long for the benchmark's 70 runs to fit their time budget;
# 25 validation days halve the tuning.  Both tuning objectives, the full
# lambda grid and all 73 periods stay.  OLS is left
# out as in C08: with two components it cannot be fitted from the single
# point observed at m=2, so every test day would skip that cell.
BACKTEST_N_TEST = 5
BACKTEST_TUNE_VALIDATION = 25
BACKTEST_METHODS = ("TS", "PLS", "FLR")
FORECAST_DAYS = range(200, 300)
CLI_DAYS = range(245, 250)
CLI_PERIODS = tuple(range(7, 75, 7))
CLI_LAM = 1.0


@dataclass
class Outcome:
    """What one operation produced, as the checks see it."""

    digests: dict
    attempted: int = 1
    failed: int = 0


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    observe: Callable[[object], Outcome]
    units: int = 1                  # work done: test days scored, days forecast, CLI calls


@dataclass
class Pass:
    workload: str
    variant: int
    ops: list
    primary: tuple                  # op kinds whose latencies make the percentiles
    warm: Callable[[], object]      # one untimed operation on inputs no timed op uses
    check: Callable[[], list]       # invariant checks over the whole pass
    facts: dict = field(default_factory=dict)


def variant_of(seed: int, pass_index: int) -> int:
    return (seed + pass_index) % VARIANTS


def forecast_day(train, cfg):
    """One nightly forecast: FPCA, VAR order and fit, sieve bootstrap."""
    model = cc.fit_fpca(train)
    scores = model.scores[:, : model.num_components]
    var = cc.fit_var(scores, cc.select_order(scores, MAX_ORDER))
    return cc.sieve_prediction(train, model, var, cfg)


def _forecast_digests(fc) -> dict:
    out = {"point": digest(fc.point)}
    for key in ("pointwise", "band"):
        for a, (lo, hi) in sorted(getattr(fc, key).items()):
            out[f"{key}.{a}.lower"] = digest(lo)
            out[f"{key}.{a}.upper"] = digest(hi)
    return out


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------


def _report_digests(report) -> dict:
    out = {"days_used": digest([report.days_used])}
    for mth, e in sorted(report.full_day.items()):
        out[f"full_day.{mth}"] = digest(
            [e["msfe"]]
            + [e[k][a] for a in ALPHAS for k in ("ecp_pointwise", "ecp_uniform", "interval_score")]
        )
    for mth, e in sorted(report.updating.items()):
        vals = [e["msfe"], e["sign_accuracy"]]
        vals += [e[k][a] for a in ALPHAS for k in ("ecp_pointwise", "interval_score")]
        out[f"updating.{mth}"] = digest([v for v in vals if v is not None])
        table = report.per_period[mth]
        out[f"per_period.{mth}.msfe"] = digest([table[m]["msfe"] for m in sorted(table)])
        iscores = [table[m]["interval_score"][a] for m in sorted(table) for a in ALPHAS]
        out[f"per_period.{mth}.interval_score"] = digest([v for v in iscores if v is not None])
    sched = report.lambda_schedule
    out["lambda.point"] = digest([sched.point[m] for m in sorted(sched.point)])
    out["lambda.interval"] = digest(
        [sched.interval[a][m] for a in ALPHAS for m in sorted(sched.interval[a])]
    )
    return out


def backtest_pass(variant: int, workdir: str) -> Pass:
    seed = 777 + 1000 * variant
    fts, _ = cc.generate(cc.SynthSpec(seed=777, **C08_SPEC))
    plan = cc.BacktestPlan(
        initial_train=200, n_test=BACKTEST_N_TEST, methods=BACKTEST_METHODS,
        bootstrap=cc.BootstrapConfig(num_replicates=REPLICATES, seed=seed),
        tune_validation=BACKTEST_TUNE_VALIDATION, n_workers=1,
    )
    outdir = os.path.join(workdir, f"backtest-{variant}")
    os.makedirs(outdir, exist_ok=True)
    facts = {}

    def call():
        report = cc.run_backtest(fts, plan)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(cc.report_to_json(report))
        cc.write_report_csvs(report, outdir)
        return report

    def observe(report) -> Outcome:
        upd = report.updating
        facts["msfe"] = {m: upd[m]["msfe"] for m in ("TS", "PLS", "FLR")}
        facts["interval_score"] = {
            a: {m: upd[m]["interval_score"][a] for m in ("TS", "PLS", "FLR")} for a in ALPHAS
        }
        facts["failed_days"] = len(report.failures)
        facts["skipped_cells"] = sum(report.skipped_cells.values())
        return Outcome(
            digests=_report_digests(report),
            attempted=report.n_test + (len(BACKTEST_METHODS) - 1) * len(report.periods),
            failed=facts["failed_days"] + facts["skipped_cells"],
        )

    def check() -> list:
        """C08's ordering: PLS < FLR < TS in MSFE, PLS lowest interval score."""
        bad = []
        msfe = facts["msfe"]
        if not msfe["PLS"] < msfe["FLR"] < msfe["TS"]:
            bad.append(f"C08 MSFE ordering fails: {msfe}")
        for a, scores in facts["interval_score"].items():
            if scores["PLS"] != min(scores.values()):
                bad.append(f"C08 PLS not lowest interval score at alpha={a}: {scores}")
        return bad

    def warm():
        forecast_day(fts.head(199), cc.BootstrapConfig(num_replicates=REPLICATES, seed=seed + 1))

    ops = [Op("backtest", call, observe, BACKTEST_N_TEST)]
    return Pass("backtest", variant, ops, ("backtest",), warm, check, facts)


# ---------------------------------------------------------------------------
# forecast_loop
# ---------------------------------------------------------------------------


def forecast_pass(variant: int, workdir: str) -> Pass:
    seed = 12345 + 1000 * variant
    fts, _ = cc.generate(cc.SynthSpec(seed=12345, **C06_SPEC))
    inside_pw = {a: 0 for a in ALPHAS}
    inside_band = {a: 0 for a in ALPHAS}
    points = [0]

    def make_op(t_end: int) -> Op:
        train = fts.head(t_end)
        cfg = cc.BootstrapConfig(num_replicates=REPLICATES, seed=cc.derive_seed(seed, 2, t_end))
        actual = fts.values[t_end]

        def observe(fc) -> Outcome:
            points[0] += actual.size
            for a in ALPHAS:
                lo, hi = fc.pointwise[a]
                inside_pw[a] += int((~(actual < lo) & ~(actual > hi)).sum())
                blo, bhi = fc.band[a]
                inside_band[a] += bool(np.all(~(actual < blo) & ~(actual > bhi)))
            return Outcome(_forecast_digests(fc))

        return Op("day", lambda: forecast_day(train, cfg), observe)

    ops = [make_op(t) for t in FORECAST_DAYS]
    facts = {}

    def check() -> list:
        """C06's margins: pointwise within 0.07 of nominal, uniform at most 0.07 below."""
        bad = []
        days = len(FORECAST_DAYS)
        for a in ALPHAS:
            pw = inside_pw[a] / points[0]
            un = inside_band[a] / days
            facts[f"coverage_{a}"] = {"pointwise": pw, "uniform": un}
            if abs(pw - (1 - a)) > 0.07 or un < (1 - a) - 0.07:
                bad.append(f"C06 coverage at alpha={a} outside margins: "
                           f"pointwise {pw:.3f}, uniform {un:.2f}")
        return bad

    def warm():
        t = FORECAST_DAYS.start - 1
        forecast_day(fts.head(t), cc.BootstrapConfig(num_replicates=REPLICATES, seed=seed + 1))

    return Pass("forecast_loop", variant, ops, ("day",), warm, check, facts)


# ---------------------------------------------------------------------------
# cli_intraday
# ---------------------------------------------------------------------------


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _read_json_digests(path: str, keys: tuple) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    out = {"point": digest(doc["point"])}
    for key in keys:
        for a, side in sorted(doc[key].items()):
            out[f"{key}.{a}.lower"] = digest(side["lower"])
            out[f"{key}.{a}.upper"] = digest(side["upper"])
    return out


def cli_pass(variant: int, workdir: str) -> Pass:
    seed = 2024 + 1000 * variant
    fts, _ = cc.generate(cc.SynthSpec(seed=2024, **C08_SPEC))
    tau = fts.grid.tau
    base = os.path.join(workdir, f"cli-{variant}")
    os.makedirs(base, exist_ok=True)
    panel = os.path.join(base, "panel.csv")
    cc.write_wide_csv(panel, cc.inverse_cidr(fts, np.full(fts.n, 100.0)))
    with open(panel) as fh:
        header, *rows = fh.read().splitlines()
    out_json = os.path.join(base, "out.json")

    def session_files(t: int) -> tuple:
        history = [header] + rows[:t]
        hist_path = os.path.join(base, f"day{t}.csv")
        _write_lines(hist_path, history)
        tokens = rows[t].split(",")
        partial = {}
        for m in CLI_PERIODS:
            partial[m] = os.path.join(base, f"day{t}_m{m}.csv")
            _write_lines(partial[m], history + [",".join(tokens[: 1 + m] + ["NA"] * (tau - m))])
        return hist_path, partial

    def observe_for(keys):
        def observe(code) -> Outcome:
            if code != 0:
                return Outcome({}, failed=1)
            return Outcome(_read_json_digests(out_json, keys))
        return observe

    boot = ["--replicates", str(REPLICATES), "--output-json", out_json]
    ops = []
    for t in CLI_DAYS:
        hist_path, partial = session_files(t)
        day_seed = ["--seed", str(1000 * seed + t)]
        argv = ["forecast", "--input", hist_path] + day_seed + boot
        ops.append(Op("forecast", lambda argv=argv: cli.main(argv),
                      observe_for(("pointwise", "band"))))
        for m in CLI_PERIODS:
            for method in ("pls", "flr"):
                argv = ["update", "--input", partial[m], "--method", method, "--intervals"]
                if method == "pls":
                    argv += ["--lam", repr(CLI_LAM)]
                argv += day_seed + boot
                ops.append(Op(f"update_{method}", lambda argv=argv: cli.main(argv),
                              observe_for(("intervals",))))

    warm_t = CLI_DAYS.start - 1
    warm_hist, warm_partial = session_files(warm_t)
    warm_out = os.path.join(base, "warm.json")

    def warm():
        wboot = ["--seed", str(seed), "--replicates", str(REPLICATES), "--output-json", warm_out]
        cli.main(["forecast", "--input", warm_hist] + wboot)
        m = CLI_PERIODS[0]
        cli.main(["update", "--input", warm_partial[m], "--method", "pls", "--intervals",
                  "--lam", repr(CLI_LAM)] + wboot)
        cli.main(["update", "--input", warm_partial[m], "--method", "flr", "--intervals"] + wboot)

    return Pass("cli_intraday", variant, ops, ("update_pls", "update_flr"), warm, lambda: [])


BUILDERS = {
    "backtest": backtest_pass,
    "forecast_loop": forecast_pass,
    "cli_intraday": cli_pass,
}
