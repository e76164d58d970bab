"""Write the golden outputs that ``tests/test_golden.py`` compares against.

Run from the repository root, with no options::

    PYTHONPATH=src python tests/golden/make_golden.py

It rewrites ``tests/golden/report/`` (a small backtest's ``report.json``,
its CSV tables and ``manifest.json``) and ``tests/golden/cli/`` (a small
price panel, the same panel with a partial last day, what the ``fit``,
``forecast``, ``tune``, ``update`` and ``ingest`` commands write from them,
and a linked ``simulate`` run with its ground-truth dump).
The CLI runs in a scratch directory with relative paths, so the manifest
hashes, which cover the input and output paths, do not depend on where
the repository lives.

Regenerate only for an intended change to the arithmetic (for example, a
faster path whose results move within rounding), never to make a failing
refactor pass, and record each regeneration and its reason in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_DIR = os.path.join(HERE, "report")
CLI_DIR = os.path.join(HERE, "cli")

# a backtest that runs in about a second and records a skipped cell
# (OLS at m=2 is rank-deficient with two components)
SPEC = dict(n=120, tau=25, num_factors=2, noise_sd=0.3, seed=7)
PLAN = dict(
    initial_train=100, n_test=8, tune_train=70, tune_validation=20,
    periods=(2, 3, 8, 13, 18, 23),
)
BOOTSTRAP = dict(num_replicates=100, seed=3)

PANEL = "panel.csv"
PARTIAL = "partial.csv"
PARTIAL_PRICES = 6  # prices observed on the partial day, so m = 6
SIMULATE = ["simulate", "--days", "70", "--tau", "12", "--seed", "7",
            "--noise-sd", "0.2", "--output", PANEL]

# (argv, files written), run in this order in one directory holding the panels
CLI_RUNS = [
    (["fit", "--input", PANEL, "--output", "fit.json"], ["fit.json"]),
    (["forecast", "--input", PANEL, "--replicates", "100", "--seed", "5",
      "--output-csv", "forecast.csv", "--output-json", "forecast.json"],
     ["forecast.csv", "forecast.json"]),
    (["tune", "--input", PANEL, "--objective", "both", "--train-size", "40",
      "--validation-size", "10", "--lambda-grid", "0,1,10", "--periods", "3,6",
      "--replicates", "50", "--seed", "2", "--output", "schedule.json"],
     ["schedule.json"]),
    (["update", "--input", PARTIAL, "--method", "pls", "--lam", "1.0", "--intervals",
      "--replicates", "100", "--seed", "5",
      "--output-csv", "update_pls.csv", "--output-json", "update_pls.json"],
     ["update_pls.csv", "update_pls.json"]),
    (["update", "--input", PARTIAL, "--method", "pls", "--schedule", "schedule.json",
      "--intervals", "--replicates", "100", "--seed", "5",
      "--output-csv", "update_schedule.csv", "--output-json", "update_schedule.json"],
     ["update_schedule.csv", "update_schedule.json"]),
    (["update", "--input", PARTIAL, "--method", "flr", "--intervals",
      "--replicates", "100", "--seed", "5",
      "--output-csv", "update_flr.csv", "--output-json", "update_flr.json"],
     ["update_flr.csv", "update_flr.json"]),
    (["update", "--input", PARTIAL, "--method", "ols",
      "--output-csv", "update_ols.csv", "--output-json", "update_ols.json"],
     ["update_ols.csv", "update_ols.json"]),
    (["simulate", "--days", "30", "--tau", "10", "--seed", "4", "--link-split", "5",
      "--link-matrix", "0.9,0.3,0.2,0.8", "--output", "linked.csv", "--truth", "linked_truth.json"],
     ["linked.csv", "linked_truth.json"]),
    (["ingest", "--input", PARTIAL, "--output", "ingested.csv", "--summary", "ingest_summary.json"],
     ["ingested.csv", "ingest_summary.json"]),
]


def golden_report():
    """Run the golden backtest in process."""
    from curvecast import BacktestPlan, BootstrapConfig, SynthSpec, generate, run_backtest

    fts, _ = generate(SynthSpec(**SPEC))
    plan = BacktestPlan(**PLAN, bootstrap=BootstrapConfig(**BOOTSTRAP))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_backtest(fts, plan)


@contextmanager
def _in_dir(path: str):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _cli(argvs) -> None:
    from curvecast.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in argvs:
            if main(argv) != 0:
                raise RuntimeError(f"curvecast {' '.join(argv)} failed")


def run_cli(workdir: str) -> None:
    """Run every CLI case in ``workdir``, which must hold the two panels."""
    with _in_dir(workdir):
        _cli(argv for argv, _ in CLI_RUNS)


def _write_panels(workdir: str) -> None:
    with _in_dir(workdir):
        _cli([SIMULATE])
    with open(os.path.join(workdir, PANEL)) as fh:
        lines = fh.read().strip().splitlines()
    fields = lines[-1].split(",")
    keep = 1 + PARTIAL_PRICES  # the date, then the observed prices
    fields = fields[:keep] + [""] * (len(fields) - keep)
    with open(os.path.join(workdir, PARTIAL), "w") as fh:
        fh.write("\n".join(lines[:-1] + [",".join(fields)]) + "\n")


def main() -> int:
    from curvecast import report_to_json, write_report_csvs

    for d in (REPORT_DIR, CLI_DIR):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    report = golden_report()
    with open(os.path.join(REPORT_DIR, "report.json"), "w") as fh:
        fh.write(report_to_json(report) + "\n")
    write_report_csvs(report, REPORT_DIR)

    with tempfile.TemporaryDirectory() as work:
        _write_panels(work)
        run_cli(work)
        names = [PANEL, PARTIAL] + [f for _, files in CLI_RUNS for f in files]
        for name in names:
            shutil.copy(os.path.join(work, name), os.path.join(CLI_DIR, name))
    print(f"golden outputs -> {REPORT_DIR}, {CLI_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
