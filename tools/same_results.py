"""Check that the working tree computes what a parent revision computes, bit for bit.

    python3 tools/same_results.py --parent REV [--probe NAME ...]

It exports REV (``git archive``) and the working tree (every tracked or untracked file
that git does not ignore) into two temporary directories, and runs the probes in each,
in a fresh ``python3 tools/same_results.py --run-probes`` subprocess per tree with
``OPENBLAS_NUM_THREADS=1`` and that tree's ``src`` on ``PYTHONPATH``.  The probe code is
this file's, the same for both trees.  Every probe returns named outputs, arrays or bytes;
each output's line shows its sha256 at both trees (first 16 hex digits) and "same" or
"differs", and an array that differs also gets its largest relative difference,
``max|change - parent| / max|parent|``.  The exit status is 1 when any output differs,
0 otherwise; the temporary trees are removed either way.

The probes (``--probe`` picks some; all run by default):

* ``draws``: every array of ``draw_replicates`` on the C06 and C08 panels, seeds 0, 7 and
  2**63 + 5, B = 1, 57 and 400, the pseudo score paths included;
* ``forecast``: ``sieve_prediction``'s point, error_sd, pointwise intervals and band on the
  C06 (d = 39) and C08 (d = 74) panels, seeds 0 and 7, B = 1, 57 and 400, with one and
  with two refit threads;
* ``tune``: ``tune_lambda(objective="both")`` on the C08 panel, 150 training and 8
  validation days, every period, B = 400;
* ``golden``: every file ``tests/golden/make_golden.py`` writes, run from each tree;
* ``dropped_days``: the schedule and the report failures of the CLI runs in
  ``tests/test_cli.py::TestDroppedValidationDays``, where validation days fail to fit;
* ``updates``: on the C08 panel (250 days fitted, the next day observed), at m = 5, 20,
  38, 60 and 73: ``flr_update``, ``pls_update`` at lambda = 1, and for seeds 0 and 7 and
  B = 57 and 400 ``flr_interval_update`` and ``pls_interval_update`` at lambda = 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import pickle
import shutil
import subprocess
import sys
import tarfile
import tempfile
import warnings

import numpy as np

C06 = dict(n=300, tau=40, num_factors=2, score_ar=(0.6, 0.3), innovation_sd=(2.0, 1.0),
           noise_sd=0.5, mean_scale=1.0, seed=12345)
C08 = dict(n=250, tau=75, num_factors=2, score_ar=(0.85, 0.7), innovation_sd=(1.0, 0.8),
           noise_sd=0.25, mean_scale=1.0, seed=777, link_split=38,
           link_matrix=((0.9, 0.3), (0.2, 0.8)), num_late_factors=2, link_noise_sd=(0.25, 0.25))
PANELS = {"C06": (C06, 250), "C08": (C08, 250)}  # spec, days fitted
SEEDS = (0, 7, 2**63 + 5)
REPLICATES = (1, 57, 400)
FORECAST_SEEDS, FORECAST_WORKERS = (0, 7), (1, 2)
UPDATE_PERIODS, UPDATE_REPLICATES = (5, 20, 38, 60, 73), (57, 400)
DRAW_FIELDS = ("series_scores", "series_resid_idx", "future_scores", "future_resid_idx",
               "mean", "eigenfunctions", "resid_pool")


def probe_draws() -> dict:
    from curvecast import BootstrapConfig, SynthSpec, draw_replicates, generate
    from curvecast.sieve import _fit_day

    out = {}
    for name, (spec, days) in PANELS.items():
        day = _fit_day(generate(SynthSpec(**spec))[0].head(days), None, 10)
        for seed in SEEDS:
            for B in REPLICATES:
                reps = draw_replicates(day.fpca, day.var, BootstrapConfig(B, seed))
                for field in DRAW_FIELDS:
                    out[f"draws/{name}/seed{seed}/B{B}/{field}"] = getattr(reps, field)
    return out


def probe_forecast() -> dict:
    from curvecast import BootstrapConfig, SynthSpec, generate, sieve_prediction
    from curvecast.sieve import _fit_day

    out = {}
    for name, (spec, days) in PANELS.items():
        day = _fit_day(generate(SynthSpec(**spec))[0].head(days), None, 10)
        for seed in FORECAST_SEEDS:
            for B in REPLICATES:
                for workers in FORECAST_WORKERS:
                    fc = sieve_prediction(day.train, day.fpca, day.var, BootstrapConfig(B, seed),
                                          n_workers=workers)
                    key = f"forecast/{name}/seed{seed}/B{B}/workers{workers}"
                    out[f"{key}/point"], out[f"{key}/error_sd"] = fc.point, fc.error_sd
                    for a in fc.alpha_levels:
                        out[f"{key}/pointwise/{a}"] = np.stack(fc.pointwise[a])
                        out[f"{key}/band/{a}"] = np.stack(fc.band[a])
    return out


def probe_tune() -> dict:
    from curvecast import BootstrapConfig, SynthSpec, generate, tune_lambda

    fts = generate(SynthSpec(**C08))[0]
    failures = []
    schedule = tune_lambda(fts, 150, 8, objective="both", failures=failures,
                           bootstrap=BootstrapConfig(num_replicates=400, seed=0))
    out = {"tune/point": np.array(sorted(schedule.point.items()))}
    for a, per_m in schedule.interval.items():
        out[f"tune/interval/{a}"] = np.array(sorted(per_m.items()))
    out["tune/failures"] = repr(failures).encode()
    return out


def probe_golden() -> dict:
    golden = os.path.join("tests", "golden")
    subprocess.run([sys.executable, os.path.join(golden, "make_golden.py")], check=True,
                   capture_output=True)
    out = {}
    for sub in ("report", "cli"):
        folder = os.path.join(golden, sub)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), "rb") as fh:
                out[f"golden/{sub}/{name}"] = fh.read()
    return out


def probe_dropped_days() -> dict:
    import json

    from curvecast.cli import main

    runs = [["simulate", "--days", "40", "--tau", "10", "--seed", "4", "--noise-sd", "0.2",
             "--output", "px.csv"],
            ["tune", "--input", "px.csv", "--objective", "both", "--train-size", "3",
             "--validation-size", "5", "--output", "sched.json"],
            ["backtest", "--input", "px.csv", "--initial-train", "30", "--n-test", "2",
             "--methods", "TS,PLS", "--periods", "5", "--tune-train", "3",
             "--tune-validation", "5", "--outdir", "bt"]]
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)  # relative paths, so the manifest hashes do not name the directory
        try:
            for argv in runs:
                if main(argv) != 0:
                    raise RuntimeError(f"curvecast {' '.join(argv)} failed")
            with open("sched.json", "rb") as fh:
                schedule = fh.read()
            with open(os.path.join("bt", "report.json"), encoding="utf-8") as fh:
                failures = json.load(fh)["failures"]
        finally:
            os.chdir(cwd)
    return {"dropped_days/schedule.json": schedule,
            "dropped_days/failures": json.dumps(failures, sort_keys=True).encode()}


def probe_updates() -> dict:
    from curvecast import (BootstrapConfig, SynthSpec, build_update_context, draw_replicates,
                           fit_fpca, fit_var, flr_fit, flr_interval_update, flr_update,
                           generate, pls_interval_update, pls_update, select_order)

    fts = generate(SynthSpec(**{**C08, "n": 251}))[0]
    train, actual = fts.head(250), fts.values[250]
    fpca = fit_fpca(train)
    scores = fpca.scores[:, : fpca.num_components]
    var = fit_var(scores, select_order(scores, 10))
    draws = {(seed, B): draw_replicates(fpca, var, BootstrapConfig(B, seed))
             for seed in FORECAST_SEEDS for B in UPDATE_REPLICATES}
    out = {}
    for m in UPDATE_PERIODS:
        observed = actual[: m - 1]
        flr, ctx = flr_fit(train, m), build_update_context(fpca, var, observed)
        out[f"updates/m{m}/flr_update"] = flr_update(flr, observed)
        out[f"updates/m{m}/pls_update"] = pls_update(ctx, 1.0, fpca)
        for (seed, B), reps in draws.items():
            key = f"updates/m{m}/seed{seed}/B{B}"
            for name, bounds in (("flr", flr_interval_update(flr, observed, reps)),
                                 ("pls", pls_interval_update(ctx, 1.0, fpca, reps))):
                for a, pair in bounds.items():
                    out[f"{key}/{name}_interval/{a}"] = np.stack(pair)
    return out


PROBES = {"draws": probe_draws, "forecast": probe_forecast, "tune": probe_tune,
          "golden": probe_golden, "dropped_days": probe_dropped_days,
          "updates": probe_updates}


def run_probes(names, path: str) -> None:
    """Run the named probes in this process, in the current directory; pickle their outputs."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in names:
            out.update(PROBES[name]())
    with open(path, "wb") as fh:
        pickle.dump(out, fh)


def probe_tree(tree: str, names) -> dict:
    """The named probes' outputs computed by ``tree``'s library, in a fresh subprocess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "outputs.pickle")
        cmd = [sys.executable, os.path.abspath(__file__), "--run-probes", path, "--probe", *names]
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"probes in {tree} exited {done.returncode}: {done.stderr}")
        with open(path, "rb") as fh:
            return pickle.load(fh)


def sha256(value) -> str:
    if isinstance(value, np.ndarray):
        value = f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return hashlib.sha256(value).hexdigest()


def largest_relative_difference(parent: np.ndarray, change: np.ndarray) -> str:
    if parent.shape != change.shape:
        return f"shape {parent.shape} -> {change.shape}"
    parent, change = parent.astype(float), change.astype(float)
    scale = np.max(np.abs(parent), initial=0.0)
    diff = np.max(np.abs(change - parent), initial=0.0)
    return f"largest relative difference {diff / scale if scale else diff:.3g}"


def compare(parent: dict, change: dict) -> tuple:
    """``(lines, same)``: one report line per output of either tree, and whether all match."""
    lines, same = [], True
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        da, db = ("missing" if v is None else sha256(v) for v in (a, b))
        verdict = "same" if da == db != "missing" else "differs"
        same &= verdict == "same"
        line = f"{key}: {da[:16]} {db[:16]} {verdict}"
        if verdict == "differs" and isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            line += f" ({largest_relative_difference(a, b)})"
        lines.append(line)
    return lines, same


def export_revision(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def export_working_tree(dest: str) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            check=True, capture_output=True).stdout
    for name in sorted(set(filter(None, listed.decode().split("\0")))):
        if os.path.isfile(name):  # a tracked file deleted in the working tree is left out
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision to compare the working tree against")
    parser.add_argument("--probe", nargs="+", choices=sorted(PROBES), default=list(PROBES))
    parser.add_argument("--run-probes", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_probes:
        run_probes(args.probe, args.run_probes)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                         capture_output=True, text=True).stdout.strip()
    os.chdir(top)
    with tempfile.TemporaryDirectory() as parent_tree, \
            tempfile.TemporaryDirectory() as change_tree:
        export_revision(args.parent, parent_tree)
        export_working_tree(change_tree)
        lines, same = compare(probe_tree(parent_tree, args.probe),
                              probe_tree(change_tree, args.probe))
    print(f"parent {args.parent} vs working tree; sha256 at the parent, then at the change")
    for line in lines:
        print(line)
    print("every output is the same" if same else "some outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
