import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curvecast.cli as cli
import curvecast.sieve as sieve
from curvecast import (
    BacktestPlan,
    BootstrapConfig,
    LambdaSchedule,
    plan_to_dict,
    run_backtest,
    schedule_to_json,
)
from curvecast.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    prices = d / "px.csv"
    rc = main(
        [
            "simulate", "--days", "70", "--tau", "12", "--seed", "7",
            "--noise-sd", "0.2", "--output", str(prices),
        ]
    )
    assert rc == 0
    lines = prices.read_text().strip().splitlines()
    fields = lines[-1].split(",")
    fields = fields[:7] + [""] * (len(fields) - 7)
    partial = d / "partial.csv"
    partial.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    return d, prices, partial


class TestSimulate:
    def test_output_shape(self, workdir):
        _, prices, _ = workdir
        lines = prices.read_text().strip().splitlines()
        assert len(lines) == 71
        assert len(lines[0].split(",")) == 13

    def test_same_seed_same_bytes(self, workdir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(
                ["simulate", "--days", "20", "--tau", "8", "--seed", "3", "--output", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truth_dump(self, tmp_path):
        out = tmp_path / "c.csv"
        truth = tmp_path / "truth.json"
        rc = main(
            ["simulate", "--days", "15", "--tau", "8", "--seed", "3",
             "--output", str(out), "--truth", str(truth)]
        )
        assert rc == 0
        doc = json.loads(truth.read_text())
        assert "scores" in doc
        assert "manifest" in doc


class TestIngest:
    def test_summary_and_cleaned_output(self, workdir, tmp_path):
        _, prices, _ = workdir
        lines = prices.read_text().strip().splitlines()
        bad = lines[3].split(",")
        bad = [bad[0]] + [""] * (len(bad) - 1)
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines[:3] + [",".join(bad)] + lines[4:]) + "\n")
        cleaned = tmp_path / "clean.csv"
        summary = tmp_path / "summary.json"
        with pytest.warns(UserWarning):
            rc = main(
                ["ingest", "--input", str(dirty), "--output", str(cleaned),
                 "--summary", str(summary)]
            )
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["days_in"] == 70
        assert doc["days_kept"] == 69
        assert len(doc["days_dropped"]) == 1
        assert "manifest" in doc
        assert len(cleaned.read_text().strip().splitlines()) == 70


class TestFitForecast:
    def test_fit_document(self, workdir, tmp_path):
        _, prices, _ = workdir
        out = tmp_path / "model.json"
        assert main(["fit", "--input", str(prices), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "fitted_models"
        assert "fpca" in doc and "var" in doc
        assert "manifest" in doc

    def test_forecast_outputs(self, workdir, tmp_path):
        _, prices, _ = workdir
        fc_csv = tmp_path / "fc.csv"
        fc_json = tmp_path / "fc.json"
        rc = main(
            ["forecast", "--input", str(prices), "--replicates", "60", "--seed", "5",
             "--output-csv", str(fc_csv), "--output-json", str(fc_json)]
        )
        assert rc == 0
        doc = json.loads(fc_json.read_text())
        assert set(doc["manifest"].keys()) == {"config_hash", "library", "seed"}
        rows = fc_csv.read_text().strip().splitlines()
        assert len(rows) == 12  # header + tau-1 grid points
        point = np.asarray(doc["point"], dtype=float)
        lo = np.asarray(doc["pointwise"]["0.2"]["lower"], dtype=float)
        hi = np.asarray(doc["pointwise"]["0.2"]["upper"], dtype=float)
        assert point.shape == lo.shape == hi.shape == (11,)
        assert np.all(lo <= hi)


class TestUpdate:
    def test_pls_with_fixed_lambda(self, workdir, tmp_path):
        _, _, partial = workdir
        out = tmp_path / "up.json"
        rc = main(
            ["update", "--input", str(partial), "--method", "pls", "--lam", "1.0",
             "--intervals", "--replicates", "60", "--seed", "5",
             "--output-json", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "pls"
        assert doc["m"] == 6
        assert len(doc["point"]) == 6
        assert set(doc["intervals"].keys()) == {"0.2", "0.05"}
        assert "manifest" in doc

    def test_flr_and_ols(self, workdir, tmp_path):
        _, _, partial = workdir
        for method in ("flr", "ols"):
            out = tmp_path / f"{method}.json"
            rc = main(
                ["update", "--input", str(partial), "--method", method,
                 "--output-json", str(out)]
            )
            assert rc == 0
            assert json.loads(out.read_text())["method"] == method

    @pytest.mark.parametrize("method, builds", [("pls", 0), ("flr", 1)])
    def test_only_flr_intervals_build_the_pseudo_series(self, workdir, tmp_path, monkeypatch,
                                                        method, builds):
        _, _, partial = workdir
        calls = []
        transfer = sieve._transfer_padded
        monkeypatch.setattr(sieve, "_transfer_padded",
                            lambda *args: calls.append(1) or transfer(*args))
        rc = main(["update", "--input", str(partial), "--method", method, "--lam", "1.0",
                   "--intervals", "--replicates", "60", "--seed", "5",
                   "--output-json", str(tmp_path / "up.json")])
        assert rc == 0
        assert len(calls) == builds

    def test_pls_requires_lambda_source(self, workdir, tmp_path):
        _, _, partial = workdir
        rc = main(
            ["update", "--input", str(partial), "--method", "pls",
             "--output-json", str(tmp_path / "x.json")]
        )
        assert rc == 1

    def test_ols_intervals_rejected(self, workdir, tmp_path):
        _, _, partial = workdir
        rc = main(
            ["update", "--input", str(partial), "--method", "ols", "--intervals",
             "--output-json", str(tmp_path / "x.json")]
        )
        assert rc == 1


class TestTune:
    def test_schedule_then_update(self, workdir, tmp_path):
        _, prices, partial = workdir
        sched = tmp_path / "sched.json"
        rc = main(
            ["tune", "--input", str(prices), "--objective", "both",
             "--train-size", "40", "--validation-size", "10",
             "--lambda-grid", "0,1", "--periods", "6",
             "--replicates", "50", "--seed", "2", "--output", str(sched)]
        )
        assert rc == 0
        doc = json.loads(sched.read_text())
        assert "point" in doc and "interval" in doc
        assert "manifest" in doc
        out = tmp_path / "up.json"
        rc = main(
            ["update", "--input", str(partial), "--method", "pls",
             "--schedule", str(sched), "--output-json", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["lambda"] in (0.0, 1.0)


class TestBacktest:
    def test_outputs_and_export_round_trip(self, workdir, tmp_path):
        _, prices, _ = workdir
        out1 = tmp_path / "bt1"
        args = [
            "backtest", "--input", str(prices), "--initial-train", "60",
            "--n-test", "3", "--methods", "TS,PLS", "--periods", "3,6",
            "--tune-train", "40", "--tune-validation", "15",
            "--lambda-grid", "0,1", "--replicates", "50", "--seed", "9",
        ]
        assert main(args + ["--outdir", str(out1)]) == 0
        names = sorted(os.listdir(out1))
        assert "report.json" in names
        assert "manifest.json" in names
        assert "updating_metrics.csv" in names
        out2 = tmp_path / "bt2"
        assert main(args + ["--outdir", str(out2)]) == 0
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        replot = tmp_path / "plots"
        rc = main(
            ["export-plots", "--report", str(out1 / "report.json"),
             "--outdir", str(replot)]
        )
        assert rc == 0
        for name in sorted(os.listdir(replot)):
            assert (replot / name).read_bytes() == (out1 / name).read_bytes()

    def test_every_option_reaches_the_plan(self, workdir, tmp_path, monkeypatch):
        # every plan option away from its default; the plan recorded in the report
        # and the one the run received are the plan built by hand
        _, prices, _ = workdir
        schedule = LambdaSchedule(point={3: 1.0, 6: 0.0}, interval={0.1: {3: 1.0, 6: 0.0}},
                                  lambda_grid=(0.0, 1.0))
        sched = tmp_path / "sched.json"
        sched.write_text(schedule_to_json(schedule))
        expected = BacktestPlan(
            initial_train=60, n_test=2, methods=("TS", "PLS"), periods=(3, 6),
            bootstrap=BootstrapConfig(num_replicates=50, seed=9, alpha_levels=(0.1,), center="ts"),
            lambda_schedule=schedule, tune_train=40, tune_validation=15, lambda_grid=(0.0, 1.0),
            num_components=2, max_order=3, rolling=True, n_workers=2,
        )
        seen = []

        def run(fts, plan):
            seen.append(plan)
            return run_backtest(fts, plan)

        monkeypatch.setattr(cli, "run_backtest", run)
        outdir = tmp_path / "bt"
        assert main([
            "backtest", "--input", str(prices), "--initial-train", "60", "--n-test", "2",
            "--methods", "ts,pls", "--periods", "3,6", "--center", "ts", "--rolling",
            "--tune-train", "40", "--tune-validation", "15", "--lambda-grid", "0,1",
            "--schedule", str(sched), "--workers", "2", "--num-components", "2",
            "--max-order", "3", "--replicates", "50", "--seed", "9", "--alphas", "0.1",
            "--outdir", str(outdir),
        ]) == 0
        assert seen == [expected]
        report = json.loads((outdir / "report.json").read_text())
        assert report["plan"] == json.loads(json.dumps(plan_to_dict(expected)))


class TestDroppedValidationDays:
    def test_tune_and_backtest_report_dropped_days(self, tmp_path, capsys):
        # two of the five validation days have too few days before them to fit
        prices = tmp_path / "px.csv"
        assert main(["simulate", "--days", "40", "--tau", "10", "--seed", "4",
                     "--noise-sd", "0.2", "--output", str(prices)]) == 0
        runs = [
            ["tune", "--objective", "both", "--train-size", "3", "--validation-size", "5",
             "--output", str(tmp_path / "sched.json")],
            ["backtest", "--initial-train", "30", "--n-test", "2", "--methods", "TS,PLS",
             "--periods", "5", "--tune-train", "3", "--tune-validation", "5",
             "--outdir", str(tmp_path / "bt")],
        ]
        for argv in runs:
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # some fits are explosive
                assert main(argv[:1] + ["--input", str(prices)] + argv[1:]) == 0
            out, err = capsys.readouterr()
            assert err.startswith("dropped 2 of 5 validation days (first: day 3: ")
            assert len(err.strip().splitlines()) == 1
        assert out.startswith("backtest used 1 of 2 days (1 failed)")
        stages = [f["stage"] for f in json.loads((tmp_path / "bt" / "report.json").read_text())
                  ["failures"]]
        assert stages == ["tune", "tune", "fit"]


class TestParser:
    def test_top_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--help"])
        full = capsys.readouterr().out
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out == full
        assert all(name in out for name, *_ in cli._COMMANDS)

    @pytest.mark.parametrize("command", [name for name, *_ in cli._COMMANDS])
    def test_command_help_matches_full_parser(self, capsys, command):
        # the parser for one command builds that command's options only
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == full


class TestWarnings:
    # one validation day's VAR(10) is explosive, and fit_var warns about it
    BACKTEST = ["backtest", "--initial-train", "30", "--n-test", "2", "--methods", "TS,PLS",
                "--periods", "5", "--tune-train", "3", "--tune-validation", "5"]

    @pytest.fixture(scope="class")
    def prices(self, tmp_path_factory):
        prices = tmp_path_factory.mktemp("warn") / "px.csv"
        assert main(["simulate", "--days", "40", "--tau", "10", "--seed", "4",
                     "--noise-sd", "0.2", "--output", str(prices)]) == 0
        return prices

    def test_printed_as_one_line_without_a_source_path(self, prices, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "curvecast.cli", self.BACKTEST[0], "--input", str(prices)]
            + self.BACKTEST[1:] + ["--outdir", str(tmp_path / "bt")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert ".py:" not in run.stderr and "Traceback" not in run.stderr
        shown = [line for line in run.stderr.splitlines() if line.startswith("warning: ")]
        assert len(shown) == 1 and shown[0].startswith("warning: fitted VAR(10) has companion")

    def test_recorders_still_see_it(self, prices, tmp_path):
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            assert main(self.BACKTEST[:1] + ["--input", str(prices)] + self.BACKTEST[1:]
                        + ["--outdir", str(tmp_path / "bt")]) == 0
        assert any("unusable for bootstrap" in str(w.message) for w in log)
        assert warnings.formatwarning is formatwarning


#: a well-formed TS-only report at alpha 0.2 and m = 3, which the malformed ones alter
_TS_FULL_DAY = {
    "msfe": 1.0, "msfe_curve": [1.0], "ecp_pointwise": {"0.2": 0.8}, "ecp_uniform": {"0.2": 0.5},
    "interval_score": {"0.2": 2.0}, "interval_score_curve": {"0.2": [2.0]},
}


def _report_text(**changes):
    cell = {"msfe": 1.0, "sign_accuracy": 0.5, "days": 1, "ecp_pointwise": {"0.2": 0.8},
            "interval_score": {"0.2": 2.0}}
    doc = {
        "kind": "metric_report", "schema_version": 1, "config_hash": "x", "seed": 0,
        "alpha_levels": [0.2], "methods": ["TS"], "periods": [3], "n_test": 1, "days_used": 1,
        "plan": {}, "full_day": {"TS": _TS_FULL_DAY},
        "updating": {"TS": {"msfe": 1.0, "sign_accuracy": 0.5, "periods_covered": [3],
                            "ecp_pointwise": {"0.2": 0.8}, "interval_score": {"0.2": 2.0}}},
        "per_period": {"TS": {"3": cell}}, "failures": [], "skipped_cells": [],
        "lambda_schedule": None,
    }
    doc.update(changes)
    return json.dumps(doc)


class TestErrorPaths:
    def test_missing_input_is_exit_two(self, tmp_path):
        rc = main(
            ["fit", "--input", str(tmp_path / "nope.csv"),
             "--output", str(tmp_path / "m.json")]
        )
        assert rc == 2

    @pytest.mark.parametrize("option,argv,code", [
        ("input", ["ingest", "--output", "c.csv"], 2),
        ("config", ["simulate", "--output", "s.csv"], 1),
        ("schedule", ["update", "--method", "pls", "--output-json", "u.json"], 2),
        ("report", ["export-plots", "--outdir", "plots"], 2),
    ], ids=["input", "config", "schedule", "report"])
    def test_undecodable_file_is_one_line(self, workdir, tmp_path, monkeypatch, capsys, option,
                                          argv, code):
        _, _, partial = workdir
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "latin1"
        bad.write_bytes(b'{"date": "d\xe9"}\n')  # Latin-1, not UTF-8
        if argv[0] == "update":
            argv = argv + ["--input", str(partial)]
        capsys.readouterr()
        assert main(argv + ["--" + option, str(bad)]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: " if code == 1 else "data error: ")

    def test_unknown_config_key_is_exit_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 30, "bogus_key": 1}))
        rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 30, "tau": 10, "seed": 1}))
        out = tmp_path / "merged.csv"
        rc = main(["simulate", "--config", str(cfg), "--days", "25", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 26

    def test_bad_flag_is_exit_one(self, tmp_path):
        assert main(["simulate", "--no-such-flag", "1"]) == 1

    def test_abbreviated_flag_is_exit_one(self, tmp_path):
        # "--n" must not be taken as "--noise-sd"
        out = tmp_path / "s.csv"
        assert main(["simulate", "--n", "120", "--days", "20", "--tau", "8",
                     "--output", str(out)]) == 1
        assert not out.exists()
        assert main(["--hel"]) == 1  # not "--help"

    def test_bad_replicates_is_exit_one(self, workdir, tmp_path):
        _, prices, _ = workdir
        rc = main(
            ["forecast", "--input", str(prices), "--replicates", "0",
             "--output-json", str(tmp_path / "f.json")]
        )
        assert rc == 1

    # the options after the command run it to completion when the bad value is fixed
    _MISSING_FRAC_RUNS = {
        "ingest": [],
        "fit": [],
        "forecast": ["--replicates", "60"],
        "update": ["--method", "pls", "--lam", "1"],
        "tune": ["--train-size", "40", "--validation-size", "2", "--periods", "6"],
        "backtest": ["--initial-train", "60", "--n-test", "1", "--methods", "TS",
                     "--replicates", "50"],
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["forecast", "--seed", "-1", "--replicates", "60"],
            ["simulate", "--seed", "-2", "--days", "20", "--tau", "8"],
            ["forecast", "--max-order", "0", "--replicates", "60"],
            ["fit", "--num-components", "0"],
            ["tune", "--lambda-grid", ",", "--train-size", "40", "--validation-size", "10",
             "--periods", "6"],
            ["simulate", "--noise-sd", "-1", "--days", "20", "--tau", "8"],
            ["simulate", "--noise-sd", "nan", "--days", "20", "--tau", "8"],
            ["simulate", "--innovation-sd=-1,-1", "--days", "20", "--tau", "8"],
            ["simulate", "--link-noise-sd=-0.5,0.3", "--link-split", "4", "--days", "20",
             "--tau", "8"],
            ["simulate", "--late-factors", "0", "--link-split", "5", "--days", "20",
             "--tau", "8"],
            ["simulate", "--days", "0", "--tau", "8"],
            ["simulate", "--tau", "2", "--days", "20"],
            ["simulate", "--factors", "0", "--days", "20", "--tau", "8"],
            ["simulate", "--basis", "foo", "--days", "20", "--tau", "8"],
            ["simulate", "--score-ar", "0.5", "--days", "20", "--tau", "8"],
            ["simulate", "--score-ar", "1.5,0.3", "--days", "20", "--tau", "8"],
            ["simulate", "--link-split", "1", "--days", "20", "--tau", "8"],
            ["simulate", "--factors", "8", "--days", "20", "--tau", "8"],
            ["simulate", "--late-factors", "4", "--link-split", "5", "--days", "20", "--tau", "8"],
            # SynthSpec accepts these counts, but the basis on their grid is dependent
            ["simulate", "--late-factors", "3", "--link-split", "5", "--days", "20", "--tau", "8"],
            ["simulate", "--factors", "3", "--tau", "4", "--days", "20",
             "--score-ar", "0.1,0.1,0.1", "--innovation-sd", "1,1,1"],
            ["simulate", "--factors", "30", "--basis", "poly", "--tau", "75", "--days", "20",
             "--score-ar=" + ",".join(["0.1"] * 30), "--innovation-sd=" + ",".join(["1"] * 30)],
            ["backtest", "--methods", "flr,FLR", "--initial-train", "60", "--n-test", "1",
             "--replicates", "50"],
            ["tune", "--periods", "", "--train-size", "40", "--validation-size", "2"],
            ["backtest", "--periods", "", "--initial-train", "60", "--n-test", "1",
             "--methods", "TS,FLR", "--replicates", "50"],
        ]
        + [
            [command, "--max-missing-frac", bad, *options]
            for command, options in _MISSING_FRAC_RUNS.items()
            for bad in ("nan", "inf")
        ],
        ids=["forecast-negative-seed", "simulate-negative-seed", "max-order-zero",
             "num-components-zero", "tune-empty-lambda-grid", "simulate-negative-noise",
             "simulate-nan-noise", "simulate-negative-innovation-sd",
             "simulate-negative-link-noise-sd", "simulate-zero-late-factors",
             "simulate-zero-days", "simulate-tau-two", "simulate-zero-factors",
             "simulate-unknown-basis", "simulate-score-ar-length", "simulate-explosive-score-ar",
             "simulate-link-split-one", "simulate-factors-above-grid",
             "simulate-late-factors-above-block", "simulate-late-basis-dependent",
             "simulate-fourier-basis-dependent", "simulate-poly-basis-dependent",
             "backtest-repeated-method", "tune-empty-periods", "backtest-empty-periods"]
        + [f"{command}-{bad}-missing-frac" for command in _MISSING_FRAC_RUNS
           for bad in ("nan", "inf")],
    )
    def test_bad_config_value_is_exit_one(self, workdir, tmp_path, capsys, argv):
        _, prices, partial = workdir
        command, options = argv[0], argv[1:]
        io = {
            "simulate": ["--output", str(tmp_path / "s.csv")],
            "ingest": ["--input", str(prices), "--output", str(tmp_path / "c.csv")],
            "fit": ["--input", str(prices), "--output", str(tmp_path / "m.json")],
            "tune": ["--input", str(prices), "--output", str(tmp_path / "m.json")],
            "forecast": ["--input", str(prices), "--output-json", str(tmp_path / "f.json")],
            "update": ["--input", str(partial), "--output-json", str(tmp_path / "u.json")],
            "backtest": ["--input", str(prices), "--outdir", str(tmp_path / "bt")],
        }[command]
        capsys.readouterr()
        assert main([command] + options + io) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        if command == "simulate":  # each simulate case gives the flag at fault first
            assert err.startswith(f"error: {options[0].split('=')[0]} ")

    def test_var_identifiability_limit_is_exit_three(self, tmp_path, capsys):
        # two components need six days: five leave no identifiable lag order
        prices = tmp_path / "px.csv"
        assert main(["simulate", "--days", "12", "--tau", "10", "--seed", "4",
                     "--noise-sd", "0.2", "--output", str(prices)]) == 0
        lines = prices.read_text().splitlines()
        for days, rc in ((5, 3), (6, 0)):
            short = tmp_path / f"px{days}.csv"
            short.write_text("\n".join(lines[: days + 1]) + "\n")
            capsys.readouterr()
            assert main(["forecast", "--input", str(short), "--num-components", "2",
                         "--replicates", "50",
                         "--output-json", str(tmp_path / f"f{days}.json")]) == rc
            err = capsys.readouterr().err
            if rc:
                assert err.startswith("numerical error: ") and len(err.strip().splitlines()) == 1
            else:
                assert "Traceback" not in err

    @pytest.mark.parametrize("lam", ["inf", "nan", "schedule"])
    def test_non_finite_lambda_is_exit_one(self, workdir, tmp_path, capsys, lam):
        _, _, partial = workdir
        if lam == "schedule":
            sched = tmp_path / "sched.json"
            sched.write_text(
                '{"schema_version": 1, "kind": "lambda_schedule", "point": {"6": Infinity}}'
            )
            source = ["--schedule", str(sched)]
        else:
            source = ["--lam", lam]
        out = tmp_path / "up.json"
        capsys.readouterr()
        rc = main(["update", "--input", str(partial), "--method", "pls", *source,
                   "--output-json", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["not json {", '{"kind": "metric_report", "schema_version": 1}', "[1, 2]",
         '{"kind": "metric_report", "schema_version": 1, "config_hash": "x", "seed": 0, '
         '"alpha_levels": [0.2], "methods": ["TS"], "periods": [3], "n_test": 1, '
         '"days_used": 1, "plan": {}, "full_day": {}, "updating": {}, "per_period": {}, '
         '"failures": [], "skipped_cells": [1], "lambda_schedule": null}',
         '{"kind": "metric_report", "schema_version": 1, "config_hash": "x", "seed": 0, '
         '"alpha_levels": [0.2], "methods": ["TS"], "periods": [3], "n_test": 1, '
         '"days_used": 1, "plan": {}, "full_day": [], "updating": {}, "per_period": {}, '
         '"failures": [], "skipped_cells": [], "lambda_schedule": null}',
         _report_text(full_day={"TS": {k: v for k, v in _TS_FULL_DAY.items()
                                       if k != "interval_score_curve"}}),
         _report_text(alpha_levels=[0.1]),
         _report_text(per_period={"TS": {"3": 1.0}})],
        ids=["not-json", "missing-keys", "not-an-object", "bad-field", "list-for-object",
             "missing-ts-curve", "alpha-not-in-tables", "period-not-an-object"],
    )
    def test_malformed_report_is_exit_two(self, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        report.write_text(text)
        capsys.readouterr()
        rc = main(["export-plots", "--report", str(report), "--outdir", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
        assert not list(tmp_path.rglob("*.csv"))

    def test_levels_sharing_a_coverage_label_are_exit_two(self, tmp_path, capsys):
        # a report whose every table has both levels: its CSVs would repeat the 95 columns
        per = {"0.05": 0.9, "0.051": 0.9}
        full = {"msfe": 1.0, "msfe_curve": [1.0], "ecp_pointwise": per, "ecp_uniform": per,
                "interval_score": per, "interval_score_curve": {a: [2.0] for a in per}}
        cell = {"msfe": 1.0, "sign_accuracy": 0.5, "days": 1, "ecp_pointwise": per,
                "interval_score": per}
        report = tmp_path / "report.json"
        report.write_text(_report_text(
            alpha_levels=[0.05, 0.051], full_day={"TS": full}, per_period={"TS": {"3": cell}},
            updating={"TS": {**cell, "periods_covered": [3]}}))
        capsys.readouterr()
        rc = main(["export-plots", "--report", str(report), "--outdir", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: alpha levels 0.05 and 0.051 share the coverage label 95\n"
        assert not (tmp_path / "p").exists()

    def test_bad_time_label_is_exit_two(self, tmp_path, capsys):
        prices = tmp_path / "px.csv"
        prices.write_text("date,t0,t5,t10-\nd1,100,101,102\n")
        capsys.readouterr()
        rc = main(["ingest", "--input", str(prices), "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
        assert "'t10-'" in err

    def test_repeated_wide_date_is_exit_two(self, tmp_path, capsys):
        prices = tmp_path / "px.csv"
        prices.write_text("date,t0,t5,t10\nd1,1,2,3\nd1,1,2,3\n")
        capsys.readouterr()
        rc = main(["ingest", "--input", str(prices), "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
        assert f"{prices}:3: duplicate date 'd1'" in err
        assert not (tmp_path / "c.csv").exists()

    def test_bad_price_names_its_date_not_its_kept_row(self, tmp_path, capsys):
        prices = tmp_path / "px.csv"
        prices.write_text("date,t0,t5,t10,t15\nd1,NA,1,1,1\nd2,1,1,1,1\nd3,1,-2,1,1\n")
        capsys.readouterr()
        with pytest.warns(UserWarning, match=r"d1 \(missing boundary price\)"):
            rc = main(["ingest", "--input", str(prices), "--output", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: non-positive or non-finite price at d3, grid index 2\n"
        assert not (tmp_path / "c.csv").exists()

    def test_malformed_schedule_is_exit_two(self, workdir, tmp_path, capsys):
        _, _, partial = workdir
        sched = tmp_path / "sched.json"
        sched.write_text("not json {")
        capsys.readouterr()
        rc = main(["update", "--input", str(partial), "--method", "pls",
                   "--schedule", str(sched), "--output-json", str(tmp_path / "up.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("price", ["0", "-3"])
    @pytest.mark.parametrize("method", ["pls", "flr"])
    def test_non_positive_partial_price_is_exit_two(self, workdir, tmp_path, capsys, method, price):
        _, _, partial = workdir
        *history, last = partial.read_text().strip().splitlines()
        fields = last.split(",")
        fields[4] = price  # grid index 4, inside the observed prefix
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(history + [",".join(fields)]) + "\n")
        out = tmp_path / "up.json"
        capsys.readouterr()
        rc = main(["update", "--input", str(bad), "--method", method, "--lam", "1.0",
                   "--output-json", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "grid index 4" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_forecast_checks_outputs_before_fitting(self, workdir, monkeypatch, capsys):
        _, prices, _ = workdir

        def unreachable(*args, **kwargs):
            raise AssertionError("the bootstrap ran before the outputs were checked")

        monkeypatch.setattr(cli, "sieve_prediction", unreachable)
        capsys.readouterr()
        assert main(["forecast", "--input", str(prices)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv,levels,pct", [
        (["forecast", "--alphas", "0.05,0.051", "--replicates", "100"], ("0.05", "0.051"), 95),
        (["update", "--method", "pls", "--lam", "1", "--intervals", "--alphas", "0.2,0.204",
          "--replicates", "100"], ("0.2", "0.204"), 80),
    ], ids=["forecast", "update"])
    def test_alpha_levels_sharing_a_column_label_are_exit_one(self, workdir, tmp_path, capsys,
                                                              argv, levels, pct):
        # both levels would write lo{pct}/hi{pct}, and a CSV reader keeps one of each pair
        _, prices, partial = workdir
        source = partial if argv[0] == "update" else prices
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert main(argv[:1] + ["--input", str(source), "--output-csv", str(out)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: alpha levels {levels[0]} and {levels[1]} "
                       f"share the coverage label {pct}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["forecast", "--replicates", "100000000", "--output-json", "f.json"],
        # 10**9 days fail at the first allocation; 10**8 would fill 1.5 GiB first
        ["simulate", "--days", "1000000000", "--output", "s.csv"],
    ], ids=["forecast", "simulate"])
    def test_out_of_memory_is_one_line_and_exit_one(self, workdir, tmp_path, argv):
        pytest.importorskip("resource")
        _, prices, _ = workdir
        if argv[0] == "forecast":
            argv = argv + ["--input", str(prices)]
        limit = 3 * 2**30  # the child's own address space; no test may take the machine's memory
        child = ("import resource, sys\n"
                 f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                 "from curvecast.cli import main\nsys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True,
                             env=env, cwd=tmp_path, timeout=120)
        assert run.returncode == 1, run.stderr
        assert "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("error: not enough memory: ")
        assert not list(tmp_path.iterdir())


# every option that converts its value, read from the CLI's own table, so new flags are covered
_CONVERTED_OPTIONS = [
    (command, o.name)
    for command, _, opts, _ in cli._COMMANDS
    for o in opts
    if o.conv not in (str, cli._bool)
]


@pytest.mark.parametrize(
    "command,name", _CONVERTED_OPTIONS, ids=[f"{c}-{n}" for c, n in _CONVERTED_OPTIONS]
)
def test_unconvertible_option_value_is_exit_one(capsys, command, name):
    capsys.readouterr()
    assert main([command, "--" + name.replace("_", "-"), "x"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err


# every list option, read from the CLI's own table
_LIST_OPTIONS = [
    (command, o)
    for command, _, opts, _ in cli._COMMANDS
    for o in opts
    if o.conv in cli._LIST_CONVS
]


@pytest.mark.parametrize(
    "command,opt", _LIST_OPTIONS, ids=[f"{c}-{o.name}" for c, o in _LIST_OPTIONS]
)
def test_list_value_starting_with_minus_may_be_its_own_token(monkeypatch, command, opt):
    seen = {}

    def record(opts):
        seen.update(opts)
        return 0

    monkeypatch.setattr(cli, "_COMMANDS", [(c, record, o, h) for c, _, o, h in cli._COMMANDS])
    flag = "--" + opt.name.replace("_", "-")
    value = "-.5,2" if opt.conv is cli._floats else "-1,2"
    assert main([command, flag, value]) == 0
    assert seen[opt.name] == opt.conv(value)
    seen.clear()
    assert main([command, f"{flag}={value}"]) == 0
    assert seen[opt.name] == opt.conv(value)
