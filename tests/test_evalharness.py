import json
import warnings
import weakref
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import default_rng

from curvecast import (
    BacktestPlan,
    BootstrapConfig,
    ConfigError,
    DataError,
    FunctionalTimeSeries,
    IntradayGrid,
    LambdaSchedule,
    NumericalError,
    SynthSpec,
    ecp,
    generate,
    interval_score,
    msfe,
    plan_hash,
    report_from_json,
    report_to_json,
    run_backtest,
    validate_plan,
    write_report_csvs,
)
from curvecast import evalharness, sieve, updating

_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_alpha = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


@st.composite
def _bounds_and_actuals(draw, max_days=6, max_points=10):
    """Lower and upper bounds (lower <= upper) and actuals of one (days, points) shape."""
    shape = (draw(st.integers(1, max_days)), draw(st.integers(1, max_points)))
    a, b, x = (draw(arrays(float, shape, elements=_finite)) for _ in range(3))
    return np.minimum(a, b), np.maximum(a, b), x


class TestIntervalScore:
    def test_worked_examples(self):
        assert interval_score(0.0, 1.0, 0.5, 0.2) == 1.0
        assert interval_score(0.0, 1.0, 2.0, 0.2) == 11.0
        assert interval_score(0.0, 1.0, -1.0, 0.05) == 41.0

    def test_boundary_hit_has_no_penalty(self):
        assert interval_score(0.0, 1.0, 1.0, 0.2) == 1.0
        assert interval_score(0.0, 1.0, 0.0, 0.2) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(bounds=_bounds_and_actuals(), alpha=_alpha)
    def test_never_below_the_width(self, bounds, alpha):
        lo, hi, x = bounds
        assert np.all(interval_score(lo, hi, x, alpha) >= hi - lo)

    def test_vectorized_mean(self):
        lo = np.zeros(3)
        hi = np.ones(3)
        x = np.array([0.5, 2.0, 0.5])
        per = interval_score(lo, hi, x, 0.2)
        assert np.array_equal(per, np.array([1.0, 11.0, 1.0]))
        assert np.array_equal(interval_score(0.0, 1.0, x, 0.2), per)  # scalar bounds broadcast

    @pytest.mark.parametrize("args,error", [
        ((np.ones(3), np.ones(4), np.ones(3), 0.1), DataError),
        ((np.ones(3), np.zeros(3), np.ones(3), 0.1), DataError),
        ((0.0, 1.0, 0.5, 1.0), ConfigError),
    ], ids=["mismatched-shapes", "upper-below-lower", "alpha-one"])
    def test_bad_inputs_are_typed(self, args, error):
        with pytest.raises(error):
            interval_score(*args)


class TestEcp:
    def test_worked_example(self):
        actuals = np.zeros((4, 10))
        lower = -np.ones((4, 10))
        upper = np.ones((4, 10))
        actuals[2, 7] = 5.0
        assert ecp(actuals, lower, upper, "pointwise") == pytest.approx(39.0 / 40.0)
        assert ecp(actuals, lower, upper, "uniform") == pytest.approx(0.75)

    def test_boundary_counts_as_covered(self):
        actuals = np.array([[1.0, -1.0]])
        assert ecp(actuals, -np.ones((1, 2)), np.ones((1, 2)), "pointwise") == 1.0

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            ecp(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), "banded")

    @pytest.mark.parametrize("actuals,bounds", [
        (np.ones((3, 4)), np.ones(5)),
        (np.ones(4), np.ones((2, 4))),
        (np.ones((0, 4)), np.ones(4)),
    ], ids=["bounds-too-long", "bounds-with-more-days", "no-days"])
    def test_bad_shapes_are_data_errors(self, actuals, bounds):
        with pytest.raises(DataError):
            ecp(actuals, bounds, bounds)

    @settings(max_examples=100, deadline=None)
    @given(bounds=_bounds_and_actuals())
    def test_uniform_never_exceeds_pointwise(self, bounds):
        lo, hi, x = bounds
        assert ecp(x, lo, hi, "uniform") <= ecp(x, lo, hi, "pointwise")


class TestPointMetrics:
    def test_msfe_worked_example(self):
        actuals = default_rng(0).normal(size=(5, 7))
        per_point, agg = msfe(actuals, actuals + 0.5)
        assert per_point.shape == (7,)
        assert np.allclose(per_point, 0.25, atol=1e-15)
        assert agg == pytest.approx(0.25)


@pytest.fixture(scope="module")
def small_backtest():
    spec = SynthSpec(n=80, tau=10, num_factors=2, noise_sd=0.2, seed=3)
    fts, _ = generate(spec)
    plan = BacktestPlan(
        initial_train=60, n_test=6, methods=("TS", "PLS", "OLS", "FLR"),
        periods=(3, 6), tune_train=40, tune_validation=15,
        lambda_grid=(0.0, 1.0, 1e6),
        bootstrap=BootstrapConfig(num_replicates=40, seed=9),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_backtest(fts, plan)
    return fts, plan, report


class TestPlanValidation:
    def test_split_must_fit(self, small_backtest):
        fts, _, _ = small_backtest
        plan = BacktestPlan(initial_train=79, n_test=6)
        with pytest.raises(ConfigError):
            validate_plan(plan, fts)

    def test_unknown_method(self, small_backtest):
        fts, _, _ = small_backtest
        plan = BacktestPlan(initial_train=60, n_test=6, methods=("TS", "ARIMA"))
        with pytest.raises(ConfigError):
            validate_plan(plan, fts)

    def test_repeated_method_is_config_error(self, small_backtest):
        fts, _, _ = small_backtest
        plan = BacktestPlan(initial_train=60, n_test=6, methods=("FLR", "TS", "FLR"))
        with pytest.raises(ConfigError, match="repeats"):
            validate_plan(plan, fts)

    def test_repeated_alpha_level_counts_once(self, tmp_path):
        fts, _ = generate(SynthSpec(n=60, tau=10, seed=3))
        written = []
        for alphas in ((0.2,), (0.2, 0.2)):
            plan = BacktestPlan(
                initial_train=50, n_test=2, methods=("TS", "PLS", "FLR"), periods=(5,),
                tune_train=40, tune_validation=5, lambda_grid=(0.0, 1.0),
                bootstrap=BootstrapConfig(num_replicates=50, seed=1, alpha_levels=alphas),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = run_backtest(fts, plan)
            paths = write_report_csvs(report, str(tmp_path / str(len(alphas))))
            csvs = {key: open(path).read() for key, path in paths.items()}
            written.append((report_to_json(report), csvs))
        assert written[0] == written[1]

    def test_empty_period_list_is_config_error_where_a_period_is_needed(self, small_backtest):
        fts, _, _ = small_backtest
        with pytest.raises(ConfigError, match="no updating period"):
            updating.tune_lambda(fts, train_size=40, validation_size=15, periods=())
        for method in ("PLS", "OLS", "FLR"):
            plan = BacktestPlan(initial_train=60, n_test=6, methods=("TS", method), periods=())
            with pytest.raises(ConfigError, match="no updating period"):
                validate_plan(plan, fts)
        assert validate_plan(BacktestPlan(initial_train=60, n_test=6, methods=("TS",),
                                          periods=()), fts) == ()

    def test_provided_schedule_must_cover_periods(self, small_backtest):
        fts, _, _ = small_backtest
        sched = LambdaSchedule(
            point={3: 0.1},
            interval={0.2: {3: 0.1}, 0.05: {3: 0.1}},
            lambda_grid=(0.1,),
        )
        plan = BacktestPlan(
            initial_train=60, n_test=6, methods=("TS", "PLS"),
            periods=(3, 6), lambda_schedule=sched,
        )
        with pytest.raises(ConfigError):
            validate_plan(plan, fts)

    @pytest.mark.parametrize("bad", [-1.0, np.inf])
    @pytest.mark.parametrize("where", ["point", "interval"])
    def test_provided_schedule_value_must_be_finite_and_nonnegative(self, small_backtest,
                                                                     bad, where):
        # rejected before any test day is fitted or drawn
        fts, _, _ = small_backtest
        point, interval = {3: 0.1}, {0.2: {3: 0.1}, 0.05: {3: 0.1}}
        if where == "point":
            point[3] = bad
        else:
            interval[0.05][3] = bad
        plan = BacktestPlan(
            initial_train=60, n_test=6, methods=("TS", "PLS"), periods=(3,),
            lambda_schedule=LambdaSchedule(point=point, interval=interval, lambda_grid=(0.1,)),
        )
        with pytest.raises(ConfigError, match="shrinkage must be finite and >= 0"):
            validate_plan(plan, fts)


class TestBacktestReport:
    def test_shape_of_report(self, small_backtest):
        _, plan, report = small_backtest
        assert report.days_used == 6
        assert report.periods == (3, 6)
        assert set(report.updating.keys()) == {"TS", "PLS", "OLS", "FLR"}
        assert set(report.per_period["PLS"].keys()) == {3, 6}
        for mth in ("TS", "PLS", "FLR"):
            stats = report.updating[mth]
            assert stats["msfe"] > 0.0
            assert 0.0 <= stats["sign_accuracy"] <= 1.0
            for alpha in (0.2, 0.05):
                assert 0.0 <= stats["ecp_pointwise"][alpha] <= 1.0
                assert stats["interval_score"][alpha] > 0.0

    def test_full_day_metrics(self, small_backtest):
        _, _, report = small_backtest
        ts = report.full_day["TS"]
        assert len(ts["msfe_curve"]) == 9
        for alpha in (0.2, 0.05):
            assert 0.0 <= ts["ecp_uniform"][alpha] <= 1.0
            assert 0.0 <= ts["ecp_pointwise"][alpha] <= 1.0

    def test_ols_is_point_only(self, small_backtest):
        _, _, report = small_backtest
        ols = report.updating["OLS"]
        assert ols["msfe"] > 0.0
        assert all(v is None for v in ols["interval_score"].values())
        assert all(v is None for v in ols["ecp_pointwise"].values())

    def test_updating_aggregates_periods(self, small_backtest):
        _, _, report = small_backtest
        for mth in ("TS", "PLS"):
            per = [report.per_period[mth][m]["msfe"] for m in (3, 6)]
            assert report.updating[mth]["msfe"] == pytest.approx(np.mean(per))

    def test_schedule_attached_and_from_grid(self, small_backtest):
        _, plan, report = small_backtest
        sched = report.lambda_schedule
        assert set(sched.point.keys()) == {3, 6}
        for lam in sched.point.values():
            assert lam in plan.lambda_grid

    def test_rolling_window_differs(self, small_backtest):
        fts, plan, report = small_backtest
        from dataclasses import fields, replace

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rolled = run_backtest(fts, replace(plan, rolling=True))
        assert rolled.days_used == report.days_used
        assert rolled.updating["TS"]["msfe"] != report.updating["TS"]["msfe"]


class TestFailedDays:
    def test_non_stationary_day_is_a_fit_failure(self, small_backtest):
        fts, plan, _ = small_backtest
        plan = replace(plan, methods=("TS", "FLR"), n_test=3)
        bad_day = plan.initial_train + 1
        fit = sieve._fit_day

        def explosive_on_bad_day(train, num_components, max_order):
            day = fit(train, num_components, max_order)
            if train.n == bad_day:
                day = replace(day, var=replace(day.var, spectral_radius=1.2))
            return day

        with mock.patch.object(sieve, "_fit_day", explosive_on_bad_day):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = run_backtest(fts, plan)
        assert [(f["day"], f["stage"]) for f in report.failures] == [(bad_day, "fit")]
        assert "spectral radius" in report.failures[0]["error"]
        assert report.days_used == plan.n_test - 1
        for mth in ("TS", "FLR"):
            assert report.updating[mth]["msfe"] > 0.0

    # two components cannot be fitted on 5 days; validation day 13 fits an explosive VAR
    unfittable = dict(
        initial_train=30, n_test=2, methods=("TS", "PLS"), periods=(5,), tune_train=5,
        tune_validation=10, num_components=2, bootstrap=BootstrapConfig(num_replicates=50, seed=1),
    )

    @pytest.fixture(scope="class")
    def short_panel(self):
        return generate(SynthSpec(n=40, tau=10, num_factors=2, noise_sd=0.2, seed=4))[0]

    def test_unfittable_validation_days_are_tune_failures(self, short_panel):
        plan = BacktestPlan(**self.unfittable)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_backtest(short_panel, plan)
        got = [(f["day"], f["stage"]) for f in report.failures]
        assert got == [(5, "tune"), (13, "tune"), (31, "fit")]
        assert "lag order" in report.failures[0]["error"]
        assert "spectral radius" in report.failures[1]["error"]
        assert report.days_used == 1
        sched = report.lambda_schedule
        for lam in [sched.point[5]] + [sched.interval[a][5] for a in plan.bootstrap.alpha_levels]:
            assert lam in plan.lambda_grid

    def test_every_validation_day_failing_is_a_numerical_error(self, short_panel):
        plan = BacktestPlan(**{**self.unfittable, "tune_train": 3, "tune_validation": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError, match="every validation day failed.*lag order"):
                run_backtest(short_panel, plan)

    def test_every_test_day_failing_quotes_a_test_day(self, short_panel):
        plan = BacktestPlan(**self.unfittable)
        fit = sieve._fit_day

        def explosive_on_test_days(train, num_components, max_order):
            day = fit(train, num_components, max_order)
            if train.n >= plan.initial_train:
                day = replace(day, var=replace(day.var, spectral_radius=1.25))
            return day

        with mock.patch.object(sieve, "_fit_day", explosive_on_test_days):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(NumericalError, match="every test day failed.*1.2500"):
                    run_backtest(short_panel, plan)


class TestCellsAndDays:
    def test_a_cell_is_recorded_whole_or_not_at_all(self):
        # exact least squares cannot price m=2's interval with two components
        fts, _ = generate(SynthSpec(n=80, tau=10, seed=3))
        alphas = (0.2, 0.05)
        plan = BacktestPlan(
            initial_train=70, n_test=4, methods=("PLS",), periods=(2, 5),
            bootstrap=BootstrapConfig(num_replicates=40, seed=1),
            lambda_schedule=LambdaSchedule(
                point={2: 1.0, 5: 1.0}, interval={a: {2: 0.0, 5: 1.0} for a in alphas}
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_backtest(fts, plan)
        assert report.skipped_cells == {("PLS", 2): 4}
        assert set(report.per_period["PLS"]) == {5}
        assert report.updating["PLS"]["periods_covered"] == [5]
        assert report.updating["PLS"]["msfe"] == report.per_period["PLS"][5]["msfe"]

    def test_one_step_forecast_runs_per_day_not_per_period(self, small_backtest, monkeypatch):
        fts, plan, _ = small_backtest
        calls = []
        forecast_scores = sieve.forecast_scores

        def counted(*args, **kwargs):
            calls.append(1)
            return forecast_scores(*args, **kwargs)

        for module in (sieve, updating):  # count the forecast wherever the library imports it
            if hasattr(module, "forecast_scores"):
                monkeypatch.setattr(module, "forecast_scores", counted)
        counts = []
        for periods in ((3,), (3, 6, 9)):
            del calls[:]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_backtest(fts, replace(plan, periods=periods, n_test=2, tune_validation=3))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_one_days_replicates_live_at_a_time(self, monkeypatch):
        fts, _ = generate(SynthSpec(n=60, tau=10, num_factors=2, noise_sd=0.2, seed=3))
        plan = BacktestPlan(
            initial_train=50, n_test=4, methods=("TS", "PLS", "FLR"), periods=(3, 6),
            tune_train=40, tune_validation=5, lambda_grid=(0.0, 1.0),
            bootstrap=BootstrapConfig(num_replicates=40, seed=2),
        )
        drawn, live = [], []

        def watched(fn, replicates_of):
            def call(*args, **kwargs):
                live.append(sum(ref() is not None for ref in drawn))
                out = fn(*args, **kwargs)
                drawn.append(weakref.ref(replicates_of(out)))
                return out

            return call

        monkeypatch.setattr(evalharness, "sieve_prediction",
                            watched(evalharness.sieve_prediction, lambda fc: fc.replicates))
        # tuning keeps only its future draws; its replicate set, index draws included, must go
        monkeypatch.setattr(updating, "draw_replicates",
                            watched(updating.draw_replicates, lambda reps: reps))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_backtest(fts, plan)
        assert report.days_used == 4 and not report.failures
        assert live == [0] * 9

    def test_tau_three_with_slowly_decaying_scores(self):
        # AICc picks order 5 here; some tuning days have a spectral radius above 0.9
        spec = SynthSpec(n=60, tau=3, num_factors=1, score_ar=(0.5,), innovation_sd=(1.0,), seed=1)
        fts, _ = generate(spec)
        plan = BacktestPlan(
            initial_train=40, n_test=4, tune_train=30, tune_validation=10,
            lambda_grid=(0.0, 1.0, 1e6), bootstrap=BootstrapConfig(num_replicates=100, seed=0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_backtest(fts, plan)
        assert report.periods == (2,)
        assert report.days_used == 4 and not report.failures and not report.skipped_cells
        assert set(report.updating) == {"TS", "PLS", "OLS", "FLR"}
        for stats in report.updating.values():
            assert np.isfinite(stats["msfe"]) and stats["periods_covered"] == [2]

    @pytest.mark.parametrize("methods", [("TS",), ("TS", "PLS", "OLS", "FLR")])
    def test_constant_curves_are_a_numerical_error(self, methods):
        fts = FunctionalTimeSeries(np.full((40, 7), 0.5), IntradayGrid.regular(8))
        plan = BacktestPlan(initial_train=30, n_test=3, methods=methods, periods=(3,),
                            tune_train=20, tune_validation=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the decomposition warns that it is degenerate
            with pytest.raises(NumericalError):
                run_backtest(fts, plan)


class TestPlanHash:
    #: a changed value for every plan field
    CHANGED = dict(
        initial_train=201, n_test=49, methods=("TS", "PLS"), periods=(2, 5),
        bootstrap=BootstrapConfig(seed=1), lambda_schedule=LambdaSchedule(point={2: 1.0}),
        tune_train=149, tune_validation=49, lambda_grid=(0.0, 1.0), num_components=2,
        max_order=9, rolling=True, n_workers=2,
    )

    def test_every_field_but_n_workers_moves_the_hash(self):
        # a plan field added without a changed value here fails the first check
        assert set(self.CHANGED) == {f.name for f in fields(BacktestPlan)}
        base = BacktestPlan()
        for name, value in self.CHANGED.items():
            moved = plan_hash(replace(base, **{name: value})) != plan_hash(base)
            assert moved == (name != "n_workers"), name

    def test_every_bootstrap_field_moves_the_hash(self):
        changed = dict(num_replicates=300, seed=1, alpha_levels=(0.1,), center="ts")
        assert set(changed) == {f.name for f in fields(BootstrapConfig)}
        base = BacktestPlan()
        for name, value in changed.items():
            plan = replace(base, bootstrap=replace(base.bootstrap, **{name: value}))
            assert plan_hash(plan) != plan_hash(base), name


class TestReportSerialization:
    def test_json_round_trip_exact(self, small_backtest):
        _, _, report = small_backtest
        back = report_from_json(report_to_json(report))
        assert back.updating["PLS"]["msfe"] == report.updating["PLS"]["msfe"]
        assert back.full_day["TS"]["ecp_uniform"] == report.full_day["TS"]["ecp_uniform"]
        assert back.per_period["FLR"][3]["interval_score"] == report.per_period["FLR"][3]["interval_score"]
        assert back.config_hash == report.config_hash
        assert back.plan == report.plan

    @pytest.mark.parametrize("levels", [("0.05", "0.051"), ("0.2", "0.2")])
    def test_levels_sharing_a_coverage_label_are_data_errors(self, small_backtest, levels):
        # a level added to every table beside one of its label: each CSV would have
        # two columns of one name
        _, _, report = small_backtest
        old, new = levels

        def with_level(doc):
            if isinstance(doc, list):
                return [with_level(v) for v in doc]
            if not isinstance(doc, dict):
                return doc
            out = {k: with_level(v) for k, v in doc.items()}
            return {**out, new: out[old]} if old in out else out

        doc = with_level(json.loads(report_to_json(report)))
        doc["alpha_levels"].append(float(new))
        with pytest.raises(DataError, match=f"alpha levels {old} and {new} share the "
                                            f"coverage label {round(100 * (1 - float(old)))}"):
            report_from_json(json.dumps(doc))

    def test_csv_export_deterministic(self, small_backtest, tmp_path):
        _, _, report = small_backtest
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        p1 = write_report_csvs(report, str(d1))
        p2 = write_report_csvs(report, str(d2))
        assert set(p1.keys()) == set(p2.keys())
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()

    def test_manifest_contents(self, small_backtest, tmp_path):
        _, plan, report = small_backtest
        paths = write_report_csvs(report, str(tmp_path / "out"))
        man = json.loads(open(paths["manifest"]).read())
        assert man["config_hash"] == plan_hash(plan)
        assert man["seed"] == 9
        assert "library" in man
        assert not any("time" in k or "date" in k for k in man)
