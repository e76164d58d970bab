import json
import warnings
from dataclasses import replace
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
    LambdaSchedule,
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
from curvecast import evalharness

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
        from dataclasses import replace

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
        fit = evalharness._fit_models

        def explosive_on_bad_day(train, num_components, max_order):
            model, var = fit(train, num_components, max_order)
            if train.n == bad_day:
                var = replace(var, spectral_radius=1.2)
            return model, var

        with mock.patch.object(evalharness, "_fit_models", explosive_on_bad_day):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = run_backtest(fts, plan)
        assert [(f["day"], f["stage"]) for f in report.failures] == [(bad_day, "fit")]
        assert "spectral radius" in report.failures[0]["error"]
        assert report.days_used == plan.n_test - 1
        for mth in ("TS", "FLR"):
            assert report.updating[mth]["msfe"] > 0.0


class TestReportSerialization:
    def test_json_round_trip_exact(self, small_backtest):
        _, _, report = small_backtest
        back = report_from_json(report_to_json(report))
        assert back.updating["PLS"]["msfe"] == report.updating["PLS"]["msfe"]
        assert back.full_day["TS"]["ecp_uniform"] == report.full_day["TS"]["ecp_uniform"]
        assert back.per_period["FLR"][3]["interval_score"] == report.per_period["FLR"][3]["interval_score"]
        assert back.config_hash == report.config_hash
        assert back.plan == report.plan

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
