import warnings
from typing import NamedTuple

import numpy as np
import pytest
from numpy.random import default_rng

from curvecast import (
    BootstrapConfig,
    ConfigError,
    DataError,
    FpcaModel,
    NumericalError,
    SynthSpec,
    UpdateContext,
    build_update_context,
    derive_seed,
    draw_replicates,
    empirical_quantile,
    fit_fpca,
    fit_var,
    flr_fit,
    flr_interval_update,
    flr_update,
    forecast_scores,
    generate,
    interval_score,
    observed_columns,
    ols_update,
    pls_coefficients,
    pls_interval_update,
    pls_update,
    reconstruct,
    select_order,
    shrinkage_objective,
    tune_lambda,
    updating_columns,
)
from curvecast.updating import link_scores


@pytest.fixture(scope="module")
def linked_data():
    spec = SynthSpec(
        n=200, tau=20, num_factors=2, score_ar=(0.6, 0.4), innovation_sd=(1.0, 0.7),
        noise_sd=0.15, seed=21, link_split=10,
        link_matrix=((0.9, 0.2), (0.1, 0.8)), num_late_factors=2,
        link_noise_sd=(0.1, 0.1),
    )
    fts, truth = generate(spec)
    return fts, truth


@pytest.fixture(scope="module")
def pipeline(linked_data):
    fts, _ = linked_data
    train = fts.head(150)
    model = fit_fpca(train)
    scores = model.scores[:, : model.num_components]
    var = fit_var(scores, select_order(scores, 4))
    return train, model, var


@pytest.fixture(scope="module")
def context(linked_data, pipeline):
    fts, _ = linked_data
    _, model, var = pipeline
    return build_update_context(model, var, fts.values[150, :9])


class TestColumns:
    def test_partition(self):
        assert list(observed_columns(12, 6)) == [0, 1, 2, 3, 4]
        assert list(updating_columns(12, 6)) == [5, 6, 7, 8, 9, 10]

    def test_edges(self):
        assert list(observed_columns(12, 2)) == [0]
        assert list(updating_columns(12, 11)) == [10]

    def test_all_columns_covered(self):
        obs = observed_columns(20, 7)
        upd = updating_columns(20, 7)
        assert np.array_equal(np.concatenate([obs, upd]), np.arange(19))


class TestContext:
    def test_fields(self, linked_data, pipeline, context):
        fts, _ = linked_data
        _, model, var = pipeline
        scores = model.scores[:, : model.num_components]
        assert context.m == 10
        assert np.array_equal(context.observed, fts.values[150, :9])
        assert np.allclose(
            context.ts_scores, forecast_scores(var, scores)[0], atol=1e-14
        )
        expected_basis = model.eigenfunctions[
            observed_columns(20, 10)
        ][:, : model.num_components]
        assert np.array_equal(context.eigenbasis_obs, expected_basis)

    def test_rejects_degenerate_blocks(self, pipeline):
        _, model, var = pipeline
        with pytest.raises(DataError):
            build_update_context(model, var, [])
        with pytest.raises(DataError):
            build_update_context(model, var, np.zeros(19))


class TestPls:
    def test_zero_lambda_equals_ols(self, pipeline, context):
        _, model, _ = pipeline
        beta_pls = pls_coefficients(context, 0.0, model)
        xc = context.observed - model.mean[observed_columns(20, 10)]
        beta_ls, *_ = np.linalg.lstsq(context.eigenbasis_obs, xc, rcond=None)
        assert np.max(np.abs(beta_pls - beta_ls)) < 1e-10
        assert np.allclose(
            pls_update(context, 0.0, model), ols_update(context, model), atol=1e-12
        )

    def test_huge_lambda_equals_ts(self, pipeline, context):
        _, model, _ = pipeline
        pred = pls_update(context, 1e12, model)
        full_ts = reconstruct(model, context.ts_scores)
        ts_restricted = full_ts[updating_columns(20, 10)]
        scale = max(float(np.max(np.abs(ts_restricted))), 1.0)
        assert np.max(np.abs(pred - ts_restricted)) / scale < 1e-6

    def test_monotone_shrinkage_toward_ts(self, pipeline, context):
        _, model, _ = pipeline
        dist = [
            float(np.linalg.norm(pls_coefficients(context, lam, model) - context.ts_scores))
            for lam in (0.0, 1.0, 100.0, 1e4, 1e8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(dist, dist[1:]))

    def test_hand_example(self):
        fake = FpcaModel(
            mean=np.zeros(4),
            eigenfunctions=np.ones((4, 1)),
            eigenvalues=np.array([1.0]),
            scores=np.zeros((5, 1)),
            residuals=np.zeros((5, 4)),
            num_components=1,
            quad_weight=1.0 / 3.0,
            nobs=5,
            degenerate=False,
        )
        ctx = UpdateContext(
            m=3,
            observed=np.ones(2),
            eigenbasis_obs=np.ones((2, 1)),
            ts_scores=np.array([3.0]),
            updating_cols=np.array([2, 3]),
        )
        assert float(pls_coefficients(ctx, 2.0, fake)[0]) == 2.0

    def test_closed_form_minimizes_objective(self, pipeline, context):
        _, model, _ = pipeline
        lam = 5.0
        beta = pls_coefficients(context, lam, model)
        best = shrinkage_objective(context, model, lam, beta)
        xc = context.observed - model.mean[observed_columns(20, 10)]
        beta_ols, *_ = np.linalg.lstsq(context.eigenbasis_obs, xc, rcond=None)
        assert best <= shrinkage_objective(context, model, lam, beta_ols) + 1e-12
        assert best <= shrinkage_objective(context, model, lam, context.ts_scores) + 1e-12
        r = default_rng(2)
        for _ in range(10):
            other = beta + 0.1 * r.normal(size=beta.shape)
            assert best <= shrinkage_objective(context, model, lam, other) + 1e-12

    def test_negative_lambda_rejected(self, pipeline, context, reps):
        # an infinite shrinkage would put NaN in the penalized system; NaN compares false
        _, model, _ = pipeline
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                pls_coefficients(context, bad, model)
            with pytest.raises(ConfigError):
                pls_interval_update(context, bad, model, reps)
            with pytest.raises(ConfigError):
                pls_interval_update(context, {0.2: 1.0, 0.05: bad}, model, reps)


class TestFlr:
    def test_perfect_linkage_recovery(self):
        spec = SynthSpec(
            n=200, tau=20, num_factors=2, score_ar=(0.6, 0.4),
            innovation_sd=(1.0, 0.7), noise_sd=0.0, seed=21, link_split=10,
            link_matrix=((0.9, 0.2), (0.1, 0.8)), num_late_factors=2,
            link_noise_sd=(0.0, 0.0),
        )
        fts, _ = generate(spec)
        model = flr_fit(fts.head(150), 10, num_early=2, num_late=2)
        worst = 0.0
        for t in range(150, 200):
            pred = flr_update(model, fts.values[t, :9])
            worst = max(worst, float(np.max(np.abs(pred - fts.values[t, 9:]))))
        assert worst < 1e-8

    def test_auto_ranks_with_noise(self, linked_data):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        assert model.early_basis.shape[1] == 2
        assert model.late_basis.shape[1] == 2
        assert not model.ridged

    def test_prediction_beats_mean(self, linked_data):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        err_model, err_mean = [], []
        for t in range(150, 200):
            actual = fts.values[t, 9:]
            err_model.append(np.mean((flr_update(model, fts.values[t, :9]) - actual) ** 2))
            err_mean.append(np.mean((model.late_mean - actual) ** 2))
        assert np.mean(err_model) < np.mean(err_mean)

    def test_observed_length_checked(self, linked_data):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        with pytest.raises(DataError):
            flr_update(model, fts.values[0, :10])


class TestLinkScores:
    """The one linkage solve: FLR fits call it in 2-D, FLR intervals on the replicate stack."""

    @staticmethod
    def _stack():
        r = default_rng(8)
        theta = r.normal(size=(4, 30, 3))
        theta[1] = 0.0                                # zero trace
        theta[2, :, 2] = theta[2, :, 0] - theta[2, :, 1]  # collinear columns
        return theta, r.normal(size=(4, 30, 2))

    def test_collinear_early_block_is_ridged_with_a_warning(self):
        # component scores are orthogonal, so an FLR fit cannot build this block itself
        r = default_rng(3)
        x = r.normal(size=30)
        theta = np.column_stack([x, 2.0 * x])
        with pytest.warns(UserWarning, match="ridge floor"):
            link, ridged = link_scores(theta, r.normal(size=(30, 2)))
        assert ridged
        assert link.shape == (2, 2) and np.isfinite(link).all()

    def test_zero_trace_slice_links_to_zero_with_one_warning(self):
        theta, vartheta = self._stack()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            link, ridged = link_scores(theta, vartheta)
        assert len(caught) == 1
        assert ridged.tolist() == [False, True, True, False]
        assert np.array_equal(link[1], np.zeros((3, 2)))
        assert np.isfinite(link).all()

    def test_stack_equals_one_call_per_slice(self):
        theta, vartheta = self._stack()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            link, ridged = link_scores(theta, vartheta)
            for b in range(theta.shape[0]):
                one, flag = link_scores(theta[b], vartheta[b])
                assert one.shape == (3, 2) and np.ndim(flag) == 0
                assert np.array_equal(link[b], one)
                assert ridged[b] == flag
        with pytest.raises(DataError):
            link_scores(theta, vartheta[:3])


@pytest.fixture(scope="module")
def reps(pipeline):
    _, model, var = pipeline
    return draw_replicates(model, var, BootstrapConfig(num_replicates=80, seed=9))


class TestIntervalUpdates:
    def test_pls_intervals(self, pipeline, context, reps):
        _, model, _ = pipeline
        out = pls_interval_update(context, 1.0, model, reps)
        assert set(out.keys()) == {0.2, 0.05}
        for alpha in (0.2, 0.05):
            lo, hi = out[alpha]
            assert lo.shape == (10,)
            assert np.all(lo <= hi)
        again = pls_interval_update(context, 1.0, model, reps)
        assert np.array_equal(out[0.2][0], again[0.2][0])
        other = pls_interval_update(context, 1e8, model, reps)
        assert not np.array_equal(out[0.2][0], other[0.2][0])

    def test_flr_intervals(self, linked_data, reps):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        out = flr_interval_update(model, fts.values[150, :9], reps)
        for alpha in (0.2, 0.05):
            lo, hi = out[alpha]
            assert lo.shape == (10,)
            assert np.all(lo <= hi)


class TestTuning:
    def test_msfe_schedule(self, linked_data):
        fts, _ = linked_data
        sched = tune_lambda(
            fts, train_size=120, validation_size=40,
            lambda_grid=(0.0, 1.0, 1e6), periods=(5, 10),
        )
        assert set(sched.point.keys()) == {5, 10}
        assert all(v in (0.0, 1.0, 1e6) for v in sched.point.values())

    def test_split_and_objective_validation(self, linked_data):
        fts, _ = linked_data
        with pytest.raises(ConfigError):
            tune_lambda(fts, train_size=180, validation_size=40)
        with pytest.raises(ConfigError):
            tune_lambda(fts, train_size=120, validation_size=40, objective="mad")
        with pytest.raises(ConfigError):
            tune_lambda(fts, train_size=120, validation_size=40, periods=(1,))

    def test_interval_schedule(self, linked_data):
        fts, _ = linked_data
        sched = tune_lambda(
            fts, train_size=120, validation_size=20,
            objective="interval_score", lambda_grid=(0.0, 1e4), periods=(10,),
            bootstrap=BootstrapConfig(num_replicates=60, seed=3),
        )
        assert set(sched.interval.keys()) == {0.2, 0.05}
        assert set(sched.interval[0.2].keys()) == {10}


# ---------------------------------------------------------------------------
# the streamed, lambda-batched tuning against the per-(case, lambda, alpha) loop
# ---------------------------------------------------------------------------

ORACLE_GRID = (0.0, 0.1, 1.0, 10.0, 1e3)


class Case(NamedTuple):
    """One validation day at one updating period, its replicates kept whole."""

    ctx: UpdateContext
    actual_late: np.ndarray
    fpca: FpcaModel
    reps: object


def _oracle_bounds(case, lam, alpha):
    """One curve stack and two sorts per (case, lambda, alpha); None if infeasible."""
    ctx, fpca, reps = case.ctx, case.fpca, case.reps
    F = ctx.eigenbasis_obs
    K = F.shape[1]
    if lam == 0.0:
        s = np.linalg.svd(F, compute_uv=False)
        if F.shape[0] < K or s[-1] <= 1e-12 * s[0]:
            return None
    cols = ctx.updating_cols
    xc = ctx.observed - fpca.mean[: ctx.m - 1]
    late_resid = reps.resid_pool[reps.future_resid_idx][:, cols]
    gram = F.T @ F + lam * np.eye(K)
    base = np.linalg.solve(gram, F.T @ xc)
    shrink = lam * np.linalg.solve(gram, reps.future_scores.T).T
    curves = fpca.mean[cols] + (base + shrink) @ fpca.eigenfunctions[cols, :K].T + late_resid
    lo = empirical_quantile(curves, alpha / 2.0, axis=0)
    hi = empirical_quantile(curves, 1.0 - alpha / 2.0, axis=0)
    return lo, hi


def _oracle_interval_lambda(cases, grid, alphas):
    out = {}
    for alpha in alphas:
        totals = np.full(len(grid), np.inf)
        for i, lam in enumerate(grid):
            bounds = [_oracle_bounds(c, lam, alpha) for c in cases]
            if any(b is None for b in bounds):
                continue
            totals[i] = float(
                np.mean(
                    [
                        float(np.mean(interval_score(lo, hi, c.actual_late, alpha)))
                        for c, (lo, hi) in zip(cases, bounds)
                    ]
                )
            )
        out[alpha] = grid[int(np.argmin(totals))]
    return out


def _oracle_msfe_lambda(cases, grid):
    totals = np.full(len(grid), np.inf)
    for i, lam in enumerate(grid):
        try:
            errs = [np.mean((pls_update(c.ctx, lam, c.fpca) - c.actual_late) ** 2) for c in cases]
        except NumericalError:
            continue
        totals[i] = float(np.mean(errs))
    return grid[int(np.argmin(totals))]


class TestStreamedTuning:
    periods = (2, 5, 10, 15)
    cfg = BootstrapConfig(num_replicates=60, seed=3)
    split = dict(train_size=120, validation_size=8)

    @pytest.fixture(scope="class")
    def cases_by_m(self, linked_data):
        """Validation cases built as tune_lambda builds them, replicates kept whole."""
        fts, _ = linked_data
        out = {m: [] for m in self.periods}
        start = self.split["train_size"]
        for v in range(start, start + self.split["validation_size"]):
            model = fit_fpca(fts.window(0, v))
            K = model.num_components
            var = fit_var(model.scores[:, :K], select_order(model.scores[:, :K], 10))
            cfg = BootstrapConfig(num_replicates=60, seed=derive_seed(self.cfg.seed, 1, v))
            reps = draw_replicates(model, var, cfg)
            for m in self.periods:
                ctx = build_update_context(model, var, fts.values[v, : m - 1])
                out[m].append(Case(ctx, fts.values[v, m - 1 :], model, reps))
        return out

    @pytest.fixture(scope="class")
    def both(self, linked_data):
        fts, _ = linked_data
        return tune_lambda(
            fts, objective="both", lambda_grid=ORACLE_GRID, periods=self.periods,
            bootstrap=self.cfg, **self.split,
        )

    def test_pls_interval_update_matches_oracle_stacks(self, cases_by_m):
        for m in (5, 15):
            for case in cases_by_m[m][:3]:
                for lam in ORACLE_GRID:
                    out = pls_interval_update(case.ctx, lam, case.fpca, case.reps)
                    for alpha in (0.2, 0.05):
                        lo, hi = _oracle_bounds(case, lam, alpha)
                        assert np.array_equal(out[alpha][0], lo)
                        assert np.array_equal(out[alpha][1], hi)

    def test_per_alpha_lambda_mapping(self, cases_by_m):
        case = cases_by_m[10][0]
        out = pls_interval_update(case.ctx, {0.2: 1.0, 0.05: 1e3}, case.fpca, case.reps)
        for alpha, lam in ((0.2, 1.0), (0.05, 1e3)):
            assert all(
                np.array_equal(a, b) for a, b in zip(out[alpha], _oracle_bounds(case, lam, alpha))
            )

    def test_infeasible_exact_least_squares_is_skipped(self, linked_data, cases_by_m):
        # two components cannot be fitted from the single point observed at m=2
        fts, _ = linked_data
        case = cases_by_m[2][0]
        assert _oracle_bounds(case, 0.0, 0.2) is None
        with pytest.raises(NumericalError):
            pls_interval_update(case.ctx, {0.2: 1.0, 0.05: 0.0}, case.fpca, case.reps)
        sched = tune_lambda(fts, lambda_grid=(0.0, 1.0), periods=(2,), **self.split)
        assert sched.point == {2: 1.0}
        with pytest.raises(NumericalError):
            tune_lambda(fts, objective="interval_score", lambda_grid=(0.0,), periods=(2,),
                        bootstrap=self.cfg, **self.split)

    def test_both_matches_oracle(self, both, cases_by_m):
        for m in self.periods:
            oracle = _oracle_interval_lambda(cases_by_m[m], ORACLE_GRID, (0.2, 0.05))
            for alpha in (0.2, 0.05):
                assert both.interval[alpha][m] == oracle[alpha]
            assert both.point[m] == _oracle_msfe_lambda(cases_by_m[m], ORACLE_GRID)

    def test_batched_solves_stack_their_right_hand_sides(
        self, linked_data, cases_by_m, monkeypatch
    ):
        # NumPy < 2 reads a right-hand side with one dimension fewer than a
        # stacked matrix as a stack of vectors, so batched solves pass 3-D ones
        solve = np.linalg.solve

        def strict(a, b):
            assert np.ndim(a) < 3 or np.ndim(b) == np.ndim(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", strict)
        fts, _ = linked_data
        tune_lambda(fts, objective="both", lambda_grid=ORACLE_GRID, periods=(10,),
                    bootstrap=self.cfg, train_size=120, validation_size=2)
        case = cases_by_m[10][0]
        pls_interval_update(case.ctx, {0.2: 1.0, 0.05: 1e3}, case.fpca, case.reps)
        pls_update(case.ctx, 1.0, case.fpca)

    def test_both_equals_single_objectives(self, both, linked_data):
        fts, _ = linked_data
        kwargs = dict(lambda_grid=ORACLE_GRID, periods=self.periods, **self.split)
        point = tune_lambda(fts, objective="msfe", **kwargs)
        interval = tune_lambda(fts, objective="interval_score", bootstrap=self.cfg, **kwargs)
        assert both.point == point.point
        assert both.interval == interval.interval
        assert list(both.point) == list(point.point)
        assert both.lambda_grid == point.lambda_grid == interval.lambda_grid == ORACLE_GRID

    @pytest.mark.parametrize("grid", [(), (1.0, -0.5), (float("nan"),), (1.0, float("inf"))])
    def test_bad_grid_is_config_error(self, linked_data, grid):
        fts, _ = linked_data
        with pytest.raises(ConfigError):
            tune_lambda(fts, lambda_grid=grid, periods=(5,), **self.split)
