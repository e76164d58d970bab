import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
from curvecast import sieve, updating
from curvecast.sieve import SieveReplicates
from curvecast.updating import FlrModel


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
        assert list(updating_columns(12, 6)) == [5, 6, 7, 8, 9, 10]

    def test_edges(self):
        assert list(updating_columns(12, 2)) == list(range(1, 11))
        assert list(updating_columns(12, 11)) == [10]

    def test_all_columns_covered(self):
        # the m - 1 observed columns come first, the updating ones after them
        upd = updating_columns(20, 7)
        assert np.array_equal(np.concatenate([np.arange(7 - 1), upd]), np.arange(19))


class TestContext:
    def test_fields(self, linked_data, pipeline, context):
        fts, _ = linked_data
        _, model, var = pipeline
        scores = model.scores[:, : model.num_components]
        assert context.m == 10
        assert np.array_equal(context.observed, fts.values[150, :9])
        assert np.allclose(
            context.ts_scores, forecast_scores(var, scores), atol=1e-14
        )
        expected_basis = model.eigenfunctions[np.arange(10 - 1)][:, : model.num_components]
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
        xc = context.observed - model.mean[np.arange(10 - 1)]
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

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 3), extra=st.integers(0, 4), late=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_limits_on_random_contexts(self, K, extra, late, seed):
        # zero shrinkage is least squares; huge shrinkage is the day-ahead curve
        r = default_rng(seed)
        m = K + extra + 1
        d = m - 1 + late
        basis = r.normal(size=(d, K))
        sv = np.linalg.svd(basis[: m - 1], compute_uv=False)
        assume(sv[-1] > 1e-3 * sv[0])
        fake = FpcaModel(
            mean=r.normal(size=d), eigenfunctions=basis, eigenvalues=np.ones(K),
            scores=np.zeros((5, K)), residuals=np.zeros((5, d)), num_components=K,
            quad_weight=1.0, nobs=5, degenerate=False,
        )
        ctx = UpdateContext(
            m=m, observed=r.normal(size=m - 1), eigenbasis_obs=basis[: m - 1],
            ts_scores=r.normal(size=K), updating_cols=np.arange(m - 1, d),
        )
        late_basis = basis[m - 1 :]
        beta_ls, *_ = np.linalg.lstsq(basis[: m - 1], ctx.observed - fake.mean[: m - 1], rcond=None)
        ls_curve = fake.mean[m - 1 :] + late_basis @ beta_ls
        scale = max(float(np.abs(ls_curve).max()), 1.0)
        assert np.abs(ols_update(ctx, fake) - ls_curve).max() < 1e-8 * scale
        assert np.abs(pls_update(ctx, 0.0, fake) - ls_curve).max() < 1e-8 * scale
        ts_curve = fake.mean[m - 1 :] + late_basis @ ctx.ts_scores
        scale = max(float(np.abs(ts_curve).max()), 1.0)
        assert np.abs(pls_update(ctx, 1e12, fake) - ts_curve).max() < 1e-6 * scale

    def test_closed_form_minimizes_objective(self, pipeline, context):
        _, model, _ = pipeline
        lam = 5.0
        beta = pls_coefficients(context, lam, model)
        best = shrinkage_objective(context, model, lam, beta)
        xc = context.observed - model.mean[np.arange(10 - 1)]
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


def flr_with_ranks(monkeypatch, fts, m, r, s):
    """``flr_fit`` with its block ranks fixed at (r, s); the early block's rank is asked first."""
    ranks = iter((r, s))
    with monkeypatch.context() as patch:
        patch.setattr(updating, "select_num_components", lambda evals, n: next(ranks))
        model = flr_fit(fts, m)
    assert (model.early_basis.shape[1], model.late_basis.shape[1]) == (r, s)
    return model


class TestFlr:
    def test_perfect_linkage_recovery(self, monkeypatch):
        spec = SynthSpec(
            n=200, tau=20, num_factors=2, score_ar=(0.6, 0.4),
            innovation_sd=(1.0, 0.7), noise_sd=0.0, seed=21, link_split=10,
            link_matrix=((0.9, 0.2), (0.1, 0.8)), num_late_factors=2,
            link_noise_sd=(0.0, 0.0),
        )
        fts, _ = generate(spec)
        model = flr_with_ranks(monkeypatch, fts.head(150), 10, 2, 2)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_block_rejected(self, linked_data, reps, bad):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        observed = fts.values[150, :9].copy()
        observed[3] = bad
        with pytest.raises(DataError, match="non-finite"):
            flr_update(model, observed)
        with pytest.raises(DataError, match="non-finite"):
            flr_interval_update(model, observed, reps)


def _link(theta, vartheta):
    """The linkage solve on the Gram and cross products of (..., n, R) and (..., n, S) scores."""
    theta_t = np.swapaxes(theta, -1, -2)
    return updating._solve_link(theta_t @ theta, theta_t @ vartheta)


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
            link, ridged = _link(theta, r.normal(size=(30, 2)))
        assert ridged
        assert link.shape == (2, 2) and np.isfinite(link).all()

    def test_zero_trace_slice_links_to_zero_with_one_warning(self):
        theta, vartheta = self._stack()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            link, ridged = _link(theta, vartheta)
        assert len(caught) == 1
        assert ridged.tolist() == [False, True, True, False]
        assert np.array_equal(link[1], np.zeros((3, 2)))
        assert np.isfinite(link).all()

    def test_stack_equals_one_call_per_slice(self):
        theta, vartheta = self._stack()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            link, ridged = _link(theta, vartheta)
            for b in range(theta.shape[0]):
                one, flag = _link(theta[b], vartheta[b])
                assert one.shape == (3, 2) and np.ndim(flag) == 0
                assert np.array_equal(link[b], one)
                assert ridged[b] == flag


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

    def test_only_the_flr_update_and_the_forecast_build_the_pseudo_series(
        self, linked_data, pipeline, context, monkeypatch
    ):
        fts, _ = linked_data
        train, model, var = pipeline
        builds = []  # one call of the transfer per build of the pseudo-series
        transfer = sieve._transfer_padded
        monkeypatch.setattr(sieve, "_transfer_padded",
                            lambda *args: builds.append(1) or transfer(*args))
        fresh = draw_replicates(model, var, BootstrapConfig(num_replicates=80, seed=9))
        for lam in (0.0, 1.0, 1e8):
            pls_interval_update(context, lam, model, fresh)
        assert builds == [] and "series_scores" not in fresh.__dict__
        for _ in range(2):
            flr_interval_update(flr_fit(train, 10), fts.values[150, :9], fresh)
        assert len(builds) == 1 and fresh._build_series is None
        sieve.sieve_prediction(train, model, var, BootstrapConfig(num_replicates=80, seed=9))
        assert len(builds) == 2

    def test_flr_intervals(self, linked_data, reps):
        fts, _ = linked_data
        model = flr_fit(fts.head(150), 10)
        out = flr_interval_update(model, fts.values[150, :9], reps)
        for alpha in (0.2, 0.05):
            lo, hi = out[alpha]
            assert lo.shape == (10,)
            assert np.all(lo <= hi)


# ---------------------------------------------------------------------------
# FLR bootstrap links from the replicate set's pool statistics
# ---------------------------------------------------------------------------


def materialised_links(model, reps):
    """Oracle: build every pseudo-curve, project both blocks, and solve their links."""
    tau = reps.mean.shape[0] + 1
    curves = (
        reps.mean
        + reps.series_scores @ reps.eigenfunctions.T
        + reps.resid_pool[reps.series_resid_idx]
    )
    ecols = np.arange(model.split - 1)
    lcols = updating_columns(tau, model.split)
    theta = (curves[:, :, ecols] - model.early_mean) @ (model.early_weight * model.early_basis)
    vartheta = (curves[:, :, lcols] - model.late_mean) @ (model.late_weight * model.late_basis)
    return _link(theta, vartheta)


@pytest.fixture(scope="module")
def c08_day():
    """A C08-shaped day: 74 grid columns, so the periods run from 2 to 74."""
    spec = SynthSpec(
        n=101, tau=75, num_factors=2, score_ar=(0.6, 0.4), innovation_sd=(1.0, 0.7),
        noise_sd=0.15, seed=777, link_split=38,
        link_matrix=((0.9, 0.2), (0.1, 0.8)), num_late_factors=2,
        link_noise_sd=(0.1, 0.1),
    )
    fts, _ = generate(spec)
    train = fts.head(100)
    model = fit_fpca(train)
    scores = model.scores[:, : model.num_components]
    var = fit_var(scores, select_order(scores, 4))
    return train, fts.values[100], model, var


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBootstrapLinks:
    """FLR interval links from pool counts and drawn scores, against built pseudo-curves."""

    def test_intervals_match_the_materialised_oracle(self, c08_day, monkeypatch):
        train, actual, model, var = c08_day
        reps = draw_replicates(model, var, BootstrapConfig(num_replicates=100, seed=4))
        tau = train.grid.tau
        worst_links = worst_bounds = 0.0
        fits = 0
        for m in (2, 3, 38, 73, 74):
            ranks = [None] + [
                (r, s) for r in range(1, min(3, m - 1) + 1) for s in range(1, min(3, tau - m) + 1)
            ]
            for fixed in ranks:
                flr = flr_fit(train, m) if fixed is None else flr_with_ranks(
                    monkeypatch, train, m, *fixed)
                links, ridged = updating._bootstrap_links(flr, reps)
                want_links, want_ridged = materialised_links(flr, reps)
                assert not ridged.any() and not want_ridged.any()
                worst_links = max(worst_links, _max_rel(links, want_links))
                got = flr_interval_update(flr, actual[: m - 1], reps)
                with monkeypatch.context() as patch:
                    patch.setattr(updating, "_bootstrap_links", materialised_links)
                    want = flr_interval_update(flr, actual[: m - 1], reps)
                for a in (0.2, 0.05):
                    for side in (0, 1):
                        worst_bounds = max(worst_bounds, _max_rel(got[a][side], want[a][side]))
                fits += 1
        assert fits == 5 + 1 * 3 + 2 * 3 + 3 * 3 + 3 * 2 + 3 * 1
        assert worst_bounds <= 1e-12
        assert worst_links <= 1e-12

    def test_block_means_away_from_the_replicate_mean(self, c08_day, monkeypatch):
        # fitted on fewer days, the block means differ from the replicates' mean curve,
        # so the constant term of the projected scores is not zero
        train, actual, model, var = c08_day
        reps = draw_replicates(model, var, BootstrapConfig(num_replicates=100, seed=4))
        for m in (3, 38, 73):
            flr = flr_fit(train.head(40), m)
            shifted = replace(flr, early_mean=flr.early_mean + 0.5, late_mean=flr.late_mean - 0.5)
            for fit in (flr, shifted):
                links, _ = updating._bootstrap_links(fit, reps)
                assert _max_rel(links, materialised_links(fit, reps)[0]) <= 1e-12
                got = flr_interval_update(fit, actual[: m - 1], reps)
                with monkeypatch.context() as patch:
                    patch.setattr(updating, "_bootstrap_links", materialised_links)
                    want = flr_interval_update(fit, actual[: m - 1], reps)
                for a in (0.2, 0.05):
                    assert _max_rel(got[a][0], want[a][0]) <= 1e-12
                    assert _max_rel(got[a][1], want[a][1]) <= 1e-12

    def test_links_of_a_prefix_are_the_prefix_draw_links(self, c08_day, monkeypatch):
        train, _, model, var = c08_day
        flr = flr_with_ranks(monkeypatch, train, 38, 2, 2)
        full = draw_replicates(model, var, BootstrapConfig(num_replicates=400, seed=6))
        head = draw_replicates(model, var, BootstrapConfig(num_replicates=50, seed=6))
        links, _ = updating._bootstrap_links(flr, full)
        head_links, _ = updating._bootstrap_links(flr, head)
        assert np.array_equal(links[:50], head_links)

    def test_second_call_reuses_the_cached_statistics(self, c08_day, monkeypatch):
        train, actual, model, var = c08_day
        reps = draw_replicates(model, var, BootstrapConfig(num_replicates=60, seed=2))
        assert "_pool_stats" not in reps.__dict__
        first = flr_interval_update(flr_fit(train, 38), actual[:37], reps)
        assert "_pool_stats" in reps.__dict__

        def recount(*args):
            raise AssertionError("pool statistics rebuilt")

        monkeypatch.setattr(sieve, "_pool_tally", recount)
        again = flr_interval_update(flr_fit(train, 38), actual[:37], reps)
        other = flr_interval_update(flr_fit(train, 20), actual[:19], reps)
        assert np.array_equal(first[0.05][0], again[0.05][0])
        assert other[0.05][0].shape == (55,)


def _hand_built(early_basis, *, zero_early_rows=(), zero_replicates=()):
    """A replicate set on a 6-point grid split at m=4, with one component score.

    Pool rows in ``zero_early_rows`` and the component function are zero on
    the early columns, so a replicate with zero scores that draws only
    those rows has identically zero early scores.
    """
    r = default_rng(17)
    B, n, d = 6, 12, 6
    mean = r.normal(size=d)
    eigenfunctions = r.normal(size=(d, 1))
    pool = r.normal(size=(n, d))
    pool[list(zero_early_rows), :3] = 0.0
    scores = r.normal(size=(B, n, 1))
    idx = r.integers(0, n, size=(B, n))
    if zero_replicates:
        eigenfunctions[:3] = 0.0
        scores[list(zero_replicates)] = 0.0
        idx[list(zero_replicates)] = r.choice(list(zero_early_rows), size=(len(zero_replicates), n))
    reps = SieveReplicates(
        series_resid_idx=idx,
        future_scores=r.normal(size=(B, 1)),
        future_resid_idx=r.integers(0, n, size=B),
        mean=mean,
        eigenfunctions=eigenfunctions,
        resid_pool=pool,
        _build_series=lambda: scores,
    )
    late_basis = r.normal(size=(3, 2))
    model = FlrModel(
        split=4, early_mean=mean[:3], late_mean=mean[3:],
        early_basis=early_basis, late_basis=late_basis,
        early_weight=0.5, late_weight=0.5,
        link=np.zeros((early_basis.shape[1], 2)), ridged=False,
    )
    return model, reps


def _links_and_warnings(route, model, reps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        links, ridged = route(model, reps)
    return links, ridged, [str(w.message) for w in caught]


class TestBootstrapLinkRidge:
    """The replicate-stack ridge, reached through the pool statistics."""

    def _agree(self, model, reps):
        links, ridged, said = _links_and_warnings(updating._bootstrap_links, model, reps)
        want, want_ridged, want_said = _links_and_warnings(materialised_links, model, reps)
        assert ridged.tolist() == want_ridged.tolist()
        assert said == want_said and len(said) == 1
        assert np.isfinite(links).all()
        return links, ridged, want

    def test_constant_early_block_links_to_zero(self):
        r = default_rng(5)
        model, reps = _hand_built(
            r.normal(size=(3, 2)), zero_early_rows=range(12), zero_replicates=range(6)
        )
        links, ridged, want = self._agree(model, reps)
        assert ridged.all()
        assert np.array_equal(links, np.zeros_like(links))
        assert np.array_equal(want, np.zeros_like(want))
        with pytest.warns(UserWarning, match="ridge floor"):
            lo, hi = flr_interval_update(model, np.ones(3), reps)[0.2]
        assert np.all(lo <= hi)

    def test_one_constant_replicate_among_live_ones(self):
        r = default_rng(5)
        model, reps = _hand_built(
            r.normal(size=(3, 2)), zero_early_rows=range(4), zero_replicates=(1,)
        )
        links, ridged, want = self._agree(model, reps)
        assert ridged.tolist() == [False, True, False, False, False, False]
        assert np.array_equal(links[1], np.zeros((2, 2)))
        live = [0, 2, 3, 4, 5]
        assert _max_rel(links[live], want[live]) <= 1e-10

    def test_collinear_early_scores_are_ridged(self):
        r = default_rng(5)
        column = r.normal(size=(3, 1))
        model, reps = _hand_built(np.hstack([column, column]))
        links, ridged, want = self._agree(model, reps)
        assert ridged.all()
        assert _max_rel(links, want) <= 1e-6


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

    def test_unfittable_validation_days_are_left_out(self, monkeypatch):
        # two components cannot be fitted on 5 days; validation day 13 fits an explosive VAR
        fts, _ = generate(SynthSpec(n=40, tau=10, num_factors=2, noise_sd=0.2, seed=4))
        averaged = []
        argmin = updating._argmin_grid

        def counted(totals, grid):
            averaged.append(totals.shape[-1])
            return argmin(totals, grid)

        monkeypatch.setattr(updating, "_argmin_grid", counted)
        cfg = BootstrapConfig(num_replicates=50, seed=1)
        dropped = {}
        for objective in ("msfe", "both"):
            failures = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the explosive fit warns
                tune_lambda(fts, 5, 10, objective, (0.0, 1.0), (5,), 2, 10, cfg, failures)
            dropped[objective] = [(f["day"], f["stage"]) for f in failures]
        # the draw fails only where replicates are drawn
        assert dropped == {"msfe": [(5, "tune")], "both": [(5, "tune"), (13, "tune")]}
        assert averaged == [9, 8, 8, 8]
        with pytest.raises(NumericalError, match="every validation day failed.*lag order"):
            tune_lambda(fts, train_size=3, validation_size=2, num_components=2)


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
