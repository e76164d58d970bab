import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from curvecast import (
    BootstrapConfig,
    ConfigError,
    DataError,
    FunctionalTimeSeries,
    IntradayGrid,
    NumericalError,
    SynthSpec,
    derive_seed,
    draw_replicates,
    empirical_quantile,
    far1_fit,
    forecast_to_json,
    future_curves,
    generate,
    sieve_prediction,
    write_forecast_csv,
)
from curvecast import sieve
from curvecast.sieve import (
    _fit_day,
    _regularized_transfer,
    sorted_intervals,
    sorted_quantile,
)
from conftest import sort_quantile_oracle

# a few repeated values mixed with arbitrary ones, so ties are common
_values = st.lists(
    st.sampled_from([-1.5, 0.0, 0.25, 3.0])
    | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=40,
)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)
        assert derive_seed(5, 1) != derive_seed(5, 2)
        assert derive_seed(5, 2) != derive_seed(5, 2, 7)
        assert derive_seed(6, 1) != derive_seed(5, 1)
        assert isinstance(derive_seed(0), int)


class TestEmpiricalQuantile:
    def test_hand_cases(self):
        assert empirical_quantile(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0
        assert empirical_quantile(np.array([3.0, 1.0, 2.0]), 0.0) == 1.0
        assert empirical_quantile(np.array([3.0, 1.0, 2.0]), 1.0) == 3.0
        assert empirical_quantile(np.array([1.0, 2.0]), 0.25) == 1.25

    def test_matches_sort_oracle(self):
        r = default_rng(123)
        for _ in range(60):
            n = int(r.integers(1, 400))
            v = r.normal(size=n)
            for q in (0.0, 0.025, 0.1, 0.5, 0.9, 0.975, 1.0, float(r.uniform())):
                assert empirical_quantile(v, q) == sort_quantile_oracle(v, q)

    def test_axis_zero_matches_columns(self):
        v = default_rng(7).normal(size=(40, 5))
        out = empirical_quantile(v, 0.3, axis=0)
        for j in range(5):
            assert out[j] == sort_quantile_oracle(v[:, j], 0.3)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(_values, min_size=1, max_size=3),
        alphas=st.lists(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=4, unique=True
        ),
        q=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    )
    def test_shared_helpers_match_sort_oracle(self, rows, alphas, q):
        B = min(len(r) for r in rows)
        stack = np.array([r[:B] for r in rows])  # (rows, B), quantiles along axis 1
        ordered = np.sort(stack, axis=1)
        bounds = sorted_intervals(ordered, alphas, axis=1)
        at_q = sorted_quantile(ordered, q, axis=1)
        for i, row in enumerate(stack):
            assert at_q[i] == sort_quantile_oracle(row, q)
            assert empirical_quantile(row, q) == sort_quantile_oracle(row, q)
            for a in alphas:
                lo, hi = bounds[a]
                assert lo[i] == sort_quantile_oracle(row, a / 2.0)
                assert hi[i] == sort_quantile_oracle(row, 1.0 - a / 2.0)

    def test_validation(self):
        with pytest.raises(DataError):
            empirical_quantile(np.array([]), 0.5)
        with pytest.raises(ConfigError):
            empirical_quantile(np.array([1.0]), 1.5)


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BootstrapConfig(num_replicates=0, seed=1)
        with pytest.raises(ConfigError):
            BootstrapConfig(num_replicates=50, seed=1, alpha_levels=(1.5,))
        with pytest.raises(ConfigError):
            BootstrapConfig(num_replicates=50, seed=1, center="mid")

    def test_repeated_alpha_level_kept_once_in_first_seen_order(self):
        cfg = BootstrapConfig(num_replicates=50, alpha_levels=(0.05, 0.2, 0.05, 0.2))
        assert cfg.alpha_levels == (0.05, 0.2)

    def test_small_b_warns(self, small_fit):
        _, model, var = small_fit
        with pytest.warns(UserWarning):
            draw_replicates(model, var, BootstrapConfig(num_replicates=20, seed=1))


class TestReplicates:
    def test_shapes(self, small_fit, small_reps):
        fts, model, _ = small_fit
        n, d = fts.values.shape
        K = model.num_components
        assert small_reps.series_scores.shape == (60, n, K)
        assert small_reps.future_scores.shape == (60, K)
        assert small_reps.resid_pool.shape[1] == d
        assert small_reps.series_resid_idx.shape == (60, n)
        assert future_curves(small_reps).shape == (60, d)

    def test_deterministic(self, small_fit):
        _, model, var = small_fit
        cfg = BootstrapConfig(num_replicates=60, seed=5)
        a = draw_replicates(model, var, cfg)
        b = draw_replicates(model, var, cfg)
        assert np.array_equal(a.series_scores, b.series_scores)
        assert np.array_equal(a.future_scores, b.future_scores)
        assert np.array_equal(a.future_resid_idx, b.future_resid_idx)

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.tuples(st.integers(1, 40), st.integers(1, 40)).map(sorted))
    @example(sizes=[50, 80])
    def test_prefix_property(self, small_fit, sizes):
        # the first B' replicates of a B-replicate draw are the B'-replicate draw
        _, model, var = small_fit
        few, many = sizes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # B < 50 warns
            small = draw_replicates(model, var, BootstrapConfig(num_replicates=few, seed=11))
            big = draw_replicates(model, var, BootstrapConfig(num_replicates=many, seed=11))
        for name in ("series_scores", "series_resid_idx", "future_scores", "future_resid_idx"):
            assert np.array_equal(getattr(small, name), getattr(big, name)[:few]), name


class TestStreamContract:
    """Each replicate's index draws, two bulk reads, equal the contract's six draws."""

    @pytest.mark.parametrize("seed", [0, 2**63 + 7])
    @pytest.mark.parametrize("M", [0, 5])
    @pytest.mark.parametrize(
        "n_eps,n_resid", [(1, 7), (7, 1), (2**31 + 5, 7), (2**32, 2**32 + 3), (2**32 + 3, 2**32)]
    )
    def test_two_bulk_reads_equal_six_draws(self, seed, M, n_eps, n_resid):
        T, p = 9, 2
        padded, fut_eps, rows, fut_rows = sieve._index_draws(seed, 12, T, M, p, n_eps, n_resid)
        for b in (0, 3, 11):
            rng = default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
            core = rng.integers(0, n_eps, size=T)
            pre = rng.integers(0, n_eps, size=M)
            post = rng.integers(0, n_eps, size=p)
            fut = rng.integers(0, n_eps)
            series = rng.integers(0, n_resid, size=T + p)
            fut_row = rng.integers(0, n_resid)
            assert np.array_equal(padded[b], np.concatenate([pre, core, post]))
            assert fut_eps[b] == fut
            assert np.array_equal(rows[b], series)
            assert fut_rows[b] == fut_row


def far1_oracle(curves, weight):
    """The per-series refit: full covariances and one ``eigh`` per series."""
    B, n, d = curves.shape
    means = curves.mean(axis=1)
    c = curves - means[:, None, :]
    cov0 = np.matmul(c.transpose(0, 2, 1), c) / n
    cov1 = np.matmul(c[:, 1:].transpose(0, 2, 1), c[:, :-1]) / n
    preds = np.empty((B, d))
    for b in range(B):
        transfer, _ = _regularized_transfer(cov0[b], cov1[b], weight, n)
        preds[b] = means[b] + transfer @ c[b, -1]
    return preds


# the acceptance suite's calibration (C06) and updating (C08) panels, cut at one day
_PANELS = {
    "C06": (SynthSpec(n=300, tau=40, num_factors=2, score_ar=(0.6, 0.3),
                      innovation_sd=(2.0, 1.0), noise_sd=0.5, mean_scale=1.0, seed=12345), 250),
    "C08": (SynthSpec(n=250, tau=75, num_factors=2, score_ar=(0.85, 0.7),
                      innovation_sd=(1.0, 0.8), noise_sd=0.25, mean_scale=1.0, seed=777,
                      link_split=38, link_matrix=((0.9, 0.3), (0.2, 0.8)),
                      num_late_factors=2, link_noise_sd=(0.25, 0.25)), 225),
}


def _replicate_stack(panel, num_replicates):
    """One day's replicates in ``far1_fit``'s factored form, and their materialised curves."""
    spec, days = _PANELS[panel]
    train = generate(spec)[0].head(days)
    day = _fit_day(train, None, 10)
    fpca, var = day.fpca, day.var
    reps = draw_replicates(fpca, var, BootstrapConfig(num_replicates=num_replicates, seed=days))
    curves = (
        reps.mean
        + reps.series_scores @ reps.eigenfunctions.T
        + reps.resid_pool[reps.series_resid_idx]
    )
    factored = (reps.resid_pool, reps.series_resid_idx, train.grid.quad_weight,
                reps.series_scores, reps.eigenfunctions)
    return reps.mean, factored, curves


def refit_each(curves, weight):
    """A plain (B, n, d) stack refit one series at a time, each series its own (n, d) pool."""
    n = curves.shape[1]
    return np.vstack([far1_fit(series, np.arange(n)[None], weight) for series in curves])


def factored_series(seed, B, n, d, K, m):
    """Random scores, basis, shared pool and pool rows (with repeats) for ``far1_fit``."""
    rng = default_rng(seed)
    scores = rng.standard_normal((B, n, K)) * rng.uniform(0.5, 3.0, size=K)
    basis = rng.standard_normal((d, K))
    pool = rng.standard_normal((m, d)) * rng.uniform(0.05, 3.0, size=d) + rng.uniform(-2, 2, d)
    return pool, rng.integers(0, m, size=(B, n)), scores, basis


@pytest.fixture()
def fallbacks(monkeypatch):
    """Records every series ``far1_fit`` sends to its full-``eigh`` refit."""
    calls = []

    def counted(cov0, cov1, w, n):
        calls.append(cov0)
        return _regularized_transfer(cov0, cov1, w, n)

    monkeypatch.setattr(sieve, "_regularized_transfer", counted)
    return calls


class TestFar1:
    def test_stack_rows_match_single_fits_and_flat_series_warn(self, small_fit):
        fts, _, _ = small_fit
        w = fts.grid.quad_weight
        flat = np.full_like(fts.values, 0.25)
        stack = np.stack([fts.values, flat, fts.values[::-1]])
        with pytest.warns(UserWarning, match="carry no variance"):
            preds = refit_each(stack, w)
        assert np.array_equal(preds[1], flat[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (0, 2):
                assert np.array_equal(preds[b], refit_each(stack[b][None], w)[0])
        with pytest.raises(DataError):
            refit_each(stack[:, :1], w)

    @pytest.mark.parametrize("panel", sorted(_PANELS))
    def test_certified_eigenpairs_match_the_eigh_oracle(self, panel, fallbacks):
        mean, factored, curves = _replicate_stack(panel, 100)
        w = factored[2]
        got = mean + far1_fit(*factored)
        assert not fallbacks  # every series took the certified path
        np.testing.assert_allclose(got, far1_oracle(curves, w), rtol=0.0, atol=1e-12)

    def test_repeated_leading_eigenvalue_falls_back_to_eigh(self, fallbacks):
        # Walsh columns: orthogonal and centred, so the covariance is exactly
        # diagonal with a repeated leading eigenvalue and a zero gap
        t = np.arange(64)
        walsh = np.stack([(-1.0) ** (t >> k) for k in range(3)], axis=1)
        tied = np.zeros((64, 6))
        tied[:, :3] = walsh * [1.0, 1.0, 0.5]
        smooth = default_rng(2).standard_normal((2, 64, 6)) * [3.0, 1.0, 0.5, 0.2, 0.1, 0.05]
        stack = np.concatenate([smooth[:1], tied[None], smooth[1:]]) + 1.0
        w = 0.2
        got = refit_each(stack, w)
        assert len(fallbacks) == 1
        assert np.array_equal(fallbacks[0], tied.T @ tied / 64)
        np.testing.assert_allclose(got, far1_oracle(stack, w), rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(2, 12), st.integers(1, 9)),
        K=st.integers(0, 3),
        m=st.integers(1, 15),
        data=st.data(),
    )
    def test_rows_do_not_depend_on_the_stack(self, seed, shape, K, m, data):
        B, n, d = shape
        pool, idx, scores, basis = factored_series(seed, B, n, d, K, m)
        rows = data.draw(st.lists(st.integers(0, B - 1), min_size=1, max_size=2 * B))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a one-row pool is flat
            assert np.array_equal(
                far1_fit(pool, idx, 0.1, scores, basis)[rows],
                far1_fit(pool, idx[rows], 0.1, scores[rows], basis),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 5), st.integers(2, 30), st.integers(1, 8)),
        K=st.integers(0, 3),
        m=st.integers(1, 20),
    )
    def test_factored_refit_matches_the_materialised_curves(self, seed, shape, K, m):
        # one refit path: scores on a basis plus pool rows, or the curves they add up to
        pool, idx, scores, basis = factored_series(seed, *shape, K, m)
        curves = scores @ basis.T + pool[idx]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a one-row pool is flat
            got = far1_fit(pool, idx, 0.1, scores, basis)
            want = refit_each(curves, 0.1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def forecast(small_fit):
    fts, model, var = small_fit
    return sieve_prediction(fts, model, var, BootstrapConfig(num_replicates=60, seed=5))


class TestSievePrediction:
    def test_constant_curves_are_a_numerical_error(self):
        # the nightly forecast: fit the day, then bootstrap it
        fts = FunctionalTimeSeries(np.full((40, 7), 0.5), IntradayGrid.regular(8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the decomposition warns that it is degenerate
            with pytest.raises(NumericalError):
                day = _fit_day(fts, None, 10)
                sieve_prediction(fts, day.fpca, day.var, BootstrapConfig(num_replicates=50))

    def test_shortest_identifiable_history(self):
        # two components need n - 1 > 2 days of scores for a VAR(1)
        fts, _ = generate(SynthSpec(n=12, tau=10, num_factors=2, noise_sd=0.2, seed=4))
        with pytest.raises(NumericalError, match="no identifiable lag order"):
            _fit_day(fts.head(5), 2, 10)
        train = fts.head(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            day = _fit_day(train, 2, 10)
            out = sieve_prediction(train, day.fpca, day.var, BootstrapConfig(num_replicates=50))
        assert day.var.order == 1
        for alpha in (0.2, 0.05):
            lo, hi = out.pointwise[alpha]
            assert np.isfinite(lo).all() and np.isfinite(hi).all() and np.all(lo <= hi)

    def test_interval_geometry(self, forecast):
        for alpha in (0.2, 0.05):
            lo, hi = forecast.pointwise[alpha]
            assert np.all(lo <= hi)
            blo, bhi = forecast.band[alpha]
            width = bhi - blo
            expected = 2.0 * forecast.band_radius[alpha] * forecast.error_sd
            assert np.allclose(width, expected, atol=1e-12)
            assert np.allclose((bhi + blo) / 2.0, forecast.point, atol=1e-12)

    def test_wider_band_at_higher_confidence(self, forecast):
        assert forecast.band_radius[0.05] >= forecast.band_radius[0.2]

    def test_error_sd_positive(self, forecast):
        assert np.all(forecast.error_sd > 0.0)

    def test_center_mode_changes_intervals(self, small_fit, forecast):
        fts, model, var = small_fit
        other = sieve_prediction(
            fts, model, var, BootstrapConfig(num_replicates=60, seed=5, center="ts")
        )
        assert other.center == "ts"
        assert not np.array_equal(other.pointwise[0.2][0], forecast.pointwise[0.2][0])

    @settings(max_examples=12, deadline=None)
    @given(n_workers=st.integers(1, 4), rows_per_chunk=st.integers(1, 60))
    @example(n_workers=1, rows_per_chunk=1)
    def test_worker_invariance(self, small_fit, forecast, n_workers, rows_per_chunk):
        # the fixture ran in one chunk; any chunk budget and worker count agree with it
        fts, model, var = small_fit
        cfg = BootstrapConfig(num_replicates=60, seed=5)
        with mock.patch.object(sieve, "_STACK_BYTES", rows_per_chunk * fts.values.nbytes):
            par = sieve_prediction(fts, model, var, cfg, n_workers=n_workers)
        assert np.array_equal(par.point, forecast.point)
        assert np.array_equal(par.error_sd, forecast.error_sd)
        for alpha in (0.2, 0.05):
            for side in (0, 1):
                assert np.array_equal(
                    par.pointwise[alpha][side], forecast.pointwise[alpha][side]
                )
            assert par.band_radius[alpha] == forecast.band_radius[alpha]

    def test_worker_threads_capped_at_usable_cpus(self, small_fit, forecast, monkeypatch):
        pools = []

        class SerialPool:
            """Records what a thread pool is asked for and runs its blocks here, in order."""

            def __init__(self, max_workers):
                self.max_workers, self.blocks = max_workers, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                out = list(map(fn, *args))
                self.blocks += len(out)
                return out

        monkeypatch.setattr(sieve, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        fts, model, var = small_fit
        capped = sieve_prediction(
            fts, model, var, BootstrapConfig(num_replicates=60, seed=5), n_workers=10_000
        )
        assert [(p.max_workers, p.blocks) for p in pools] == [(3, 3)]
        for alpha in (0.2, 0.05):
            for got, want in zip(capped.pointwise[alpha], forecast.pointwise[alpha]):
                assert np.array_equal(got, want)
            for got, want in zip(capped.band[alpha], forecast.band[alpha]):
                assert np.array_equal(got, want)

    def test_serialization(self, forecast, tmp_path):
        import json

        doc = json.loads(forecast_to_json(forecast))
        assert doc["kind"] == "sieve_forecast"
        assert doc["num_replicates"] == 60
        path = tmp_path / "fc.csv"
        write_forecast_csv(str(path), forecast)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + forecast.point.size
