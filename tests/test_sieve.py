import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from curvecast import (
    BootstrapConfig,
    ConfigError,
    DataError,
    derive_seed,
    draw_replicates,
    empirical_quantile,
    far1_fit,
    forecast_to_json,
    future_curves,
    sieve_prediction,
    write_forecast_csv,
)
from curvecast.sieve import _assemble_replicates, sorted_intervals, sorted_quantile
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

    def test_prefix_property(self, small_fit):
        _, model, var = small_fit
        big = draw_replicates(model, var, BootstrapConfig(num_replicates=80, seed=11))
        small = draw_replicates(model, var, BootstrapConfig(num_replicates=50, seed=11))
        assert np.array_equal(small.future_scores, big.future_scores[:50])
        assert np.array_equal(small.series_scores, big.series_scores[:50])

    def test_single_replicate_matches_batch(self, small_fit, small_reps):
        # replicate 3 drawn alone equals row 3 of the batch: draws depend on the index only
        _, model, var = small_fit
        one = _assemble_replicates(model, var, 5, [3])
        assert np.allclose(one.series_scores[0], small_reps.series_scores[3], atol=1e-12)
        assert np.array_equal(one.series_resid_idx[0], small_reps.series_resid_idx[3])
        assert np.allclose(future_curves(one)[0], future_curves(small_reps)[3], atol=1e-12)


class TestFar1:
    def test_stack_rows_match_single_fits_and_flat_series_warn(self, small_fit):
        fts, _, _ = small_fit
        w = fts.grid.quad_weight
        flat = np.full_like(fts.values, 0.25)
        stack = np.stack([fts.values, flat, fts.values[::-1]])
        with pytest.warns(UserWarning, match="carry no variance"):
            preds = far1_fit(stack, w)
        assert np.array_equal(preds[1], flat[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (0, 2):
                assert np.array_equal(preds[b], far1_fit(stack[b][None], w)[0])
        with pytest.raises(DataError):
            far1_fit(stack[:, :1], w)


@pytest.fixture(scope="module")
def forecast(small_fit):
    fts, model, var = small_fit
    return sieve_prediction(fts, model, var, BootstrapConfig(num_replicates=60, seed=5))


class TestSievePrediction:
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

    def test_worker_invariance(self, small_fit, forecast):
        fts, model, var = small_fit
        cfg = BootstrapConfig(num_replicates=60, seed=5)
        par = sieve_prediction(fts, model, var, cfg, n_workers=4)
        assert np.array_equal(par.point, forecast.point)
        for alpha in (0.2, 0.05):
            for side in (0, 1):
                assert np.array_equal(
                    par.pointwise[alpha][side], forecast.pointwise[alpha][side]
                )
            assert par.band_radius[alpha] == forecast.band_radius[alpha]

    def test_serialization(self, forecast, tmp_path):
        import json

        doc = json.loads(forecast_to_json(forecast))
        assert doc["kind"] == "sieve_forecast"
        assert doc["num_replicates"] == 60
        path = tmp_path / "fc.csv"
        write_forecast_csv(str(path), forecast)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + forecast.point.size
