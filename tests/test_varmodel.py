import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from curvecast import (
    ConfigError,
    DataError,
    NumericalError,
    VarModel,
    aicc,
    backward_innovation_transfer,
    companion_spectral_radius,
    fit_var,
    forecast_scores,
    select_order,
)
from curvecast.varmodel import PSI_TOLERANCE, _ma_expansion, _transfer_padded


def simulate_var(coeffs, n, seed, burn=300, scale=1.0):
    coeffs = np.asarray(coeffs, dtype=float)
    p, K, _ = coeffs.shape
    r = default_rng(seed)
    eps = r.normal(0.0, scale, size=(n + burn, K))
    x = np.zeros((n + burn, K))
    for t in range(p, n + burn):
        acc = eps[t].copy()
        for lag in range(p):
            acc += coeffs[lag] @ x[t - lag - 1]
        x[t] = acc
    return x[burn:]


@pytest.fixture(scope="module")
def ar1_fit():
    A = np.array([[0.5, 0.2], [0.0, 0.4]])
    x = simulate_var(A[None], 500, seed=3)
    return A, x, fit_var(x, 1)


class TestFit:
    def test_coefficient_recovery(self, ar1_fit):
        A, _, m = ar1_fit
        assert np.linalg.norm(m.coeffs[0] - A) < 0.15

    def test_residuals_and_sigma_divisor(self, ar1_fit):
        _, x, m = ar1_fit
        n = x.shape[0]
        assert m.nobs == n
        assert m.residuals.shape == (n - 1, 2)
        manual = m.residuals.T @ m.residuals / (n - 1)
        assert np.array_equal(m.sigma, manual)

    def test_backward_equals_reversed_forward(self, ar1_fit):
        _, x, m = ar1_fit
        reversed_fit = fit_var(x[::-1].copy(), 1)
        assert np.allclose(m.backward_coeffs, reversed_fit.coeffs, atol=1e-12)
        assert np.allclose(
            m.backward_residuals, reversed_fit.residuals[::-1], atol=1e-12
        )

    def test_psi_powers_for_order_one(self, ar1_fit):
        _, _, m = ar1_fit
        assert np.array_equal(m.psi[0], np.eye(2))
        assert np.allclose(m.psi[1], m.coeffs[0], atol=1e-15)
        assert np.allclose(m.psi[2], m.coeffs[0] @ m.coeffs[0], atol=1e-15)

    def test_slowly_decaying_expansion_runs_to_tolerance(self):
        # 0.95 ** 449 is the first power below 1e-10
        psi = _ma_expansion(np.array([[[0.95]]]))
        assert psi.shape == (450, 1, 1)
        assert np.allclose(psi[:, 0, 0], 0.95 ** np.arange(450), rtol=1e-12, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit_var(simulate_var([[[0.95]]], 2000, seed=4), 1)
        a = abs(m.coeffs[0, 0, 0])
        assert 0.9 < a < 0.999
        M = m.psi.shape[0] - 1
        assert a**M < PSI_TOLERANCE <= a ** (M - 1)

    def test_order_validation(self):
        with pytest.raises(DataError):
            fit_var(np.zeros((5, 2)), 0)
        with pytest.raises(DataError):
            fit_var(default_rng(0).normal(size=(3, 2)), 3)

    def test_identifiability_limit(self):
        # the no-intercept design needs n - p > K p rows: with K = 2 and n = 7,
        # p = 2 leaves 5 rows for 4 columns and p = 3 leaves 4 rows for 6
        y = default_rng(1).normal(size=(7, 2))
        assert fit_var(y, 2).order == 2
        with pytest.raises(DataError, match="not enough observations"):
            fit_var(y, 3)
        # n - p = K p exactly is one row short
        with pytest.raises(DataError, match="not enough observations"):
            fit_var(y[:6], 2)

    def test_nonstationary_fit_warns_and_skips_psi(self):
        y = np.zeros((300, 1))
        eps = default_rng(5).normal(size=300) * 0.01
        for t in range(1, 300):
            y[t] = 1.2 * y[t - 1] + eps[t]
        with pytest.warns(UserWarning):
            m = fit_var(y, 1)
        assert m.spectral_radius > 1.0
        assert m.psi is None
        assert not m.is_stationary


class TestCompanion:
    def test_order_one_scalar(self):
        assert companion_spectral_radius(np.array([[[0.5]]])) == pytest.approx(0.5)

    def test_order_two_scalar_matches_root(self):
        rad = companion_spectral_radius(np.array([[[0.5]], [[0.25]]]))
        roots = np.roots([1.0, -0.5, -0.25])
        assert rad == pytest.approx(np.abs(roots).max(), abs=1e-12)


class TestForecast:
    def test_one_step(self, ar1_fit):
        _, x, m = ar1_fit
        fc = forecast_scores(m, x)
        assert np.allclose(fc, x[-1] @ m.coeffs[0].T, atol=1e-14)

    def test_order_two_uses_both_lags(self):
        coeffs = np.array([[[0.3]], [[0.4]]])
        x = simulate_var(coeffs, 400, seed=11)
        m = fit_var(x, 2)
        fc = forecast_scores(m, x)
        manual = m.coeffs[0] @ x[-1] + m.coeffs[1] @ x[-2]
        assert np.allclose(fc, manual, atol=1e-14)


class TestCriterion:
    def test_matches_independent_formula(self, ar1_fit):
        _, x, m = ar1_fit
        for p in (1, 2, 3):
            mp = fit_var(x, p)
            n = mp.nobs
            K = 2
            ridge = np.linalg.det(mp.sigma + 1e-12 * np.eye(K))
            manual = n * np.log(ridge) + n * (n * K + p * K * K) / (
                n - K * (p + 1) - 1
            )
            assert aicc(mp) == pytest.approx(manual, abs=1e-9)

    def test_worked_value(self):
        m = VarModel(
            order=1,
            coeffs=np.zeros((1, 1, 1)),
            residuals=np.zeros((99, 1)),
            backward_coeffs=np.zeros((1, 1, 1)),
            backward_residuals=np.zeros((99, 1)),
            sigma=np.array([[1.0]]),
            nobs=100,
            spectral_radius=0.0,
            psi=None,
        )
        assert aicc(m, n=100) == pytest.approx(10100.0 / 97.0, abs=1e-9)

    def test_undefined_for_tiny_samples(self, ar1_fit):
        _, _, m = ar1_fit
        with pytest.raises(NumericalError):
            aicc(m, n=4)


class TestOrderSelection:
    def test_recovers_order_two(self):
        coeffs = np.array(
            [
                [[0.15, 0.1, 0.0], [0.0, 0.1, 0.05], [0.0, 0.0, 0.12]],
                [[0.5, 0.0, 0.0], [0.05, 0.55, 0.0], [0.0, 0.05, 0.6]],
            ]
        )
        x = simulate_var(coeffs, 1000, seed=1000)
        assert select_order(x, 6) == 2

    def test_white_noise_picks_smallest(self):
        wn = default_rng(7).normal(size=(400, 2))
        assert select_order(wn, 6) == 1

    def test_rejects_empty_candidate_range(self):
        with pytest.raises(ConfigError):
            select_order(default_rng(0).normal(size=(100, 2)), 0)

    @settings(max_examples=80, deadline=None)
    @given(
        K=st.integers(1, 3),
        max_order=st.integers(1, 6),
        n=st.integers(4, 60),
        lag_two=st.floats(-0.8, 0.8),
        sparse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scan_over_full_fits(self, K, max_order, n, lag_two, sparse, seed):
        r = default_rng(seed)
        y = r.normal(size=(n, K))
        for t in range(2, n):
            y[t] += lag_two * y[t - 2]
        if sparse:  # mostly zero days, so some forward or backward designs are singular
            y *= r.random((n, 1)) < 0.2
        expected = order_scan_oracle(y, max_order)
        if expected is None:
            with pytest.raises(NumericalError, match="no identifiable lag order"):
                select_order(y, max_order)
        else:
            assert select_order(y, max_order) == expected

    def test_singular_backward_design_rules_the_order_out(self):
        # order 1 has a full-rank forward design (one nonzero lag) and an all-zero
        # backward one; every higher order has a singular forward design
        y = np.zeros((40, 1))
        y[0] = 1.0
        with pytest.raises(NumericalError, match="no identifiable lag order in 1..4"):
            select_order(y, 4)


def order_scan_oracle(scores, max_order):
    """The order search as a scan over full ``fit_var`` fits; None when no order fits."""
    n, K = scores.shape
    best, best_value = None, math.inf
    for p in range(1, max_order + 1):
        if n - p <= K * p or n - K * (p + 1) - 1 <= 0:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an explosive fit warns; its criterion still counts
                value = aicc(fit_var(scores, p), n)
        except NumericalError:
            continue
        if value < best_value - 1e-12:
            best, best_value = p, value
    return best


class TestBackwardTransfer:
    def test_variance_preserved(self):
        x = simulate_var(np.array([[[0.5]]]), 20000, seed=11, burn=200)
        m = fit_var(x, 1)
        pool = m.centered_residuals
        r = default_rng(99)
        star = pool[r.integers(0, pool.shape[0], size=20000)]
        out = backward_innovation_transfer(m, star, r)
        assert out.shape == star.shape
        assert abs(out.var() / star.var() - 1.0) < 0.05

    def test_shape_validation(self, ar1_fit):
        _, _, m = ar1_fit
        with pytest.raises(DataError):
            backward_innovation_transfer(m, np.zeros((10, 3)), default_rng(0))

    def test_requires_stationary_model(self):
        y = np.zeros((300, 1))
        eps = default_rng(5).normal(size=300) * 0.01
        for t in range(1, 300):
            y[t] = 1.2 * y[t - 1] + eps[t]
        with pytest.warns(UserWarning):
            m = fit_var(y, 1)
        with pytest.raises(NumericalError):
            backward_innovation_transfer(m, np.zeros((10, 1)), default_rng(0))


def psi_filter_transfer(model, extended):
    """Oracle: the moving-average filter truncated after psi_M, in M+1 passes."""
    psi = model.psi
    M = psi.shape[0] - 1
    p = model.order
    B, total, K = extended.shape
    T = total - M - p
    zeta = np.zeros((B, T + p, K))
    for j in range(M + 1):
        zeta += extended[:, M - j : M - j + T + p] @ psi[j].T
    eta = zeta[:, :T].copy()
    for xi in range(1, p + 1):
        eta -= zeta[:, xi : xi + T] @ model.backward_coeffs[xi - 1].T
    return eta


class TestTransferRecursion:
    """The VAR recursion matches the truncated filter up to the psi tail."""

    ORDER_TWO = np.array(
        [[[0.5, 0.1], [0.0, 0.3]], [[0.2, 0.0], [0.05, 0.1]]]
    )

    @pytest.fixture(scope="class", params=[1, 2], ids=["p1", "p2"])
    def fit(self, request, ar1_fit):
        if request.param == 1:
            return ar1_fit[2]
        return fit_var(simulate_var(self.ORDER_TWO, 400, seed=21), 2)

    @staticmethod
    def padded(m, B, seed):
        T = m.nobs - m.order
        total = m.psi.shape[0] - 1 + T + m.order
        pool = m.centered_residuals
        return pool[default_rng(seed).integers(0, pool.shape[0], size=(B, total))]

    def test_matches_truncated_filter(self, fit):
        extended = self.padded(fit, 3, seed=4)
        out = _transfer_padded(fit, extended.transpose(1, 0, 2)).transpose(1, 0, 2)
        oracle = psi_filter_transfer(fit, extended)
        assert out.shape == oracle.shape == (3, fit.nobs - fit.order, 2)
        assert np.abs(out - oracle).max() < 1e-9

    def test_single_series_equals_batch_row(self, fit):
        M = fit.psi.shape[0] - 1
        p = fit.order
        pool = fit.centered_residuals
        star = self.padded(fit, 1, seed=8)[0, M : M + fit.nobs - p]
        single = backward_innovation_transfer(fit, star, default_rng(12))
        r = default_rng(12)
        pre = pool[r.integers(0, pool.shape[0], size=M)]
        post = pool[r.integers(0, pool.shape[0], size=p)]
        batch = self.padded(fit, 3, seed=9)
        batch[1] = np.vstack([pre, star, post])
        row = _transfer_padded(fit, batch.transpose(1, 0, 2))[:, 1]
        assert np.allclose(single, row, rtol=0.0, atol=1e-12)
