import numpy as np
import pytest

from curvecast import (
    ConfigError,
    FunctionalTimeSeries,
    IntradayGrid,
    SynthSpec,
    fit_fpca,
    generate,
    orthonormal_basis,
    reconstruct,
    select_num_components,
)
from curvecast.fpca import _fix_signs


@pytest.fixture(scope="module")
def fitted(small_fts_module):
    fts = small_fts_module
    return fts, fit_fpca(fts)


@pytest.fixture(scope="module")
def small_fts_module():
    spec = SynthSpec(n=60, tau=12, num_factors=2, noise_sd=0.2, mean_scale=0.5, seed=3)
    fts, _ = generate(spec)
    return fts


class TestDecomposition:
    def test_orthonormality(self, fitted):
        _, m = fitted
        gram = m.quad_weight * m.eigenfunctions.T @ m.eigenfunctions
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_eigenvalues_sorted_nonnegative(self, fitted):
        _, m = fitted
        assert np.all(np.diff(m.eigenvalues) <= 1e-15)
        assert np.all(m.eigenvalues >= 0.0)

    def test_variance_bookkeeping(self, fitted):
        fts, m = fitted
        centered = fts.values - m.mean
        total = m.quad_weight * np.sum(centered**2) / fts.values.shape[0]
        assert abs(m.eigenvalues.sum() - total) < 1e-10 * max(total, 1.0)

    def test_scores_match_projection(self, fitted):
        fts, m = fitted
        manual = m.quad_weight * (fts.values - m.mean) @ m.eigenfunctions
        assert np.allclose(m.scores, manual, atol=1e-12)

    def test_full_rank_reconstruction(self, fitted):
        fts, m = fitted
        recon = np.vstack([reconstruct(m, row) for row in m.scores])
        assert np.max(np.abs(recon - fts.values)) < 1e-10

    def test_truncation_error_decreases(self, fitted):
        fts, m = fitted
        errs = []
        for k in (1, 2, m.eigenvalues.size):
            recon = np.vstack([reconstruct(m, row) for row in m.scores[:, :k]])
            errs.append(float(np.mean((recon - fts.values) ** 2)))
        assert errs[0] >= errs[1] >= errs[2]

    def test_rank_capped_at_nobs_minus_one(self):
        values = np.random.default_rng(1).normal(size=(4, 9))
        m = fit_fpca(FunctionalTimeSeries(values, IntradayGrid.regular(10)))
        assert m.eigenvalues.size == 3

    def test_num_components_override(self, fitted):
        fts, _ = fitted
        m = fit_fpca(fts, num_components=3)
        assert m.num_components == 3

    def test_deterministic_refit(self, fitted):
        fts, m = fitted
        again = fit_fpca(fts)
        assert np.array_equal(m.eigenfunctions, again.eigenfunctions)
        assert np.array_equal(m.scores, again.scores)

    def test_rank_one_exact(self):
        grid = IntradayGrid.regular(11)
        w = 1.0 / (grid.tau - 2)
        shape = orthonormal_basis(grid.tau - 1, w, 1)[:, 0]
        if w * shape.sum() < 0:
            shape = -shape
        coeffs = 2.0 * np.random.default_rng(8).normal(size=40)
        values = np.outer(coeffs, shape)
        m = fit_fpca(FunctionalTimeSeries(values, grid))
        assert m.num_components == 1
        assert m.eigenvalues.size == 1
        assert m.eigenvalues[0] == pytest.approx(coeffs.var(), abs=1e-12)
        sign = np.sign(m.eigenfunctions[:, 0] @ shape)
        assert np.max(np.abs(sign * m.eigenfunctions[:, 0] - shape)) < 1e-10
        assert np.max(np.abs(sign * m.scores[:, 0] - (coeffs - coeffs.mean()))) < 1e-10

    def test_degenerate_constant_curves(self):
        fts = FunctionalTimeSeries(np.full((6, 4), 2.0), IntradayGrid.regular(5))
        with pytest.warns(UserWarning):
            m = fit_fpca(fts)
        assert m.degenerate


def loop_fix_signs(phi, w):
    """The per-column sign rule, one column at a time."""
    phi = phi.copy()
    for k in range(phi.shape[1]):
        col = phi[:, k]
        integral = w * col.sum()
        scale = np.abs(col).max()
        if abs(integral) > 1e-10 * max(scale, 1.0):
            if integral < 0:
                phi[:, k] = -col
        else:
            big = np.nonzero(np.abs(col) > 1e-10 * max(scale, 1.0))[0]
            if big.size and col[big[0]] < 0:
                phi[:, k] = -col
    return phi


class TestFixSigns:
    def test_edge_columns_match_the_column_loop(self):
        w = 0.5
        columns = [
            [0.0, 0.0, 0.0, 0.0],                  # all zero
            [1e-12, -1.0, 2.0, -1.0],              # zero integral, negative first big entry
            [1e-12, 1.0, -2.0, 1.0],               # zero integral, positive first big entry
            [-0.99e-10, 1.0, -1.0, 0.99e-10],      # first entry just under the big threshold
            [-1.01e-10, 1.0, -1.0, 1.01e-10],      # first entry just over it
            [-3.0, 5.0, -1.0, 0.5],                # scale above 1
        ]
        # integrals just either side of the 1e-10 threshold, sign against the first entry
        for c in (0.99e-10, 1.0e-10, 1.01e-10):
            columns.append([1.0, -1.0, -c / w, 0.0])
            columns.append([-1.0, 1.0, c / w, 0.0])
        phi = np.array(columns).T
        got = _fix_signs(phi, w)
        want = loop_fix_signs(phi, w)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        flipped = (got != phi).any(axis=0)
        assert flipped.any() and not flipped.all()

    def test_random_bases_match_the_column_loop(self):
        r = np.random.default_rng(11)
        for d, k in ((3, 3), (39, 12), (74, 40)):
            phi = r.normal(size=(d, k))
            phi[:, 0] -= phi[:, 0].mean()     # a near-zero integral
            assert np.array_equal(_fix_signs(phi, 1.0 / d), loop_fix_signs(phi, 1.0 / d))


class TestComponentSelection:
    def test_dominant_example(self):
        assert select_num_components([4.0, 1e-9, 1e-10], 100) == 1

    def test_tie_example(self):
        assert select_num_components([1.0, 1.0], 10) == 1

    def test_two_clear_factors(self):
        assert select_num_components([5.0, 3.0, 1e-8, 1e-9], 200) == 2


class TestBasis:
    def test_orthonormal_under_weight(self):
        b = orthonormal_basis(9, 0.5, 3)
        gram = 0.5 * b.T @ b
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            orthonormal_basis(9, 0.5, 3, kind="nope")
