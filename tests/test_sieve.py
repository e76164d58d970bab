import tracemalloc
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
    generate,
    sieve_prediction,
    write_forecast_csv,
)
from curvecast import sieve
from curvecast.fpca import select_num_components
from curvecast.gridcurves import _freeze
from curvecast.sieve import (
    _fit_day,
    _intervals,
    _walk_days,
    sorted_quantile,
)
from curvecast.varmodel import _presample, _recurse, _transfer_padded
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
        ordered = stack.copy()
        bounds = _intervals(ordered, alphas, axis=1)
        assert np.array_equal(ordered, np.sort(stack, axis=1))  # sorted in place
        at_q = sorted_quantile(ordered, q, axis=1)
        for i, row in enumerate(stack):
            assert at_q[i] == sort_quantile_oracle(row, q)
            assert empirical_quantile(row, q) == sort_quantile_oracle(row, q)
            for a in alphas:
                lo, hi = bounds[a]
                assert not (lo.flags.writeable or hi.flags.writeable)
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

    @pytest.mark.parametrize("alphas,pct", [((0.05, 0.051), 95), ((0.3, 0.2, 0.204), 80)])
    def test_levels_sharing_a_coverage_label_rejected(self, alphas, pct):
        # every table and CSV names a level's columns by its rounded coverage percent
        first, second = alphas[-2:]
        with pytest.raises(ConfigError, match=rf"^alpha levels {first} and {second} share "
                                              rf"the coverage label {pct}$"):
            BootstrapConfig(num_replicates=50, alpha_levels=alphas)

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
        assert small_reps.resid_pool[small_reps.future_resid_idx].shape == (60, d)

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


def eager_draw_oracle(fpca, var, cfg):
    """The eager draw: every index draw, then every pseudo score path at once, copied twice."""
    B = cfg.num_replicates
    ts1, _ = sieve._one_step(fpca, var)
    M = _presample(var)
    eps_pool, p, K = var.centered_residuals, var.order, fpca.num_components
    T = fpca.scores.shape[0] - p
    padded, fut_eps, series_resid_idx, fut_resid_idx = sieve._index_draws(
        cfg.seed, B, T, M, p, eps_pool.shape[0], fpca.residuals.shape[0]
    )
    paths = np.empty((T + p, B, K))
    paths[:T] = _transfer_padded(var, np.take(eps_pool, padded.T, axis=0))
    paths[T:] = fpca.scores[T:, None, :K]
    _recurse(paths[::-1], var.backward_coeffs, p)
    return {
        "series_scores": _freeze(np.ascontiguousarray(paths.transpose(1, 0, 2))),
        "series_resid_idx": series_resid_idx,
        "future_scores": _freeze(ts1 + eps_pool[fut_eps]),
        "future_resid_idx": fut_resid_idx,
        "mean": fpca.mean,
        "eigenfunctions": _freeze(fpca.eigenfunctions[:, :K]),
        "resid_pool": _freeze(fpca.residuals - fpca.residuals.mean(axis=0)),
    }


class TestLazySeries:
    """The pseudo score paths, built on first read, equal the eager draw bit for bit."""

    @pytest.fixture(scope="class", params=["C06", "C08"])
    def day(self, request):
        spec, days = _PANELS[request.param]
        return _fit_day(generate(spec)[0].head(days), None, 10)

    @pytest.mark.parametrize("B", [1, 57, 400])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_equal_to_the_eager_draw(self, day, seed, B):
        cfg = BootstrapConfig(num_replicates=B, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # B < 50 warns
            reps = draw_replicates(day.fpca, day.var, cfg)
            want = eager_draw_oracle(day.fpca, day.var, cfg)
        assert "series_scores" not in reps.__dict__ and reps.num_replicates == B
        for name, value in want.items():
            got = getattr(reps, name)
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        paths = reps.series_scores
        assert paths is reps.series_scores and reps._build_series is None
        assert paths.flags.c_contiguous and not paths.flags.writeable

    def test_errors_and_warnings_fire_at_draw_time(self, small_fit, monkeypatch):
        _, model, var = small_fit
        monkeypatch.setattr(sieve, "_transfer_padded", None)  # the build is never reached
        with pytest.warns(UserWarning, match="only 20 replicates"):
            draw_replicates(model, var, BootstrapConfig(num_replicates=20, seed=1))
        monkeypatch.setattr(type(var), "is_stationary", property(lambda self: False))
        with pytest.raises(NumericalError, match="bootstrap resampling rejected"):
            draw_replicates(model, var, BootstrapConfig())


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


class TestWalkDays:
    @pytest.fixture(scope="class")
    def panel(self):
        return generate(SynthSpec(n=30, tau=8, seed=1))[0]

    @staticmethod
    def draw(day, t):
        if t == 21:
            raise NumericalError("stub draw failed")
        return t * 10

    def test_values_in_day_order_and_fit_and_draw_failures_recorded(self, panel):
        # day 2 has too few days before it to select a lag order; day 21's draw fails
        seen = []

        def score(day, t, drawn):
            seen.append(t)
            assert day.train.n == t
            return t, drawn

        values, failures = _walk_days(panel, [20, 2, 21, 22, 23], None, 2, self.draw, score, "s")
        assert values == [(20, 200), (22, 220), (23, 230)] and seen == [20, 22, 23]
        assert [(f["day"], f["stage"]) for f in failures] == [(2, "s"), (21, "s")]
        assert "lag order" in failures[0]["error"]
        assert failures[1]["error"] == "stub draw failed"

    def test_rolling_window_fits_on_the_last_days(self, panel):
        values, _ = _walk_days(panel, [25], None, 2, self.draw,
                               lambda day, t, drawn: day.train.n, "s", rolling=12)
        assert values == [12]

    def test_error_raised_by_score_propagates(self, panel):
        def score(day, t, drawn):
            raise ConfigError("bad score setting")

        with pytest.raises(ConfigError, match="bad score setting"):
            _walk_days(panel, [20, 22], None, 2, self.draw, score, "s")


def index_draws_oracle(seed, B, T, M, p, n_eps, n_resid):
    """The per-replicate loop: one ``Generator`` per replicate, two bulk reads of its stream."""
    ext = np.empty((B, M + T + p), dtype=np.int64)
    rows = np.empty((B, T + p), dtype=np.int64)
    fut, fut_rows = np.empty((2, B), dtype=np.int64)
    in_time_order = np.r_[T : T + M, :T, T + M : T + M + p]
    for b in range(B):
        rng = default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        draw = rng.integers(0, n_eps, size=T + M + p + 1)
        ext[b], fut[b] = draw[in_time_order], draw[-1]
        draw = rng.integers(0, n_resid, size=T + p + 1)
        rows[b], fut_rows[b] = draw[:-1], draw[-1]
    return ext, fut, rows, fut_rows


def assert_same_draws(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def assert_kept_rows_match(args, want):
    """Run the one-pass draws; every row they do not flag must equal the oracle's."""
    out = tuple(np.empty_like(w) for w in want)
    flagged = sieve._lockstep_draws(args[0], *args[2:], out)
    for got, w in zip(out, want):
        assert np.array_equal(got[~flagged], w[~flagged])
    return flagged


# index ranges: small pools, ones (no stream value read), near 2**31 (Lemire rejections on
# about half the words), near 2**26 - 2**15 (rejections on about one word in 2,000, so in
# some replicates and not others) and the rest of 32 bits
_SOME_REJECT = 2**26 - 2**15
_ranges = st.one_of(
    st.integers(1, 600), st.just(1), st.integers(2**31 - 8, 2**31 + 16),
    st.integers(_SOME_REJECT - 64, _SOME_REJECT + 64), st.integers(2, 2**32 - 1),
)


class TestLockstepDraws:
    """The one-pass draws equal the per-replicate ``Generator`` loop, row for row, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**130), B=st.integers(1, 60), T=st.integers(1, 300),
        M=st.integers(0, 500), p=st.integers(1, 4), n_eps=_ranges, n_resid=_ranges,
    )
    @example(seed=3, B=8, T=5, M=2, p=1, n_eps=1, n_resid=6)
    @example(seed=3, B=8, T=5, M=2, p=1, n_eps=6, n_resid=1)
    @example(seed=0, B=1, T=1, M=0, p=1, n_eps=2, n_resid=2)  # n1 = 3, odd
    @example(seed=2**64 + 3, B=9, T=6, M=3, p=2, n_eps=40, n_resid=41)  # n1 = 12, even
    @example(seed=2**130, B=60, T=300, M=500, p=4, n_eps=2**31 + 11, n_resid=_SOME_REJECT)
    def test_matches_the_per_replicate_loop(self, seed, B, T, M, p, n_eps, n_resid):
        want = index_draws_oracle(seed, B, T, M, p, n_eps, n_resid)
        assert_same_draws(sieve._index_draws(seed, B, T, M, p, n_eps, n_resid), want)
        if 2 <= min(n_eps, n_resid) and max(n_eps, n_resid) < 2**32:
            # the one pass itself, not only after the check against a real Generator
            assert_kept_rows_match((seed, B, T, M, p, n_eps, n_resid), want)

    def test_rejections_flag_only_their_replicates(self):
        args = (7, 60, 200, 40, 2, _SOME_REJECT, _SOME_REJECT + 3)
        flagged = assert_kept_rows_match(args, index_draws_oracle(*args))
        assert 0 < flagged.sum() < flagged.size

    def test_a_wrong_first_replicate_falls_back_to_the_generators(self, monkeypatch):
        lockstep, calls = sieve._lockstep_draws, []

        def wrong_row_zero(*args):
            flagged = lockstep(*args)
            args[-1][0][0, 0] += 1  # row 0 kept, but not what its stream draws
            calls.append(flagged.copy())
            return flagged

        monkeypatch.setattr(sieve, "_lockstep_draws", wrong_row_zero)
        args = (11, 40, 30, 9, 2, 25, 32)
        got = sieve._index_draws(*args)
        assert len(calls) == 1 and not calls[0][0]
        assert_same_draws(got, index_draws_oracle(*args))

    @pytest.mark.parametrize("n_eps,n_resid", [(1, 6), (6, 1), (2**32, 6), (6, 2**32 + 3)])
    def test_ranges_outside_32_bits_take_the_generators(self, monkeypatch, n_eps, n_resid):
        # a range of 1 reads no stream value and one above 2**32 - 1 reads 64-bit words
        def unused(*args):
            raise AssertionError("one-pass draws used outside [2, 2**32)")

        monkeypatch.setattr(sieve, "_lockstep_draws", unused)
        args = (3, 8, 5, 2, 1, n_eps, n_resid)
        assert_same_draws(sieve._index_draws(*args), index_draws_oracle(*args))

    def test_memory_stays_near_the_per_replicate_loop(self):
        # C06 shape: a 250-day training window, VAR(2) with a 38-day pre-sample, B = 400
        args = (derive_seed(12345, 2, 250), 400, 248, 38, 2, 248, 250)
        peaks = []
        for draw in (sieve._index_draws, index_draws_oracle):
            tracemalloc.start()
            try:
                draw(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * peaks[1]


def regularized_transfer(cov0, cov1, w, n):
    """Lagged covariance composed with the rank-truncated covariance inverse, from one ``eigh``."""
    evals, evecs = np.linalg.eigh(w * cov0)
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    evals[evals < 0.0] = 0.0
    if evals[0] <= 0.0:
        return np.zeros_like(cov0)
    J = select_num_components(evals, n)
    keep = evals[:J] > 1e-12 * evals[0]
    vecs = evecs[:, :J][:, keep]
    inv = (vecs / evals[:J][keep]) @ vecs.T
    return (w * cov1) @ inv


def far1_oracle(curves, weight):
    """The per-series refit: full covariances and one ``eigh`` per series."""
    B, n, d = curves.shape
    means = curves.mean(axis=1)
    c = curves - means[:, None, :]
    cov0 = np.matmul(c.transpose(0, 2, 1), c) / n
    cov1 = np.matmul(c[:, 1:].transpose(0, 2, 1), c[:, :-1]) / n
    preds = np.empty((B, d))
    for b in range(B):
        preds[b] = means[b] + regularized_transfer(cov0[b], cov1[b], weight, n) @ c[b, -1]
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


def _recorded(monkeypatch, name):
    """Wraps ``sieve.<name>`` to record every covariance row it receives."""
    calls = []
    inner = getattr(sieve, name)

    def counted(cov):
        calls.extend(cov)
        return inner(cov)

    monkeypatch.setattr(sieve, name, counted)
    return calls


@pytest.fixture()
def fallbacks(monkeypatch):
    """Records the covariance of every series ``far1_fit`` sends to its batched ``eigh``."""
    return _recorded(monkeypatch, "_full_eigh")


def eigvalsh_ranks(cov, n):
    """Whether each covariance carries variance, and its rank, from its full spectrum."""
    evals = np.maximum(np.linalg.eigvalsh(cov)[:, ::-1], 0.0)
    live = evals[:, 0] > 0.0
    rank = np.ones(len(cov), dtype=np.intp)
    rank[live] = select_num_components(evals[live], n)
    return live, rank


_KINDS = ("ratio", "cut", "threshold", "prefix", "flat", "plain")
_NUDGES = (0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-10, -1e-10, 1e-6, -1e-6, 1e-3, -1e-3)


def prescribed_spectrum(rng, d, n, kind, k, nudge):
    """d descending eigenvalues with, at index k, a near-tie of the kind the rank rule resolves."""
    if kind == "flat":
        return np.zeros(d)
    ratios = rng.uniform(0.05, 1.0, d - 1)
    if kind == "prefix":  # four informative eigenvalues, then a cliff: L = p
        ratios[:3] = rng.uniform(0.8, 1.0, 3)
        ratios[3] = rng.uniform(1e-3, 0.05)
    elif kind == "ratio":  # the k-th ratio ties the first
        ratios[k] = min(ratios[0] * (1.0 + nudge), 1.0)
    lam = 10.0 ** rng.uniform(-4, 4) * np.cumprod(np.r_[1.0, ratios])
    if kind == "cut":  # at the informative cut lambda_1 / log max(lambda_1, n)
        target = lam[0] / np.log(max(lam[0], n)) * (1.0 + nudge)
    elif kind == "threshold":  # at the average variance trace / n
        target = (lam.sum() - lam[k]) / (n - 1) * (1.0 + nudge)
    else:
        return lam
    lam[:k] = np.maximum(lam[:k], target)
    lam[k] = target
    lam[k + 1 :] = np.minimum(lam[k + 1 :], target)
    return lam


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

    @pytest.mark.parametrize("panel", sorted(_PANELS))
    def test_enclosures_rank_every_replicate(self, panel, fallbacks, monkeypatch):
        _, factored, _ = _replicate_stack(panel, 100)
        seen = []
        ranks = sieve._far1_ranks

        def recorded(cov, *ritz):
            proven, rank = ranks(cov, *ritz)
            seen.append((cov.copy(), proven, rank))  # the next chunk reuses the stack
            return proven, rank

        monkeypatch.setattr(sieve, "_far1_ranks", recorded)
        far1_fit(*factored)
        assert not fallbacks  # every series was proven
        assert sum(len(cov) for cov, _, _ in seen) == 100
        for cov, proven, rank in seen:
            want_live, want_rank = eigvalsh_ranks(cov, factored[1].shape[1])
            assert proven.all() and want_live.all() and np.array_equal(rank, want_rank)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(6, 12),
        n=st.integers(3, 300),
        rows=st.lists(
            st.tuples(st.sampled_from(_KINDS), st.integers(1, 4), st.sampled_from(_NUDGES)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_enclosed_rank_is_the_eigvalsh_rank(self, seed, d, n, rows):
        # every eigenvalue lies inside its bounds, and every proven rank is the eigvalsh rank
        rng = default_rng(seed)
        cov = np.empty((len(rows), d, d))
        for b, (kind, k, nudge) in enumerate(rows):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            cov[b] = (q * prescribed_spectrum(rng, d, n, kind, k, nudge)) @ q.T
        theta, _, resid, sq = sieve._leading_ritz_pairs(cov)
        lo, hi = sieve._eigen_bounds(np.einsum("bij,bij->b", cov, cov)[:, None], theta, resid, sq)
        evals = np.maximum(np.linalg.eigvalsh(cov)[:, ::-1][:, : lo.shape[1]], 0.0)
        assert (lo <= evals).all() and (evals <= hi).all()
        proven, rank = sieve._far1_ranks(cov, theta, resid, sq, n)
        want_live, want_rank = eigvalsh_ranks(cov, n)
        assert want_live[proven].all() and np.array_equal(rank[proven], want_rank[proven])

    def test_an_unproven_row_alone_takes_the_batched_eigh(self, fallbacks, monkeypatch):
        mean, factored, curves = _replicate_stack("C08", 50)  # one chunk
        proven_run = far1_fit(*factored)
        assert not fallbacks
        ranks = sieve._far1_ranks

        def leave_one(cov, *ritz):
            proven, rank = ranks(cov, *ritz)
            proven[7] = False
            return proven, rank

        monkeypatch.setattr(sieve, "_far1_ranks", leave_one)
        got = far1_fit(*factored)
        assert len(fallbacks) == 1
        others = np.arange(50) != 7
        assert np.array_equal(got[others], proven_run[others])
        np.testing.assert_allclose(mean + got[7], far1_oracle(curves[7:8], factored[2])[0],
                                   rtol=0.0, atol=1e-12)

    def test_grid_within_the_block_takes_the_batched_eigh(self, fallbacks):
        pool, idx, scores, basis = factored_series(4, 6, 40, 3, 2, 12)
        got = far1_fit(pool, idx, 0.1, scores, basis)
        assert len(fallbacks) == 6
        curves = scores @ basis.T + pool[idx]
        np.testing.assert_allclose(got, far1_oracle(curves, 0.1), rtol=0.0, atol=1e-12)

    def test_refit_memory_stays_within_two_pool_buffers(self, monkeypatch):
        # a chunk's covariance stack and one small block of scaled pool; no array as large
        # as the 4 MiB from which NumPy advises huge pages
        _, factored, curves = _replicate_stack("C06", 400)
        del curves
        tracemalloc.start()
        try:
            far1_fit(*factored)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

        largest, ritz = [], sieve._leading_ritz_pairs

        def snapshot(cov):  # every buffer and temporary of the chunk is live here
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
            return ritz(cov)

        monkeypatch.setattr(sieve, "_leading_ritz_pairs", snapshot)
        tracemalloc.start()
        try:
            far1_fit(*factored)
        finally:
            tracemalloc.stop()
        assert len(largest) > 1 and max(largest) < 4 * 2**20

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
        np.testing.assert_allclose(fallbacks[0], w * tied.T @ tied / 64, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(got, far1_oracle(stack, w), rtol=0.0, atol=1e-12)

    def test_tied_pairs_inside_a_settled_rank_take_the_batched_eigh(self, fallbacks):
        # Walsh columns with a decaying tail: the bounds settle J = 2, but the two
        # used eigenvalues tie, so no gap certifies their Ritz pairs
        t = np.arange(64)
        walsh = np.stack([(-1.0) ** (t >> k) for k in range(6)], axis=1)
        tied = walsh * [1.0, 1.0, 0.22, 0.2, 0.17, 0.14] + 1.0
        got = far1_fit(tied, np.arange(64)[None], 0.2)
        assert len(fallbacks) == 1
        np.testing.assert_allclose(got, far1_oracle(tied[None], 0.2), rtol=0.0, atol=1e-12)

    def test_rank_above_the_block_takes_the_batched_eigh(self, fallbacks):
        # five near-equal leading variances then a drop: the ratio rule keeps
        # five components, more than the subspace iteration's block holds
        wide = default_rng(3).standard_normal((64, 6)) * [1.0, 0.97, 0.94, 0.91, 0.88, 0.1]
        w = 0.2
        got = far1_fit(wide, np.arange(64)[None], w)
        assert len(fallbacks) == 1
        spectrum = np.linalg.eigvalsh(fallbacks[0])[::-1]
        assert select_num_components(spectrum, 64) > sieve._FAR1_BLOCK
        np.testing.assert_allclose(got, far1_oracle(wide[None], w), rtol=0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(2, 12), st.integers(1, 9)),
        K=st.integers(0, 3),
        m=st.integers(1, 15),
        n_workers=st.integers(1, 4),
        data=st.data(),
    )
    def test_rows_do_not_depend_on_the_stack(self, seed, shape, K, m, n_workers, data):
        B, n, d = shape
        pool, idx, scores, basis = factored_series(seed, B, n, d, K, m)
        rows = data.draw(st.lists(st.integers(0, B - 1), min_size=1, max_size=2 * B))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a one-row pool is flat
            assert np.array_equal(
                far1_fit(pool, idx, 0.1, scores, basis)[rows],
                far1_fit(pool, idx[rows], 0.1, scores[rows], basis, n_workers),
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

    @settings(max_examples=16, deadline=None)
    @given(n_workers=st.integers(1, 4), rows=st.integers(1, 60).flatmap(
        lambda chunk: st.tuples(st.just(chunk), st.integers(1, chunk))))
    @example(n_workers=1, rows=(1, 1))
    @example(n_workers=1, rows=(60, 7))
    @example(n_workers=2, rows=(60, 60))
    def test_worker_invariance(self, small_fit, forecast, n_workers, rows):
        # the fixture ran in one chunk of one block; any chunk and block budget (rows of
        # scaled pool, one row up to the whole chunk) and worker count agree with it
        fts, model, var = small_fit
        cfg = BootstrapConfig(num_replicates=60, seed=5)
        chunk, block = (r * fts.values.nbytes for r in rows)
        with mock.patch.object(sieve, "_STACK_BYTES", chunk), \
                mock.patch.object(sieve, "_BLOCK_BYTES", block):
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
