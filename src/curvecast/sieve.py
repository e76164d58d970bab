"""Sieve bootstrap prediction for the next day's curve.

Each replicate resamples centered score innovations, converts them to
backward-model innovations, and rebuilds an artificial score history
backward from the observed final days, so every pseudo-series shares the
sample's most recent state.  Pseudo-curves add whole resampled residual
curves on top of the reconstructed score part.  One FAR(1) routine,
:func:`far1_fit`, refits the one-step functional autoregression to a
stack of series: to every pseudo-series, where the forecast's error
against that replicate's simulated future curve is the bootstrap proxy
for the real forecast error, and to the observed series (a stack of
one, its own residual pool), whose forecast is the default interval
centre.  The pseudo-series are never built: each refit works from how
often its series draws each residual-pool row and from its scores
scattered onto the rows they were drawn with, so its covariance is the
count-weighted pool covariance plus a low-rank score term.  Each refit
takes the exact spectrum of its covariance (one batched ``eigvalsh``
for the whole stack) to pick its rank, and its leading eigenvectors
from a fixed-size block subspace iteration whose Ritz pairs are
certified against that spectrum by a Davis-Kahan residual bound; a
series that fails the certificate is built and refit by a full
``eigh``.  Pointwise quantiles of these errors give prediction
intervals and studentized sup-norm quantiles give a uniform band.

Replicate ``b`` always draws from its own counter-split random stream,
and its refit depends on its own draws alone (every per-replicate sum
is a stacked product, never one matrix product across replicates), so
results do not depend on evaluation order, chunking or worker count.
The private ``_fit_day`` is the one per-day fit shared by the CLI,
tuning and the backtest: it fits the decomposition, selects the order
and fits the score autoregression, and keeps them in a frozen ``_Day``
with the one-step score forecast (computed once per day) and the curve
it implies, which every intraday update of that day reads.  The private
``_walk_days`` walks tuning's and the backtest's days through it,
recording a day that cannot be fitted instead of stopping.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._docs import bounds_doc, dump_doc, envelope, write_curve_csv
from .errors import ConfigError, DataError, NumericalError
from .fpca import FpcaModel, fit_fpca, select_num_components
from .gridcurves import FunctionalTimeSeries, _freeze
from .varmodel import VarModel, fit_var, forecast_scores, select_order, _transfer_padded

SIGMA_FLOOR = 1e-12
#: block size and step count of the subspace iteration in ``far1_fit``; fixed,
#: so a series' forecast never depends on the stack it is refit in
_FAR1_BLOCK = 4
_FAR1_STEPS = 8
#: largest certified Ritz residual in ``far1_fit``, as a share of the eigenvalue gap
_FAR1_TOL = 1e-12
#: bytes of count-scaled residual pool (d x m per series) one ``far1_fit`` call
#: builds at once, in one buffer it reuses for every chunk of series
_STACK_BYTES = 8 * 2**20
FORECAST_SCHEMA_VERSION = 1
CENTER_CHOICES = ("far1", "ts")


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs of the bootstrap: replicate count, master seed, coverage levels.

    A repeated coverage level is kept once, in first-seen order.
    ``center`` picks the curve the pointwise intervals are anchored to:
    the functional-autoregression forecast refit per replicate ("far1",
    matching the error proxies) or the component-score forecast ("ts").
    """

    num_replicates: int = 400
    seed: int = 0
    alpha_levels: tuple = (0.2, 0.05)
    center: str = "far1"

    def __post_init__(self):
        if self.num_replicates < 1:
            raise ConfigError(f"num_replicates must be >= 1, got {self.num_replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        alphas = tuple(dict.fromkeys(float(a) for a in self.alpha_levels))
        if not alphas or any(not 0.0 < a < 1.0 for a in alphas):
            raise ConfigError(f"alpha levels must lie in (0, 1), got {self.alpha_levels}")
        object.__setattr__(self, "alpha_levels", alphas)
        if self.center not in CENTER_CHOICES:
            raise ConfigError(f"center must be one of {CENTER_CHOICES}, got {self.center!r}")


def derive_seed(master: int, *path: int) -> int:
    """Stable 64-bit child seed for a nested task (e.g. one backtest day)."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sorted_quantile(sorted_values: np.ndarray, q: float, axis: int = 0) -> np.ndarray:
    """Type-7 quantile of values already sorted along ``axis``.

    With n sorted values v and h = (n - 1) q, returns
    ``v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)])``,
    evaluated exactly in that form so results are reproducible against a
    sort-based reference.  ``q`` must lie in [0, 1].
    """
    v = sorted_values
    n = v.shape[axis]
    h = (n - 1) * q
    f = math.floor(h)
    if f >= n - 1:
        return np.take(v, n - 1, axis=axis)
    lo = np.take(v, f, axis=axis)
    return lo + (h - f) * (np.take(v, f + 1, axis=axis) - lo)


def empirical_quantile(values: np.ndarray, q, axis: int = 0):
    """Empirical quantile pinned to linear interpolation of order statistics.

    Sorts along ``axis`` and reads the level with :func:`sorted_quantile`;
    a 1-D input gives a float.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile level must lie in [0, 1], got {q}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DataError("cannot take a quantile of an empty array")
    out = sorted_quantile(np.sort(v, axis=axis), q, axis=axis)
    return out if v.ndim > 1 else float(out)


def sorted_intervals(sorted_values: np.ndarray, alpha_levels, axis: int = 0) -> dict:
    """Central (1 - alpha) intervals for every alpha from values sorted along ``axis``.

    Maps each alpha to ``(lower, upper)``, the alpha/2 and 1 - alpha/2
    levels of :func:`empirical_quantile`, bit for bit; callers sort once
    (in place when they own the array) and read every level from it.
    """
    return {
        a: (
            sorted_quantile(sorted_values, a / 2.0, axis),
            sorted_quantile(sorted_values, 1.0 - a / 2.0, axis),
        )
        for a in alpha_levels
    }


def _regularized_transfer(cov0: np.ndarray, cov1: np.ndarray, w: float, n: int):
    """Lagged covariance composed with the rank-truncated covariance inverse."""
    evals, evecs = np.linalg.eigh(w * cov0)
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    evals[evals < 0.0] = 0.0
    if evals[0] <= 0.0:
        return np.zeros_like(cov0), True
    J = select_num_components(evals, n)
    keep = evals[:J] > 1e-12 * evals[0]
    vecs = evecs[:, :J][:, keep]
    inv = (vecs / evals[:J][keep]) @ vecs.T
    return (w * cov1) @ inv, False


def _leading_ritz_pairs(cov: np.ndarray):
    """Leading Ritz pairs of a (B, d, d) covariance stack, largest first.

    Block subspace iteration from a fixed start, the first ``_FAR1_BLOCK``
    cosines of a DCT-IV basis (smooth, like the leading eigenfunctions of
    curve data), then Rayleigh-Ritz on the block.  The block size and step
    count are constants, so each row's result depends on that row alone.
    Returns the Ritz values (B, p), vectors (B, d, p) and residual norms
    ``|A x - theta x|`` (B, p), with p = min(_FAR1_BLOCK, d).
    """
    d = cov.shape[-1]
    p = min(_FAR1_BLOCK, d)
    grid = np.arange(d)[:, None] + 0.5
    basis = math.sqrt(2.0 / d) * np.cos(np.pi / d * grid * (np.arange(p) + 0.5))
    for _ in range(_FAR1_STEPS):
        basis, _ = np.linalg.qr(cov @ basis)
    image = cov @ basis
    theta, rot = np.linalg.eigh(basis.transpose(0, 2, 1) @ image)
    theta, rot = theta[:, ::-1], rot[:, :, ::-1]
    vecs = basis @ rot
    resid = np.linalg.norm(image @ rot - vecs * theta[:, None, :], axis=1)
    return theta, vecs, resid


def far1_fit(pool, idx, weight, scores=None, basis=None) -> np.ndarray:
    """Fit the one-step functional autoregression to each series and forecast its next day.

    Series b is ``scores[b] @ basis.T + pool[idx[b]]``: n days of (K,)
    component scores on a (d, K) basis plus n rows of the (m, d) residual
    pool every series draws from; ``idx`` is (B, n).  Without ``scores``
    and ``basis`` (K = 0), one plain (n, d) curve series is refit as its
    own pool with ``idx = arange(n)[None]``.  Returns the (B, d) forecasts
    ``mean + transfer @ (last - mean)``.  Per series, the lag-one
    cross-covariance is composed with the inverse of the covariance
    restricted to its leading J eigenvectors, J chosen by the same
    eigenvalue-ratio rule as the main decomposition; ``weight`` is the
    grid's quadrature weight.  A series whose curves carry no variance
    gets a zero transfer (forecast = its mean) and a warning.

    No series is built.  With the pool centred to R, ``cnt_b`` counting
    how often series b draws each row, ``D_b`` its scores summed onto
    the rows they were drawn with and ``xbar_b`` its mean, the
    covariance is ``(w/n)`` times ``R^T diag(cnt_b) R`` plus the
    rank-(2K+1) term ``Phi S_b Phi^T + Phi D_b^T R + R^T D_b Phi^T -
    n xbar_b xbar_b^T``, where ``S_b = scores[b]^T scores[b]``.  The
    first part is a symmetric rank-m update of the pool scaled by the
    root counts, the one large array, built for at most ``_STACK_BYTES``
    at a time into one buffer.  The exact spectrum of every covariance
    comes from one batched ``eigvalsh``; the J eigenvectors come from
    :func:`_leading_ritz_pairs`.  Each series' Ritz pairs must pass a
    Davis-Kahan certificate against that spectrum: for every i < J, the
    residual is at most ``_FAR1_TOL`` times the gap between the i-th
    eigenvalue and its neighbours, and the Ritz value lies within half
    that gap of it.  A series that fails (a near-repeated eigenvalue, J
    above the block size) is built and refit by a full ``eigh`` of its
    own covariance.  The transfer is applied as ``(w/n) c[1:]^T (c[:-1]
    v)`` with ``v = V_J diag(1/lambda_J) V_J^T c_last``: ``c[:-1] v`` is
    a gather from ``R v``, and ``c[1:]^T`` applies as a ``bincount`` of
    it onto the pool rows times ``R``.  Every per-series sum is a
    stacked product or a per-series ``bincount``, so row b's forecast
    depends on row b alone.
    """
    idx = np.asarray(idx)
    B, n = idx.shape
    if n < 2:
        raise DataError(f"need at least 2 days, got {n}")
    shift = pool.mean(axis=0)
    resid = pool - shift
    m, d = resid.shape
    if scores is None:
        scores, basis = np.zeros((B, n, 0)), np.zeros((d, 0))
    rows = max(1, _STACK_BYTES // (8 * m * d))
    scaled = np.empty((min(rows, B), d, m))
    preds = np.empty((B, d))
    degenerate = False
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        preds[lo:hi], flat = _far1_rows(
            resid, idx[lo:hi], scores[lo:hi], basis, weight, scaled[: hi - lo]
        )
        degenerate |= flat
    if degenerate:
        warnings.warn("curves carry no variance; autoregression transfer set to zero")
    return preds + shift


def _pool_tally(idx, scores, m):
    """Per-series pool counts and scores summed onto the pool rows they were drawn with.

    Series b draws pool row ``idx[b, t]`` on day t with (K,) scores
    ``scores[b, t]``.  Returns a (B, 1 + K, m) array: row 0 of series b
    counts how often it draws each of the m pool rows, row 1 + k sums its
    k-th score over the days that drew each row.  Each series' pool rows
    are bins of their own, summed in day order, so a series' tally
    depends on its own draws alone.
    """
    rows, n = idx.shape
    K = scores.shape[2]
    tally = np.empty((rows, 1 + K, m))
    bins = (idx + m * np.arange(rows)[:, None]).ravel()
    tally[:, 0] = np.bincount(bins, minlength=rows * m).reshape(rows, m)
    for k in range(K):
        tally[:, 1 + k] = np.bincount(
            bins, weights=scores[:, :, k].ravel(), minlength=rows * m
        ).reshape(rows, m)
    return tally


def _far1_rows(resid, idx, scores, basis, weight, scaled):
    """:func:`far1_fit` on one chunk of series, from the centred pool; also says if any was flat."""
    rows, n = idx.shape
    m, d = resid.shape
    K = basis.shape[1]
    at = np.arange(rows)[:, None]
    tally = _pool_tally(idx, scores, m)
    cnt, drawn = tally[:, 0], tally[:, 1:]
    # series b is x_t = basis s_t + resid[idx_t]; c_t = x_t - xbar
    xbar = (
        np.matmul(basis, np.matmul(np.ones(n), scores)[:, :, None])[:, :, 0]
        + np.matmul(cnt[:, None, :], resid)[:, 0]
    ) / n

    # sum_t resid[idx_t] resid[idx_t]^T, one symmetric rank-k update per series
    resid_t = np.ascontiguousarray(resid.T)
    np.multiply(resid_t, np.sqrt(cnt)[:, None, :], out=scaled)
    cov = np.matmul(scaled, scaled.transpose(0, 2, 1))
    # sum_t x_t x_t^T - n xbar xbar^T = cov + A + A^T, A = [basis, xbar] @ half
    half = np.empty((rows, K + 1, d))
    half[:, :K] = 0.5 * np.matmul(np.matmul(scores.transpose(0, 2, 1), scores), basis.T)
    half[:, :K] += np.matmul(drawn, resid)
    half[:, K] = -0.5 * n * xbar
    lift = np.empty((rows, d, K + 1))
    lift[:, :, :K] = basis
    lift[:, :, K] = xbar
    cross = np.matmul(lift, half)
    cov += cross
    cov += cross.transpose(0, 2, 1)
    cov *= weight / n

    evals = np.maximum(np.linalg.eigvalsh(cov)[:, ::-1], 0.0)
    live = evals[:, 0] > 0.0
    rank = np.ones(rows, dtype=np.intp)
    rank[live] = select_num_components(evals[live], n)

    theta, vecs, resnorm = _leading_ritz_pairs(cov)
    p = theta.shape[1]
    lam = evals[:, :p]
    spacing = np.full((rows, d + 1), np.inf)
    spacing[:, 1:-1] = evals[:, :-1] - evals[:, 1:]
    gap = np.minimum(spacing[:, :p], spacing[:, 1 : p + 1])
    used = np.arange(p) < rank[:, None]
    sound = (
        (resnorm <= _FAR1_TOL * gap)
        & (np.abs(theta - lam) <= 0.5 * gap)
        & (lam > 1e-12 * evals[:, :1])
    )
    certified = live & (rank <= p) & (sound | ~used).all(axis=1)

    last = np.matmul(basis, scores[:, -1, :, None])[:, :, 0] + resid[idx[:, -1]] - xbar
    inv = np.zeros_like(lam)
    np.divide(1.0, lam, out=inv, where=used & certified[:, None])
    coef = np.matmul(last[:, None, :], vecs) * inv[:, None, :]
    v = np.matmul(vecs, coef.transpose(0, 2, 1))
    lagged = (
        np.matmul(scores[:, :-1], np.matmul(basis.T, v))[:, :, 0]
        + np.take_along_axis(np.matmul(resid, v)[:, :, 0], idx[:, :-1], axis=1)
        - np.matmul(xbar[:, None, :], v)[:, :, 0]
    )
    spread = np.bincount(
        (idx[:, 1:] + m * at).ravel(), weights=lagged.ravel(), minlength=rows * m
    ).reshape(rows, 1, m)
    step = (
        np.matmul(basis, np.matmul(scores[:, 1:].transpose(0, 2, 1), lagged[:, :, None]))[:, :, 0]
        + np.matmul(spread, resid)[:, 0]
        - xbar * lagged.sum(axis=1, keepdims=True)
    )
    preds = xbar + (weight / n) * step

    flat = not live.all()
    for b in np.flatnonzero(live & ~certified):
        cb = scores[b] @ basis.T + resid[idx[b]] - xbar[b]
        transfer, zero = _regularized_transfer(cb.T @ cb / n, cb[1:].T @ cb[:-1] / n, weight, n)
        flat |= zero
        preds[b] = xbar[b] + transfer @ cb[-1]
    return preds, flat


@dataclass(frozen=True)
class _Day:
    """One fitted day: what the day-ahead forecast and every intraday update of it read.

    ``ts_scores`` is the one-step score forecast of ``var`` from the
    decomposition's scores and ``ts_curve`` the next-day curve it implies.
    """

    train: FunctionalTimeSeries
    fpca: FpcaModel
    var: VarModel
    ts_scores: np.ndarray
    ts_curve: np.ndarray


def _one_step(fpca: FpcaModel, var: VarModel):
    """The one-step score forecast and the next-day curve it implies."""
    _check_pair(fpca, var)
    K = fpca.num_components
    step = forecast_scores(var, fpca.scores[:, :K])
    return _freeze(step), _freeze(fpca.mean + fpca.eigenfunctions[:, :K] @ step)


def _fit_day(train: FunctionalTimeSeries, num_components, max_order: int) -> _Day:
    """One day's fit: the decomposition, the score autoregression of the selected order, its forecast."""
    fpca = fit_fpca(train, num_components)
    scores = fpca.scores[:, : fpca.num_components]
    var = fit_var(scores, select_order(scores, max_order))
    return _Day(train, fpca, var, *_one_step(fpca, var))


def _walk_days(fts, days, num_components, max_order, draw, failures, stage, rolling=0):
    """Fit each day t of ``days`` and call ``draw(day, t)``: yields ``(t, day, drawn)``.

    Day t is fitted on ``fts.window(t - rolling, t)``, or on every earlier
    day when ``rolling`` is 0.  A day whose fit or draw raises a library
    error is appended to ``failures`` as ``{"day", "stage", "error"}``.
    """
    for t in days:
        try:
            day = _fit_day(fts.window(t - rolling if rolling else 0, t), num_components, max_order)
            drawn = draw(day, t)
        except (DataError, NumericalError, ConfigError) as exc:
            failures.append({"day": t, "stage": stage, "error": str(exc)})
            continue
        yield t, day, drawn
        del day, drawn  # so a consumer that drops its own keeps one day's draw live


def _check_pair(fpca: FpcaModel, var: VarModel) -> None:
    if var.dim != fpca.num_components:
        raise DataError(
            f"score model dimension {var.dim} != retained components {fpca.num_components}"
        )
    if fpca.scores.shape[0] == 0:
        raise DataError("fitted scores unavailable")
    if var.nobs != fpca.scores.shape[0]:
        raise DataError(
            f"score model fit on {var.nobs} days but decomposition has {fpca.scores.shape[0]}"
        )


@dataclass(frozen=True)
class SieveReplicates:
    """Compact payload of every bootstrap replicate.

    Pseudo-curves are reconstructed on demand as
    ``mean + scores @ eigenfunctions.T + resid_pool[resid_idx]``; storing
    scores and pool indices instead of full curve stacks keeps the
    payload small and lets intraday-updating code project arbitrary
    column blocks cheaply.
    """

    series_scores: np.ndarray      # (B, n, K) pseudo score paths
    series_resid_idx: np.ndarray   # (B, n) rows into resid_pool
    future_scores: np.ndarray      # (B, K) next-day score draws
    future_resid_idx: np.ndarray   # (B,) rows into resid_pool
    mean: np.ndarray               # (d,)
    eigenfunctions: np.ndarray     # (d, K)
    resid_pool: np.ndarray         # (n, d) centered residual curves

    @property
    def num_replicates(self) -> int:
        return self.series_scores.shape[0]

    @cached_property
    def _pool_stats(self):
        """Pool statistics of every pseudo-series, built on first use and kept.

        Returns ``(tally, score_gram)``: the (B, 1 + K, n_pool) pool
        counts and drawn scores of :func:`_pool_tally`, and the
        (B, 1 + K, 1 + K) Gram matrix of the scores with a leading
        column of ones: ``[0, 0]`` is n, ``[0, 1:]`` the score sums and
        ``[1:, 1:]`` the score cross-products.  Any linear projection of
        the pseudo-curves has second moments that follow from these and
        the pool alone; the FLR interval update reads them every
        updating period.
        """
        scores = self.series_scores
        B, n, K = scores.shape
        gram = np.empty((B, 1 + K, 1 + K))
        gram[:, 0, 0] = n
        gram[:, 0, 1:] = np.matmul(np.ones(n), scores)
        gram[:, 1:, 0] = gram[:, 0, 1:]
        gram[:, 1:, 1:] = np.matmul(scores.transpose(0, 2, 1), scores)
        return _pool_tally(self.series_resid_idx, scores, self.resid_pool.shape[0]), gram


def _index_draws(seed, B, T, M, p, n_eps, n_resid):
    """Replicate b's indices, b < B, from two bulk reads of its own stream ``(seed, b)``.

    Stream order: T core, M pre- and p post-sample innovations, the future one; then n = T + p
    series residual rows, the future row.  Bounded draws read the stream value by value, so
    the two reads equal these six draws bit for bit.  Returns (B, M+T+p) innovations in time
    order (pre, core, post), (B,) future ones, (B, n) series rows and (B,) future rows."""
    ext = np.empty((B, M + T + p), dtype=np.int64)
    rows = np.empty((B, T + p), dtype=np.int64)
    fut, fut_rows = np.empty((2, B), dtype=np.int64)
    in_time_order = np.r_[T : T + M, :T, T + M : T + M + p]
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        draw = rng.integers(0, n_eps, size=T + M + p + 1)
        ext[b], fut[b] = draw[in_time_order], draw[-1]
        draw = rng.integers(0, n_resid, size=T + p + 1)
        rows[b], fut_rows[b] = draw[:-1], draw[-1]
    return ext, fut, rows, fut_rows


def _draws(fpca, var, seed, B):
    """Check that the day can be resampled, then :func:`_index_draws` with (B, K) future scores.

    Warns when B is too small for stable quantiles."""
    if B < 50:
        warnings.warn(f"only {B} replicates; quantiles will be unstable")
    ts1, _ = _one_step(fpca, var)
    if not var.is_stationary:
        raise NumericalError(
            f"companion spectral radius {var.spectral_radius:.4f} too close to 1; "
            "bootstrap resampling rejected"
        )
    if var.psi is None:
        raise NumericalError("moving-average expansion unavailable")
    eps_pool, p = var.centered_residuals, var.order
    T = fpca.scores.shape[0] - p
    padded, fut_eps, series_rows, fut_rows = _index_draws(
        seed, B, T, var.psi.shape[0] - 1, p, eps_pool.shape[0], fpca.residuals.shape[0]
    )
    return padded, ts1 + eps_pool[fut_eps], series_rows, fut_rows


def draw_replicates(fpca: FpcaModel, var: VarModel, cfg: BootstrapConfig) -> SieveReplicates:
    """Draw every replicate's pseudo score path and residual assignments."""
    padded, future_scores, series_resid_idx, fut_resid_idx = _draws(
        fpca, var, cfg.seed, cfg.num_replicates
    )
    (B, n), K, p = series_resid_idx.shape, fpca.num_components, var.order
    T = n - p

    # time-major (n, B, K) while recursing, so each step's block is contiguous
    paths = np.empty((n, B, K))
    paths[:T] = _transfer_padded(var, np.take(var.centered_residuals, padded.T, axis=0))
    paths[T:] = fpca.scores[T:, None, :K]
    back = [a.T for a in var.backward_coeffs]
    for t in range(T - 1, -1, -1):
        for xi in range(1, p + 1):
            paths[t] += paths[t + xi] @ back[xi - 1]
    series_scores = np.ascontiguousarray(paths.transpose(1, 0, 2))

    return SieveReplicates(
        series_scores=_freeze(series_scores),
        series_resid_idx=series_resid_idx,
        future_scores=_freeze(future_scores),
        future_resid_idx=fut_resid_idx,
        mean=fpca.mean,
        eigenfunctions=_freeze(fpca.eigenfunctions[:, :K]),
        resid_pool=_freeze(fpca.residuals - fpca.residuals.mean(axis=0)),
    )


def future_curves(reps: SieveReplicates) -> np.ndarray:
    """All simulated next-day curves, shape (B, d)."""
    return (
        reps.mean
        + reps.future_scores @ reps.eigenfunctions.T
        + reps.resid_pool[reps.future_resid_idx]
    )


@dataclass(frozen=True)
class SieveForecast:
    """Point forecast, pointwise intervals, and uniform bands for one day.

    ``pointwise`` and ``band`` map each miscoverage level alpha to a
    (lower, upper) pair of curves; ``band_radius`` holds the studentized
    sup-norm quantile behind each band.
    """

    point: np.ndarray
    center: str
    error_sd: np.ndarray
    pointwise: dict
    band_radius: dict
    band: dict
    replicates: SieveReplicates
    alpha_levels: tuple
    num_replicates: int
    seed: int
    degenerate: bool


def sieve_prediction(
    fts: FunctionalTimeSeries,
    fpca: FpcaModel,
    var: VarModel,
    cfg: BootstrapConfig,
    n_workers: int = 1,
) -> SieveForecast:
    """Bootstrap the next day's forecast distribution.

    The pseudo-series are refit by :func:`far1_fit` from the replicates'
    pool counts and scattered scores, never built as curves; its chunks
    keep memory bounded for any B.  ``n_workers`` splits the replicates
    into that many contiguous blocks, refit on as many threads, each with
    its own buffer; the block count is capped at B and at the CPUs this
    process may run on.  Each replicate's stream is fixed by its index and
    each refit depends on its own draws alone, so the result is
    identical for any worker count.
    """
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if fts.n != fpca.scores.shape[0] or fts.values.shape[1] != fpca.grid_size:
        raise DataError("curve series does not match the fitted decomposition")
    w = fts.grid.quad_weight
    reps = draw_replicates(fpca, var, cfg)
    B = reps.num_replicates

    futures = future_curves(reps)

    def refit(lo: int, hi: int) -> np.ndarray:
        return far1_fit(
            reps.resid_pool,
            reps.series_resid_idx[lo:hi],
            w,
            reps.series_scores[lo:hi],
            reps.eigenfunctions,
        )

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blocks = min(n_workers, B, cpus or 1)
    cuts = np.linspace(0, B, blocks + 1).astype(int)
    if blocks == 1:
        preds = refit(0, B)
    else:
        with ThreadPoolExecutor(max_workers=blocks) as pool:
            preds = np.vstack(list(pool.map(refit, cuts[:-1], cuts[1:])))
    preds += reps.mean

    errors = futures - preds
    sigma = errors.std(axis=0)
    degenerate = bool((sigma <= 0.0).any())
    if degenerate:
        warnings.warn("bootstrap error spread vanished at some grid points")
    sigma_eff = np.where(sigma <= 0.0, SIGMA_FLOOR, sigma)

    if cfg.center == "ts":
        _, center_curve = _one_step(fpca, var)
    else:
        center_curve = far1_fit(fts.values, np.arange(fts.n)[None], w)[0]

    shifted = center_curve + errors
    shifted.sort(axis=0)
    sup_sorted = np.sort((np.abs(errors) / sigma_eff).max(axis=1))
    pointwise = {}
    band = {}
    band_radius = {}
    for alpha, (lo, hi) in sorted_intervals(shifted, cfg.alpha_levels).items():
        pointwise[alpha] = (_freeze(lo), _freeze(hi))
        q = float(sorted_quantile(sup_sorted, 1.0 - alpha))
        band_radius[alpha] = q
        band[alpha] = (_freeze(center_curve - q * sigma), _freeze(center_curve + q * sigma))
    return SieveForecast(
        point=_freeze(center_curve),
        center=cfg.center,
        error_sd=_freeze(sigma),
        pointwise=pointwise,
        band_radius=band_radius,
        band=band,
        replicates=reps,
        alpha_levels=cfg.alpha_levels,
        num_replicates=B,
        seed=cfg.seed,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def forecast_to_json(forecast: SieveForecast) -> str:
    names = ("num_replicates", "seed", "center", "degenerate", "alpha_levels", "point",
             "error_sd", "pointwise", "band_radius", "band")
    body = {name: getattr(forecast, name) for name in names}
    body.update(pointwise=bounds_doc(forecast.pointwise), band=bounds_doc(forecast.band))
    return dump_doc(envelope("sieve_forecast", FORECAST_SCHEMA_VERSION, body))


def write_forecast_csv(path: str, forecast: SieveForecast) -> None:
    """Plot-ready table: one row per curve grid point, one column block per level."""
    d = forecast.point.shape[0]
    write_curve_csv(
        path, range(2, d + 2), forecast.point, {"": forecast.pointwise, "band_": forecast.band}
    )
