"""Sieve bootstrap prediction for the next day's curve.

Each replicate resamples centered score innovations, converts them to
backward-model innovations, and rebuilds an artificial score history
backward from the observed final days, so every pseudo-series shares the
sample's most recent state; that history is built on its first read, so
the PLS interval update, which reads only the next-day draws, never pays
for it.  Pseudo-curves add whole resampled residual curves on top of the
reconstructed score part.  One FAR(1) routine,
:func:`far1_fit`, refits the one-step functional autoregression to a
stack of series: to every pseudo-series, where the forecast's error
against that replicate's simulated future curve is the bootstrap proxy
for the real forecast error, and to the observed series (a stack of
one, its own residual pool), whose forecast is the default interval
centre.  The pseudo-series are never built: each refit works from how
often its series draws each residual-pool row and from its scores
scattered onto the rows they were drawn with, so its covariance is the
count-weighted pool covariance plus a low-rank score term.  Each refit
takes its leading eigenpairs from a fixed-size block subspace iteration
and bounds its eigenvalues from them; a series whose rank they settle
and whose Ritz pairs pass a Davis-Kahan residual bound uses those, every
other series its rank and eigenpairs from one batched ``eigh``; all take
one transfer, in one chunk loop over one or more threads.  Pointwise
quantiles of these errors give prediction intervals and studentized
sup-norm quantiles give a uniform band.

Replicate ``b`` always draws from its own counter-split random stream,
and its refit depends on its own draws alone (every per-replicate sum
is a stacked product, never one matrix product across replicates), so
results do not depend on evaluation order, chunking or worker count.
The private ``_index_draws`` reads every replicate's stream in one pass,
without a ``Generator`` per replicate, bit for bit what each replicate's
own ``Generator`` draws; it checks that against a real one on every call
and draws replicate by replicate when they differ.  The private
``_fit_day`` is the one per-day fit shared by the CLI, tuning and the
backtest: it fits the decomposition, selects the order and fits the
score autoregression, and keeps them in a frozen ``_Day`` with the
one-step score forecast (computed once per day) and the curve it
implies, which every intraday update of that day reads.  The private
``_walk_days`` walks tuning's and the backtest's days through it into one
value per day, in day order, recording a day it cannot fit or draw.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ._docs import bounds_doc, check_coverage_labels, dump_doc, envelope, write_curve_csv
from .errors import ConfigError, DataError, NumericalError
from .fpca import FpcaModel, fit_fpca, select_num_components
from .gridcurves import FunctionalTimeSeries, _freeze
from .varmodel import VarModel, fit_var, forecast_scores, select_order, _presample, _recurse, _transfer_padded

SIGMA_FLOOR = 1e-12
#: block size and step count of the subspace iteration in ``far1_fit``; fixed,
#: so a series' forecast never depends on the stack it is refit in
_FAR1_BLOCK = 4
_FAR1_STEPS = 8
#: largest certified Ritz residual in ``far1_fit``, as a share of the eigenvalue gap
_FAR1_TOL = 1e-12
#: pad of ``far1_fit``'s eigenvalue bounds per unit ``|A|_F``: their and LAPACK's rounding
_FAR1_PAD = 64 * np.finfo(float).eps
#: bytes of count-scaled residual pool (d x m per series) in one ``far1_fit`` chunk, which
#: sets how many series each Ritz iteration, rank proof and transfer batch holds
_STACK_BYTES = 8 * 2**20
#: bytes of it one thread scales at once, in one buffer it reuses for every block of every
#: chunk; below NumPy's 4 MiB huge-page threshold
_BLOCK_BYTES = 2**20
#: replicates whose stream words ``_lockstep_draws`` holds at once; PCG64's LCG multiplier
_DRAW_ROWS, _PCG64_MULT = 64, 0x2360ED051FC65DA44385DF649FCCF645
FORECAST_SCHEMA_VERSION = 1
CENTER_CHOICES = ("far1", "ts")


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs of the bootstrap: replicate count, master seed, coverage levels.

    A repeated coverage level is kept once, in first-seen order; levels
    sharing a rounded coverage percent, their column label, are rejected.
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
        check_coverage_labels(alphas, ConfigError)
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


def _intervals(values: np.ndarray, alpha_levels, axis: int = 0) -> dict:
    """Central (1 - alpha) intervals for every alpha: alpha -> read-only ``(lower, upper)``.

    Sorts ``values`` along ``axis`` in place (callers pass an array they
    own) and reads the alpha/2 and 1 - alpha/2 levels with
    :func:`sorted_quantile`, bit for bit those of :func:`empirical_quantile`.
    """
    values.sort(axis=axis)
    return {
        a: (
            _freeze(sorted_quantile(values, a / 2.0, axis)),
            _freeze(sorted_quantile(values, 1.0 - a / 2.0, axis)),
        )
        for a in alpha_levels
    }


def _full_eigh(cov: np.ndarray):
    """Eigenpairs of a (k, d, d) covariance stack, largest first, negative values set to 0."""
    evals, evecs = np.linalg.eigh(cov)
    return np.maximum(evals[:, ::-1], 0.0), evecs[:, :, ::-1]


def _inverse_apply(vals, vecs, keep, last):
    """``V diag(1 / vals) V^T last`` per series over the kept eigenpairs, shape (B, d, 1)."""
    inv = np.zeros_like(vals)
    np.divide(1.0, vals, out=inv, where=keep)
    coef = np.matmul(last[:, None, :], vecs) * inv[:, None, :]
    return np.matmul(vecs, coef.transpose(0, 2, 1))


def _leading_ritz_pairs(cov: np.ndarray):
    """Leading Ritz pairs of a (B, d, d) covariance stack, largest first.

    Block subspace iteration from a fixed start, the first ``_FAR1_BLOCK``
    cosines of a DCT-IV basis (smooth, like the leading eigenfunctions of
    curve data), then Rayleigh-Ritz on the block.  The block size and step
    count are constants, so each row's result depends on that row alone.
    Returns the Ritz values theta, vectors (B, d, p), residual norms ``|A v -
    theta v|`` and squared norms ``|A v|^2`` (B, p), with p = min(_FAR1_BLOCK, d).
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
    vecs, image = basis @ rot, image @ rot
    resid = np.linalg.norm(image - vecs * theta[:, None, :], axis=1)
    return theta, vecs, resid, np.einsum("bip,bip->bp", image, image)


def _eigen_bounds(fro2, theta, resid, sq):
    """Bounds ``lo <= lambda_i <= hi`` (B, p + 1) from :func:`_leading_ritz_pairs` and ``|A|_F^2``.

    lambda_i >= theta_i (Cauchy interlacing); lambda_{q+1} <= U_q, |A|_F with v_1..v_q projected
    out, U_q^2 = |A|_F^2 - sum_{i<=q} (2 |A v_i|^2 - theta_i^2) (Courant-Fischer); lambda_i <=
    theta_i + r_i once U_i < theta_i - r_i (Parlett, The Symmetric Eigenvalue Problem, ch. 10-11).
    Each is widened by pad = ``_FAR1_PAD |A|_F`` (U_q^2 by pad |A|_F).
    """
    p = theta.shape[1]
    pad = _FAR1_PAD * np.sqrt(fro2)
    tail = fro2 - np.cumsum(np.pad(2.0 * sq - theta**2, ((0, 0), (1, 0))), axis=1)
    hi = np.sqrt(np.maximum(tail, 0.0) + pad * np.sqrt(fro2)) + pad
    hi[:, :p] = np.where(hi[:, 1:] < theta - resid - pad,
                         np.minimum(hi[:, :p], theta + resid + pad), hi[:, :p])
    return np.pad(np.maximum(theta - pad, 0.0), ((0, 0), (0, 1))), hi


def _far1_ranks(cov, theta, resid, sq, n):
    """Which series of a (B, d, d) covariance stack the Ritz pairs prove, and their ranks J.

    Proven: d above the block, lo_1 > 0, :func:`select_num_components`' rank settled strictly by
    the :func:`_eigen_bounds` (prefix L <= p, k_max against L, the ratios' argmin; trace / n
    widened by d pad / n), and each used pair's residual at most ``_FAR1_TOL`` times the least
    gap the bounds allow around it, its upper bound within half that gap of theta (Davis-Kahan).
    """
    (rows, d), p = cov.shape[:2], theta.shape[1]
    at = np.arange(rows)
    fro2 = np.einsum("bij,bij->b", cov, cov)[:, None]
    lo, hi = _eigen_bounds(fro2, theta, resid, sq)
    pad = _FAR1_PAD * np.sqrt(fro2[:, 0])
    cut = lo[:, 0] / np.log(np.maximum(hi[:, 0], n)), hi[:, 0] / np.log(np.maximum(lo[:, 0], n))
    L = (lo[:, :p] > cut[1][:, None]).sum(axis=1)
    thr = (np.einsum("bii->b", cov) + [[-d], [d]] * pad) / n
    above = (lo[:, :p] > thr[1][:, None]).sum(axis=1)
    settled = (hi[at, L] < cut[0]) & ((above >= L) | (hi[at, above] < thr[0]))
    cand = np.arange(p) < np.where(above >= L, L, np.maximum(above, 1))[:, None]
    ratio_lo = np.divide(lo[:, 1:], hi[:, :p], out=np.full((rows, p), np.inf), where=cand)
    ratio_hi = np.divide(hi[:, 1:], lo[:, :p], out=np.full((rows, p), np.inf), where=cand)
    rank = np.argmin(ratio_hi, axis=1) + 1
    ratio_lo[at, rank - 1] = np.inf
    settled &= (ratio_hi[at, rank - 1] < ratio_lo.min(axis=1)) | (cand.sum(axis=1) < 2)
    # lambda_i - lambda_{i+1} >= spacing[i]
    spacing = np.pad(lo[:, :p] - hi[:, 1:], ((0, 0), (1, 0)), constant_values=np.inf)
    gap = np.minimum(spacing[:, :p], spacing[:, 1:])
    sound = ((resid <= _FAR1_TOL * gap) & (hi[:, :p] - theta <= 0.5 * gap)
             & (lo[:, :p] > 1e-12 * hi[:, :1])) | (np.arange(p) >= rank[:, None])
    return (p < d) & (lo[:, 0] > 0.0) & settled & sound.all(axis=1), rank


def far1_fit(pool, idx, weight, scores=None, basis=None, n_workers: int = 1) -> np.ndarray:
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
    gets a zero transfer (forecast = its mean) and one warning per call.

    No series is built.  With the pool centred to R, ``cnt_b`` counting
    how often series b draws each row, ``D_b`` its scores summed onto
    the rows they were drawn with and ``xbar_b`` its mean, the
    covariance is ``(w/n)`` times ``R^T diag(cnt_b) R`` plus the
    rank-(2K+1) term ``Phi S_b Phi^T + Phi D_b^T R + R^T D_b Phi^T -
    n xbar_b xbar_b^T``, where ``S_b = scores[b]^T scores[b]``.  The
    first part is a symmetric rank-m update of the pool scaled by the
    root counts, the one large array.  :func:`_far1_ranks` proves J and the
    Ritz pairs of :func:`_leading_ritz_pairs` from padded bounds on each
    spectrum; every other series takes its J and eigenpairs from one batched
    ``eigh``, dropping eigenvalues at most 1e-12 times the largest.  Either
    way the transfer is applied as ``(w/n) c[1:]^T (c[:-1] v)`` with ``v =
    V_J diag(1/lambda_J) V_J^T c_last``: ``c[:-1] v`` is a gather from ``R
    v``, and ``c[1:]^T`` applies as a ``bincount`` of it onto the pool rows
    times ``R``.  Every per-series sum is a stacked product or a per-series
    ``bincount``, so row b's forecast depends on row b alone.
    ``min(n_workers, B, usable CPUs)`` threads each refit every workers-th
    chunk of at most ceil(B / workers) rows and ``_STACK_BYTES`` of scaled
    pool.  Each thread reuses one covariance stack, ``_STACK_BYTES d / m``
    bytes, and builds it ``_BLOCK_BYTES`` of scaled pool at a time in one
    reused buffer, so with d < m / 2 (every shipped workload) and B in the
    hundreds no allocation reaches NumPy's 4 MiB huge-page threshold.
    """
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    idx = np.asarray(idx)
    B, n = idx.shape
    if n < 2:
        raise DataError(f"need at least 2 days, got {n}")
    shift = pool.mean(axis=0)
    resid = pool - shift
    m, d = resid.shape
    if scores is None:
        scores, basis = np.zeros((B, n, 0)), np.zeros((d, 0))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_workers, B, cpus or 1)
    rows = max(1, min(_STACK_BYTES // (8 * m * d), -(-B // workers)))
    block = max(1, min(_BLOCK_BYTES // (8 * m * d), rows))
    preds = np.empty((B, d))

    def refit(first: int) -> bool:  # every workers-th chunk, in buffers of its own
        scaled, cov, flat = np.empty((block, d, m)), np.empty((rows, d, d)), False
        for at in (slice(lo, lo + rows) for lo in range(first * rows, B, workers * rows)):
            preds[at], chunk_flat = _far1_rows(resid, idx[at], scores[at], basis, weight,
                                               scaled, cov)
            flat |= chunk_flat
        return flat

    if workers == 1:
        degenerate = refit(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as threads:
            degenerate = any(list(threads.map(refit, range(workers))))
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


def _far1_rows(resid, idx, scores, basis, weight, scaled, cov):
    """:func:`far1_fit` on one chunk of series, from the centred pool, with a (block, d, m)
    buffer of scaled pool and a covariance stack of at least its rows; also says if any
    series was flat."""
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

    # sum_t resid[idx_t] resid[idx_t]^T, one symmetric rank-k update per series, a block at a time
    resid_t, root, cov = np.ascontiguousarray(resid.T), np.sqrt(cnt)[:, None, :], cov[:rows]
    for lo in range(0, rows, len(scaled)):
        part = np.multiply(resid_t, root[lo : lo + len(scaled)], out=scaled[: rows - lo])
        np.matmul(part, part.transpose(0, 2, 1), out=cov[lo : lo + len(part)])
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

    theta, vecs, resnorm, sq = _leading_ritz_pairs(cov)
    proven, rank = _far1_ranks(cov, theta, resnorm, sq, n)
    used = proven[:, None] & (np.arange(theta.shape[1]) < rank[:, None])
    last = np.matmul(basis, scores[:, -1, :, None])[:, :, 0] + resid[idx[:, -1]] - xbar
    v = _inverse_apply(theta, vecs, used, last)
    redo, flat = np.flatnonzero(~proven), False
    if redo.size:  # liveness, rank and eigenpairs from one batched eigh
        vals, full = _full_eigh(cov[redo])
        alive = vals[:, 0] > 0.0
        rank[redo[alive]] = select_num_components(vals[alive], n)
        keep = (np.arange(d) < rank[redo, None]) & (vals > 1e-12 * vals[:, :1])
        v[redo] = _inverse_apply(vals, full, keep, last[redo])
        flat = not alive.all()
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


def _walk_days(fts, days, num_components, max_order, draw, score, stage, rolling=0):
    """Fit, draw and score each of ``days`` in order: returns ``(values, failures)``.

    Day t is fitted on ``fts.window(t - rolling, t)``, or on every earlier day when
    ``rolling`` is 0, and scored as ``score(day, t, draw(day, t))``, one day's draw live at
    a time.  A fit or draw that raises a library error records the day in ``failures`` as
    ``{"day", "stage", "error"}``; an error that ``score`` raises propagates.
    """
    values, failures = [], []
    for t in days:
        try:
            day = _fit_day(fts.window(t - rolling if rolling else 0, t), num_components, max_order)
            drawn = draw(day, t)
        except (DataError, NumericalError, ConfigError) as exc:
            failures.append({"day": t, "stage": stage, "error": str(exc)})
            continue
        values.append(score(day, t, drawn))
        del drawn
    return values, failures


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
    column blocks cheaply.  ``series_scores`` is built on its first read by
    ``_build_series``, which is then dropped with the index draws it holds.
    """

    series_resid_idx: np.ndarray   # (B, n) rows into resid_pool
    future_scores: np.ndarray      # (B, K) next-day score draws
    future_resid_idx: np.ndarray   # (B,) rows into resid_pool
    mean: np.ndarray               # (d,)
    eigenfunctions: np.ndarray     # (d, K)
    resid_pool: np.ndarray         # (n, d) centered residual curves
    _build_series: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @property
    def num_replicates(self) -> int:
        return self.future_scores.shape[0]

    @cached_property
    def series_scores(self) -> np.ndarray:
        """(B, n, K) pseudo score paths, read-only, built on first read and kept."""
        scores = self._build_series()
        object.__setattr__(self, "_build_series", None)
        return scores

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
    order (pre, core, post), (B,) future ones, (B, n) series rows and (B,) future rows.  Rows
    that :func:`_lockstep_draws` flags are redrawn by :func:`_replicate_draws`, and so is every
    row when a range lies outside [2, 2**32) or the first kept row differs from a real
    ``Generator``'s, checked on every call."""
    out = (np.empty((B, M + T + p), np.int64), np.empty(B, np.int64),
           np.empty((B, T + p), np.int64), np.empty(B, np.int64))
    flagged = np.ones(B, dtype=bool)
    if 2 <= min(n_eps, n_resid) and max(n_eps, n_resid) < 2**32:
        flagged = _lockstep_draws(seed, T, M, p, n_eps, n_resid, out)
        first = int(flagged.argmin())
        oracle = _replicate_draws(seed, first, T, M, p, n_eps, n_resid)
        flagged |= not all(np.array_equal(a[first], v) for a, v in zip(out, oracle))
    for b in np.flatnonzero(flagged):
        for a, v in zip(out, _replicate_draws(seed, b, T, M, p, n_eps, n_resid)):
            a[b] = v
    return out


def _replicate_draws(seed, b, T, M, p, n_eps, n_resid):
    """Replicate b's row of each :func:`_index_draws` output, from a ``Generator`` on its stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(b),)))
    eps, rows = rng.integers(0, n_eps, size=T + M + p + 1), rng.integers(0, n_resid, size=T + p + 1)
    return np.r_[eps[T : T + M], eps[:T], eps[T + M : -1]], eps[-1], rows[:-1], rows[-1]


def _lockstep_draws(seed, T, M, p, n_eps, n_resid, out):
    """:func:`_index_draws` into ``out`` for every replicate at once; returns which to redraw.

    Replicate b's ``SeedSequence`` hashes one word, b, into ``SeedSequence(seed).pool``, so
    the B pools and their ``generate_state(4, uint64)`` words are one pass of uint32 arithmetic.
    Each seeds one reused ``PCG64`` as its constructor would, and its raw words, as uint32 low
    half first, are what ``integers`` reads.  Lemire's rule ``(u n) >> 32`` runs in place on
    ``_DRAW_ROWS`` rows at a time; a row is flagged if a word falls below ``(2**32 - n) % n``."""
    B, n1 = out[1].size, T + M + p + 1
    calls = 16 + 4 * max(-(-int(seed).bit_length() // 32) - 4, 0)  # hashmix steps before b
    hash_a = np.uint32([0x43B0D7E5 * pow(0x931E8875, calls + k, 2**32) % 2**32 for k in range(5)])
    hash_b = np.uint32([0x8B51F9DD * pow(0x58F38DED, j, 2**32) % 2**32 for j in range(9)])
    v = (np.arange(B, dtype=np.uint32)[:, None] ^ hash_a[:4]) * hash_a[1:]
    pool = 0xCA01F9DD * np.random.SeedSequence(seed).pool - 0x4973F715 * (v ^ v >> 16)
    pool ^= pool >> 16
    state = (np.tile(pool, 2) ^ hash_b[:8]) * hash_b[1:]
    state ^= state >> 16
    gen, width = np.random.PCG64(0), -(-(n1 + T + p + 1) // 2)
    doc = gen.state
    pieces = [(out[0][:, M : M + T], 0, n_eps), (out[0][:, :M], T, n_eps),
              (out[0][:, M + T :], T + M, n_eps), (out[1][:, None], n1 - 1, n_eps),
              (out[2], n1, n_resid), (out[3][:, None], n1 + T + p, n_resid)]
    u, flagged = np.empty((min(B, _DRAW_ROWS), 2 * width), np.uint32), np.zeros(B, bool)
    for lo in range(0, B, _DRAW_ROWS):
        for r, (s1, s0, i1, i0) in enumerate(state.view(np.uint64)[lo : lo + _DRAW_ROWS].tolist()):
            doc["state"]["inc"] = inc = (i1 << 65 | i0 << 1 | 1) % 2**128  # 2 seq + 1
            doc["state"]["state"] = ((inc + (s1 << 64 | s0)) * _PCG64_MULT + inc) % 2**128
            gen.state = doc
            u[r] = gen.random_raw(width).view(np.uint32)
        for dest, at, n in pieces:
            prod = dest[lo : lo + _DRAW_ROWS].view(np.uint64)
            np.multiply(u[: len(prod), at : at + prod.shape[1]], np.uint64(n), out=prod)
            flagged[lo : lo + _DRAW_ROWS] |= (prod.view(np.uint32)[:, ::2] < (2**32 - n) % n).any(1)
            prod >>= np.uint64(32)
    return flagged


def draw_replicates(fpca: FpcaModel, var: VarModel, cfg: BootstrapConfig) -> SieveReplicates:
    """Check that the day can be resampled, then draw every replicate's indices and next-day scores.

    Warns when B is too small for stable quantiles.  The pseudo score paths (innovation gather,
    forward transfer, backward rebuild) are built on the first read of ``series_scores``, so a
    reader of the next-day draws alone, such as the PLS interval update, never builds them.
    """
    B = cfg.num_replicates
    if B < 50:
        warnings.warn(f"only {B} replicates; quantiles will be unstable")
    ts1, _ = _one_step(fpca, var)
    M, eps_pool, p, K = _presample(var), var.centered_residuals, var.order, fpca.num_components
    T = fpca.scores.shape[0] - p
    padded, fut_eps, series_resid_idx, fut_resid_idx = _index_draws(
        cfg.seed, B, T, M, p, eps_pool.shape[0], fpca.residuals.shape[0])

    def build_series() -> np.ndarray:
        # time-major (n, B, K) while recursing, so each step's block is contiguous
        paths = np.empty((T + p, B, K))
        paths[:T] = _transfer_padded(var, np.take(eps_pool, padded.T, axis=0))
        paths[T:] = fpca.scores[T:, None, :K]
        _recurse(paths[::-1], var.backward_coeffs, p)
        series = paths.transpose(1, 0, 2).copy()
        series.flags.writeable = False
        return series

    return SieveReplicates(
        series_resid_idx=series_resid_idx,
        future_scores=_freeze(ts1 + eps_pool[fut_eps]),
        future_resid_idx=fut_resid_idx,
        mean=fpca.mean,
        eigenfunctions=_freeze(fpca.eigenfunctions[:, :K]),
        resid_pool=_freeze(fpca.residuals - fpca.residuals.mean(axis=0)),
        _build_series=build_series,
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

    The pseudo-series are refit by one :func:`far1_fit` call from the
    replicates' pool counts and scattered scores, never built as curves;
    its chunks keep memory bounded for any B, and ``n_workers`` is its
    thread count (capped at B and at the CPUs this process may run on).
    Each replicate's stream is fixed by its index and each refit depends
    on its own draws alone, so the result is identical for any worker
    count.
    """
    if fts.n != fpca.scores.shape[0] or fts.values.shape[1] != fpca.grid_size:
        raise DataError("curve series does not match the fitted decomposition")
    w = fts.grid.quad_weight
    reps = draw_replicates(fpca, var, cfg)

    preds = far1_fit(reps.resid_pool, reps.series_resid_idx, w, reps.series_scores,
                     reps.eigenfunctions, n_workers)
    preds += reps.mean

    # each replicate's simulated next-day curve, less its refit's forecast
    errors = (reps.mean + reps.future_scores @ reps.eigenfunctions.T
              + reps.resid_pool[reps.future_resid_idx]) - preds
    sigma = errors.std(axis=0)
    degenerate = bool((sigma <= 0.0).any())
    if degenerate:
        warnings.warn("bootstrap error spread vanished at some grid points")
    sigma_eff = np.where(sigma <= 0.0, SIGMA_FLOOR, sigma)

    if cfg.center == "ts":
        _, center_curve = _one_step(fpca, var)
    else:
        center_curve = far1_fit(fts.values, np.arange(fts.n)[None], w)[0]

    pointwise = _intervals(center_curve + errors, cfg.alpha_levels)
    sup_sorted = np.sort((np.abs(errors) / sigma_eff).max(axis=1))
    band_radius = {a: float(sorted_quantile(sup_sorted, 1.0 - a)) for a in cfg.alpha_levels}
    band = {
        a: (_freeze(center_curve - q * sigma), _freeze(center_curve + q * sigma))
        for a, q in band_radius.items()
    }
    return SieveForecast(
        point=_freeze(center_curve),
        center=cfg.center,
        error_sd=_freeze(sigma),
        pointwise=pointwise,
        band_radius=band_radius,
        band=band,
        replicates=reps,
        alpha_levels=cfg.alpha_levels,
        num_replicates=reps.num_replicates,
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
