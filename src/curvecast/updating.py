"""Intraday dynamic updating of the next-day forecast.

Once part of the new day has been observed, the remaining curve can be
re-forecast.  Two estimators are provided:

* penalized least squares ('PLS'): re-estimate the day's component scores
  from the observed block, shrinking toward the day-ahead score forecast;
  zero shrinkage is plain least squares ('OLS'), infinite shrinkage
  reproduces the day-ahead forecast.
* function-on-function linear regression ('FLR'): run separate component
  analyses on the observed-side and remaining-side blocks of the training
  days, regress late scores on early scores, and push the observed block
  through the fitted linkage.

Shrinkage strength is tuned per updating period on a held-out validation
slice, by squared forecast error for point updates or by mean interval
score for interval updates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._docs import check_doc, decode_keys, dump_doc, envelope, load_doc, reading
from .errors import ConfigError, DataError, NumericalError
from .fpca import FpcaModel, select_num_components, weighted_pca
from .gridcurves import FunctionalTimeSeries, _freeze
from .sieve import (
    BootstrapConfig,
    SieveReplicates,
    derive_seed,
    draw_replicates,  # noqa: F401  (re-exported beside the interval updates that read its output)
    sorted_intervals,
    _Day,
    _draws,
    _one_step,
    _walk_days,
)

#: default shrinkage grid: exact least squares plus decade steps
DEFAULT_LAMBDA_GRID = (0.0,) + tuple(10.0**j for j in range(-2, 9))

#: ridge floor, relative to its trace, for a numerically singular early-score Gram matrix
LINK_RIDGE = 1e-8

SCHEDULE_SCHEMA_VERSION = 1


def updating_columns(tau: int, m: int) -> np.ndarray:
    """Curve-array columns still to be forecast when the day is observed through u_m."""
    if not 2 <= m < tau:
        raise ConfigError(f"updating period must satisfy 2 <= m < tau, got m={m}")
    return np.arange(m - 1, tau - 1)


def observed_columns(tau: int, m: int) -> np.ndarray:
    """Curve-array columns already observed at updating period ``m``."""
    if not 2 <= m < tau:
        raise ConfigError(f"updating period must satisfy 2 <= m < tau, got m={m}")
    return np.arange(0, m - 1)


@dataclass(frozen=True)
class UpdateContext:
    """Everything an intraday update needs about the partially observed day.

    ``observed`` holds the day's curve values on grid indices 2..m;
    ``eigenbasis_obs`` the retained component functions restricted to
    those points; ``ts_scores`` the day-ahead score forecast that acts as
    the shrinkage target.
    """

    m: int
    observed: np.ndarray
    eigenbasis_obs: np.ndarray
    ts_scores: np.ndarray
    updating_cols: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        if obs.ndim != 1 or obs.size != self.m - 1:
            raise DataError(
                f"observed block must have m-1={self.m - 1} values, got shape {obs.shape}"
            )
        if not np.isfinite(obs).all():
            raise DataError("observed block contains non-finite values")
        object.__setattr__(self, "observed", _freeze(obs))


def build_update_context(fpca, var, observed: Sequence[float]) -> UpdateContext:
    """Assemble an :class:`UpdateContext` from fitted models and observed values."""
    return _context(fpca, _one_step(fpca, var)[0], observed)


def _context(fpca: FpcaModel, ts_scores: np.ndarray, observed) -> UpdateContext:
    """:func:`build_update_context` from the day's one-step score forecast."""
    observed = np.asarray(observed, dtype=float)
    d = fpca.grid_size
    if observed.ndim != 1 or not 1 <= observed.size <= d - 1:
        raise DataError(
            f"observed block must hold 1..{d - 1} values, got shape {observed.shape}"
        )
    m = observed.size + 1
    return UpdateContext(
        m=m,
        observed=observed,
        eigenbasis_obs=_freeze(fpca.eigenfunctions[: m - 1, : fpca.num_components]),
        ts_scores=ts_scores,
        updating_cols=np.arange(m - 1, d),
    )


# ---------------------------------------------------------------------------
# penalized least squares
# ---------------------------------------------------------------------------


def _require_full_rank(F: np.ndarray, m: int) -> None:
    """Exact least squares (zero shrinkage) needs a full-column-rank observed basis."""
    K = F.shape[1]
    s = np.linalg.svd(F, compute_uv=False)
    if F.shape[0] < K or s[-1] <= 1e-12 * s[0]:
        raise NumericalError(f"least squares rank-deficient at m={m} with {K} components")


def _pls_betas(
    ctx: UpdateContext, fpca: FpcaModel, lams: Sequence[float], targets: np.ndarray
) -> np.ndarray:
    """(L, K, T) score estimates: each of the T shrinkage targets (K, T) under each of L values.

    The penalized system ``(F'F + lam I) beta = F' x_centered + lam target``
    is solved as the unshrunk solve plus ``lam`` times the solve of the
    target, each batched over the L values.  The day-ahead scores are the
    one target of the point update; bootstrap score draws are the targets
    of the intervals.  Callers check the values and the feasibility of
    zero shrinkage.
    """
    F = ctx.eigenbasis_obs
    K = F.shape[1]
    lams = np.asarray(lams, dtype=float)[:, None, None]
    xc = ctx.observed - fpca.mean[: ctx.m - 1]
    gram = F.T @ F + lams * np.eye(K)  # (L, K, K)
    # right-hand sides stacked to 3-D: a 2-D one is read as a stack of
    # vectors by NumPy < 2 when its ndim is gram.ndim - 1
    L = gram.shape[0]
    base = np.linalg.solve(gram, np.broadcast_to((F.T @ xc)[:, None], (L, K, 1)))
    return base + lams * np.linalg.solve(gram, np.broadcast_to(targets, (L,) + targets.shape))


def _rebuild_late(ctx: UpdateContext, fpca: FpcaModel, betas: np.ndarray) -> np.ndarray:
    """Curves on the updating columns, (..., c, T), from (..., K, T) score estimates."""
    cols = ctx.updating_cols
    curves = fpca.eigenfunctions[cols, : betas.shape[-2]] @ betas
    curves += fpca.mean[cols][:, None]
    return curves


def _check_lambda(lam) -> float:
    """A shrinkage value as a float; negative or non-finite values are rejected.

    Infinite shrinkage puts NaN off the diagonal of the penalized system.
    """
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise ConfigError(f"shrinkage must be finite and >= 0, got {lam}")
    return lam


def pls_coefficients(ctx: UpdateContext, lam: float, fpca: FpcaModel) -> np.ndarray:
    """Score estimate from the observed block, shrunk toward the forecast scores.

    Solves ``(F'F + lam I) beta = F' x_centered + lam ts_scores`` where F
    is the component basis on the observed points.  ``lam = 0`` requires
    F to have full column rank.
    """
    lam = _check_lambda(lam)
    if lam == 0.0:
        _require_full_rank(ctx.eigenbasis_obs, ctx.m)
    return _pls_betas(ctx, fpca, (lam,), ctx.ts_scores[:, None])[0, :, 0]


def pls_update(ctx: UpdateContext, lam: float, fpca: FpcaModel) -> np.ndarray:
    """Updated forecast of the not-yet-observed part of the day."""
    return _rebuild_late(ctx, fpca, pls_coefficients(ctx, lam, fpca)[:, None])[:, 0]


def ols_update(ctx: UpdateContext, fpca: FpcaModel) -> np.ndarray:
    """Unshrunk least-squares update (requires a full-rank observed basis)."""
    return pls_update(ctx, 0.0, fpca)


def shrinkage_objective(
    ctx: UpdateContext, fpca: FpcaModel, lam: float, coeffs: np.ndarray
) -> float:
    """The criterion minimized by :func:`pls_coefficients` (unweighted sums)."""
    coeffs = np.asarray(coeffs, dtype=float)
    F = ctx.eigenbasis_obs
    xc = ctx.observed - fpca.mean[: ctx.m - 1]
    fit = xc - F @ coeffs
    dev = coeffs - ctx.ts_scores
    return float(fit @ fit + lam * (dev @ dev))


def _lam_for_alpha(lam, alpha: float) -> float:
    if isinstance(lam, dict):
        if alpha not in lam:
            raise ConfigError(f"no shrinkage value supplied for alpha={alpha}")
        return _check_lambda(lam[alpha])
    return _check_lambda(lam)


def _pls_bounds(
    ctx: UpdateContext,
    fpca: FpcaModel,
    future_scores: np.ndarray,
    late_resid_t: np.ndarray,
    lams: Sequence[float],
    alpha_levels: Sequence[float],
) -> dict:
    """Bounds of the rest of the day per shrinkage value: alpha -> (lo, hi), each (L, c).

    Each of the B score draws in ``future_scores`` (B, K) is shrunk
    against the observed block with each of the L values, rebuilt on the c
    updating columns and perturbed by its residual row in ``late_resid_t``
    (c, B).  The (L, c, B) stack keeps the replicates last, so the one
    sort runs along contiguous memory.
    """
    if future_scores.shape[1] != ctx.eigenbasis_obs.shape[1]:
        raise DataError("replicates were drawn from a different component model")
    curves = _rebuild_late(ctx, fpca, _pls_betas(ctx, fpca, lams, future_scores.T))
    curves += late_resid_t
    curves.sort(axis=-1)
    return sorted_intervals(curves, alpha_levels, axis=-1)


def pls_interval_update(
    ctx: UpdateContext,
    lam,
    fpca: FpcaModel,
    reps: SieveReplicates,
    alpha_levels: Sequence[float] = (0.2, 0.05),
) -> dict:
    """Prediction intervals for the rest of the day from bootstrap score draws.

    Each replicate's forecast-score draw is shrunk against the actually
    observed block exactly as the point update is, rebuilt on the
    updating grid, and perturbed by that replicate's resampled residual
    curve; intervals are empirical quantiles across replicates.  ``lam``
    may be a scalar or a per-alpha mapping.
    """
    lam_of = {a: _lam_for_alpha(lam, a) for a in alpha_levels}
    lams = sorted(set(lam_of.values()))
    if 0.0 in lams:
        _require_full_rank(ctx.eigenbasis_obs, ctx.m)
    late_resid_t = reps.resid_pool[reps.future_resid_idx, ctx.updating_cols[:, None]]
    bounds = _pls_bounds(ctx, fpca, reps.future_scores, late_resid_t, lams, alpha_levels)
    return {
        a: tuple(_freeze(b[lams.index(lam_of[a])]) for b in bounds[a])
        for a in alpha_levels
    }


# ---------------------------------------------------------------------------
# function-on-function linear regression
# ---------------------------------------------------------------------------


def block_weight(npoints: int) -> float:
    """Rectangle-rule weight of a sub-block (weight 1 for a single point)."""
    return 1.0 / (npoints - 1) if npoints >= 2 else 1.0


def _solve_link(gram: np.ndarray, cross: np.ndarray):
    """Least-squares linkage of late scores on early scores, for one series or a stack.

    ``gram`` (..., R, R) holds the Gram matrices ``theta' theta`` of the
    early scores and ``cross`` (..., R, S) their products ``theta'
    vartheta`` with the late scores.  Returns ``(link, ridged)``: the
    (..., R, S) links and a boolean array over the leading axes (0-d for
    one series).  A numerically singular Gram matrix gets a ridge floor
    proportional to its trace and is flagged; where the trace is 0 (early
    scores identically zero) the link is zero.  A call that ridges any fit
    warns once.
    """
    evals = np.linalg.eigvalsh(gram)
    ridged = (evals[..., -1] <= 0.0) | (evals[..., 0] <= 1e-12 * evals[..., -1])
    if ridged.any():
        trace = np.trace(gram, axis1=-2, axis2=-1)
        zero = (trace <= 0.0)[..., None, None]
        eye = np.eye(gram.shape[-1])
        gram = np.where(zero, eye, gram + (ridged * LINK_RIDGE * trace)[..., None, None] * eye)
        cross = np.where(zero, 0.0, cross)
        warnings.warn(
            f"early-score Gram matrix singular in {int(ridged.sum())} of {ridged.size} "
            f"linkage fits; ridge floor applied ({int(zero.sum())} with identically zero "
            "early scores linked to zero)"
        )
    return np.linalg.solve(gram, cross), ridged


@dataclass(frozen=True)
class FlrModel:
    """Block decompositions and the fitted early-to-late score linkage."""

    split: int
    early_mean: np.ndarray
    late_mean: np.ndarray
    early_basis: np.ndarray   # (m - 1, R)
    late_basis: np.ndarray    # (tau - m, S)
    early_weight: float
    late_weight: float
    link: np.ndarray          # (R, S)
    ridged: bool

    @property
    def num_early(self) -> int:
        return self.early_basis.shape[1]

    @property
    def num_late(self) -> int:
        return self.late_basis.shape[1]


def flr_fit(
    fts: FunctionalTimeSeries,
    m: int,
    num_early: Optional[int] = None,
    num_late: Optional[int] = None,
) -> FlrModel:
    """Fit block component analyses and the early-to-late score regression."""
    d = fts.grid.curve_size
    tau = fts.grid.tau
    ecols = observed_columns(tau, m)
    lcols = updating_columns(tau, m)
    w_e = block_weight(ecols.size)
    w_l = block_weight(lcols.size)
    e_mean, e_phi, e_vals, e_scores, e_degen = weighted_pca(fts.values[:, ecols], w_e)
    l_mean, l_phi, l_vals, l_scores, l_degen = weighted_pca(fts.values[:, lcols], w_l)
    n = fts.n
    if num_early is None:
        num_early = 1 if e_degen else select_num_components(e_vals, n)
    if num_late is None:
        num_late = 1 if l_degen else select_num_components(l_vals, n)
    if not 1 <= num_early <= e_vals.size or not 1 <= num_late <= l_vals.size:
        raise DataError(
            f"block ranks ({num_early}, {num_late}) outside the available "
            f"({e_vals.size}, {l_vals.size})"
        )
    theta = e_scores[:, :num_early]
    link, ridged = _solve_link(theta.T @ theta, theta.T @ l_scores[:, :num_late])
    return FlrModel(
        split=m,
        early_mean=_freeze(e_mean),
        late_mean=_freeze(l_mean),
        early_basis=_freeze(e_phi[:, :num_early]),
        late_basis=_freeze(l_phi[:, :num_late]),
        early_weight=w_e,
        late_weight=w_l,
        link=_freeze(link),
        ridged=bool(ridged),
    )


def _early_projection(model: FlrModel, observed: np.ndarray) -> np.ndarray:
    observed = np.asarray(observed, dtype=float)
    ne = model.early_basis.shape[0]
    if observed.shape != (ne,):
        raise DataError(f"observed block has shape {observed.shape}, expected ({ne},)")
    if not np.isfinite(observed).all():
        raise DataError("observed block contains non-finite values")
    return model.early_weight * ((observed - model.early_mean) @ model.early_basis)


def flr_update(model: FlrModel, observed: Sequence[float]) -> np.ndarray:
    """Forecast of the remaining block implied by the observed block."""
    theta_new = _early_projection(model, observed)
    return model.late_mean + (theta_new @ model.link) @ model.late_basis.T


def _bootstrap_links(model: FlrModel, reps: SieveReplicates):
    """Every replicate's early-to-late linkage on the fitted block bases: ``(links, ridged)``.

    Equals :func:`_solve_link` on the replicates' projected early and late
    blocks, without building them.  Projected on both bases side by side
    (R + S columns), day t of pseudo-series b is ``z_t = L^T (1, s_t) +
    P[idx_t]``: L stacks the projected mean offset over the projected
    component functions and P is the projected residual pool.  With the
    replicate set's cached pool statistics (pool counts and drawn scores
    U_b, Gram matrix G_b of the scores with a ones column), the first R
    rows of ``sum_t z_t z_t^T`` are ``L^T (G_b L + U_b P) + (U_b P)^T L``
    plus the counts times the pool's pairwise column products, all from
    one stacked product of U_b with P and those products and three small
    stacked products over the 1 + K score rows.  Every sum is per
    replicate, so a replicate's link depends on its own draws alone.
    """
    R, C = model.num_early, model.num_early + model.num_late
    tally, score_gram = reps._pool_stats
    # both weighted block bases on the whole grid, which the m - 1 observed
    # columns and the late ones after them partition
    split = model.early_basis.shape[0]
    bw = np.zeros((reps.mean.shape[0], C))
    bw[:split, :R] = model.early_weight * model.early_basis
    bw[split:, R:] = model.late_weight * model.late_basis
    lift = np.empty((tally.shape[1], C))
    lift[0] = (reps.mean - np.concatenate([model.early_mean, model.late_mean])) @ bw
    lift[1:] = reps.eigenfunctions.T @ bw
    pool = np.empty((reps.resid_pool.shape[0], C + R * C))
    proj = np.matmul(reps.resid_pool, bw, out=pool[:, :C])
    pool[:, C:] = (proj[:, :R, None] * proj[:, None, :]).reshape(-1, R * C)
    moments = np.matmul(tally, pool)  # (B, 1 + K, C + R C)
    drawn = moments[:, :, :C]  # U_b P
    outer = moments[:, 0, C:].reshape(-1, R, C)  # sum_t p_t[:R] p_t^T
    outer += np.matmul(lift[:, :R].T, drawn + np.matmul(score_gram, lift))
    outer += np.matmul(drawn[:, :, :R].transpose(0, 2, 1), lift)
    return _solve_link(outer[:, :, :R], outer[:, :, R:])


def flr_interval_update(
    model: FlrModel,
    observed: Sequence[float],
    reps: SieveReplicates,
    alpha_levels: Sequence[float] = (0.2, 0.05),
) -> dict:
    """Prediction intervals for the remaining block via bootstrap linkages.

    Each replicate's pseudo-series is projected on the fitted block bases
    and its own linkage re-estimated (from the replicate set's pool
    statistics, which the first call builds and later calls reuse); the
    observed block is pushed through every bootstrap linkage and the
    replicate's resampled residual curve (restricted to the remaining
    block) is added before taking empirical quantiles.
    """
    lcols = updating_columns(reps.mean.shape[0] + 1, model.split)
    theta_obs = _early_projection(model, observed)
    links, _ = _bootstrap_links(model, reps)  # (B, R, S)
    preds = np.matmul(np.matmul(theta_obs, links)[:, None], model.late_basis.T)[:, 0]
    curves = model.late_mean + preds + reps.resid_pool[reps.future_resid_idx[:, None], lcols]
    curves.sort(axis=0)
    return {
        a: (_freeze(lo), _freeze(hi))
        for a, (lo, hi) in sorted_intervals(curves, alpha_levels).items()
    }


# ---------------------------------------------------------------------------
# one intraday update of a fitted day
# ---------------------------------------------------------------------------


def _update_period(day: _Day, method: str, observed, lam, lam_by_alpha, reps, alpha_levels):
    """The rest of a fitted day from its observed block: ``(point, intervals)``.

    ``method`` is "PLS" (shrinkage ``lam`` for the point, ``lam_by_alpha``
    per alpha for the intervals), "OLS" or "FLR".  PLS and FLR take
    intervals at ``alpha_levels`` from ``reps`` unless it is None; OLS has
    none.  Both are computed before either is returned, so a caller
    records the whole period or, on an error, none of it.
    """
    if method == "FLR":
        flr = flr_fit(day.train, len(observed) + 1)
        point = flr_update(flr, observed)
        return point, {} if reps is None else flr_interval_update(flr, observed, reps, alpha_levels)
    ctx = _context(day.fpca, day.ts_scores, observed)
    if method == "OLS":
        return ols_update(ctx, day.fpca), {}
    point = pls_update(ctx, lam, day.fpca)
    if reps is None:
        return point, {}
    return point, pls_interval_update(ctx, lam_by_alpha, day.fpca, reps, alpha_levels)


# ---------------------------------------------------------------------------
# shrinkage tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaSchedule:
    """Tuned shrinkage per updating period.

    ``point`` maps m to the squared-error-optimal value; ``interval``
    maps each alpha level to such a mapping tuned by mean interval score.
    """

    point: Optional[dict] = None
    interval: Optional[dict] = None
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID

    def point_lambda(self, m: int) -> float:
        if self.point is None or m not in self.point:
            raise ConfigError(f"no point-tuned shrinkage for updating period m={m}")
        return self.point[m]

    def interval_lambda(self, alpha: float, m: int) -> float:
        if self.interval is None or alpha not in self.interval or m not in self.interval[alpha]:
            raise ConfigError(f"no interval-tuned shrinkage for alpha={alpha}, m={m}")
        return self.interval[alpha][m]


def _schedule_doc(schedule: LambdaSchedule) -> dict:
    return envelope("lambda_schedule", SCHEDULE_SCHEMA_VERSION, {
        "lambda_grid": list(schedule.lambda_grid),
        "point": None if schedule.point is None else dict(sorted(schedule.point.items())),
        "interval": None
        if schedule.interval is None
        else {a: dict(sorted(per_m.items())) for a, per_m in schedule.interval.items()},
    })


def _schedule_from_doc(doc) -> LambdaSchedule:
    check_doc(doc, "lambda_schedule", SCHEDULE_SCHEMA_VERSION)
    with reading("lambda_schedule"):
        point = decode_keys(doc.get("point"))
        interval = decode_keys(doc.get("interval"))
        return LambdaSchedule(
            point=None if point is None else {m: float(v) for m, v in point.items()},
            interval=None
            if interval is None
            else {a: {m: float(v) for m, v in per_m.items()} for a, per_m in interval.items()},
            lambda_grid=tuple(doc.get("lambda_grid", DEFAULT_LAMBDA_GRID)),
        )


def schedule_to_json(schedule: LambdaSchedule) -> str:
    return dump_doc(_schedule_doc(schedule))


def schedule_from_json(text: str) -> LambdaSchedule:
    return _schedule_from_doc(load_doc(text, "lambda_schedule", SCHEDULE_SCHEMA_VERSION))


def normalize_lambda_grid(lambda_grid: Sequence[float]) -> tuple:
    """Sorted distinct shrinkage candidates.

    An empty grid, or one holding a value :func:`pls_coefficients` would
    reject, is a configuration error.
    """
    grid = tuple(sorted(set(_check_lambda(v) for v in lambda_grid)))
    if not grid:
        raise ConfigError("shrinkage grid is empty")
    return grid


def _resolve_periods(periods: Optional[Sequence[int]], tau: int) -> tuple:
    """Sorted distinct updating periods, checked; None means every one, 2..tau-1."""
    periods = range(2, tau) if periods is None else sorted(set(int(m) for m in periods))
    for m in periods:
        if not 2 <= m < tau:
            raise ConfigError(f"updating period m={m} outside 2..{tau - 1}")
    return tuple(periods)


def _argmin_grid(totals: np.ndarray, grid: tuple) -> float:
    """Grid value with the lowest case-averaged score (smallest on ties)."""
    means = totals.mean(axis=-1)
    if not np.isfinite(means).any():
        raise NumericalError("no feasible shrinkage value on the grid")
    return grid[int(np.argmin(means))]


def tune_lambda(
    fts: FunctionalTimeSeries,
    train_size: int = 150,
    validation_size: int = 50,
    objective: str = "msfe",
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    periods: Optional[Sequence[int]] = None,
    num_components: Optional[int] = None,
    max_order: int = 10,
    bootstrap: Optional[BootstrapConfig] = None,
    failures: Optional[list] = None,
) -> LambdaSchedule:
    """Tune the shrinkage schedule on an expanding-window validation slice.

    Days ``train_size .. train_size + validation_size - 1`` are forecast
    one at a time with models refit on all prior days; the grid value
    minimizing the chosen objective, averaged over validation days, is
    kept per updating period.  ``objective`` is ``"msfe"`` (point
    schedule), ``"interval_score"`` (per-alpha interval schedule, needs
    ``bootstrap``, default :class:`BootstrapConfig`) or ``"both"``, which
    fills both schedules from one pass and equals the two single calls,
    except that a day whose replicate draw fails is dropped from both
    schedules (``"msfe"`` alone never draws).  A validation day that
    cannot be fitted is left out of every average; if every day is,
    :class:`NumericalError` is raised.  Each dropped day is appended to
    ``failures``, when given, as ``{"day", "stage": "tune", "error"}``.

    The pass streams: each validation day is fitted once, its replicates'
    index draws (seed ``derive_seed(bootstrap.seed, 1, day)``) are made
    once and only the future score draws and residual rows are kept (no
    pseudo-series is built), every period is scored for the whole grid,
    and the day is dropped.  Memory is bounded by one day's index draws
    plus a (periods, 1 + alphas, grid, days) score table.
    """
    from .evalharness import interval_score

    if objective not in ("msfe", "interval_score", "both"):
        raise ConfigError(f"unknown tuning objective {objective!r}")
    if train_size < 3 or validation_size < 1:
        raise ConfigError(
            f"bad tuning split: train_size={train_size}, validation_size={validation_size}"
        )
    if train_size + validation_size > fts.n:
        raise ConfigError(
            f"tuning split needs {train_size + validation_size} days, have {fts.n}"
        )
    grid = normalize_lambda_grid(lambda_grid)
    periods = _resolve_periods(periods, fts.grid.tau)
    want_point = objective != "interval_score"
    want_interval = objective != "msfe"
    if want_interval and bootstrap is None:
        bootstrap = BootstrapConfig()
    alphas = bootstrap.alpha_levels if want_interval else ()

    def draw(day, v):
        if want_interval:  # the future draws alone: no pseudo-series is built
            seed = derive_seed(bootstrap.seed, 1, v)
            _, future_scores, _, rows = _draws(day.fpca, day.var, seed, bootstrap.num_replicates)
            return future_scores, (day.fpca.residuals - day.fpca.residuals.mean(axis=0)).T[:, rows]

    P, L = len(periods), len(grid)
    by_day = []
    failures = [] if failures is None else failures
    first = len(failures)
    days = range(train_size, train_size + validation_size)
    for v, day, drawn in _walk_days(fts, days, num_components, max_order, draw, failures, "tune"):
        actual = fts.values[v]
        # the point score, then one interval score per alpha, for each grid value
        scores = np.full((P, 1 + len(alphas), L), np.inf)
        for i, m in enumerate(periods):
            ctx = _context(day.fpca, day.ts_scores, actual[: m - 1])
            actual_late = actual[m - 1 :]
            # every grid value the case can use, batched; exact least squares
            # needs a full-rank observed basis, and a value left out scores inf
            start = 0
            if grid[0] == 0.0:
                try:
                    _require_full_rank(ctx.eigenbasis_obs, m)
                except NumericalError:
                    start = 1
            if start == L:
                continue
            if want_point:
                betas = _pls_betas(ctx, day.fpca, grid[start:], ctx.ts_scores[:, None])
                preds = _rebuild_late(ctx, day.fpca, betas)[..., 0]
                scores[i, 0, start:] = np.mean((preds - actual_late) ** 2, axis=-1)
            if want_interval:
                future_scores, resid_t = drawn
                late_t = resid_t[ctx.updating_cols]
                bounds = _pls_bounds(ctx, day.fpca, future_scores, late_t, grid[start:], alphas)
                for k, a in enumerate(alphas):
                    scores[i, 1 + k, start:] = interval_score(*bounds[a], actual_late, a).mean(-1)
        by_day.append(scores)
    if not by_day:
        raise NumericalError(
            f"every validation day failed; first error: {failures[first]['error']}"
        )

    table = np.stack(by_day, axis=-1)  # (periods, 1 + alphas, grid, days)
    point = interval = None
    if want_point:
        point = {m: _argmin_grid(table[i, 0], grid) for i, m in enumerate(periods)}
    if want_interval:
        interval = {
            a: {m: _argmin_grid(table[i, 1 + k], grid) for i, m in enumerate(periods)}
            for k, a in enumerate(alphas)
        }
    return LambdaSchedule(point=point, interval=interval, lambda_grid=grid)
