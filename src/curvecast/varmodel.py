"""Vector autoregression for component scores, fit in both time directions.

The forward model drives point forecasts; the backward (time-reversed)
model lets bootstrap pseudo-series be built backward from the observed
end of the sample so that replicates stay anchored to the most recent
days.  Backward innovations are obtained from resampled forward
innovations through the two-sided lag-operator transfer implemented in
:func:`backward_innovation_transfer`: the forward VAR recursion is run
over the padded innovations and the backward lag polynomial is applied to
its output.  The moving-average expansion only fixes how many pre-sample
innovations pad the front of the sequence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .gridcurves import _freeze

#: companion spectral radius at or above which the fit is unusable for bootstrapping
STATIONARITY_LIMIT = 0.999

#: moving-average expansion is truncated once a coefficient norm drops below this
PSI_TOLERANCE = 1e-10

#: ridge added to the innovation covariance before taking its log-determinant
LOGDET_RIDGE = 1e-12

DEFAULT_MAX_ORDER = 10


@dataclass(frozen=True)
class VarModel:
    """Least-squares VAR(p) without intercept, plus its time-reversed twin.

    ``coeffs`` and ``backward_coeffs`` have shape (p, K, K); lag ``xi``
    multiplies the score vector ``xi`` steps away.  ``residuals`` holds
    the n - p forward residuals, ``sigma`` their covariance with divisor
    n - p.  ``psi`` is the truncated moving-average expansion of the
    forward model (None when the fit is not stationary enough to expand).
    The backward transfer uses only its length: ``psi.shape[0] - 1`` is
    the number M of pre-sample innovations that pad each replicate.
    """

    order: int
    coeffs: np.ndarray
    residuals: np.ndarray
    backward_coeffs: np.ndarray
    backward_residuals: np.ndarray
    sigma: np.ndarray
    nobs: int
    spectral_radius: float
    psi: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def is_stationary(self) -> bool:
        return self.spectral_radius < STATIONARITY_LIMIT

    @property
    def centered_residuals(self) -> np.ndarray:
        """Forward residuals minus their column means (the resampling pool)."""
        return self.residuals - self.residuals.mean(axis=0)


def companion_spectral_radius(coeffs: np.ndarray) -> float:
    """Largest eigenvalue modulus of the companion matrix of ``coeffs``."""
    coeffs = np.asarray(coeffs, dtype=float)
    p, K, _ = coeffs.shape
    comp = np.zeros((p * K, p * K))
    comp[:K] = coeffs.transpose(1, 0, 2).reshape(K, p * K)
    if p > 1:
        comp[K:, :-K] = np.eye((p - 1) * K)
    return float(np.abs(np.linalg.eigvals(comp)).max())


def _solve_ls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares via SVD with an explicit singularity check."""
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= 1e-12 * s[0]:
        cond = math.inf if s[-1] == 0.0 else s[0] / s[-1]
        raise NumericalError(f"singular regression design (condition number {cond:.3e})")
    return vt.T @ ((u.T @ target) / s[:, None])


def _ma_expansion(coeffs: np.ndarray) -> np.ndarray:
    """Moving-average coefficients of the VAR, truncated once a term's norm is below tolerance.

    Callers expand only fits below ``STATIONARITY_LIMIT``, whose terms
    decay geometrically, so the loop ends: a scalar AR(1) at 0.998 stops
    after 11,502 terms.
    """
    p, K, _ = coeffs.shape
    psi = [np.eye(K)]
    while True:
        j = len(psi)
        acc = np.zeros((K, K))
        for xi in range(1, min(j, p) + 1):
            acc += coeffs[xi - 1] @ psi[j - xi]
        psi.append(acc)
        if np.linalg.norm(acc, "fro") < PSI_TOLERANCE:
            return np.array(psi)


def _regress(scores: np.ndarray, p: int, backward: bool = False):
    """Least squares of y_t on (y_{t-1}, ..., y_{t-p}), or (y_{t+1}, ..., y_{t+p}) backward:
    the (K*p, K) coefficients, the residuals and their covariance (divisor n - p)."""
    n = scores.shape[0]
    lags = range(1, p + 1)
    if backward:
        design, target = np.hstack([scores[xi : n - p + xi] for xi in lags]), scores[: n - p]
    else:
        design, target = np.hstack([scores[p - xi : n - xi] for xi in lags]), scores[p:]
    coef = _solve_ls(design, target)
    resid = target - design @ coef
    return coef, resid, (resid.T @ resid) / (n - p)


def fit_var(scores: np.ndarray, order: int) -> VarModel:
    """Fit a VAR(``order``) to the score matrix by multivariate least squares.

    ``scores`` has one row per day.  Requires ``n - order > K * order``
    so the no-intercept design has more rows than columns.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise DataError(f"scores must be 2-d, got shape {scores.shape}")
    n, K = scores.shape
    p = int(order)
    if p < 1:
        raise DataError(f"order must be >= 1, got {order}")
    if n - p <= K * p:
        raise DataError(
            f"not enough observations to identify VAR({p}) in {K} dims: n={n}"
        )

    fwd_coef, fwd_resid, sigma = _regress(scores, p)
    bwd_coef, bwd_resid, _ = _regress(scores, p, backward=True)

    coeffs = fwd_coef.reshape(p, K, K).transpose(0, 2, 1)
    backward = bwd_coef.reshape(p, K, K).transpose(0, 2, 1)
    radius = companion_spectral_radius(coeffs)
    psi = None
    if radius < STATIONARITY_LIMIT:
        psi = _freeze(_ma_expansion(coeffs))
    else:
        warnings.warn(
            f"fitted VAR({p}) has companion spectral radius {radius:.4f}; "
            "unusable for bootstrap resampling"
        )
    return VarModel(
        order=p,
        coeffs=_freeze(coeffs),
        residuals=_freeze(fwd_resid),
        backward_coeffs=_freeze(backward),
        backward_residuals=_freeze(bwd_resid),
        sigma=_freeze(sigma),
        nobs=n,
        spectral_radius=radius,
        psi=psi,
    )


def aicc(model: VarModel, n: Optional[int] = None) -> float:
    """Small-sample corrected information criterion of a fitted VAR."""
    return _aicc(model.sigma, model.nobs if n is None else n, model.order)


def _aicc(sigma: np.ndarray, n: int, p: int) -> float:
    K = sigma.shape[0]
    denom = n - K * (p + 1) - 1
    if denom <= 0:
        raise NumericalError(f"criterion undefined: n={n}, K={K}, p={p}")
    sign, logdet = np.linalg.slogdet(sigma + LOGDET_RIDGE * np.eye(K))
    if sign <= 0:
        raise NumericalError("innovation covariance is not positive definite")
    return float(n * logdet + n * (n * K + p * K * K) / denom)


def select_order(scores: np.ndarray, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """Lag order minimizing :func:`aicc` over 1..max_order (ties to the smallest).

    Each order is scored from :func:`fit_var`'s forward regression alone; an order
    whose backward regression is singular cannot be fitted and is skipped.
    """
    if max_order < 1:
        raise ConfigError(f"max_order must be >= 1, got {max_order}")
    scores = np.asarray(scores, dtype=float)
    n, K = scores.shape
    best_order, best_value = None, math.inf
    for p in range(1, max_order + 1):
        if n - p <= K * p or n - K * (p + 1) - 1 <= 0:
            continue
        try:
            value = _aicc(_regress(scores, p)[2], n, p)
            if value < best_value - 1e-12:  # only a new best needs its backward check
                _regress(scores, p, backward=True)
                best_value, best_order = value, p
        except NumericalError:
            continue
    if best_order is None:
        raise NumericalError(
            f"no identifiable lag order in 1..{max_order} for n={n}, K={K}"
        )
    return best_order


def forecast_scores(model: VarModel, history: np.ndarray) -> np.ndarray:
    """Conditional-mean forecast of the day after ``history``'s last row, shape (K,)."""
    history = np.asarray(history, dtype=float)
    if history.ndim != 2 or history.shape[1] != model.dim:
        raise DataError(
            f"history must be (>=p, {model.dim}), got shape {history.shape}"
        )
    p = model.order
    if history.shape[0] < p:
        raise DataError(f"history has {history.shape[0]} rows, need at least p={p}")
    step = np.zeros(model.dim)
    for xi in range(1, p + 1):
        step += model.coeffs[xi - 1] @ history[-xi]
    return step


def _presample(model: VarModel) -> int:
    """M >= 1, the pre-sample innovations of a replicate; raises if the fit cannot be resampled."""
    if not model.is_stationary:
        raise NumericalError(
            f"companion spectral radius {model.spectral_radius:.4f} too close to 1; "
            "bootstrap resampling rejected"
        )
    if model.psi is None:
        raise NumericalError("moving-average expansion unavailable")
    return model.psi.shape[0] - 1


def backward_innovation_transfer(
    model: VarModel,
    innovations: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Convert resampled forward innovations into backward-model innovations.

    Pads the innovation sequence with M = ``len(model.psi) - 1`` draws in
    front and p behind, runs the forward VAR recursion over it from zero
    initial values, drops the first M outputs, and applies the backward
    lag polynomial in the reversed time direction.  The kept outputs equal
    the moving-average filter truncated after psi_M plus the tail of psi
    terms past M, where the expansion has already decayed below
    ``PSI_TOLERANCE``; the result therefore drifts from the truncated
    filter by that tail (measured at 2e-10 to 4e-10 on unit-scale
    scores).  The padding is drawn from the model's centered forward
    residuals; padding with zeros would shrink the variance of the first
    and last few outputs.
    """
    M = _presample(model)
    innovations = np.asarray(innovations, dtype=float)
    if innovations.ndim != 2 or innovations.shape[1] != model.dim:
        raise DataError(
            f"innovations must be (T, {model.dim}), got shape {innovations.shape}"
        )
    pool = model.centered_residuals
    pre = pool[rng.integers(0, pool.shape[0], size=M)]
    post = pool[rng.integers(0, pool.shape[0], size=model.order)]
    extended = np.vstack([pre, innovations, post])
    return _transfer_padded(model, extended[:, None])[:, 0]


def _recurse(z: np.ndarray, coeffs: np.ndarray, start: int) -> None:
    """Run ``z[t] += sum_xi z[t - xi] @ coeffs[xi - 1].T`` in place for t >= ``start``, skipping
    lags before step 0; ``z`` is time-major, (steps, B, K).  The forward transfer starts at step 1;
    the backward rebuild runs the backward coefficients on the reversed view from step p."""
    for t in range(start, z.shape[0]):
        for xi in range(1, min(t, coeffs.shape[0]) + 1):
            z[t] += z[t - xi] @ coeffs[xi - 1].T


def _transfer_padded(model: VarModel, extended: np.ndarray) -> np.ndarray:
    """Vectorized transfer on pre-padded innovations, time-major.

    ``extended`` is (M+T+p, B, K) floats, one (B, K) block per time step,
    and the result has shape (T, B, K).  Runs the forward recursion
    ``z_t = e_t + sum_xi A_xi z_{t-xi}`` from zeros over all M+T+p steps in
    place, overwriting ``extended`` (callers pass a fresh array), keeps
    ``zeta = z[M:]`` and applies the backward lag polynomial to it.  ``zeta``
    equals the moving-average filter of the innovations truncated after
    psi_M plus the psi tail past M, which is below ``PSI_TOLERANCE``.
    """
    M = _presample(model)
    p = model.order
    T = extended.shape[0] - M - p
    _recurse(extended, model.coeffs, 1)
    zeta = extended[M:]
    eta = zeta[:T].copy()
    for xi in range(1, p + 1):
        eta -= zeta[xi : xi + T] @ model.backward_coeffs[xi - 1].T
    return eta
