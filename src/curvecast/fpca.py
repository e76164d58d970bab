"""Functional principal component analysis on the discrete curve grid.

The covariance of the centered curves is eigendecomposed under the
rectangle-rule inner product, giving component functions orthonormal in
that metric and component scores whose sample variances (divisor ``n``)
equal the eigenvalues.  The number of retained components is picked by an
eigenvalue-ratio rule unless fixed explicitly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._docs import dump_doc, envelope
from .errors import ConfigError, DataError
from .gridcurves import FunctionalTimeSeries, _freeze

#: relative threshold below which trailing eigenvalues are treated as zero
EIGENVALUE_CLIP = 1e-12

FPCA_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FpcaModel:
    """Fitted functional PCA.

    Attributes
    ----------
    mean : (d,) array
        Pointwise average curve, d = tau - 1.
    eigenfunctions : (d, K_full) array
        Component functions, orthonormal under the weighted inner product.
    eigenvalues : (K_full,) array
        Non-increasing, non-negative component variances.
    scores : (n, K_full) array
        Component scores of the training curves.
    residuals : (n, d) array
        Training curves minus the rank-``num_components`` reconstruction.
    num_components : int
        Retained rank used for forecasting and residuals.
    quad_weight : float
        Rectangle-rule weight of the fitting grid.
    degenerate : bool
        True when the curves carried no variance at all.
    """

    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    scores: np.ndarray
    residuals: np.ndarray
    num_components: int
    quad_weight: float
    nobs: int
    degenerate: bool = False

    @property
    def full_rank(self) -> int:
        return self.eigenfunctions.shape[1]

    @property
    def grid_size(self) -> int:
        return self.mean.shape[0]


def select_num_components(eigenvalues, n: int):
    """Pick the retained rank by the eigenvalue-ratio rule.

    Over candidate ranks ``k = 1..k_max`` the objective is the ratio of
    successive eigenvalues when the k-th eigenvalue is still a
    non-negligible share of the first one, and 1 otherwise; the rank with
    the smallest objective wins, ties going to the smallest rank.
    ``k_max`` counts the eigenvalues at least as large as the average
    total variance per training curve.  A ratio whose numerator falls
    past the end of the spectrum counts as the non-informative value 1.

    A 1-d spectrum gives an int.  A (B, d) stack of spectra, one per row,
    gives a (B,) int array, each row ranked as it would be alone.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.ndim not in (1, 2) or ev.shape[-1] == 0:
        raise DataError("eigenvalues must be a non-empty 1-d sequence or a 2-d stack of them")
    if n < 2:
        raise DataError(f"need sample size n >= 2, got {n}")
    stack = ev.reshape(-1, ev.shape[-1])
    lead = stack[:, :1]
    if (np.diff(stack, axis=1) > 1e-9 * np.maximum(np.abs(lead), 1.0)).any():
        raise DataError("eigenvalues must be non-increasing")
    flat = lead[:, 0] <= 0.0
    if flat.any():
        warnings.warn("all eigenvalues are zero; defaulting to a single component")
    threshold = stack.sum(axis=1, keepdims=True) / n
    k_max = np.maximum(1, (stack >= threshold).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        upsilon = 1.0 / np.log(np.maximum(lead, n))
        informative = stack / lead >= upsilon
        ratio = stack[:, 1:] / stack[:, :-1]
    objective = np.ones_like(stack)
    objective[:, :-1] = np.where(informative[:, :-1], ratio, 1.0)
    objective[np.arange(stack.shape[1]) >= k_max[:, None]] = np.inf
    ranks = np.where(flat, 1, np.argmin(objective, axis=1) + 1)
    return int(ranks[0]) if ev.ndim == 1 else ranks


def _fix_signs(phi: np.ndarray, w: float) -> np.ndarray:
    """Deterministic sign: weighted integral positive, else first big coordinate.

    A column is flipped when its weighted integral is negative and not
    negligible (beyond 1e-10 of its largest magnitude, or of 1), and when
    the integral is negligible but its first entry beyond that threshold
    is negative.  Each column is summed as a contiguous row, so every
    integral is the one-column sum bit for bit.
    """
    rows = np.ascontiguousarray(phi.T)
    integral = w * rows.sum(axis=1)
    mag = np.abs(rows)
    tol = 1e-10 * np.maximum(mag.max(axis=1), 1.0)
    big = mag > tol[:, None]
    first = np.where(big.any(axis=1), rows[np.arange(rows.shape[0]), big.argmax(axis=1)], 0.0)
    lead = np.where(np.abs(integral) > tol, integral, first)
    return np.where(lead < 0, -phi, phi)


def weighted_pca(values: np.ndarray, weight: float):
    """Eigendecompose the covariance of ``values`` under a rectangle-rule weight.

    Returns ``(mean, eigenfunctions, eigenvalues, scores, degenerate)``.
    The covariance uses divisor ``n``; trailing eigenvalues below
    ``EIGENVALUE_CLIP`` times the largest are dropped along with their
    eigenfunctions, capping the rank at ``min(n - 1, grid size)``.
    """
    X = np.asarray(values, dtype=float)
    n, d = X.shape
    if n < 2:
        raise DataError(f"need at least 2 days to fit, got {n}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / n
    evals, evecs = np.linalg.eigh(weight * cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evals = np.where(evals < 0.0, 0.0, evals)

    degenerate = bool(evals[0] <= 0.0)
    if degenerate:
        rank = 1
        warnings.warn("curves carry no variance; functional PCA is degenerate")
    else:
        cap = min(n - 1, d)
        positive = int((evals > EIGENVALUE_CLIP * evals[0]).sum())
        rank = max(1, min(cap, positive))
    evals = evals[:rank]
    evecs = evecs[:, :rank]

    phi = _fix_signs(evecs / math.sqrt(weight), weight)
    scores = centered @ (weight * phi)
    return mean, phi, evals, scores, degenerate


def fit_fpca(
    fts: FunctionalTimeSeries, num_components: Optional[int] = None
) -> FpcaModel:
    """Fit functional PCA to a curve time series.

    ``num_components`` fixes the retained rank; when omitted it is chosen
    by :func:`select_num_components`.
    """
    n = fts.n
    w = fts.grid.quad_weight
    mean, phi, evals, scores, degenerate = weighted_pca(fts.values, w)
    rank = evals.size
    centered = fts.values - mean

    if num_components is None:
        K = 1 if degenerate else select_num_components(evals, n)
    else:
        K = int(num_components)
        if K < 1:
            raise ConfigError(f"num_components must be >= 1, got {K}")
        if K > rank:
            raise DataError(
                f"num_components={K} outside the available rank 1..{rank}"
            )
    residuals = centered - scores[:, :K] @ phi[:, :K].T
    return FpcaModel(
        mean=_freeze(mean),
        eigenfunctions=_freeze(phi),
        eigenvalues=_freeze(evals),
        scores=_freeze(scores),
        residuals=_freeze(residuals),
        num_components=K,
        quad_weight=w,
        nobs=n,
        degenerate=degenerate,
    )


def reconstruct(model: FpcaModel, scores: np.ndarray) -> np.ndarray:
    """Curve implied by a score vector (any length up to the full rank)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or not 1 <= scores.size <= model.full_rank:
        raise DataError(
            f"scores must be 1-d with 1..{model.full_rank} entries, got shape {scores.shape}"
        )
    return model.mean + model.eigenfunctions[:, : scores.size] @ scores


def model_to_json(model: FpcaModel) -> str:
    """The fitted decomposition as JSON, for inspection (nothing reads it back)."""
    names = ("quad_weight", "num_components", "nobs", "degenerate", "mean", "eigenvalues",
             "eigenfunctions")
    body = {name: getattr(model, name) for name in names}
    return dump_doc(envelope("fpca_model", FPCA_SCHEMA_VERSION, body))
