"""Seeded synthetic curve processes with known structure.

Curves are built from a small number of smooth basis functions that are
exactly orthonormal under the grid's rectangle-rule inner product, with
factor scores following a stationary VAR and optional white observation
noise.  A linked variant generates the late part of each day from the
early part through a known linkage matrix, which is the regime the
intraday updating estimators are designed for.  Every draw returns the
ground truth alongside the curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gridcurves import FunctionalTimeSeries, IntradayGrid, _freeze, block_weight
from .varmodel import STATIONARITY_LIMIT

BURN_IN = 500


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic curve process.

    Scores follow a diagonal VAR(1) with per-factor AR(1) coefficients
    ``score_ar``.  ``innovation_sd`` scales independent Gaussian score
    innovations.  When ``link_split`` is set, the factors live on
    the early columns only and the late columns are generated as
    ``late = early_scores @ link_matrix + link noise`` on their own basis.
    Each configuration error begins with the name of the field at fault.
    """

    n: int
    tau: int
    num_factors: int = 2
    basis: str = "fourier"
    score_ar: tuple = (0.5, 0.3)
    innovation_sd: tuple = (1.0, 1.0)
    noise_sd: float = 0.1
    mean_scale: float = 0.0
    seed: int = 0
    link_split: Optional[int] = None
    link_matrix: Optional[tuple] = None
    num_late_factors: int = 2
    link_noise_sd: tuple = (0.3, 0.3)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ConfigError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        for name in ("innovation_sd", "link_noise_sd"):
            given = getattr(self, name)
            scales = np.asarray(given, dtype=float)
            if not (np.isfinite(scales) & (scales >= 0.0)).all():
                raise ConfigError(f"{name} entries must be finite and >= 0, got {given}")
        if self.tau < 3:
            raise ConfigError(f"tau must be >= 3, got {self.tau}")
        if self.num_factors < 1:
            raise ConfigError(f"num_factors must be >= 1, got {self.num_factors}")
        if self.basis not in ("fourier", "poly"):
            raise ConfigError(f"basis must be 'fourier' or 'poly', got {self.basis!r}")
        if self.link_split is not None and not 2 < self.link_split < self.tau:
            raise ConfigError(f"link_split must lie strictly between 2 and {self.tau}, "
                              f"got {self.link_split}")
        if self.link_split is not None and self.num_late_factors < 1:
            raise ConfigError(f"num_late_factors must be >= 1, got {self.num_late_factors}")
        m = self.link_split or self.tau  # the factors span m - 1 curve values, late ones tau - m
        if self.num_factors > m - 1:
            raise ConfigError(f"num_factors must be <= {m - 1} for this grid, "
                              f"got {self.num_factors}")
        if self.link_split is not None and self.num_late_factors > self.tau - m:
            raise ConfigError(f"num_late_factors must be <= {self.tau - m} for this grid, "
                              f"got {self.num_late_factors}")


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind a synthetic draw."""

    mean: np.ndarray
    factors: np.ndarray
    scores: np.ndarray
    var_matrices: np.ndarray
    innovation_cov: np.ndarray
    noise_sd: float
    link_split: Optional[int] = None
    link_matrix: Optional[np.ndarray] = None
    late_factors: Optional[np.ndarray] = None
    late_scores: Optional[np.ndarray] = None


def orthonormal_basis(npoints: int, weight: float, count: int, kind: str = "fourier") -> np.ndarray:
    """Smooth basis on ``npoints`` grid points, orthonormal under ``weight``.

    Starts from sinusoids (or monomials) and re-orthonormalizes twice by
    Gram-Schmidt so the discrete inner products are exact to roundoff.
    """
    if kind not in ("fourier", "poly"):
        raise ConfigError(f"unknown basis kind {kind!r}; expected 'fourier' or 'poly'")
    if count > npoints:
        raise ConfigError(f"cannot build {count} orthonormal functions on {npoints} points")
    x = np.linspace(0.0, 1.0, npoints)
    cols = []
    for k in range(count):
        if kind == "poly":
            cols.append(x**k)
        else:
            if k == 0:
                cols.append(np.ones(npoints))
            elif k % 2 == 1:
                cols.append(np.sin(2.0 * np.pi * ((k + 1) // 2) * x))
            else:
                cols.append(np.cos(2.0 * np.pi * (k // 2) * x))
    raw = np.column_stack(cols)
    basis = raw.copy()
    for _ in range(2):  # second pass removes roundoff left by the first
        for k in range(count):
            v = basis[:, k]
            for j in range(k):
                v = v - (weight * (basis[:, j] @ v)) * basis[:, j]
            norm = np.sqrt(weight * (v @ v))
            if norm < 1e-12:
                raise ConfigError(f"cannot build {count} independent functions on {npoints} points")
            basis[:, k] = v / norm
    return basis


def _simulate_scores(ar: np.ndarray, innov_sd: np.ndarray, n: int, rng) -> np.ndarray:
    """n days of per-factor AR(1) scores, ``out[t] = eps[t] + ar * out[t - 1]``, after a burn-in."""
    radius = float(np.abs(ar).max())
    if not radius < STATIONARITY_LIMIT:
        raise ConfigError(f"score_ar is not stationary (companion radius {radius:.4f})")
    out = rng.standard_normal((BURN_IN + n, ar.size)) * innov_sd
    for t in range(1, out.shape[0]):
        out[t] += ar * out[t - 1]
    return out[BURN_IN:]


def _mean_curve(d: int, scale: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(d)
    x = np.linspace(0.0, 1.0, d)
    return scale * (0.3 * x + np.sin(np.pi * x))


def generate(spec: SynthSpec):
    """Draw a synthetic curve series; returns ``(FunctionalTimeSeries, SynthTruth)``."""
    rng = np.random.default_rng(spec.seed)
    grid = IntradayGrid.regular(spec.tau)
    d = grid.curve_size
    K = spec.num_factors
    ar = np.asarray(spec.score_ar, dtype=float)
    if ar.shape != (K,):
        raise ConfigError(f"score_ar must have {K} entries, got {ar.shape}")
    innov_sd = np.asarray(spec.innovation_sd, dtype=float)
    if innov_sd.shape != (K,):
        raise ConfigError(f"innovation_sd must have {K} entries, got {innov_sd.shape}")
    mean = _mean_curve(d, spec.mean_scale)
    scores = _simulate_scores(ar, innov_sd, spec.n, rng)

    def basis(field, npoints, count):  # a dependent basis names its field
        try:
            return orthonormal_basis(npoints, block_weight(npoints), count, spec.basis)
        except ConfigError as exc:
            raise ConfigError(f"{field} must be smaller for this grid: {exc}") from None

    linked = {}
    if spec.link_split is None:
        factors = basis("num_factors", d, K)
        values = scores @ factors.T
    else:  # the early columns carry the factors, the late ones a noisy linkage of their scores
        m = spec.link_split
        S = spec.num_late_factors
        if spec.link_matrix is None:
            raise ConfigError("link_split requires link_matrix")
        rho = np.asarray(spec.link_matrix, dtype=float)
        if rho.shape != (K, S):
            raise ConfigError(f"link_matrix must have shape ({K}, {S}), got {rho.shape}")
        link_sd = np.asarray(spec.link_noise_sd, dtype=float)
        if link_sd.shape != (S,):
            raise ConfigError(f"link_noise_sd must have {S} entries, got {link_sd.shape}")
        n_early, n_late = m - 1, spec.tau - m
        factors = basis("num_factors", n_early, K)
        late_basis = basis("num_late_factors", n_late, S)
        late_scores = scores @ rho + link_sd * rng.standard_normal((spec.n, S))
        values = np.hstack([scores @ factors.T, late_scores @ late_basis.T])
        linked = dict(link_split=m, link_matrix=_freeze(rho), late_factors=_freeze(late_basis),
                      late_scores=_freeze(late_scores))
    values = values + mean
    if spec.noise_sd > 0:
        values = values + spec.noise_sd * rng.standard_normal((spec.n, d))
    truth = SynthTruth(
        mean=_freeze(mean),
        factors=_freeze(factors),
        scores=_freeze(scores),
        var_matrices=_freeze(np.diag(ar)[None]),
        innovation_cov=_freeze(np.diag(innov_sd**2)),
        noise_sd=spec.noise_sd,
        **linked,
    )
    return FunctionalTimeSeries(values, grid), truth
