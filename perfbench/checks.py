"""Output digests and the one tolerance they are compared with.

Each output vector x (a forecast bound, a CLI JSON array, a list of
backtest metrics) is stored as its digest ``[len(x), sum(x), sum(w*x),
sum(|x|)]`` with fixed weights ``w_j = cos(0.7 j + 0.3)``.  A run matches
the reference when the lengths are equal and each of the other three
entries lies within ``TOLERANCE * max(sum(|r|), 1)`` of the reference r.

Why 1e-6: a drift of 3e-10 per element, the size ROADMAP item 4a expects
from running the innovation transfer as a recursion, moves a digest by at
most 3e-10 * 74 = 2.2e-8 on the widest grid here, far inside.  A changed
quantile rule moves bounds by a fraction of the spacing between order
statistics (about 1e-2 here) and a changed seed path redraws every
replicate; either moves the digests by orders of magnitude more.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-6


def digest(values) -> list:
    x = np.asarray(values, dtype=float).ravel()
    w = np.cos(0.7 * np.arange(x.size) + 0.3)
    return [x.size, float(x.sum()), float(x @ w), float(np.abs(x).sum())]


def digest_matches(got, ref, tol: float = TOLERANCE) -> bool:
    if len(got) != 4 or len(ref) != 4 or got[0] != ref[0]:
        return False
    if not all(math.isfinite(v) for v in got[1:]):
        return False
    limit = tol * max(abs(ref[3]), 1.0)
    return all(abs(g - r) <= limit for g, r in zip(got[1:], ref[1:]))


def mismatches(got: dict, ref: dict, tol: float = TOLERANCE) -> list:
    """Names of outputs that are missing, extra or outside the tolerance."""
    bad = sorted(set(got) ^ set(ref))
    bad += [k for k in sorted(set(got) & set(ref)) if not digest_matches(got[k], ref[k], tol)]
    return bad
