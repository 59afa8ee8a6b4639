"""Soft region membership: Gaussian mass of a hyper-rectangle around a point."""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .data import Dataset
from .regions import Region

_SQRT2 = np.sqrt(2.0)


def normal_cdf(t):
    """Standard normal CDF via the complementary error function.

    erfc keeps full relative accuracy in the far tails, where the naive
    1 - Phi(t) form cancels catastrophically for |t| > 8.
    """
    return 0.5 * erfc(-np.asarray(t, dtype=float) / _SQRT2)


def interval_mass(x: np.ndarray, a: float, b: float, sigma: float) -> np.ndarray:
    """Mass a N(x, sigma^2) variable places in (a, b], per element of x:
    F(b) - F(a), with F the CDF Phi((t - x) / sigma), or the indicator
    1{x <= t} at sigma = 0 (so the mass is then 1{a < x <= b}).

    F is 1.0 at +inf and 0.0 at -inf, exactly what Phi returns there, so Phi
    is evaluated at finite bounds only.
    """
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return (x <= b).astype(float) - (x <= a)
    hi = normal_cdf((b - x) / sigma) if b < np.inf else np.ones_like(x)
    return hi - normal_cdf((a - x) / sigma) if a > -np.inf else hi


def membership_column(X: np.ndarray, region: Region, sigma: np.ndarray) -> np.ndarray:
    """Soft membership of every row of X in `region`: the product over
    coordinates of per-coordinate interval masses.

    A coordinate bounded on neither side has mass exactly 1 at every finite
    x, so only the bounded coordinates are multiplied in."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.ones(X.shape[0])
    for j in region.bounded():
        out *= interval_mass(X[:, j], region.lower[j], region.upper[j], sigma[j])
    return out


def membership_columns(X: np.ndarray, regions, sigma: np.ndarray):
    """Yield membership_column(X, r, sigma), bit for bit, for each r in regions.

    Phi((s - x_j) / sigma_j), or 1{x_j <= s} at sigma_j = 0, is evaluated once
    per row for each distinct finite bound s on coordinate j, in one call per
    coordinate; a column then multiplies hi - lo over its bounded coordinates
    in ascending j, with hi = 1 at +inf and lo = 0 at -inf. Only that table
    and the current column are held, never an n x len(regions) matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    bounds = np.array([r.lower for r in regions] + [r.upper for r in regions])
    cdf = {}
    for j in range(X.shape[1]):
        s = np.unique(bounds[np.isfinite(bounds[:, j]), j])
        if s.size == 0:
            continue
        xj = X[:, j]
        if sigma[j] == 0.0:
            F = (xj <= s[:, None]).astype(float)
        else:
            F = normal_cdf((s[:, None] - xj) / sigma[j])
        cdf.update(zip([(j, v) for v in s.tolist()], F))
    for region in regions:
        col = np.ones(X.shape[0])
        for j in region.bounded():
            col *= cdf.get((j, region.upper[j]), 1.0) - cdf.get((j, region.lower[j]), 0.0)
        yield col


def psi(x: np.ndarray, r: Region, sigma: np.ndarray) -> float:
    """Soft membership of a single point in a region; a value in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if x.shape != (r.p,):
        raise ValueError("point dimension does not match the region")
    if not np.isfinite(x).all():
        raise ValueError("point contains non-finite values")
    return float(membership_column(x[None, :], r, np.asarray(sigma, dtype=float))[0])


def build_membership(d: Dataset, regions, sigma) -> np.ndarray:
    """The n x K membership array of a dataset over K regions: column k
    holds every row's soft membership in regions[k]. Rows sum to 1 whenever
    the regions partition R^p."""
    regions = tuple(regions)
    if not regions:
        raise ValueError("at least one region is required")
    return np.column_stack(list(membership_columns(d.features, regions, sigma)))

