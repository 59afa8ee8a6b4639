"""Soft region membership: Gaussian mass of a hyper-rectangle around a point."""

from __future__ import annotations

from math import inf

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


def membership_column(X: np.ndarray, region: Region, sigma: np.ndarray) -> np.ndarray:
    """Soft membership of every row of X in `region`, by membership_columns."""
    return next(membership_columns(X, (region,), sigma))


def membership_columns(X: np.ndarray, regions, sigma: np.ndarray):
    """Yield the soft membership column of every row of X in each region (a
    `Region`, or anything else with `lower` and `upper` bound arrays): the
    product, over the region's bounded coordinates in ascending j, of the
    mass F(j, upper) - F(j, lower) of its interval (lower, upper].

    F(j, s) is Phi((s - x_j) / sigma_j), or 1{x_j <= s} at sigma_j = 0, and
    exactly 1 at s = +inf and 0 at s = -inf (a coordinate bounded on neither
    side has mass 1). It is evaluated once per row for each distinct finite
    bound (j, s) of the regions, in one call per coordinate. Only that table
    and the current column are held, never an n x len(regions) matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    sigma = np.asarray(sigma, dtype=float).tolist()
    # (j, lower, upper) over each region's bounded coordinates, and the
    # bounds of every such coordinate
    boxes, bounds = [], {}
    for region in regions:
        pairs = enumerate(zip(region.lower.tolist(), region.upper.tolist()))
        box = [(j, a, b) for j, (a, b) in pairs if a > -inf or b < inf]
        for j, a, b in box:
            bounds.setdefault(j, set()).update((a, b))
        boxes.append(box)
    cdf = {}
    for j, values in bounds.items():
        s = [v for v in values if -inf < v < inf]
        xj, t = X[:, j], np.array(s)[:, None]
        F = (xj <= t).astype(float) if sigma[j] == 0.0 else normal_cdf((t - xj) / sigma[j])
        cdf.update(zip([(j, v) for v in s], F))
    for box in boxes:
        col = np.ones(X.shape[0])
        for j, a, b in box:
            col *= cdf.get((j, b), 1.0) - cdf.get((j, a), 0.0)
        yield col


def build_membership(d: Dataset, regions, sigma) -> np.ndarray:
    """The n x K membership array of a dataset over K regions: column k
    holds every row's soft membership in regions[k]. Rows sum to 1 whenever
    the regions partition R^p."""
    regions = tuple(regions)
    if not regions:
        raise ValueError("at least one region is required")
    return np.column_stack(list(membership_columns(d.features, regions, sigma)))

