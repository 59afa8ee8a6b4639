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
    1 - Phi(t) form cancels catastrophically for |t| > 8. The steps run in
    place on one new array (0.5 erfc(-t / sqrt 2), the same bits).
    """
    t = np.asarray(t, dtype=float)
    v = np.negative(t, out=np.empty_like(t))
    v /= _SQRT2
    erfc(v, out=v)
    v *= 0.5
    return v[()]


def membership_column(X: np.ndarray, region: Region, sigma: np.ndarray) -> np.ndarray:
    """Soft membership of every row of X in `region`, by membership_columns."""
    return next(membership_columns(X, (region,), sigma))


def cdf(x: np.ndarray, t, sigma_j: float) -> np.ndarray:
    """F(j, t) at the values x of coordinate j, broadcast against t:
    Phi((t - x) / sigma_j), or 1{x <= t} at sigma_j = 0. Fits and
    predictions take every F from here, so a value has the same bits in both."""
    if sigma_j == 0.0:
        return (x <= t).astype(float)
    z = np.subtract(t, x)
    z /= sigma_j
    return normal_cdf(z)


def box_mass(bounds, n: int) -> np.ndarray:
    """The product over n rows, in the order given, of F(j, upper) - F(j,
    lower) for each (F(j, lower), F(j, upper)) pair of `bounds`, ones if there
    is none; F is the float 0.0 at lower = -inf and 1.0 at upper = +inf. The
    product starts from the first difference, the same bits as from ones."""
    col = None
    for lo, hi in bounds:
        col = hi - lo if col is None else np.multiply(col, hi - lo, out=col)
    return np.ones(n) if col is None else col


def membership_columns(X: np.ndarray, regions, sigma: np.ndarray):
    """Yield the soft membership column of every row of X in each region (a
    `Region`, or anything else with `lower` and `upper` bound arrays): the
    `box_mass` of its bounded coordinates in ascending j (a coordinate
    bounded on neither side has mass 1).

    F is `cdf`, evaluated once per row for each distinct finite bound (j, s)
    of the regions, in one call per coordinate. Only that table and the
    current column are held, never an n x len(regions) matrix. Predictions
    call this; a fit's columns come from `tree._Node.split`, bit for bit the same."""
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
    table = {}
    for j, values in bounds.items():
        s = [v for v in values if -inf < v < inf]
        table.update(zip([(j, v) for v in s], cdf(X[:, j], np.array(s)[:, None], sigma[j])))
    for box in boxes:
        yield box_mass([(table.get((j, a), 0.0), table.get((j, b), 1.0)) for j, a, b in box],
                       X.shape[0])


def build_membership(d: Dataset, regions, sigma) -> np.ndarray:
    """The n x K membership array of a dataset over K regions: column k
    holds every row's soft membership in regions[k]. Rows sum to 1 whenever
    the regions partition R^p."""
    regions = tuple(regions)
    if not regions:
        raise ValueError("at least one region is required")
    return np.column_stack(list(membership_columns(d.features, regions, sigma)))

