"""Soft region membership: Gaussian mass of a hyper-rectangle around a point.

A model keeps for prediction its regions compiled once at its sigma
(`Boxes`): each coordinate's distinct finite bounds and each region's rows of
the F tables a predict evaluates, one `cdf` call per coordinate."""

from __future__ import annotations

from itertools import chain
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
    """Soft membership of every row of X in `region`, by `Boxes`."""
    return next(Boxes((region,), sigma).columns(X))


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


class Boxes:
    """Regions (each a `Region`, or anything else with `lower` and `upper`
    bound arrays) compiled once at one sigma for prediction; a fit's columns
    come from `tree._Node.split`, bit for bit the same. `coords` holds, per
    coordinate j that some region bounds, ascending, (j, its sorted distinct
    finite bounds as a column, sigma_j); `pairs` holds, per region, the
    (lower, upper) rows of its bounded coordinates in ascending j, among the
    rows `columns` lays out: F = 0 (at -inf), F = 1 (at +inf), then each
    coordinate's F table, one row per bound."""

    __slots__ = ("coords", "pairs")

    def __init__(self, regions, sigma):
        boxes = [[(j, a, b) for j, (a, b) in enumerate(zip(r.lower.tolist(), r.upper.tolist()))
                  if a > -inf or b < inf] for r in regions]
        bounds, row, self.coords = {}, {}, []
        for j, a, b in chain.from_iterable(boxes):
            bounds.setdefault(j, set()).update((a, b))
        for j in sorted(bounds):
            s = sorted(bounds[j] - {-inf, inf})
            row.update({(j, v): len(row) + 2 + k for k, v in enumerate(s)})
            self.coords.append((j, np.array(s)[:, None], float(sigma[j])))
        self.pairs = [[(row.get((j, a), 0), row.get((j, b), 1)) for j, a, b in box]
                      for box in boxes]

    def columns(self, X: np.ndarray):
        """Yield the membership column of every row of X in each region, in
        order: the `box_mass` of its F pairs, F being `cdf` in one call per
        coordinate. Only the F tables and the current column are held."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = [0.0, 1.0]
        for j, s, sigma_j in self.coords:
            rows.extend(cdf(X[:, j], s, sigma_j))
        for pairs in self.pairs:
            yield box_mass([(rows[a], rows[b]) for a, b in pairs], X.shape[0])


def build_membership(d: Dataset, regions, sigma) -> np.ndarray:
    """The n x K membership array of a dataset over K regions: column k
    holds every row's soft membership in regions[k]. Rows sum to 1 whenever
    the regions partition R^p."""
    regions = tuple(regions)
    if not regions:
        raise ValueError("at least one region is required")
    return np.column_stack(list(Boxes(regions, sigma).columns(d.features)))

