"""Axis-aligned hyper-rectangles with possibly infinite bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """A hyper-rectangle (lower, upper]^p; bounds may be +-inf.

    The root region is all of R^p so that soft memberships over a leaf
    partition sum to one. Children are obtained by replacing exactly one
    bound of the parent. Half-open (a, b] intervals fix the hard
    (sigma = 0) assignment of boundary points.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if not (lo < hi).all():
            raise ValueError("each lower bound must be strictly below its upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def root(cls, p: int) -> "Region":
        return cls(np.full(p, -np.inf), np.full(p, np.inf))

    def split(self, j: int, s: float) -> tuple["Region", "Region"]:
        """Split at s on coordinate j into (lower-side, upper-side) children.
        Only the bound that changes is checked; the children keep this
        region's other, valid bounds without a second check."""
        if not (self.lower[j] < s < self.upper[j]):
            raise ValueError(
                f"split value {s} outside open interval "
                f"({self.lower[j]}, {self.upper[j]}) on coordinate {j}"
            )
        left_hi, right_lo = self.upper.copy(), self.lower.copy()
        left_hi[j] = right_lo[j] = s
        return _unchecked(self.lower, left_hi), _unchecked(right_lo, self.upper)

    def contains(self, X: np.ndarray) -> np.ndarray:
        """Hard half-open membership 1{lower < x <= upper}, vectorized over rows."""
        X = np.atleast_2d(X)
        return np.all((X > self.lower) & (X <= self.upper), axis=1)


def _unchecked(lower: np.ndarray, upper: np.ndarray) -> Region:
    """The Region of valid float bounds, made read-only, left unchecked."""
    region = object.__new__(Region)
    for name, bound in (("lower", lower), ("upper", upper)):
        bound.setflags(write=False)
        object.__setattr__(region, name, bound)
    return region
