"""Bagged (PR-RF) and gradient-boosted (PR-GBT) ensembles of PR trees."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, RngSpec, check_features
from .tree import (Model, PRTree, StoppingRule, _array, _feature_names, _integer, _number,
                   _typed, checked, fit_prtree, model_value)

log = logging.getLogger(__name__)


def _read_trees(obj) -> list[PRTree]:
    """The trees of a forest or boosted model file: at least one, all over the
    same p features, each with the file's feature names."""
    trees = model_value(obj, "trees", checked(
        _array(PRTree.read), lambda ts: len({t.p for t in ts}) == 1,
        "at least one tree, all over the same features"))
    for t in trees:
        t.feature_names = _feature_names(obj, t.p)
    return trees


@dataclass(eq=False)
class Forest(Model):
    """Average of independently fitted PR trees (bootstrap bagging)."""

    kind = "forest"
    trees: list[PRTree]
    bootstrap: bool = True
    feature_subsets: list[tuple[int, ...]] = field(default_factory=list)
    feature_names: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.trees[0].p)
        preds = np.stack([t.leaf_sum(X) for t in self.trees])
        # sort per point before averaging so the result is exactly invariant
        # to the order the trees are stored in
        return np.sort(preds, axis=0).mean(axis=0)

    def fields(self) -> dict:
        return {"bootstrap": self.bootstrap,
                "feature_subsets": [list(fs) for fs in self.feature_subsets],
                "trees": [t.fields() for t in self.trees]}

    @classmethod
    def read(cls, obj: dict) -> "Forest":
        trees = _read_trees(obj)
        subset = checked(lambda fs: tuple(_array(_integer)(fs)), lambda fs: len(set(fs)) == len(fs)
                         and set(fs) <= set(range(trees[0].p)), "distinct features of the trees")
        return cls(trees, model_value(obj, "bootstrap", _typed("true or false", bool)),
                   model_value(obj, "feature_subsets", _array(subset)), trees[0].feature_names)


@dataclass(eq=False)
class BoostedEnsemble(Model):
    """Stagewise additive PR trees, each fit to the running residuals."""

    kind = "gbt"
    trees: list[PRTree]
    shrinkage: float = 1.0
    feature_names: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.trees[0].p)
        total = np.zeros(X.shape[0])
        for t in self.trees:
            total += self.shrinkage * t.leaf_sum(X)
        return total

    def fields(self) -> dict:
        return {"shrinkage": float(self.shrinkage), "trees": [t.fields() for t in self.trees]}

    @classmethod
    def read(cls, obj: dict) -> "BoostedEnsemble":
        trees = _read_trees(obj)
        return cls(trees, model_value(obj, "shrinkage", checked(
            _number, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")), trees[0].feature_names)


def fit_prrf(
    d: Dataset,
    m: int,
    sigma,
    rule: StoppingRule = StoppingRule(),
    rng: RngSpec = RngSpec(0),
    bootstrap: bool = True,
    vars_per_tree: int | None = None,
) -> Forest:
    """Fit m PR trees on bootstrap resamples, each restricted to a uniformly
    drawn variable subset (default: all variables). A resample's repeated
    rows are fitted once each with their multiplicity as an integer weight
    (see `fit_prtree`). Every tree consumes its own named rng stream, so the
    forest is reproducible and trees could be fitted in parallel."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if vars_per_tree is None:
        vars_per_tree = d.p
    if not (1 <= vars_per_tree <= d.p):
        raise ValueError("vars_per_tree must lie in [1, p]")
    trees, subsets = [], []
    for ell in range(m):
        gen = rng.stream(ell).generator()
        sample = d.subset(gen.integers(0, d.n, size=d.n)) if bootstrap else d
        if vars_per_tree < d.p:
            feats = tuple(sorted(gen.choice(d.p, size=vars_per_tree, replace=False).tolist()))
        else:
            feats = tuple(range(d.p))
        trees.append(fit_prtree(sample, sigma, rule, features=list(feats)))
        subsets.append(feats)
    return Forest(trees=trees, bootstrap=bootstrap, feature_subsets=subsets,
                  feature_names=d.feature_names)


def fit_prgbt(
    d: Dataset,
    m: int,
    sigma,
    rule: StoppingRule = StoppingRule(),
    shrinkage: float = 1.0,
) -> BoostedEnsemble:
    """Fit m boosting stages; stage trees are PR trees fit to the residuals
    of the shrinkage-weighted accumulated model. Squared-error residual
    fitting is exact gradient boosting, so no gradient reweighting is
    applied. Fitting is deterministic, so no random stream is taken."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0.0 < shrinkage <= 1.0):
        raise ValueError("shrinkage must lie in (0, 1]")
    trees = []
    resid = d.target.astype(float).copy()
    for ell in range(m):
        t = fit_prtree(Dataset(d.features, resid, d.feature_names), sigma, rule)
        trees.append(t)
        resid = resid - shrinkage * t.predict(d.features)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("stage %d training rmse %.6g", ell + 1, np.sqrt(np.mean(resid**2)))
    return BoostedEnsemble(trees=trees, shrinkage=shrinkage, feature_names=d.feature_names)
