"""Predictions from the leaf boxes a model compiles once (`kernel.Boxes`),
checked bit for bit against an oracle that builds each leaf's column from its
region's bounds and `kernel.cdf` alone, and the work a predict does."""

import numpy as np
import pytest

from conftest import random_dataset
from prtree import kernel
from prtree.data import RngSpec
from prtree.ensemble import BoostedEnsemble, Forest, fit_prgbt, fit_prrf
from prtree.kernel import cdf
from prtree.pbart import PBartHyper, fit_pbart
from prtree.tree import PRTree, StoppingRule, fit_prtree

RULE = StoppingRule(min_leaf_fraction=0.08)


def oracle_column(X, region, sigma):
    """The product, over the region's bounded coordinates in ascending j, of
    F(j, upper) - F(j, lower), F taken as 0.0 at -inf and 1.0 at +inf."""
    col = None
    for j, (a, b) in enumerate(zip(region.lower, region.upper)):
        if a == -np.inf and b == np.inf:
            continue
        lo = cdf(X[:, j], a, sigma[j]) if a > -np.inf else 0.0
        hi = cdf(X[:, j], b, sigma[j]) if b < np.inf else 1.0
        col = hi - lo if col is None else col * (hi - lo)
    return np.ones(X.shape[0]) if col is None else col


def oracle_tree(t: PRTree, X):
    V = np.column_stack([oracle_column(X, leaf.region, t.sigma) for leaf in t.leaves])
    return V @ np.array([leaf.gamma for leaf in t.leaves])


def oracle(model, X):
    if isinstance(model, PRTree):
        return oracle_tree(model, X)
    if isinstance(model, Forest):
        return np.sort(np.stack([oracle_tree(t, X) for t in model.trees]), axis=0).mean(axis=0)
    if isinstance(model, BoostedEnsemble):
        total = np.zeros(X.shape[0])
        for t in model.trees:
            total += model.shrinkage * oracle_tree(t, X)
        return total
    # a chain: each distinct region once, in first-seen order, with its summed weight
    groups = {}
    for snap in model.snapshots:
        for regions, gammas in snap:
            for r, g in zip(regions, gammas.tolist()):
                group = groups.setdefault(r.lower.tobytes() + r.upper.tobytes(), [r, 0.0])
                group[1] += g
    total = np.zeros(X.shape[0])
    for r, gsum in groups.values():
        total += gsum * oracle_column(X, r, model.sigma)
    return (total / model.n_snapshots + 0.5) * model.y_scale + model.y_offset


def _data():
    rng = np.random.default_rng(41)
    d = random_dataset(rng, 120, 3)
    X = np.vstack([rng.normal(size=(50, 3)), d.features[:10]])
    return d, X, d.features.std(axis=0, ddof=1)


def _fit(kind):
    d, X, std = _data()
    soft = 0.3 * std
    fit = {
        "hard tree": lambda: fit_prtree(d, np.zeros(3), RULE),
        "soft tree": lambda: fit_prtree(d, soft, RULE),
        "mixed tree": lambda: fit_prtree(d, np.array([0.3, 0.0, 0.2]) * std, RULE),
        "root-only tree": lambda: fit_prtree(d, soft, StoppingRule(max_leaves=1)),
        "forest": lambda: fit_prrf(d, 4, soft, RULE, RngSpec(5)),
        "boosted": lambda: fit_prgbt(d, 3, soft, RULE, shrinkage=0.5),
        "chain": lambda: fit_pbart(d, PBartHyper(m=4, it_burn=5, it_max=25), soft, RngSpec(6)),
    }[kind]
    return fit(), X


KINDS = ["hard tree", "soft tree", "mixed tree", "root-only tree", "forest", "boosted", "chain"]


@pytest.mark.parametrize("kind", KINDS)
def test_predictions_equal_the_leafwise_oracle_bit_for_bit(kind):
    model, X = _fit(kind)
    if kind == "root-only tree":
        assert model.leaf_count == 1
    want = oracle(model, X)
    loaded = type(model).from_json(model.to_json())
    for m in (model, loaded):
        for _ in range(2):  # the compiled boxes serve a second call unchanged
            assert m.predict(X).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["forest", "boosted"])
def test_ensembles_check_X_once_with_the_tree_messages(kind):
    model, X = _fit(kind)
    with pytest.raises(ValueError, match="expected 3 features, got 2"):
        model.predict(X[:, :2])
    bad = X.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="features contain non-finite values"):
        model.predict(bad)


def _distinct_finite_bounds(regions):
    return len({(j, v) for r in regions for j in range(r.lower.size)
                for v in (r.lower[j], r.upper[j]) if np.isfinite(v)})


@pytest.mark.parametrize("kind", ["soft tree", "forest", "chain"])
def test_a_predict_evaluates_phi_once_per_distinct_bound_and_row(monkeypatch, kind):
    model, X = _fit(kind)
    if kind == "chain":
        regions = [[r for snap in model.snapshots for rs, _ in snap for r in rs]]
    else:
        regions = [[leaf.region for leaf in t.leaves] for t in getattr(model, "trees", [model])]
    bounds = sum(_distinct_finite_bounds(rs) for rs in regions)
    assert bounds > 3
    evals, compiled, phi, init = [0], [0], kernel.normal_cdf, kernel.Boxes.__init__

    def counted(t):
        evals[0] += np.size(t)
        return phi(t)

    def compiling(self, *args):
        compiled[0] += 1
        init(self, *args)

    monkeypatch.setattr(kernel, "normal_cdf", counted)
    monkeypatch.setattr(kernel.Boxes, "__init__", compiling)
    for _ in range(3):
        evals[0] = 0
        model.predict(X)
        assert evals[0] == bounds * X.shape[0]
    assert compiled[0] == 0
