import numpy as np
import pytest

from conftest import leafwise_predict, random_dataset
from prtree.data import Dataset, RngSpec
from prtree.ensemble import (
    BoostedEnsemble,
    Forest,
    fit_prgbt,
    fit_prrf,
)
from prtree.tree import FlatTree, PRTree, StoppingRule, fit_prtree


def _const_tree(value, p=2):
    return PRTree(FlatTree.leaf(value), np.zeros(p))


def test_forest_single_tree_no_bootstrap_equals_tree(small_data):
    f = fit_prrf(small_data, 1, np.zeros(3), rng=RngSpec(0), bootstrap=False)
    t = fit_prtree(small_data, np.zeros(3))
    assert np.array_equal(f.predict(small_data.features), t.predict(small_data.features))


def test_forest_mean_of_constant_trees():
    f = Forest(trees=[_const_tree(1.0), _const_tree(3.0)])
    assert np.array_equal(f.predict(np.zeros((1, 2))), [2.0])


def test_forest_permutation_invariance(small_data):
    f = fit_prrf(small_data, 5, np.zeros(3), rng=RngSpec(4))
    g = Forest(trees=list(reversed(f.trees)), feature_subsets=f.feature_subsets)
    assert np.array_equal(f.predict(small_data.features), g.predict(small_data.features))


def test_forest_prediction_within_tree_range(small_data):
    f = fit_prrf(small_data, 7, np.zeros(3), rng=RngSpec(5))
    per_tree = np.stack([t.predict(small_data.features) for t in f.trees])
    pred = f.predict(small_data.features)
    assert np.all(pred >= per_tree.min(axis=0) - 1e-12)
    assert np.all(pred <= per_tree.max(axis=0) + 1e-12)


def test_forest_feature_subsets(small_data):
    f = fit_prrf(small_data, 4, np.zeros(3), rng=RngSpec(1), vars_per_tree=1)
    assert all(len(fs) == 1 for fs in f.feature_subsets)
    for t, fs in zip(f.trees, f.feature_subsets):
        for leaf in t.leaves:
            for j in range(3):
                if j not in fs:
                    assert leaf.region.lower[j] == -np.inf
                    assert leaf.region.upper[j] == np.inf


def test_forest_determinism_and_json(small_data):
    a = fit_prrf(small_data, 3, np.zeros(3), rng=RngSpec(9))
    b = fit_prrf(small_data, 3, np.zeros(3), rng=RngSpec(9))
    assert a.to_json() == b.to_json()
    c = Forest.from_json(a.to_json())
    assert np.array_equal(a.predict(small_data.features), c.predict(small_data.features))


def test_ensembles_reject_non_finite_features(small_data):
    X = small_data.features[:3].copy()
    X[2, 0] = np.nan
    for model in (fit_prrf(small_data, 2, np.zeros(3), rng=RngSpec(0)),
                  fit_prgbt(small_data, 2, np.full(3, 0.5))):
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(X)


def test_ensemble_predictions_equal_leafwise_oracle(small_data):
    sigma = 0.4 * small_data.features.std(axis=0, ddof=1)
    X = small_data.features
    f = fit_prrf(small_data, 4, sigma, StoppingRule(0.05), RngSpec(6), vars_per_tree=2)
    per_tree = np.stack([leafwise_predict(t, X) for t in f.trees])
    assert np.array_equal(f.predict(X), np.sort(per_tree, axis=0).mean(axis=0))
    g = fit_prgbt(small_data, 3, sigma, StoppingRule(0.05), shrinkage=0.5)
    total = np.zeros(small_data.n)
    for t in g.trees:
        total += 0.5 * leafwise_predict(t, X)
    assert np.array_equal(g.predict(X), total)


def test_forest_validation(small_data):
    with pytest.raises(ValueError):
        fit_prrf(small_data, 0, np.zeros(3))
    with pytest.raises(ValueError):
        fit_prrf(small_data, 2, np.zeros(3), vars_per_tree=9)


def test_gbt_single_stage_equals_tree(small_data):
    b = fit_prgbt(small_data, 1, np.zeros(3))
    t = fit_prtree(small_data, np.zeros(3))
    assert np.array_equal(b.predict(small_data.features), t.predict(small_data.features))


def test_gbt_zero_residual_fixed_point():
    # target that one stage fits exactly: piecewise constant in x
    X = np.repeat(np.arange(4.0), 5)[:, None]
    y = np.repeat([0.0, 1.0, 4.0, 9.0], 5)
    d = Dataset(X, y, ("a",))
    b = fit_prgbt(d, 2, np.zeros(1), StoppingRule(min_leaf_fraction=0.25))
    assert np.allclose(b.trees[0].predict(X), y)
    stage2 = np.array([leaf.gamma for leaf in b.trees[1].leaves])
    assert np.all(np.abs(stage2) <= 1e-8)


def test_gbt_additivity_and_shrinkage():
    b = BoostedEnsemble(trees=[_const_tree(1.0), _const_tree(0.5)], shrinkage=1.0)
    assert np.array_equal(b.predict(np.zeros((1, 2))), [1.5])
    b2 = BoostedEnsemble(trees=[_const_tree(2.0), _const_tree(2.0)], shrinkage=0.5)
    assert np.array_equal(b2.predict(np.zeros((1, 2))), [2.0])


@pytest.mark.parametrize("shrinkage", [1.0, 0.5])
def test_gbt_training_sse_non_increasing(small_data, shrinkage):
    m = 8
    b = fit_prgbt(small_data, m, np.zeros(3), shrinkage=shrinkage)
    y = small_data.target
    acc = np.zeros(small_data.n)
    prev = float(np.sum(y**2))
    for t in b.trees:
        acc += shrinkage * t.predict(small_data.features)
        sse = float(np.sum((y - acc) ** 2))
        assert sse <= prev + 1e-9 * (1.0 + prev)
        prev = sse


def test_gbt_json_roundtrip(small_data):
    b = fit_prgbt(small_data, 3, 0.2 * np.ones(3), shrinkage=0.7)
    c = BoostedEnsemble.from_json(b.to_json())
    assert np.array_equal(b.predict(small_data.features), c.predict(small_data.features))
    assert b.to_json() == c.to_json()


def test_gbt_validation(small_data):
    with pytest.raises(ValueError):
        fit_prgbt(small_data, 0, np.zeros(3))
    with pytest.raises(ValueError):
        fit_prgbt(small_data, 2, np.zeros(3), shrinkage=0.0)
    with pytest.raises(ValueError):
        fit_prgbt(small_data, 2, np.zeros(3), shrinkage=1.5)


def test_loaded_ensembles_equal_fitted_tree_by_tree(small_data):
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    X = small_data.features
    for model in (fit_prrf(small_data, 3, sigma, rng=RngSpec(2), vars_per_tree=2),
                  fit_prgbt(small_data, 3, sigma, shrinkage=0.5)):
        again = type(model).from_json(model.to_json())
        assert again.feature_names == model.feature_names == small_data.feature_names
        assert again.m == model.m
        for fitted, loaded in zip(model.trees, again.trees):
            assert fitted.feature_names == loaded.feature_names == small_data.feature_names
            assert fitted.nodes == loaded.nodes
            assert np.array_equal(fitted.sigma, loaded.sigma)
            assert len(fitted.leaves) == len(loaded.leaves)
            for a, b in zip(fitted.leaves, loaded.leaves):
                assert np.array_equal(a.region.lower, b.region.lower)
                assert np.array_equal(a.region.upper, b.region.upper)
                assert a.gamma == b.gamma
            assert np.array_equal(fitted.predict(X), loaded.predict(X))


def test_model_kind_guards(small_data):
    b = fit_prgbt(small_data, 2, np.zeros(3))
    with pytest.raises(ValueError):
        Forest.from_json(b.to_json())
    f = fit_prrf(small_data, 2, np.zeros(3))
    with pytest.raises(ValueError):
        BoostedEnsemble.from_json(f.to_json())
