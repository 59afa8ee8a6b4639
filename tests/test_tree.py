import numpy as np
import pytest

from conftest import brute_force_split, hard_tree_oracle, random_dataset
from prtree.data import Dataset
from prtree.kernel import build_membership
from prtree.regions import Region
from prtree.tree import (
    PRTree,
    StoppingRule,
    candidate_variables,
    find_best_split,
    fit_prtree,
    fit_weights,
    split_candidates,
)


def test_stopping_rule_min_count():
    rule = StoppingRule(min_leaf_fraction=0.10)
    assert rule.min_count(10) == 1
    assert rule.min_count(95) == 10
    assert rule.min_count(100) == 10
    assert rule.min_count(101) == 11
    with pytest.raises(ValueError):
        StoppingRule(min_leaf_fraction=0.0)


def test_fit_weights_hard_partition_gives_leaf_means():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    V = np.array([[1.0, 0], [1, 0], [1, 0], [0, 1]])
    gamma = fit_weights(V, y)
    assert gamma.tolist() == [2.0, 10.0]


def test_fit_weights_empty_column_zero():
    V = np.array([[1.0, 0.0], [1.0, 0.0]])
    gamma = fit_weights(V, np.array([3.0, 5.0]))
    assert gamma.tolist() == [4.0, 0.0]


def test_fit_weights_matches_pinv_on_soft_matrix():
    rng = np.random.default_rng(0)
    V = rng.random((20, 4))
    V /= V.sum(axis=1, keepdims=True)
    y = rng.normal(size=20)
    gamma = fit_weights(V, y)
    ref = np.linalg.pinv(V, rcond=1e-10) @ y
    assert np.allclose(gamma, ref, atol=1e-12)


def test_fit_weights_rank_deficient_min_norm():
    # duplicated column: the minimum-norm solution splits the weight evenly
    V = np.column_stack([np.ones(5), np.ones(5)])
    y = np.full(5, 4.0)
    gamma = fit_weights(V, y)
    assert np.allclose(gamma, [2.0, 2.0])


def test_fit_weights_shape_mismatch():
    with pytest.raises(ValueError):
        fit_weights(np.ones((3, 1)), np.ones(4))


def test_split_candidates_midpoints():
    X = np.array([[1.0], [2.0], [2.0], [4.0], [9.0]])
    d = Dataset(X, np.zeros(5), ("a",))
    cuts = split_candidates(d, Region.root(1), 0)
    assert cuts.tolist() == [1.5, 3.0, 6.5]
    region = Region(np.array([1.5]), np.array([5.0]))
    assert split_candidates(d, region, 0).tolist() == [3.0]


def test_candidate_variables_ranks_by_reduction():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 4))
    y = 5.0 * np.sign(X[:, 2]) + 0.01 * rng.normal(size=60)
    d = Dataset(X, y, tuple("abcd"))
    vars3 = candidate_variables(d, np.arange(60), 3)
    assert len(vars3) == 3
    assert vars3[0] == 2
    assert candidate_variables(d, np.arange(60), 10) == sorted(
        candidate_variables(d, np.arange(60), 10)
    ) or len(candidate_variables(d, np.arange(60), 10)) == 4


def test_candidate_variables_constant_feature_dropped():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    d = Dataset(X, np.arange(10.0), ("a", "b"))
    assert candidate_variables(d, np.arange(10), 3) == [1]


def _three_leaves(d):
    """Root split at the median of x0, then its upper side at the median of
    x1 among the rows it holds."""
    left, right = Region.root(d.p).split(0, float(np.median(d.features[:, 0])))
    x1 = d.features[right.contains(d.features), 1]
    return [left, *right.split(1, float(np.median(x1)))]


def _split_search_cases(rng):
    """(dataset, leaf regions, leaf index) triples: random continuous problems,
    then the hard branch's edge cases."""
    for _ in range(10):
        n = int(rng.integers(15, 50))
        p = int(rng.integers(1, 4))
        d = random_dataset(rng, n, p)
        root = Region.root(p)
        if n > 20 and p > 1:
            regions = list(root.split(0, float(np.median(d.features[:, 0]))))
        else:
            regions = [root]
        yield d, regions, int(rng.integers(len(regions)))
    # repeated x values (rounded to 1 decimal) over three leaves
    for _ in range(3):
        d = random_dataset(rng, 90, 3)
        d = Dataset(np.round(d.features, 1), d.target, d.feature_names)
        regions = _three_leaves(d)
        for k in range(len(regions)):
            yield d, regions, k
    # min_count(40) = 4: the leaf x0 > 0.5 holds 9 rows whose x1 ties in runs,
    # so the only admissible cut leaves exactly 4 rows on the left; the leaf
    # x0 > 1.5 holds 7 rows and has none
    x0 = np.concatenate([np.zeros(31), np.ones(2), np.full(7, 2.0)])
    x1 = np.concatenate([rng.normal(size=31), [0, 0, 0, 0, 1, 1, 1, 1, 2]])
    y = rng.normal(size=40) + 3.0 * x1
    d = Dataset(np.column_stack([x0, x1]), y, ("a", "b"))
    a, b = Region.root(2).split(0, 0.5)
    yield d, [a, b], 1
    a, b = Region.root(2).split(0, 1.5)
    yield d, [a, b], 1
    # two identical columns give exactly tied SSEs, which go to the smaller j
    X = rng.normal(size=(60, 3))
    X[:, 1] = X[:, 0]
    d = Dataset(X, 4.0 * np.sign(X[:, 0]) + rng.normal(size=60), ("a", "b", "c"))
    regions = list(Region.root(3).split(2, 0.0))
    for k in range(2):
        yield d, regions, k


@pytest.mark.parametrize("sigma_scale", [0.0, 0.3])
def test_find_best_split_matches_brute_force(sigma_scale):
    rng = np.random.default_rng(11)
    rule = StoppingRule()
    for d, regions, k in _split_search_cases(rng):
        sigma = sigma_scale * d.features.std(axis=0, ddof=1)
        P = build_membership(d, regions, sigma)
        vars = list(range(d.p))
        got = find_best_split(d, P, d.target, k, vars, sigma, rule)
        want = brute_force_split(d, P, d.target, k, vars, sigma, rule)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0], got[1]) == (want[1], want[2])
            assert got[2] == pytest.approx(want[0], rel=1e-9)


def test_find_best_split_exact_tie_goes_to_smaller_cut():
    # cutting off either end row leaves SSE 20 exactly; every other cut is worse
    X = np.arange(6.0)[:, None]
    d = Dataset(X, np.array([0.0, 5, 5, 5, 5, 10]), ("a",))
    rule = StoppingRule(min_leaf_fraction=0.1)
    P = build_membership(d, [Region.root(1)], np.zeros(1))
    assert find_best_split(d, P, d.target, 0, [0], np.zeros(1), rule) == (0, 0.5, 20.0)


def test_find_best_split_none_when_no_admissible_cut():
    X = np.array([[1.0], [1.0], [1.0]])
    d = Dataset(X, np.array([1.0, 2.0, 3.0]), ("a",))
    P = build_membership(d, [Region.root(1)], np.zeros(1))
    assert find_best_split(d, P, d.target, 0, [0], np.zeros(1), StoppingRule()) is None


def test_hard_tree_equals_cart_oracle():
    rng = np.random.default_rng(99)
    for _ in range(5):
        d = random_dataset(rng, int(rng.integers(30, 120)), int(rng.integers(1, 4)))
        t = fit_prtree(d, np.zeros(d.p))
        ref, _ = hard_tree_oracle(d.features, d.target)
        assert np.array_equal(t.predict(d.features), ref)


def test_hard_tree_equals_cart_oracle_with_ties():
    rng = np.random.default_rng(600)
    d = random_dataset(rng, 600, 3)
    d = Dataset(np.round(d.features, 1), d.target, d.feature_names)
    t = fit_prtree(d, np.zeros(3), StoppingRule(min_leaf_fraction=0.05))
    ref, leaves = hard_tree_oracle(d.features, d.target, min_frac=0.05)
    assert t.leaf_count == len(leaves) > 5
    assert np.array_equal(t.predict(d.features), ref)


def test_target_override_matches_dataset_target():
    # y is driven by x0 and the residual by x4: the candidate variables must
    # be ranked by the target being fitted, not by d.target
    rng = np.random.default_rng(300)
    X = rng.uniform(size=(300, 6))
    names = tuple(f"x{j}" for j in range(6))
    y = 10.0 * X[:, 0] + 0.1 * rng.normal(size=300)
    r = np.sin(6.0 * X[:, 4]) + 0.1 * rng.normal(size=300)
    got = fit_prtree(Dataset(X, y, names), np.zeros(6), target=r)
    want = fit_prtree(Dataset(X, r, names), np.zeros(6))
    assert got.to_json() == want.to_json()
    with pytest.raises(ValueError):
        fit_prtree(Dataset(X, y, names), np.zeros(6), target=np.full(300, np.nan))


def test_constant_target_stays_single_leaf():
    rng = np.random.default_rng(1)
    d = Dataset(rng.normal(size=(30, 2)), np.full(30, 7.0), ("a", "b"))
    t = fit_prtree(d, np.zeros(2))
    assert t.leaf_count == 1
    assert np.allclose(t.predict(d.features), 7.0)


def test_max_leaves_and_depth_respected():
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 100, 3)
    t = fit_prtree(d, np.zeros(3), StoppingRule(max_leaves=4))
    assert t.leaf_count <= 4
    t2 = fit_prtree(d, np.zeros(3), StoppingRule(max_depth=1))
    assert t2.leaf_count <= 2


def test_min_leaf_rule_counts_hard_assignments():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, 50, 2)
    t = fit_prtree(d, np.zeros(2), StoppingRule(min_leaf_fraction=0.2))
    for leaf in t.leaves:
        assert leaf.region.contains(d.features).sum() >= 10


def test_feature_restriction():
    rng = np.random.default_rng(6)
    d = random_dataset(rng, 80, 3)
    t = fit_prtree(d, np.zeros(3), features=[1])
    # every leaf region is unbounded except along coordinate 1
    for leaf in t.leaves:
        for j in (0, 2):
            assert leaf.region.lower[j] == -np.inf and leaf.region.upper[j] == np.inf


def test_soft_tree_prediction_and_row_sums(small_data):
    sigma = 0.4 * small_data.features.std(axis=0, ddof=1)
    t = fit_prtree(small_data, sigma)
    P = build_membership(small_data, [lf.region for lf in t.leaves], sigma)
    assert np.allclose(P.values.sum(axis=1), 1.0, atol=1e-9)
    gam = np.array([lf.gamma for lf in t.leaves])
    assert np.allclose(t.predict(small_data.features), P.values @ gam)


def test_json_roundtrip_bit_identical(small_data):
    sigma = 0.5 * small_data.features.std(axis=0, ddof=1)
    t = fit_prtree(small_data, sigma)
    t2 = PRTree.from_json(t.to_json())
    assert np.array_equal(t.predict(small_data.features), t2.predict(small_data.features))
    assert t.to_json() == t2.to_json()


def test_fit_deterministic(small_data):
    a = fit_prtree(small_data, np.zeros(3)).to_json()
    b = fit_prtree(small_data, np.zeros(3)).to_json()
    assert a == b


def test_predict_dimension_mismatch(small_data):
    t = fit_prtree(small_data, np.zeros(3))
    with pytest.raises(ValueError):
        t.predict(np.ones((2, 5)))


def test_invalid_sigma_rejected(small_data):
    with pytest.raises(ValueError):
        fit_prtree(small_data, -np.ones(3))
    with pytest.raises(ValueError):
        fit_prtree(small_data, np.zeros(2))
