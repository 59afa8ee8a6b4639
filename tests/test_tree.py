from dataclasses import asdict

import numpy as np
import pytest

from conftest import (
    brute_force_split, hard_tree_oracle, leafwise_predict, order_block, random_dataset, search_leaf,
)
from prtree.data import Dataset, RngSpec
from prtree.ensemble import fit_prgbt, fit_prrf
from prtree.kernel import build_membership, membership_columns
from prtree.regions import Region
from prtree import tree
from prtree.tree import (
    GAIN_TOL,
    FlatTree,
    PRTree,
    StoppingRule,
    _partition_block,
    candidate_variables,
    cut_points,
    fit_prtree,
    fit_weights,
    split_membership_column,
)


def test_stopping_rule_min_count():
    rule = StoppingRule(min_leaf_fraction=0.10)
    assert rule.min_count(10) == 1
    assert rule.min_count(95) == 10
    assert rule.min_count(100) == 10
    assert rule.min_count(101) == 11
    with pytest.raises(ValueError):
        StoppingRule(min_leaf_fraction=0.0)


@pytest.mark.parametrize("limits", [{"max_leaves": 0}, {"max_leaves": -3}, {"max_depth": -1}])
def test_stopping_rule_rejects_impossible_limits(limits):
    with pytest.raises(ValueError, match=next(iter(limits))):
        StoppingRule(**limits)


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
    cuts = cut_points(np.sort(d.features[np.arange(5), 0]))[1]
    assert cuts.tolist() == [1.5, 3.0, 6.5]
    # the rows of the region (1.5, 5.0]
    rows = np.flatnonzero(Region(np.array([1.5]), np.array([5.0])).contains(X))
    assert rows.tolist() == [1, 2, 3]
    assert cut_points(np.sort(d.features[rows, 0]))[1].tolist() == [3.0]


def test_cut_points_send_exactly_the_lower_values_left():
    # ties, adjacent doubles, signed zeros, subnormals and values near
    # overflow, where the midpoint rounds onto the upper value or to +-inf
    rng = np.random.default_rng(17)
    big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
    pool = np.array([0.0, -0.0, tiny, -tiny, 1.0, np.nextafter(1.0, 2.0),
                     np.nextafter(np.nextafter(1.0, 2.0), 2.0), np.nextafter(1.0, 0.0), -1.0,
                     1e308, 1.5e308, big, np.nextafter(big, 0.0), -1e308, -1.5e308, -big])
    for _ in range(300):
        size = int(rng.integers(1, 40))
        v = np.sort(np.where(rng.random(size) < 0.7, rng.choice(pool, size),
                             np.round(rng.normal(size=size), 1)))
        left, cuts = cut_points(v)
        assert cuts.size == left.size == np.unique(v).size - 1
        for k, c in zip(left.tolist(), cuts.tolist()):
            assert v[k - 1] <= c < v[k]
            assert np.count_nonzero(v <= c) == k


def test_candidate_variables_ranks_by_reduction():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 4))
    y = 5.0 * np.sign(X[:, 2]) + 0.01 * rng.normal(size=60)
    d = Dataset(X, y, tuple("abcd"))
    rows = np.arange(60)
    vars3 = candidate_variables(d, rows, 3, None, order_block(d, rows))
    assert len(vars3) == 3
    assert vars3[0] == 2
    ranked = candidate_variables(d, rows, 10, None, order_block(d, rows))
    assert ranked == sorted(ranked) or len(ranked) == 4


def test_candidate_variables_constant_feature_dropped():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    d = Dataset(X, np.arange(10.0), ("a", "b"))
    rows = np.arange(10)
    assert candidate_variables(d, rows, 3, None, order_block(d, rows)) == [1]


def _ranking_oracle(d, rows, k, features=None):
    """candidate_variables one coordinate at a time: a stable argsort and the
    CART prefix sums over the distinct-value cuts of each column."""
    X, y = d.features[rows], d.target[rows]
    scored = []
    for j in range(d.p) if features is None else features:
        order = np.argsort(X[:, j], kind="stable")
        vs, ys = X[order, j], y[order]
        after = np.flatnonzero(vs[:-1] != vs[1:])
        if after.size:
            c1, c2, m, n = np.cumsum(ys), np.cumsum(ys * ys), after + 1.0, ys.size
            sse_l = c2[after] - c1[after] ** 2 / m
            sse_r = (c2[-1] - c2[after]) - (c1[-1] - c1[after]) ** 2 / (n - m)
            scored.append((-float(np.max(c2[-1] - c1[-1] ** 2 / n - sse_l - sse_r)), j))
    return [j for _, j in sorted(scored)[:k]]


def test_candidate_variables_matches_per_coordinate_oracle():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n, p = int(rng.integers(2, 60)), int(rng.integers(1, 7))
        d = random_dataset(rng, n, p)
        X = np.round(d.features, int(rng.integers(0, 3)))
        X[:, int(rng.integers(p))] = 1.5  # a constant column has no cut
        if p > 2:
            # an order-preserving copy of column 0 ties it gain for gain
            X[:, p - 1] = 2.0 * X[:, 0] + 1.0
        d = Dataset(X, d.target, d.feature_names)
        rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        features = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        for k in (1, 3, p + 2):
            for subset in (None, features, features[::-1]):
                block = order_block(d, rows, subset)
                assert candidate_variables(d, rows, k, subset, block) == _ranking_oracle(
                    d, rows, k, subset)
        if p > 2 and X[rows, 0].min() < X[rows, 0].max():
            ranked = candidate_variables(d, rows, p, [p - 1, 0], order_block(d, rows, [p - 1, 0]))
            assert ranked == [0, p - 1]


def test_partitioned_blocks_equal_fresh_sorts():
    # bootstrap rows repeat, and rounded values tie: a child's inherited order
    # must still be the stable argsort of its own rows
    rng = np.random.default_rng(15)
    for _ in range(10):
        n, p = int(rng.integers(20, 120)), int(rng.integers(2, 6))
        base = random_dataset(rng, n, p)
        X = np.round(base.features, 1)[rng.integers(n, size=n)]
        cols = sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        leaves = [(np.arange(n), np.argsort(X[:, cols], axis=0, kind="stable"))]
        while leaves:
            rows, block = leaves.pop()
            assert np.array_equal(block, np.argsort(X[rows][:, cols], axis=0, kind="stable"))
            j = int(rng.integers(p))
            values = np.unique(X[rows, j])
            if values.size < 2:
                continue
            go_left = X[rows, j] <= rng.choice(values[:-1])
            left, right = _partition_block(block, go_left)
            leaves += [(rows[go_left], left), (rows[~go_left], right)]


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


@pytest.mark.parametrize("sigma_scale", [0.0, 0.3, 1.0, 2.0])
def test_find_best_split_matches_brute_force(sigma_scale):
    rng = np.random.default_rng(11)
    rule = StoppingRule()
    for d, regions, k in _split_search_cases(rng):
        sigma = sigma_scale * d.features.std(axis=0, ddof=1)
        V = build_membership(d, regions, sigma)
        vars = list(range(d.p))
        got = search_leaf(d, V, regions[k], d.target, vars, sigma, rule)
        want = brute_force_split(d, V, regions[k], d.target, k, vars, sigma, rule)
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
    V = build_membership(d, [Region.root(1)], np.zeros(1))
    assert search_leaf(d, V, Region.root(1), d.target, [0], np.zeros(1), rule) == (
        0, 0.5, 20.0)


def test_find_best_split_none_when_no_admissible_cut():
    X = np.array([[1.0], [1.0], [1.0]])
    d = Dataset(X, np.array([1.0, 2.0, 3.0]), ("a",))
    V = build_membership(d, [Region.root(1)], np.zeros(1))
    rule = StoppingRule()
    assert search_leaf(d, V, Region.root(1), d.target, [0], np.zeros(1), rule) is None


def test_soft_split_search_exact_ties_go_to_smaller_j_then_s():
    # identical columns at equal sigma give bitwise equal SSEs: j = 0 wins
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    X[:, 1] = X[:, 0]
    d = Dataset(X, 4.0 * np.sign(X[:, 0]) + rng.normal(size=40), ("a", "b", "c"))
    sigma = np.full(3, 0.3)
    root = Region.root(3)
    V = build_membership(d, [root], sigma)
    rule = StoppingRule()
    j, s, sse = search_leaf(d, V, root, d.target, [1, 0], sigma, rule)
    assert j == 0
    assert search_leaf(d, V, root, d.target, [1], sigma, rule) == (1, s, sse)
    # a zero target makes every candidate's SSE exactly 0: the smallest
    # admissible cut of coordinate 0 wins
    zero = Dataset(X, np.zeros(40), ("a", "b", "c"))
    first = np.sort(X[:, 0])[rule.min_count(40) - 1 : rule.min_count(40) + 1].mean()
    assert search_leaf(zero, V, root, zero.target, [2, 1, 0], sigma, rule) == (
        0, first, 0.0)


def _regrow_without_cache(d, sigma, rule, features=None, target=None):
    """fit_prtree's greedy growth, but with every leaf's candidates, cuts and
    basis computed afresh in every round."""
    if target is not None:
        d = Dataset(d.features, target, d.feature_names)
    y, n = d.target, d.n
    nodes, leaves, regions = FlatTree.leaf(), [(0, np.arange(n), 0)], (Region.root(d.p),)
    V = np.ones((n, 1))
    resid = y - V @ fit_weights(V, y)
    sse_cur = float(resid @ resid)
    min_count = rule.min_count(n)
    while rule.max_leaves is None or len(leaves) < rule.max_leaves:
        options = []
        for idx, (_, rows, depth) in enumerate(leaves):
            if rows.size < 2 * min_count or (rule.max_depth is not None
                                             and depth >= rule.max_depth):
                continue
            vars = candidate_variables(d, rows, 3, features, order_block(d, rows, features))
            if not vars:
                continue
            found = search_leaf(d, V, regions[idx], y, vars, sigma, rule, rows)
            if found is not None:
                options.append((found[2], idx, found[0], found[1]))
        if not options:
            break
        _, idx, j, s = min(options)
        V_new, regions_new = split_membership_column(V, regions, idx, j, s, d, sigma)
        resid = y - V_new @ fit_weights(V_new, y)
        sse_new = float(resid @ resid)
        if sse_cur - sse_new <= GAIN_TOL * (1.0 + sse_cur):
            break
        node, rows, depth = leaves[idx]
        go_left = d.features[rows, j] <= s
        lnode, rnode = nodes.grow(node, int(j), float(s))
        leaves[idx : idx + 1] = [(lnode, rows[go_left], depth + 1),
                                 (rnode, rows[~go_left], depth + 1)]
        V, regions, sse_cur = V_new, regions_new, sse_new
    for (node, _, _), g in zip(leaves, fit_weights(V, y)):
        nodes.value[node] = float(g)
    return PRTree(nodes, sigma, d.feature_names)


@pytest.mark.parametrize("kind", ["hard", "soft", "mixed"])
def test_cached_leaf_candidates_grow_the_uncached_tree(kind):
    rng = np.random.default_rng(21)
    d = random_dataset(rng, 150, 4)
    d = Dataset(np.round(d.features, 1), d.target, d.feature_names)
    std = d.features.std(axis=0, ddof=1)
    sigma = {"hard": np.zeros(4), "soft": 0.3 * std, "mixed": [0.3, 0.0, 0.2, 0.0] * std}[kind]
    rule = StoppingRule(min_leaf_fraction=0.05)
    # a bootstrap sample, as a forest fits it, repeats rows: the fit weights
    # its distinct rows by multiplicity, which sums the same errors in
    # another order
    boot = d.subset(rng.integers(d.n, size=d.n))
    for data in (d, boot):
        residual = data.target - np.sin(data.features[:, 1])
        for features, target in ((None, None), ([0, 2, 3], None), (None, residual)):
            want = _regrow_without_cache(data, sigma, rule, features, target)
            got = fit_prtree(data, sigma, rule, features=features, target=target)
            assert want.leaf_count >= 8
            if data is d:
                assert got.to_json() == want.to_json()
            else:
                _assert_same_tree(got, want, 1e-12)


def _assert_same_tree(got, want, rtol):
    """The same node arrays, but leaf values equal only within rtol."""
    for key, value in asdict(want.nodes).items():
        if key == "value":
            assert np.allclose(getattr(got.nodes, key), value, rtol=rtol, atol=0.0)
        else:
            assert getattr(got.nodes, key) == value, key


def test_repeating_every_row_fits_the_same_tree():
    # twice the rows with min_leaf_fraction * n an integer: every count and
    # SSE of the weighted fit doubles, and the tree stays
    rng = np.random.default_rng(24)
    d = random_dataset(rng, 100, 4)
    twice = d.subset(np.repeat(np.arange(d.n), 2))
    rule = StoppingRule(min_leaf_fraction=0.05)
    for sigma in (np.zeros(4), 0.3 * d.features.std(axis=0, ddof=1), [0.3, 0.0, 0.2, 0.0]):
        want = fit_prtree(d, sigma, rule)
        assert want.leaf_count >= 8
        _assert_same_tree(fit_prtree(twice, sigma, rule), want, 1e-12)


def test_forest_searches_each_repeated_row_once(monkeypatch):
    # a bootstrap sample's repeated rows reach the split search's membership
    # columns once each
    rng = np.random.default_rng(25)
    d = random_dataset(rng, 80, 3)
    seen = []

    def recorded(X, *args):
        seen.append(np.unique(X, axis=0).shape[0] == X.shape[0])
        return membership_columns(X, *args)

    monkeypatch.setattr(tree, "membership_columns", recorded)
    for sigma in (np.zeros(3), 0.3 * d.features.std(axis=0, ddof=1)):
        fit_prrf(d, 3, sigma, StoppingRule(min_leaf_fraction=0.1), RngSpec(4))
    assert seen and all(seen)


@pytest.mark.parametrize("kind", ["hard", "soft"])
def test_a_target_past_2_to_the_500_grows_the_same_trees(kind):
    # squares of y * 2^540 overflow; fitting y * 2^-e and scaling the weights
    # back by 2^e is exact
    rng = np.random.default_rng(26)
    d = random_dataset(rng, 60, 3)
    big = Dataset(d.features, np.ldexp(d.target, 540), d.feature_names)
    sigma = np.zeros(3) if kind == "hard" else 0.3 * d.features.std(axis=0, ddof=1)
    fits = (lambda data: fit_prtree(data, sigma),
            lambda data: fit_prrf(data, 3, sigma, rng=RngSpec(2)),
            lambda data: fit_prgbt(data, 3, sigma, shrinkage=0.5))
    for fit in fits:
        want, got = fit(d), fit(big)
        for w, g in zip(getattr(want, "trees", [want]), getattr(got, "trees", [got])):
            assert w.leaf_count >= 4
            assert asdict(g.nodes) == {**asdict(w.nodes),
                                       "value": [v * 2.0**540 for v in w.nodes.value]}
        assert np.array_equal(got.predict(d.features), np.ldexp(want.predict(d.features), 540))


def test_soft_tree_takes_one_qr_per_searched_round(monkeypatch):
    # every leaf searched in a round shares one basis of the round's columns
    rng = np.random.default_rng(22)
    d = random_dataset(rng, 150, 4)
    sigma = 0.3 * d.features.std(axis=0, ddof=1)
    qr, search = np.linalg.qr, tree.find_best_split
    qr_calls, rounds = [], []

    def counted_qr(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    def searched(cuts, basis, sigma):
        rounds.append(basis[0].shape[1])  # a round's basis has one column per leaf
        return search(cuts, basis, sigma)

    monkeypatch.setattr(tree.np.linalg, "qr", counted_qr)
    monkeypatch.setattr(tree, "find_best_split", searched)
    t = fit_prtree(d, sigma, StoppingRule(min_leaf_fraction=0.05))
    assert t.leaf_count >= 8
    assert max(rounds.count(k) for k in set(rounds)) > 1
    assert len(qr_calls) == len(set(rounds))


@pytest.mark.parametrize("x, y", [
    # the midpoint of 1 + 2^-52 and 1 + 2^-51 rounds onto the upper value
    ([0.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51, 2.0], [0.0, 0.0, 10.0, 10.0]),
    # the midpoint of 1e308 and 1.5e308 overflows to inf
    ([1e308, 1.5e308], [0.0, 10.0]),
], ids=["adjacent", "overflow"])
def test_hard_split_where_the_midpoint_is_not_below_the_upper_value(x, y):
    X, target = np.repeat(x, 5)[:, None], np.repeat(y, 5)
    d = Dataset(X, target, ("a",))
    rule = StoppingRule(min_leaf_fraction=0.25)
    V = build_membership(d, [Region.root(1)], np.zeros(1))
    _, s, sse = search_leaf(d, V, Region.root(1), target, [0], np.zeros(1), rule)
    # the reported SSE is that of the partition x <= s makes
    assert sse == sum(float(((part - part.mean()) ** 2).sum())
                      for part in (target[X[:, 0] <= s], target[X[:, 0] > s]))
    t = fit_prtree(d, [0.0], rule)
    assert np.array_equal(t.predict(X), target)


@pytest.mark.parametrize("sigma_scale", [0.0, 0.3])
def test_fit_solves_the_weights_once(monkeypatch, sigma_scale):
    # growth stops on the split search's own SSE; the weights are solved on
    # the final columns only
    rng = np.random.default_rng(23)
    d = random_dataset(rng, 150, 4)
    calls = []

    def counted(V, y):
        calls.append(V.shape[1])
        return fit_weights(V, y)

    monkeypatch.setattr(tree, "fit_weights", counted)
    t = fit_prtree(d, sigma_scale * d.features.std(axis=0, ddof=1),
                   StoppingRule(min_leaf_fraction=0.05))
    assert t.leaf_count >= 8
    assert calls == [t.leaf_count]


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
    # the smallest limits keep the root only
    assert fit_prtree(d, np.zeros(3), StoppingRule(max_depth=0)).leaf_count == 1
    assert fit_prtree(d, np.zeros(3), StoppingRule(max_leaves=1)).leaf_count == 1


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
    V = build_membership(small_data, [lf.region for lf in t.leaves], sigma)
    assert np.allclose(V.sum(axis=1), 1.0, atol=1e-9)
    gam = np.array([lf.gamma for lf in t.leaves])
    assert np.allclose(t.predict(small_data.features), V @ gam)


@pytest.mark.parametrize("sigma_scale", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.6), (0.5, 0.5, 0.5)])
def test_predict_equals_leafwise_oracle(small_data, sigma_scale):
    sigma = np.array(sigma_scale) * small_data.features.std(axis=0, ddof=1)
    t = fit_prtree(small_data, sigma, StoppingRule(min_leaf_fraction=0.05))
    assert t.leaf_count > 3
    # the training rows, and one row on each leaf's finite upper bounds
    on_cut = np.tile(small_data.features[0], (t.leaf_count, 1))
    for row, leaf in zip(on_cut, t.leaves):
        finite = np.isfinite(leaf.region.upper)
        row[finite] = leaf.region.upper[finite]
    X = np.vstack([small_data.features, on_cut])
    assert np.array_equal(t.predict(X), leafwise_predict(t, X))


def test_split_search_with_given_rows_equals_region_rows():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 120, 3)
    d = Dataset(np.round(d.features, 1), d.target, d.feature_names)
    root = Region.root(3)
    left, right = root.split(0, 0.05)
    regions = [*left.split(1, -0.25), right]
    # the rows a fit carries down its splits, x_j <= s going left
    x0, x1 = d.features[:, 0], d.features[:, 1]
    low = np.flatnonzero(x0 <= 0.05)
    carried = [low[x1[low] <= -0.25], low[x1[low] > -0.25], np.flatnonzero(x0 > 0.05)]
    rule = StoppingRule(min_leaf_fraction=0.05)
    for sigma in (np.zeros(3), np.array([0.3, 0.0, 0.2])):
        V = build_membership(d, regions, sigma)
        for region, rows in zip(regions, carried):
            want = search_leaf(d, V, region, d.target, [0, 1, 2], sigma, rule)
            assert want is not None
            assert search_leaf(d, V, region, d.target, [0, 1, 2], sigma, rule, rows) == want


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
    for bad in (np.nan, np.inf):
        X = np.ones((2, 3))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            t.predict(X)


def test_invalid_sigma_rejected(small_data):
    # one rule for every fitter: p finite non-negative numbers
    bad = [-np.ones(3), np.zeros(2), [np.nan, 0.1, 0.1], [np.inf, 0.1, 0.1],
           [0.1, -np.inf, 0.1], 0.1, [[0.1, 0.1, 0.1]]]
    for sigma in bad:
        with pytest.raises(ValueError, match="sigma must be 3 finite non-negative numbers"):
            fit_prtree(small_data, sigma)
