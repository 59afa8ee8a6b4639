import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import (
    dense_log_density, dense_log_det, grown_tree, random_dataset, recursive_log_prior,
)
from prtree import pbart
from prtree.data import Dataset, RngSpec
from prtree.kernel import membership_column
from prtree.pbart import (
    MOVES,
    PBartChain,
    PBartHyper,
    SampledTree,
    draw_gammas,
    draw_sigma_tilde,
    fit_pbart,
    marginal_log_likelihood,
    mh_accept,
    propose_tree,
    tree_log_prior,
)
from prtree.regions import Region
from prtree.tree import FlatTree, StoppingRule, _Node, cut_points


def _line_data(values, y=None):
    X = np.asarray(values, dtype=float)[:, None]
    y = np.zeros(len(X)) if y is None else np.asarray(y, dtype=float)
    return Dataset(X, y, ("a",))


def _refreshed(nodes, d, min_count=1):
    t = SampledTree(nodes, np.zeros(d.p))
    assert t.refresh(d, min_count)
    return t


# ---------------------------------------------------------------------------
# prior

def test_prior_single_leaf():
    d = _line_data([0.0, 1.0])
    t = _refreshed(FlatTree.leaf(), d)
    assert tree_log_prior(t, 0.95, 2.0) == pytest.approx(math.log(0.05))


def test_prior_stump_one_cut():
    d = _line_data([0.0, 1.0])
    t = _refreshed(grown_tree((0, 0, 0.5)), d)
    expected = math.log(0.95) + 2.0 * math.log(1.0 - 0.95 / 4.0)
    assert tree_log_prior(t, 0.95, 2.0) == pytest.approx(expected)


def test_prior_matches_recursive_oracle():
    # the tree keeps its prior for the last (alpha, beta) asked: each call on
    # the one tree, a repeat after another (alpha, beta) included, matches
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 40, 2)
    nodes = grown_tree((0, 0, 0.1), (1, 1, -0.2))
    t = _refreshed(nodes, d)
    for alpha, beta in [(0.95, 2.0), (0.5, 0.5), (0.95, 2.0), (0.95, 0.0)]:
        want = recursive_log_prior(nodes, Region.root(2), d, alpha, beta)
        assert tree_log_prior(t, alpha, beta) == pytest.approx(want, abs=1e-10)


def test_kept_prior_equals_that_of_a_fresh_tree():
    # after each move of a chain, the prior the current tree and the proposal
    # keep equals, bit for bit, that of a tree refreshed afresh from their arrays
    d = random_dataset(np.random.default_rng(2), 60, 3)
    sigma = 0.3 * d.features.std(axis=0, ddof=1)
    rule = StoppingRule(min_leaf_fraction=0.05)
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=0.25)
    gen = np.random.default_rng(6)
    t = SampledTree(FlatTree.leaf(), sigma)
    assert t.refresh(d, rule.min_count(d.n))
    kept = 0
    for _ in range(300):
        star, log_q, _ = propose_tree(t, gen, hyper.move_probs, rule)
        accepted = mh_accept(t, star, d.target, hyper, gen, 0.5, log_q)
        for tree in (t, star):
            if tree is not None and tree.prior is not None:
                fresh = SampledTree(tree.nodes.copy(), sigma)
                assert fresh.refresh(d, rule.min_count(d.n))
                want = tree_log_prior(fresh, hyper.alpha, hyper.beta)
                got = tree_log_prior(tree, hyper.alpha, hyper.beta)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                kept += 1
        if accepted:
            t = star
    assert kept > 300 and len(t.leaves) > 2


# ---------------------------------------------------------------------------
# marginal likelihood

def test_mll_scalar_case():
    got = marginal_log_likelihood(np.ones((1, 1)), np.zeros(1), 0.0, 1, 1.0, 1.0)
    assert got == pytest.approx(-0.5 * math.log(4.0 * math.pi))


def test_mll_vanishing_weight_prior():
    rng = np.random.default_rng(1)
    R = rng.normal(size=5)
    V = rng.random((5, 2))
    st = 0.8
    iid = float(np.sum(-0.5 * np.log(2 * np.pi * st**2) - 0.5 * R**2 / st**2))
    G, b, RR = V.T @ V, V.T @ R, R @ R
    assert marginal_log_likelihood(G, b, RR, 5, 0.0, st) == pytest.approx(iid)
    assert marginal_log_likelihood(G, b, RR, 5, 1e-9, st) == pytest.approx(iid, abs=1e-6)


def test_mll_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        K = int(rng.integers(1, 6))
        V = rng.random((n, K))
        R = rng.normal(size=n)
        sg = float(rng.uniform(0.05, 2.0))
        st = float(rng.uniform(0.05, 2.0))
        got = marginal_log_likelihood(V.T @ V, V.T @ R, R @ R, n, sg, st)
        want = dense_log_density(R, V, sg, st)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def _hard_membership(rng, n, K):
    """An n x K membership array with a duplicated column, an all-zero column
    and 0/1 columns among soft ones, as K allows."""
    V = rng.random((n, K))
    hard = rng.random(K) < 0.4
    V[:, hard] = (V[:, hard] < 0.5).astype(float)
    if K >= 2:
        V[:, int(rng.integers(K))] = V[:, int(rng.integers(K))]
    if K >= 3:
        V[:, int(rng.integers(K))] = 0.0
    return V


def test_mll_matches_dense_oracle_on_hard_cases():
    # up to 15 leaves and 60 rows, rank-deficient V, weight priors from
    # nearly flat to nearly fixed and noise scales down to 0.01
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 61))
        K = int(rng.integers(1, 16))
        V = _hard_membership(rng, n, K)
        R = rng.normal(size=n)
        sg = float(np.exp(rng.uniform(np.log(0.01), np.log(30.0))))
        st = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        ll = marginal_log_likelihood(V.T @ V, V.T @ R, R @ R, n, sg, st)
        ll_ref = dense_log_density(R, V, sg, st)
        # at b = 0 and RR = 0 the log density is -(n log 2 pi + log det Sigma0) / 2
        ld = -2.0 * marginal_log_likelihood(V.T @ V, np.zeros(K), 0.0, n, sg, st) \
            - n * math.log(2.0 * math.pi)
        ld_ref = dense_log_det(V, sg, st)
        assert abs(ll - ll_ref) <= 1e-8 * max(1.0, abs(ll_ref))
        assert abs(ld - ld_ref) <= 1e-8 * max(1.0, abs(ld_ref))


def test_mll_rejects_bad_sigma():
    with pytest.raises(ValueError):
        marginal_log_likelihood(np.full((1, 1), 2.0), np.zeros(1), 0.0, 2, 1.0, 0.0)
    # a Gram matrix whose size does not match b's
    with pytest.raises(ValueError):
        marginal_log_likelihood(np.full((1, 1), 2.0), np.zeros(2), 0.0, 2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# proposals

def test_prune_on_single_leaf_is_invalid():
    d = _line_data([0.0, 1.0, 2.0])
    t = _refreshed(FlatTree.leaf(), d)
    star, logq, kind = propose_tree(
        t, np.random.default_rng(0), (0.0, 1.0, 0.0, 0.0), StoppingRule()
    )
    assert kind == "prune" and star is None and logq == -np.inf


def test_grow_then_prune_restores_topology():
    d = _line_data([0.0, 1.0, 2.0, 3.0])
    gen = np.random.default_rng(3)
    t = _refreshed(FlatTree.leaf(), d)
    star, _, kind = propose_tree(t, gen, (1.0, 0.0, 0.0, 0.0), StoppingRule())
    assert kind == "grow" and star is not None and len(star.leaves) == 2
    back, _, kind2 = propose_tree(star, gen, (0.0, 1.0, 0.0, 0.0), StoppingRule())
    assert kind2 == "prune" and back is not None and len(back.leaves) == 1


def test_grow_q_ratio_hand_count():
    # single leaf, 1 variable, 2 candidate cuts, symmetric move probabilities:
    # forward prob 1/(1*1*2) * p_g, reverse prune prob p_p / 1
    d = _line_data([0.0, 1.0, 2.0])
    t = _refreshed(FlatTree.leaf(), d)
    for seed in range(20):
        star, logq, kind = propose_tree(
            t, np.random.default_rng(seed), (0.5, 0.5, 0.0, 0.0), StoppingRule()
        )
        if kind == "grow":
            break
    assert kind == "grow" and star is not None
    assert logq == pytest.approx(math.log(2.0))


def test_prune_q_ratio_hand_count():
    # a stump over 3 rows, symmetric move probabilities: forward prob p_p / 1
    # (one prunable node), reverse grow prob p_g / (1 leaf * 1 variable * 2 cuts)
    d = _line_data([0.0, 1.0, 2.0])
    t = _refreshed(grown_tree((0, 0, 0.5)), d)
    for seed in range(20):
        star, logq, kind = propose_tree(
            t, np.random.default_rng(seed), (0.5, 0.5, 0.0, 0.0), StoppingRule()
        )
        if kind == "prune":
            break
    assert kind == "prune" and star is not None and len(star.leaves) == 1
    assert logq == pytest.approx(-math.log(2.0))


def test_grow_and_the_prune_undoing_it_negate_their_log_q_ratios():
    # skewed move probabilities, so that neither ratio is 0 by symmetry
    probs = (0.4, 0.3, 0.2, 0.1)
    d = random_dataset(np.random.default_rng(4), 40, 3)
    t = _refreshed(grown_tree((0, 0, 0.0), (1, 1, 0.1)), d)
    gen = np.random.default_rng(9)
    pairs = 0
    while pairs < 10:
        star, grow_q, kind = propose_tree(t, gen, probs, StoppingRule())
        if kind != "grow" or star is None:
            continue
        while True:
            back, prune_q, kind = propose_tree(star, gen, probs, StoppingRule())
            if kind == "prune" and back is not None and len(back.nodes.feature) == len(
                    t.nodes.feature):
                break
        if (back.nodes.feature, back.nodes.threshold) == (t.nodes.feature, t.nodes.threshold):
            assert np.isfinite(grow_q)
            assert np.float64(prune_q).tobytes() == np.float64(-grow_q).tobytes()
            pairs += 1


def test_proposals_respect_min_leaf_size():
    # any split of 3 points leaves one side with a single point
    d = _line_data([0.0, 1.0, 2.0])
    t = _refreshed(FlatTree.leaf(), d, min_count=1)
    rule = StoppingRule(min_leaf_fraction=0.5)  # min_count = 2
    star, logq, kind = propose_tree(
        t, np.random.default_rng(0), (1.0, 0.0, 0.0, 0.0), rule
    )
    assert star is None and logq == -np.inf


def test_project_keeps_b_of_a_read_only_residual_only():
    # b = V^T R is kept for the read-only residual of a step, and formed
    # anew for a writable one, which may have changed in place since
    d = random_dataset(np.random.default_rng(3), 30, 2)
    t = _refreshed(grown_tree((0, 0, 0.0)), d)
    R = np.random.default_rng(4).normal(size=d.n)
    b = t.project(R)
    R += 1.0
    assert np.array_equal(t.project(R), t.membership().T @ R) and not np.array_equal(b, t.project(R))
    R.setflags(write=False)
    assert t.project(R) is t.project(R)


class _Scripted:
    """A generator for `propose_tree` that draws given values: random()
    returns 0.5, which falls in the one move of probability 1, and
    integers(k) the next of `draws`."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return 0.5

    def integers(self, k):
        draw = self.draws.pop(0)
        assert 0 <= draw < k
        return draw


@pytest.mark.parametrize("kind", ["hard", "soft", "tied"])
def test_leaf_size_precheck_rejects_only_what_refresh_rejects(kind, monkeypatch):
    # every grow draw (leaf, coordinate, cut) and change draw (internal node,
    # coordinate, cut) on the distinct trees of a chain at min_leaf_fraction
    # 0.2: propose_tree returns a candidate exactly when an edited copy
    # refreshes, and a move that ends before any copy is one whose copy would not
    d = random_dataset(np.random.default_rng(11), 40, 3)
    if kind == "tied":
        d = Dataset(np.round(d.features), d.target, d.feature_names)
    sigma = np.zeros(3) if kind == "hard" else 0.3 * d.features.std(axis=0, ddof=1)
    rule = StoppingRule(min_leaf_fraction=0.2)
    min_count = rule.min_count(d.n)
    chain = fit_pbart(d, PBartHyper(m=3, it_burn=10, it_max=30), sigma, RngSpec(2), rule)
    distinct = {(tuple(nodes.feature), tuple(nodes.threshold), tuple(nodes.left)): nodes
                for snap in chain.trees for nodes in snap}
    copies, copy = [], SampledTree.copy
    monkeypatch.setattr(SampledTree, "copy", lambda self: copies.append(self) or copy(self))
    precheck = refresh_rejects = valid = 0
    for nodes in distinct.values():
        t = SampledTree(nodes.copy(), sigma)
        assert t.refresh(d, min_count)
        for move, probs, pool in (("grow", (1.0, 0.0, 0.0, 0.0), t.leaves),
                                  ("change", (0.0, 0.0, 1.0, 0.0), t.internals)):
            for a, i in enumerate(pool):
                X = d.features[t.at[i].rows]
                adm = [j for j in range(d.p) if np.unique(X[:, j]).size > 1]
                for b, j in enumerate(adm):
                    for c, s in enumerate(cut_points(np.sort(X[:, j]))[1]):
                        before = len(copies)
                        star, log_q, got = propose_tree(t, _Scripted(a, b, c), probs, rule)
                        oracle = SampledTree(t.nodes.copy(), sigma)
                        if move == "grow":
                            oracle.nodes.grow(i, j, float(s))
                        else:
                            oracle.nodes.feature[i], oracle.nodes.threshold[i] = j, float(s)
                        ok = oracle.refresh(d, min_count)
                        assert got == move and (star is not None) == ok
                        if len(copies) == before:
                            assert not ok and log_q == -np.inf
                            precheck += 1
                        else:
                            refresh_rejects += not ok
                            valid += ok
    assert precheck > 0 and valid > 0 and refresh_rejects > 0


def test_change_and_swap_moves():
    rng = np.random.default_rng(7)
    d = random_dataset(rng, 50, 2)
    t = _refreshed(grown_tree((0, 0, 0.0), (1, 1, 0.1)), d)
    gen = np.random.default_rng(5)
    star, logq, kind = propose_tree(t, gen, (0.0, 0.0, 1.0, 0.0), StoppingRule())
    assert kind == "change"
    if star is not None:
        assert len(star.leaves) == len(t.leaves)
        assert np.isfinite(logq)
    star2, logq2, kind2 = propose_tree(t, gen, (0.0, 0.0, 0.0, 1.0), StoppingRule())
    assert kind2 == "swap"
    if star2 is not None:
        assert logq2 == 0.0


def _oracle_regions(nodes, i, region):
    """(node, region) of node i and of its subtree in preorder, from Region.split alone."""
    yield i, region
    if nodes.feature[i] >= 0:
        left, right = region.split(nodes.feature[i], nodes.threshold[i])
        yield from _oracle_regions(nodes, nodes.left[i], left)
        yield from _oracle_regions(nodes, nodes.right[i], right)


def _oracle_depths(nodes, i=0, depth=0):
    """(node, depth) of node i and of its subtree in preorder."""
    yield i, depth
    if nodes.feature[i] >= 0:
        yield from _oracle_depths(nodes, nodes.left[i], depth + 1)
        yield from _oracle_depths(nodes, nodes.right[i], depth + 1)


def _state(t):
    """The node arrays (split rules and weights) and every cache of t, as plain values."""
    return (
        asdict(t.nodes),
        [(t.at[i].lower.tolist(), t.at[i].upper.tolist()) for i in t.leaves],
        [(i, t.at[i].depth, t.at[i].rows.tolist()) for i in sorted(t.at)],
        t.internals[:], t.leaves[:], t.pairs[:],
        [t.n_cuts(node) for node in t.internals],
    )


def _check_node_caches(t, d, sigma):
    """Every node cache of t, carried across proposals, equals its value
    computed afresh from the region that Region.split derives, and the tree's
    kept V and G equal those stacked and multiplied from fresh columns."""
    regions = dict(_oracle_regions(t.nodes, 0, Region.root(d.p)))
    # the cache holds the root and each split's children, of this tree only
    assert len(t.paths) == 1 + len(t.internals)
    assert sorted(t.at) == sorted(regions)
    assert {i: node.depth for i, node in t.at.items()} == dict(_oracle_depths(t.nodes))
    for i, node in t.at.items():
        rows = np.flatnonzero(regions[i].contains(d.features))
        assert node.lower.tobytes() == regions[i].lower.tobytes()
        assert node.upper.tobytes() == regions[i].upper.tobytes()
        assert not (node.lower.flags.writeable or node.upper.flags.writeable)
        assert np.array_equal(node.rows, rows)
        if node.adm is not None:
            distinct = [np.unique(d.features[rows, j]).size for j in range(d.p)]
            assert node.adm == [j for j in range(d.p) if distinct[j] > 1]
        for j, (left, cuts) in node.cuts.items():
            assert cuts.tobytes() == cut_points(np.sort(d.features[rows, j]))[1].tobytes()
            # left counts the rows at or below each cut; every cut leaves rows
            # on both sides, and no two cuts partition alike
            assert np.array_equal(left, np.count_nonzero(d.features[rows, j, None] <= cuts, axis=0))
            assert np.all(np.diff(np.concatenate(([0], left, [rows.size]))) > 0)
        if node.col is not None:
            want = membership_column(d.features, regions[i], sigma)
            assert node.col.tobytes() == want.tobytes()
    if t.V is not None:
        V = np.column_stack([membership_column(d.features, regions[i], sigma) for i in t.leaves])
        assert t.V.tobytes() == V.tobytes() and t.V.shape == V.shape
        assert not t.V.flags.writeable
    if t.G is not None:
        assert t.G.tobytes() == (V.T @ V).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_proposal_bookkeeping_matches_region_oracle(seed):
    # rounded features give tied values, and at seed 3 column b holds adjacent
    # doubles, half of whose midpoints round onto the upper value; rows,
    # regions, cut counts, admissible sets, cut arrays and membership columns
    # carried across proposals must equal those Region.split and
    # Region.contains derive afresh, and a proposal must leave the current
    # tree untouched
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(60, 3)), 1)
    if seed == 3:
        X[:, 1] = 1.0 + rng.integers(8, size=60) * 2.0**-52
    d = Dataset(X, rng.normal(size=60), ("a", "b", "c"))
    sigma = np.array([0.3, 0.0, 0.2])
    rule = StoppingRule(min_leaf_fraction=0.05)
    gen = np.random.default_rng(100 + seed)
    t = SampledTree(FlatTree.leaf(0.1), sigma)
    assert t.refresh(d, rule.min_count(d.n))
    seen = set()
    for _ in range(400):
        before = _state(t)
        star, _, kind = propose_tree(t, gen, (0.25, 0.25, 0.25, 0.25), rule)
        if star is not None:
            seen.add(kind)
            star.gram()
            regions = dict(_oracle_regions(star.nodes, 0, Region.root(d.p)))
            # every array entry is reachable from the root: a prune leaves no orphans
            assert sorted(regions) == list(range(len(star.nodes.feature)))
            assert {len(a) for a in asdict(star.nodes).values()} == {len(regions)}
            assert star.leaves == [i for i in regions if star.nodes.feature[i] < 0]
            for node in star.internals:
                mask = regions[node].contains(d.features)
                values = np.unique(d.features[mask, star.nodes.feature[node]])
                assert star.n_cuts(node) == ((values[:-1] + values[1:]) / 2.0).size
            _check_node_caches(star, d, sigma)
            star.set_gammas(gen.normal(size=len(star.leaves)))
        assert _state(t) == before
        _check_node_caches(t, d, sigma)
        if star is not None and gen.random() < 0.6:
            t = star
    assert seen == {"grow", "prune", "change", "swap"}


def _fit_pbart_uncached(d, hyper, sigma, seed, rule):
    """fit_pbart's sampler with nothing carried between proposals: before each
    proposal the current tree is refreshed from a copy of its node arrays,
    the proposal is refreshed afresh and every membership column and log
    prior is evaluated anew."""
    min_count = rule.min_count(d.n)

    def fresh(nodes):
        t = SampledTree(nodes.copy(), sigma)
        assert t.refresh(d, min_count)
        return t

    def columns(t):
        return np.column_stack([membership_column(d.features, r, sigma)
                                for _, r in t.nodes.leaf_regions(d.p)])

    def fresh_v(nodes):
        # a refreshed tree whose V and G are formed here, from fresh columns
        t = fresh(nodes)
        t.V = columns(t)
        t.G = t.V.T @ t.V
        return t

    y_min, y_max = float(d.target.min()), float(d.target.max())
    y_norm = (d.target - y_min) / (y_max - y_min) - 0.5
    hyper = hyper.calibrated(y_norm)
    gen = RngSpec(seed).generator()
    trees = [fresh(FlatTree.leaf(float(gen.normal(0.0, hyper.sigma_gamma))))
             for _ in range(hyper.m)]
    fits = np.array([columns(t) @ t.gammas() for t in trees])
    total_fit = fits.sum(axis=0)
    sigma_tilde = math.sqrt((hyper.nu * hyper.lam / 2.0) / gen.gamma(hyper.nu / 2.0))
    accept_log = {kind: {"accepted": 0, "rejected": 0} for kind in MOVES}
    sigma_trace, snapshots = [], []
    for it in range(1, hyper.it_max + 1):
        for ell in range(hyper.m):
            R = y_norm - (total_fit - fits[ell])
            t = fresh(trees[ell].nodes)
            star, log_q, kind = propose_tree(t, gen, hyper.move_probs, rule)
            accepted = star is not None and mh_accept(
                fresh_v(t.nodes), fresh_v(star.nodes), R, hyper, gen, sigma_tilde, log_q)
            accept_log[kind]["accepted" if accepted else "rejected"] += 1
            trees[ell] = t = fresh_v((star if accepted else t).nodes)
            new_fit = t.V @ draw_gammas(t, t.V.T @ R, hyper, gen, sigma_tilde)
            total_fit += new_fit - fits[ell]
            fits[ell] = new_fit
        sigma_tilde = draw_sigma_tilde(y_norm, total_fit, hyper, gen)
        sigma_trace.append(sigma_tilde)
        if it > hyper.it_burn:
            snapshots.append([t.nodes.copy() for t in trees])
    return PBartChain(snapshots, np.array(sigma_trace), accept_log, sigma, y_min,
                      y_max - y_min, hyper, d.feature_names)


@pytest.mark.parametrize("kind", ["hard", "soft", "mixed"])
@pytest.mark.parametrize("max_depth", [None, 2])
def test_carried_caches_sample_the_uncached_chain(kind, max_depth):
    # rounded features give tied values; min_count = 3 rows
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 60, 3)
    d = Dataset(np.round(d.features, 1), d.target, d.feature_names)
    std = d.features.std(axis=0, ddof=1)
    sigma = {"hard": np.zeros(3), "soft": 0.3 * std, "mixed": np.array([0.3, 0.0, 0.2]) * std}[kind]
    rule = StoppingRule(min_leaf_fraction=0.05, max_depth=max_depth)
    hyper = PBartHyper(m=4, it_burn=10, it_max=40)
    want = _fit_pbart_uncached(d, hyper, sigma, 8, rule)
    got = fit_pbart(d, hyper, sigma, RngSpec(8), rule)
    assert all(want.acceptance_log[move]["accepted"] > 0 for move in MOVES)
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# MH accept

def test_mh_identity_always_accepts():
    d = _line_data([0.0, 1.0, 2.0], y=[1.0, -1.0, 0.5])
    t = _refreshed(FlatTree.leaf(), d)
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=0.5)
    gen = np.random.default_rng(0)
    for _ in range(20):
        assert mh_accept(t, t, d.target, hyper, gen, sigma_tilde=0.7)


def test_mh_invalid_always_rejects():
    d = _line_data([0.0, 1.0, 2.0])
    t = _refreshed(FlatTree.leaf(), d)
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=0.5)
    gen = np.random.default_rng(0)
    assert not mh_accept(t, None, d.target, hyper, gen, 0.7, -np.inf)


def test_mh_acceptance_frequency_matches_delta():
    d = _line_data([0.0, 1.0, 2.0], y=[0.4, -0.2, 0.1])
    t = _refreshed(FlatTree.leaf(), d)
    star = _refreshed(grown_tree((0, 0, 0.5)), d)
    P = np.ones((3, 1))
    Ps = np.column_stack([(d.features[:, 0] <= 0.5), (d.features[:, 0] > 0.5)]).astype(float)
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=0.4)
    st, logq = 0.3, -2.0
    delta = (
        logq
        + marginal_log_likelihood(Ps.T @ Ps, Ps.T @ d.target, d.target @ d.target, 3, 0.4, st)
        - marginal_log_likelihood(P.T @ P, P.T @ d.target, d.target @ d.target, 3, 0.4, st)
        + tree_log_prior(star, 0.95, 2.0)
        - tree_log_prior(t, 0.95, 2.0)
    )
    prob = min(1.0, math.exp(delta))
    assert 0.0 < prob < 1.0  # a non-trivial case
    gen = np.random.default_rng(42)
    n = 40000
    hits = sum(
        mh_accept(t, star, d.target, hyper, gen, st, logq) for _ in range(n)
    )
    se = math.sqrt(prob * (1 - prob) / n)
    assert abs(hits / n - prob) <= 3 * se


# ---------------------------------------------------------------------------
# Gibbs draws

def test_draw_gammas_simple_posterior():
    d = _line_data([0.0])
    t = _refreshed(FlatTree.leaf(), d, min_count=1)
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=1.0)
    gen = np.random.default_rng(0)
    draws = np.array(
        [
            draw_gammas(t, np.zeros(1), hyper, gen, sigma_tilde=1.0)[0]
            for _ in range(30000)
        ]
    )
    # N(0, 1/2): A=1, B=0
    assert abs(draws.mean()) <= 3 * math.sqrt(0.5 / len(draws))
    assert draws.var() == pytest.approx(0.5, rel=0.05)


def test_draw_gammas_flat_prior_limit():
    rng = np.random.default_rng(4)
    V = rng.random((30, 2))
    R = rng.normal(size=30)
    d = _line_data(np.arange(30.0))
    t = SampledTree(grown_tree((0, 0, 14.5)), np.zeros(1))
    assert t.refresh(d, 1)
    t.G = V.T @ V  # the draw reads the tree's Gram matrix
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=1e6)
    # with a flat prior, the first draw of a sweep concentrates near the
    # per-column least-squares value conditioned on the frozen other weight
    A = float(V[:, 0] @ V[:, 0])
    B = float(V[:, 0] @ R)
    sub = []
    gen = np.random.default_rng(2)
    for _ in range(2000):
        t.set_gammas([0.0, 0.0])
        sub.append(draw_gammas(t, V.T @ R, hyper, gen, sigma_tilde=0.01)[0])
    assert np.mean(sub) == pytest.approx(B / A, abs=0.01)


def test_draw_gammas_conditions_on_fresh_draws():
    # within one sweep, leaf 2's draw is N(mean, sd^2) given leaves 0 and 1
    # as drawn in that sweep, not as they stood before it
    rng = np.random.default_rng(6)
    V = rng.random((20, 3))
    R = rng.normal(size=20)
    d = _line_data(np.arange(20.0))
    t = SampledTree(grown_tree((0, 0, 9.5), (2, 0, 14.5)), np.zeros(1))
    assert t.refresh(d, 1)
    assert len(t.leaves) == 3
    sg, st = 0.5, 0.4
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=sg)
    G, b = V.T @ V, V.T @ R
    t.G = G  # the draw reads the tree's Gram matrix
    gen = np.random.default_rng(7)
    n = 20000
    z = np.empty(n)
    for i in range(n):
        t.set_gammas([3.0, -3.0, 0.0])
        g = draw_gammas(t, b, hyper, gen, st)
        denom = st**2 + sg**2 * G[2, 2]
        mean = sg**2 * (b[2] - G[2, 0] * g[0] - G[2, 1] * g[1]) / denom
        z[i] = (g[2] - mean) / math.sqrt(st**2 * sg**2 / denom)
    assert abs(z.mean()) <= 3 / math.sqrt(n)
    assert abs(z.var(ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / (n - 1))


def test_draw_sigma_tilde_moments():
    hyper = PBartHyper(m=1, nu=3.0, lam=1.0)
    y = np.zeros(4)
    fit = np.array([1.0, 0.0, -1.0, 0.0])  # SSE = 2 -> IG(3.5, 2.5)
    gen = np.random.default_rng(0)
    n = 100000
    draws2 = np.array([draw_sigma_tilde(y, fit, hyper, gen) ** 2 for _ in range(n)])
    shape, scale = 3.5, 2.5
    mean = scale / (shape - 1.0)
    var = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    assert abs(draws2.mean() - mean) <= 3 * math.sqrt(var / n)
    assert np.all(draws2 > 0)


def test_draw_sigma_tilde_prior_fallback():
    hyper = PBartHyper(m=1, nu=3.0, lam=2.0)
    gen = np.random.default_rng(1)
    draws2 = np.array(
        [draw_sigma_tilde(np.zeros(0), np.zeros(0), hyper, gen) ** 2 for _ in range(50000)]
    )
    # prior IG(1.5, 3): infinite variance, so check the median instead
    from scipy.stats import invgamma

    med = invgamma.ppf(0.5, 1.5, scale=3.0)
    assert np.median(draws2) == pytest.approx(med, rel=0.05)


def test_draw_sigma_tilde_shape_mismatch():
    with pytest.raises(ValueError):
        draw_sigma_tilde(np.zeros(3), np.zeros(2), PBartHyper(m=1, lam=1.0), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full sampler

def test_fit_pbart_snapshot_count_and_validity(small_data):
    hyper = PBartHyper(m=3, it_burn=5, it_max=9)
    sigma = 0.2 * small_data.features.std(axis=0, ddof=1)
    chain = fit_pbart(small_data, hyper, sigma, RngSpec(0))
    assert chain.n_snapshots == 4
    min_count = StoppingRule().min_count(small_data.n)
    for snap in chain.snapshots:
        assert len(snap) == 3
        for regions, gammas in snap:
            assert len(regions) == len(gammas)
            counts = np.stack([r.contains(small_data.features) for r in regions])
            # leaves partition the space and obey the minimum size
            assert np.array_equal(counts.sum(axis=0), np.ones(small_data.n))
            assert np.all(counts.sum(axis=1) >= min_count)
    totals = sum(
        v["accepted"] + v["rejected"] for v in chain.acceptance_log.values()
    )
    assert totals == hyper.it_max * hyper.m


def test_fit_pbart_single_snapshot(small_data):
    hyper = PBartHyper(m=2, it_burn=3, it_max=4)
    chain = fit_pbart(small_data, hyper, np.zeros(3), RngSpec(1))
    assert chain.n_snapshots == 1


def test_fit_pbart_deterministic(small_data):
    hyper = PBartHyper(m=2, it_burn=2, it_max=6)
    a = fit_pbart(small_data, hyper, np.zeros(3), RngSpec(7))
    b = fit_pbart(small_data, hyper, np.zeros(3), RngSpec(7))
    assert a.to_json() == b.to_json()
    assert np.array_equal(a.sigma_trace, b.sigma_trace)


def test_fit_pbart_builds_one_root_node_for_all_trees(small_data, monkeypatch):
    # the trees share the root's _Node, so its admissible set and cuts are found once
    init, depths = _Node.__init__, []

    def counting(self, depth, *bounds_and_rows):
        depths.append(depth)
        init(self, depth, *bounds_and_rows)

    monkeypatch.setattr(_Node, "__init__", counting)
    fit_pbart(small_data, PBartHyper(m=4, it_burn=2, it_max=4), np.zeros(3), RngSpec(3))
    assert depths.count(0) == 1


def test_fit_pbart_forms_one_gram_matrix_per_tree(small_data, monkeypatch):
    # each tree keeps its G = V^T V: the m initial trees and each valid
    # proposal form one, a rejection or an invalid proposal none
    gram, formed = SampledTree.gram, []
    propose, valid = pbart.propose_tree, []

    def counting_gram(self):
        formed.append(self.G is None)
        return gram(self)

    def counting_proposals(*args):
        star = propose(*args)
        valid.append(star[0] is not None)
        return star

    monkeypatch.setattr(SampledTree, "gram", counting_gram)
    monkeypatch.setattr(pbart, "propose_tree", counting_proposals)
    hyper = PBartHyper(m=4, it_burn=10, it_max=40)
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    chain = fit_pbart(small_data, hyper, sigma, RngSpec(5), StoppingRule(min_leaf_fraction=0.05))
    rejected = sum(v["rejected"] for v in chain.acceptance_log.values())
    assert len(valid) == hyper.m * hyper.it_max and 0 < sum(valid) < rejected
    assert sum(formed) == hyper.m + sum(valid)


def test_fit_pbart_rejects_max_leaves(small_data):
    # the tree sizes come from the prior; a leaf cap was silently ignored
    rule = StoppingRule(min_leaf_fraction=0.05, max_leaves=2)
    with pytest.raises(ValueError, match="max_leaves"):
        fit_pbart(small_data, PBartHyper(m=3, it_burn=10, it_max=40), np.zeros(3), RngSpec(0), rule)


def test_fit_pbart_rejects_tiny_data():
    d = _line_data([0.0])
    with pytest.raises(ValueError):
        fit_pbart(d, PBartHyper(m=1, it_burn=1, it_max=2), np.zeros(1), RngSpec(0))


@pytest.mark.parametrize("sigma", [[np.nan, 0.1], [np.inf, 0.1], [-1.0, 0.1], [0.1]])
def test_fit_pbart_rejects_bad_sigma(sigma):
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 30, 2)
    with pytest.raises(ValueError, match="sigma must be 2 finite non-negative numbers"):
        fit_pbart(d, PBartHyper(m=2, it_burn=1, it_max=3), sigma, RngSpec(0))


def test_calibrated_lam_is_the_invgamma_quantile():
    # lam puts prior mass 0.9 below the target variance: 2 s2 / (nu lam) is
    # the 0.9 quantile of InvGamma(nu / 2, 1), checked by its CDF Q(nu / 2, 1 / x)
    from scipy.special import gammaincc

    y = np.random.default_rng(9).uniform(-0.5, 0.5, size=40)
    s2 = float(np.var(y, ddof=1))
    for nu in (0.5, 1.0, 3.0, 10.0):
        lam = PBartHyper(nu=nu).calibrated(y).lam
        q = 2.0 * s2 / (nu * lam)
        assert gammaincc(nu / 2.0, 1.0 / q) == pytest.approx(0.9, abs=1e-12)


def test_fit_pbart_single_leaf_posterior_mean(monkeypatch):
    # growth disabled and the noise scale pinned: the one tree stays a single
    # leaf, and the gamma trace is an iid sample from the conjugate normal
    # posterior
    rng = np.random.default_rng(0)
    n = 40
    y = rng.normal(0.3, 0.1, size=n)
    d = Dataset(rng.normal(size=(n, 1)), y, ("a",))
    st = 0.2
    monkeypatch.setattr(pbart, "draw_sigma_tilde", lambda *args: st)
    hyper = PBartHyper(m=1, it_burn=50, it_max=2050, move_probs=(0.0, 1.0, 0.0, 0.0))
    chain = fit_pbart(d, hyper, np.zeros(1), RngSpec(5))
    gammas = np.array([snap[0][1][0] for snap in chain.snapshots])
    y_norm = (y - y.min()) / (y.max() - y.min()) - 0.5
    sg = chain.hyper.sigma_gamma
    post_mean = sg**2 * y_norm.sum() / (st**2 + sg**2 * n)
    post_var = st**2 * sg**2 / (st**2 + sg**2 * n)
    se = math.sqrt(post_var / len(gammas))
    assert abs(gammas.mean() - post_mean) <= 4 * se


def test_predict_single_leaf_unscaling():
    chain = PBartChain(
        trees=[[FlatTree.leaf(0.25)]],
        sigma_trace=np.array([1.0]),
        acceptance_log={},
        sigma=np.zeros(1),
        y_offset=10.0,
        y_scale=4.0,
        hyper=PBartHyper(m=1, lam=1.0, sigma_gamma=0.25),
    )
    # (0.25 + 0.5) * 4 + 10 = 13
    assert chain.predict(np.array([[0.0]]))[0] == pytest.approx(13.0)


def test_predict_averages_snapshots():
    chain = PBartChain(
        trees=[[FlatTree.leaf(0.0)], [FlatTree.leaf(1.0)]],
        sigma_trace=np.array([1.0, 1.0]),
        acceptance_log={},
        sigma=np.zeros(1),
        y_offset=0.0,
        y_scale=1.0,
        hyper=PBartHyper(m=1, lam=1.0, sigma_gamma=0.25),
    )
    # snapshot predictions 0.5 and 1.5 in target units -> mean 1.0
    assert chain.predict(np.array([[0.0]]))[0] == pytest.approx(1.0)


def test_predict_equals_mean_of_per_snapshot_predictions(small_data):
    hyper = PBartHyper(m=2, it_burn=2, it_max=8)
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    chain = fit_pbart(small_data, hyper, sigma, RngSpec(3))
    X = small_data.features[:10]
    per_snap = []
    for snap in chain.trees:
        single = PBartChain(
            trees=[snap],
            sigma_trace=chain.sigma_trace,
            acceptance_log={},
            sigma=chain.sigma,
            y_offset=chain.y_offset,
            y_scale=chain.y_scale,
            hyper=chain.hyper,
        )
        per_snap.append(single.predict(X))
    assert np.allclose(chain.predict(X), np.mean(per_snap, axis=0), atol=1e-12)


def test_predict_equals_region_by_region_oracle(small_data):
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    sigma[1] = 0.0
    chain = fit_pbart(small_data, PBartHyper(m=5, it_burn=5, it_max=15), sigma, RngSpec(4))
    X = small_data.features
    # group each distinct region's weights in first-seen order, then one column per region
    groups = {}
    for snap in chain.snapshots:
        for regions, gammas in snap:
            for region, g in zip(regions, gammas):
                key = (tuple(region.lower), tuple(region.upper))
                region_g = groups.setdefault(key, [region, 0.0])
                region_g[1] += float(g)
    assert len(groups) > 5
    held_out = np.random.default_rng(5).normal(size=(30, 3))
    for X in (X, held_out):
        total = np.zeros(X.shape[0])
        for region, gsum in groups.values():
            total += gsum * membership_column(X, region, sigma)
        want = (total / chain.n_snapshots + 0.5) * chain.y_scale + chain.y_offset
        assert np.array_equal(chain.predict(X), want)


@pytest.mark.parametrize("move_probs", [(0.25, 0.25, 0.25, 0.25), (0.5, 0.0, 0.3, 0.2)])
def test_move_kind_draw_matches_generator_choice(move_probs):
    d = _line_data(np.arange(12.0))
    t = _refreshed(FlatTree.leaf(), d)
    gen, ref = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(300):
        _, _, kind = propose_tree(t, gen, move_probs, StoppingRule(0.1))
        assert kind == MOVES[ref.choice(4, p=move_probs)]
        if kind == "grow":  # then the leaf, the coordinate and one of 11 cuts are drawn
            ref.integers(1), ref.integers(1), ref.integers(11)
    assert gen.bit_generator.state == ref.bit_generator.state


def test_chain_json_roundtrip(small_data):
    hyper = PBartHyper(m=2, it_burn=2, it_max=5)
    chain = fit_pbart(small_data, hyper, np.zeros(3), RngSpec(2))
    again = PBartChain.from_json(chain.to_json())
    X = small_data.features[:7]
    assert np.array_equal(chain.predict(X), again.predict(X))
    assert chain.to_json() == again.to_json()
    assert chain.trees == again.trees


def test_chain_file_writes_each_structure_once(small_data):
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    chain = fit_pbart(small_data, PBartHyper(m=5, it_burn=5, it_max=25), sigma, RngSpec(4))
    obj = json.loads(chain.to_json())
    arrays = ("feature", "threshold", "left", "right")
    distinct = []
    for snap in chain.trees:
        for t in snap:
            if [getattr(t, a) for a in arrays] not in distinct:
                distinct.append([getattr(t, a) for a in arrays])
    assert [[s[a] for a in arrays] for s in obj["structures"]] == distinct
    assert len(distinct) < 5 * 20  # structures recur, so the file is shorter
    assert {k for snap in obj["snapshots"] for k, _ in snap} == set(range(len(distinct)))
    for snap, entries in zip(chain.trees, obj["snapshots"]):
        for t, (k, weights) in zip(snap, entries):
            assert distinct[k] == [getattr(t, a) for a in arrays]
            assert weights == [v for v, j in zip(t.value, t.feature) if j == -1]
    again = PBartChain.from_json(chain.to_json())
    assert again.trees == chain.trees and again == chain
    X = small_data.features
    assert np.array_equal(again.predict(X), chain.predict(X))


def test_reloaded_chain_snapshots_equal_fitted(small_data):
    sigma = 0.3 * small_data.features.std(axis=0, ddof=1)
    chain = fit_pbart(small_data, PBartHyper(m=5, it_burn=5, it_max=15), sigma, RngSpec(4))
    again = PBartChain.from_json(chain.to_json())

    def as_bytes(c):
        return [
            [([r.lower.tobytes() + r.upper.tobytes() for r in regions], gammas.tobytes())
             for regions, gammas in snap]
            for snap in c.snapshots
        ]

    got = as_bytes(again)
    assert got == as_bytes(chain) and len(got) == 10 and all(len(s) == 5 for s in got)
    assert any(len(regions) > 1 for snap in got for regions, _ in snap)


def test_predict_dimension_mismatch(small_data):
    hyper = PBartHyper(m=1, it_burn=1, it_max=3)
    chain = fit_pbart(small_data, hyper, np.zeros(3), RngSpec(0))
    with pytest.raises(ValueError):
        chain.predict(np.ones((2, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        chain.predict(np.array([[0.0, np.nan, 0.0]]))


@pytest.mark.parametrize("field, value", [
    ("nu", 0.0), ("nu", -1.0), ("nu", np.nan), ("nu", np.inf),
    ("beta", -1.0), ("beta", np.nan), ("beta", np.inf),
    ("lam", 0.0), ("lam", -1.0), ("lam", np.nan), ("lam", np.inf),
    ("sigma_gamma", -1.0), ("sigma_gamma", np.nan), ("sigma_gamma", np.inf),
    ("it_burn", -1),
])
def test_hyper_rejects_values_that_break_the_chain(field, value):
    # each gave NaN predictions, a chain that rejects every move, or a numpy
    # error deep inside the fit
    with pytest.raises(ValueError, match=f"^{field} must be finite and >=? 0$"):
        PBartHyper(**{field: value})


def test_hyper_accepts_boundary_values():
    hyper = PBartHyper(beta=0.0, sigma_gamma=0.0, it_burn=0, lam=None)
    assert (hyper.beta, hyper.sigma_gamma, hyper.it_burn, hyper.lam) == (0.0, 0.0, 0, None)


def test_hyper_validation():
    with pytest.raises(ValueError):
        PBartHyper(m=0)
    with pytest.raises(ValueError):
        PBartHyper(alpha=1.5)
    with pytest.raises(ValueError):
        PBartHyper(it_burn=10, it_max=10)
    with pytest.raises(ValueError):
        PBartHyper(move_probs=(0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("move_probs",
                         [(0.2,) * 5, (0.5, 0.5), (), (float("nan"), 0.5, 0.25, 0.25)])
def test_hyper_needs_one_probability_per_move(move_probs):
    # five entries died with an IndexError in propose_tree, and two never drew
    # change or swap
    with pytest.raises(ValueError, match="move_probs"):
        PBartHyper(move_probs=move_probs)
