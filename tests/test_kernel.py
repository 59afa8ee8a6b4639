import numpy as np
import pytest
from scipy.integrate import quad

from conftest import grown_tree, order_block, split_leaf
from prtree import kernel, tree
from prtree.data import Dataset, check_features
from prtree.kernel import (
    Boxes,
    build_membership,
    membership_column,
    normal_cdf,
)
from prtree.pbart import SampledTree
from prtree.regions import Region
from prtree.tree import FlatTree, StoppingRule, _leaf_cuts, _Node


def _normal_pdf(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def test_normal_cdf_against_quadrature():
    for t in (-3.0, -0.5, 0.0, 0.7, 2.5):
        ref, _ = quad(_normal_pdf, -10.0, t)
        assert normal_cdf(t) == pytest.approx(ref, abs=1e-12)


def test_normal_cdf_tail_accuracy():
    # far-left tail keeps relative accuracy (no 1 - Phi cancellation)
    val = float(normal_cdf(-10.0))
    ref, _ = quad(_normal_pdf, -40.0, -10.0)
    assert val == pytest.approx(ref, rel=1e-10)
    assert float(normal_cdf(10.0)) == pytest.approx(1.0, abs=1e-15)


def _interval(a, b):
    return Region(np.array([a]), np.array([b]))


def test_membership_column_center_one_sigma():
    # mass of (x - s, x + s] around its center: Phi(1) - Phi(-1)
    x = np.array([[2.0]])
    got = membership_column(x, _interval(1.0, 3.0), np.array([1.0]))[0]
    ref, _ = quad(_normal_pdf, -1.0, 1.0)
    assert got == pytest.approx(ref, abs=1e-12)
    assert got == pytest.approx(0.6826894921, abs=1e-9)


def test_membership_column_hard_indicator():
    x = np.array([[0.0], [1.0], [1.5], [2.0], [2.5]])
    got = membership_column(x, _interval(1.0, 2.0), np.array([0.0]))
    # half-open (a, b]: boundary a excluded, boundary b included
    assert got.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0]


def test_membership_column_infinite_bounds():
    x = np.array([[-50.0], [0.0], [50.0]])
    assert np.array_equal(membership_column(x, Region.root(1), np.array([2.0])), np.ones(3))
    got = membership_column(x, _interval(-np.inf, 0.0), np.array([1.0]))
    assert got[1] == pytest.approx(0.5)
    assert got[0] == pytest.approx(1.0) and got[2] == pytest.approx(0.0, abs=1e-300)


def test_psi_product_over_coordinates():
    r = Region(np.array([-1.0, -np.inf]), np.array([1.0, 0.0]))
    sigma = np.array([1.0, 1.0])
    x = np.array([0.0, 0.0])
    expected = (normal_cdf(1.0) - normal_cdf(-1.0)) * 0.5
    assert membership_column(x[None], r, sigma)[0] == pytest.approx(float(expected), abs=1e-12)
    # a point is checked, as every predictor checks its rows, before its membership
    with pytest.raises(ValueError):
        check_features(np.array([0.0])[None], 2)
    with pytest.raises(ValueError, match="non-finite"):
        check_features(np.array([0.0, np.nan])[None], 2)


def test_membership_rows_sum_to_one_over_partition():
    rng = np.random.default_rng(0)
    d = Dataset(rng.normal(size=(40, 2)), rng.normal(size=40), ("a", "b"))
    root = Region.root(2)
    l, r = root.split(0, 0.3)
    rl, rr = r.split(1, -0.2)
    V = build_membership(d, [l, rl, rr], np.array([0.5, 0.8]))
    assert np.allclose(V.sum(axis=1), 1.0, atol=1e-9)
    assert V.shape == (40, 3)


def test_child_columns_sum_to_parent():
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30), ("a", "b", "c"))
    sigma = np.array([0.4, 0.0, 1.2])
    root = _Node.root(d)
    [parent] = Boxes([root], sigma).columns(d.features)
    children = root.split(d, 2, 0.1, sigma)
    V2 = np.column_stack(list(Boxes(children, sigma).columns(d.features)))
    assert V2.shape[1] == 2 and [c.upper[2] for c in children] == [0.1, np.inf]
    assert np.allclose(V2.sum(axis=1), parent, atol=1e-9)
    assert np.array_equal(V2, np.column_stack([c.col for c in children]))


def test_split_evaluates_phi_once_at_the_childrens_shared_bound(monkeypatch):
    # a root split's children share their one finite bound: n values of Phi, not 2n
    rng = np.random.default_rng(3)
    d = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30), ("a", "b", "c"))
    sigma = np.array([0.4, 0.0, 1.2])
    children = _Node.root(d).split(d, 2, 0.1, sigma)
    evals = []

    def counting(t):
        evals.append(np.size(t))
        return normal_cdf(t)

    monkeypatch.setattr(kernel, "normal_cdf", counting)
    list(Boxes(children, sigma).columns(d.features))
    assert sum(evals) == d.n


def test_one_split_evaluates_n_values_of_phi_for_both_children(cdf_evals):
    # the children keep the parent's F pairs by reference: a split deep in the
    # tree evaluates Phi at its split value alone, and its children's columns
    # are those `Boxes` gives their regions
    rng = np.random.default_rng(33)
    X = rng.normal(size=(70, 3))
    d = Dataset(X, rng.normal(size=70), ("a", "b", "c"))
    for sigma in (np.array([0.4, 0.6, 0.3]), np.array([0.4, 0.0, 0.3])):
        _, node = _Node.root(d).split(d, 0, -0.6, sigma)
        node, _ = node.split(d, 1, 0.5, sigma)
        _, node = node.split(d, 2, -0.2, sigma)
        cdf_evals[0] = 0
        children = node.split(d, 0, 0.4, sigma)
        assert cdf_evals[0] == d.n
        regions = [region for _, region in grown_tree(
            (0, 0, -0.6), (2, 1, 0.5), (3, 2, -0.2), (6, 0, 0.4)).leaf_regions(3)][2:4]
        assert [tuple(r.upper) for r in regions] == [tuple(c.upper) for c in children]
        want = list(Boxes(regions, sigma).columns(X))
        assert all(np.array_equal(c.col, w) for c, w in zip(children, want))
    cdf_evals[0] = 0
    _Node.root(d).split(d, 0, 0.4, np.zeros(3))
    assert cdf_evals[0] == 0


def test_leaf_cuts_evaluate_phi_at_the_cuts_alone(cdf_evals):
    # a soft leaf with finite bounds on coordinates 0 and 1: per candidate soft
    # coordinate, n values of Phi per cut, none at its bounds, which the
    # leaf inherited from its splits; the hard coordinate 2 takes none
    rng = np.random.default_rng(31)
    X = rng.normal(size=(80, 3))
    d = Dataset(X, X[:, 0] + rng.normal(size=80), ("a", "b", "c"))
    sigma = np.array([0.4, 0.6, 0.0])
    _, leaf = _Node.root(d).split(d, 0, -1.0, sigma)
    leaf, _ = leaf.split(d, 0, 1.0, sigma)
    _, leaf = leaf.split(d, 1, -1.2, sigma)
    leaf, _ = leaf.split(d, 1, 1.2, sigma)
    cdf_evals[0] = 0
    _, entries = _leaf_cuts(d, leaf, [0, 1, 2], sigma, 3, order_block(d, leaf.rows))
    assert [j for j, *_ in entries] == [0, 1, 2]
    assert cdf_evals[0] == sum(d.n * cuts.size for j, cuts, _ in entries if sigma[j] > 0)


def test_child_table_on_its_parents_split_coordinate_evaluates_no_phi(cdf_evals):
    # every cut of a child on the coordinate its parent split is a cut of the
    # parent's table: the child copies those columns. Its tables on every
    # coordinate equal, bit for bit, those of a leaf searched afresh
    rng = np.random.default_rng(34)
    X = rng.normal(size=(120, 3))
    d = Dataset(X, X[:, 0] + rng.normal(size=120), ("a", "b", "c"))
    sigma = np.array([0.4, 0.6, 0.5])
    parent = _Node.root(d).split(d, 1, 0.9, sigma)[0]
    _, entries = _leaf_cuts(d, parent, [0, 1, 2], sigma, 5, order_block(d, parent.rows))
    j, cuts, _ = entries[0]
    for child in parent.split(d, j, float(cuts[cuts.size // 2]), sigma):
        inherited = child.tables
        cdf_evals[0] = 0
        _, got = _leaf_cuts(d, child, [j], sigma, 5, order_block(d, child.rows, [j]))
        assert got and cdf_evals[0] == 0
        fresh = split_leaf(d, Region(child.lower, child.upper), sigma)
        child.tables, cdf_evals[0] = inherited, 0
        _, got = _leaf_cuts(d, child, [0, 1, 2], sigma, 5, order_block(d, child.rows))
        reused, cdf_evals[0] = cdf_evals[0], 0
        _, want = _leaf_cuts(d, fresh, [0, 1, 2], sigma, 5, order_block(d, fresh.rows))
        assert reused < cdf_evals[0] == d.n * sum(c.size for _, c, _ in want)
        assert len(got) == len(want)
        for (jg, cg, (Lg, ng)), (jw, cw, (Lw, nw)) in zip(got, want):
            assert jg == jw and np.array_equal(cg, cw)
            assert np.array_equal(Lg, Lw) and np.array_equal(ng, nw)


def test_leaf_cuts_skip_phi_at_an_infinite_lower_bound(monkeypatch):
    # F is exactly 0 at a = -inf, so L is F at the cuts alone
    rng = np.random.default_rng(32)
    X = rng.normal(size=(80, 3))
    d = Dataset(X, X[:, 0] + rng.normal(size=80), ("a", "b", "c"))
    arguments = []

    def recorded(t):
        arguments.append(np.asarray(t))
        return normal_cdf(t)

    monkeypatch.setattr(kernel, "normal_cdf", recorded)
    t = tree.fit_prtree(d, [0.4, 0.6, 0.3], StoppingRule(min_leaf_fraction=0.1))
    assert t.leaf_count >= 4 and arguments
    assert not any(np.isneginf(a).any() for a in arguments)


def test_hard_membership_is_exact_indicator():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 2))
    root = Region.root(2)
    l, r = root.split(0, 0.0)
    sigma = np.zeros(2)
    cl = membership_column(X, l, sigma)
    cr = membership_column(X, r, sigma)
    assert set(np.unique(cl)) <= {0.0, 1.0}
    assert np.array_equal(cl + cr, np.ones(25))
    assert np.array_equal(cl, (X[:, 0] <= 0.0).astype(float))


def test_membership_equals_product_over_all_coordinates():
    # skipping coordinates bounded on neither side must not change a bit
    rng = np.random.default_rng(11)
    X = rng.normal(size=(300, 4))
    X[:5, 1] = 0.25  # rows on a finite bound
    inf = np.inf
    boxes = [
        ([-inf, -inf, -inf, -inf], [inf, inf, inf, inf]),
        ([-inf, 0.25, -inf, -inf], [inf, inf, inf, 1.0]),
        ([-0.5, -inf, -inf, -inf], [0.7, 0.25, inf, inf]),
        ([-1.0, -0.3, 0.1, -2.0], [1.0, 0.25, 0.9, 0.0]),
    ]
    sigmas = [np.zeros(4), np.array([0.3, 0.0, 0.5, 0.0]), np.array([0.2, 0.4, 1e-3, 2.0])]
    for lower, upper in boxes:
        region = Region(np.array(lower), np.array(upper))
        for sigma in sigmas:
            # F(b) - F(a) on every coordinate; Phi is exactly 1 at +inf and 0 at -inf
            full = np.ones(X.shape[0])
            for j in range(4):
                x, a, b = X[:, j], lower[j], upper[j]
                if sigma[j] == 0.0:
                    full *= (x <= b).astype(float) - (x <= a).astype(float)
                else:
                    full *= normal_cdf((b - x) / sigma[j]) - normal_cdf((a - x) / sigma[j])
            assert np.array_equal(membership_column(X, region, sigma), full)


def test_membership_columns_equal_membership_column():
    # the columns of one `Boxes` over many regions, one Phi per distinct bound,
    # equal bit for bit those of each region alone
    rng = np.random.default_rng(17)
    X = np.round(rng.normal(size=(400, 3)), 1)
    X[:10, 0] = 0.2  # rows exactly on a threshold shared by several regions
    X[10:20, 2] = -0.5
    root = Region.root(3)
    left, right = root.split(0, 0.2)
    ll, lr = left.split(2, -0.5)
    rl, rr = right.split(0, 1.1)
    rrl, rrr = rr.split(2, -0.5)
    regions = [
        root,                      # no finite bound
        left, right,               # one side bounded only
        ll, lr, rl, rrl, rrr,      # a partition sharing the cuts 0.2 and -0.5
        Region(np.array([-0.3, -1.0, -0.5]), np.array([0.2, 0.4, 0.7])),
    ]
    sigmas = [np.zeros(3), np.array([0.0, 0.4, 1e-3]), np.array([0.5, 0.2, 0.3])]
    for sigma in sigmas:
        got = np.column_stack(list(Boxes(regions, sigma).columns(X)))
        want = np.column_stack([membership_column(X, r, sigma) for r in regions])
        assert np.array_equal(got, want)
        assert np.array_equal(got[:, 0], np.ones(X.shape[0]))
    # a single row and a single region
    [col] = Boxes([ll], sigmas[1]).columns(X[0])
    assert np.array_equal(col, membership_column(X[0], ll, sigmas[1]))


@pytest.fixture
def cdf_evals(monkeypatch):
    """The number of values kernel.normal_cdf has been evaluated at."""
    evals = [0]

    def counted(t):
        evals[0] += np.size(t)
        return normal_cdf(t)

    monkeypatch.setattr(kernel, "normal_cdf", counted)
    return evals


def test_shared_bounds_are_evaluated_once(cdf_evals):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 3))
    sigma = np.array([0.3, 0.0, 0.5])
    left, right = Region.root(3).split(0, 0.1)
    ll, lr = left.split(2, -0.4)
    rl, rr = right.split(1, 0.2)
    lrl, lrr = lr.split(0, -0.7)
    # soft finite bounds: (0, 0.1), (0, -0.7) and (2, -0.4); coordinate 1 is hard
    regions = [ll, lrl, lrr, rl, rr]
    got = list(Boxes(regions, sigma).columns(X))
    assert cdf_evals[0] == 3 * X.shape[0]
    cdf_evals[0] = 0
    want = [membership_column(X, r, sigma) for r in regions]
    assert cdf_evals[0] == (1 + 3 + 3 + 1 + 1) * X.shape[0]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    cdf_evals[0] = 0
    list(Boxes(regions, np.zeros(3)).columns(X))
    assert cdf_evals[0] == 0


def test_pbart_grow_evaluates_shared_bounds_once(cdf_evals):
    rng = np.random.default_rng(29)
    X = rng.normal(size=(80, 2))
    d = Dataset(X, X[:, 0] + rng.normal(size=80), ("a", "b"))
    sigma = np.array([0.4, 0.6])
    min_count = StoppingRule(min_leaf_fraction=0.05).min_count(d.n)
    t = SampledTree(FlatTree.leaf(), sigma)
    assert t.refresh(d, min_count)
    t.membership()
    assert cdf_evals[0] == 0  # the root is bounded nowhere
    # each grow evaluates Phi at its split value alone, once for both new
    # leaves: the second grow's leaves inherit the upper bound their parent
    # has from the first split
    for leaf, j, s in ((0, 0, 0.0), (1, 1, 0.1)):
        star = t.copy()
        star.nodes.grow(leaf, j, s)
        cdf_evals[0] = 0
        assert star.refresh(d, min_count)
        V = star.membership()
        assert cdf_evals[0] == d.n
        want = np.column_stack([membership_column(X, r, sigma)
                                for _, r in star.nodes.leaf_regions(d.p)])
        assert np.array_equal(V, want)
        t = star
