"""Shared fixtures and independently implemented reference oracles.

The oracles deliberately avoid the library's internal code paths: the hard
tree oracle grows from per-leaf means and prefix arithmetic, the split
oracle refits every candidate with a dense pseudo-inverse, and the Gaussian
density oracle builds the full covariance matrix.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from prtree.data import Dataset
from prtree.kernel import membership_column
from prtree.tree import FlatTree, _leaf_cuts, _Node, _round_basis, find_best_split


# ---------------------------------------------------------------------------
# hard regression tree oracle (piecewise-constant, mean leaves)

def _leaf_sse(y):
    if y.size == 0:
        return 0.0
    m = y.mean()
    return float(np.sum((y - m) ** 2))


def _hard_best_reduction(v, y):
    """Best single-split SSE reduction along values v, or None."""
    uniq = np.unique(v)
    if uniq.size < 2:
        return None
    base = _leaf_sse(y)
    best = -np.inf
    for s in (uniq[:-1] + uniq[1:]) / 2.0:
        l, r = y[v <= s], y[v > s]
        best = max(best, base - _leaf_sse(l) - _leaf_sse(r))
    return best


def _top_vars(X, y, rows, k=3):
    scored = []
    for j in range(X.shape[1]):
        red = _hard_best_reduction(X[rows, j], y[rows])
        if red is not None:
            scored.append((-red, j))
    scored.sort()
    return [j for _, j in scored[:k]]


def hard_tree_oracle(X, y, min_frac=0.10, k_vars=3, max_leaves=None):
    """Grow a hard CART greedily (globally best split each round) and return
    in-sample predictions. Mirrors the library's candidate sets, 10% leaf
    rule, and smallest-(leaf, j, s) tie-breaking, but is built from plain
    per-leaf means."""
    n = len(y)
    min_count = max(1, math.ceil(min_frac * n - 1e-9))
    gain_tol = 1e-12
    leaves = [np.arange(n)]
    leaf_sses = [_leaf_sse(y)]
    while True:
        if max_leaves is not None and len(leaves) >= max_leaves:
            break
        total = float(sum(leaf_sses))
        candidates = []
        for pos, rows in enumerate(leaves):
            if rows.size < 2 * min_count:
                continue
            for j in sorted(_top_vars(X, y, rows, k_vars)):
                vj = X[rows, j]
                uniq = np.unique(vj)
                for s in (uniq[:-1] + uniq[1:]) / 2.0:
                    lmask = vj <= s
                    nl = int(lmask.sum())
                    if nl < min_count or rows.size - nl < min_count:
                        continue
                    sse_after = (
                        total
                        - leaf_sses[pos]
                        + _leaf_sse(y[rows[lmask]])
                        + _leaf_sse(y[rows[~lmask]])
                    )
                    candidates.append((sse_after, pos, j, float(s)))
        if not candidates:
            break
        best_sse = min(c[0] for c in candidates)
        tol = gain_tol * (1.0 + abs(best_sse))
        sse_new, pos, j, s = min(c for c in candidates if c[0] <= best_sse + tol)
        if total - sse_new <= gain_tol * (1.0 + total):
            break
        rows = leaves[pos]
        lmask = X[rows, j] <= s
        leaves[pos : pos + 1] = [rows[lmask], rows[~lmask]]
        leaf_sses[pos : pos + 1] = [
            _leaf_sse(y[leaves[pos]]),
            _leaf_sse(y[leaves[pos + 1]]),
        ]
    pred = np.empty(n)
    for rows in leaves:
        pred[rows] = y[np.sort(rows)].sum() / rows.size
    return pred, leaves


# ---------------------------------------------------------------------------
# exhaustive split-search oracle with a dense full refit per candidate

def brute_force_split(d: Dataset, V, region, y, k, vars, sigma, rule):
    """Try every admissible (j, s) for leaf k (column k of V, region
    `region`), refit all leaf weights with a dense pseudo-inverse, and return
    the smallest-SSE candidate under the same tie rule as the library."""
    sigma = np.asarray(sigma, dtype=float)
    min_count = rule.min_count(d.n)
    mask = region.contains(d.features)
    candidates = []
    for j in sorted(vars):
        uniq = np.unique(d.features[mask, j])
        for s in (uniq[:-1] + uniq[1:]) / 2.0:
            nl = int(np.sum(mask & (d.features[:, j] <= s)))
            if nl < min_count or int(mask.sum()) - nl < min_count:
                continue
            left, right = region.split(j, float(s))
            lcol = membership_column(d.features, left, sigma)
            rcol = membership_column(d.features, right, sigma)
            Vs = np.column_stack([V[:, :k], lcol, rcol, V[:, k + 1 :]])
            gamma = np.linalg.pinv(Vs, rcond=1e-10) @ y
            r = y - Vs @ gamma
            candidates.append((float(r @ r), j, float(s)))
    if not candidates:
        return None
    best = min(c[0] for c in candidates)
    tol = 1e-12 * (1.0 + abs(best))
    return min(c for c in candidates if c[0] <= best + tol)


# ---------------------------------------------------------------------------
# the library's split search on one leaf, everything it takes built afresh

def order_block(d: Dataset, rows, cols=None):
    """d's row ids `rows` sorted stably by each column `cols` (default: all),
    the order block a fit presorts once and its leaves filter."""
    cols = list(range(d.p) if cols is None else cols)
    return rows[np.argsort(d.features[rows][:, cols], axis=0, kind="stable")]


def split_leaf(d: Dataset, region, sigma):
    """The node of the leaf `region` reached from `_Node.root(d)` by
    `_Node.split`s, one per finite bound (each coordinate's lower, then its
    upper, in ascending order), so that it carries the columns a fit's leaf
    inherits."""
    node = _Node.root(d)
    for j in range(d.p):
        if region.lower[j] > -np.inf:
            node = node.split(d, j, region.lower[j], sigma)[1]
        if region.upper[j] < np.inf:
            node = node.split(d, j, region.upper[j], sigma)[0]
    return node


def search_leaf(d: Dataset, V, region, vars, sigma, rule, rows=None):
    """`find_best_split` of the leaf `region` among the leaves whose columns
    are V: its cuts from `_leaf_cuts` over the leaf's `split_leaf` node
    (holding `rows`, ascending, if given, else the rows its splits carry) and
    the basis from `_round_basis` of V."""
    sigma = np.asarray(sigma, dtype=float)
    leaf = split_leaf(d, region, sigma)
    if rows is not None:
        leaf.rows = rows
    vars = sorted(vars)
    cuts = _leaf_cuts(d, leaf, vars, sigma, rule.min_count(d.n), order_block(d, leaf.rows, vars))
    return find_best_split(cuts, _round_basis(V, d.target, sigma), sigma)


# ---------------------------------------------------------------------------
# region-by-region prediction oracle

def leafwise_predict(tree, X):
    """A PR tree's prediction with one membership_column per leaf: the
    gamma-weighted sum over the n x K matrix of those columns."""
    V = np.column_stack([membership_column(X, lf.region, tree.sigma) for lf in tree.leaves])
    return V @ np.array([lf.gamma for lf in tree.leaves])


# ---------------------------------------------------------------------------
# dense Gaussian density oracle for the marginalized residual likelihood

def dense_log_density(R, V, sigma_gamma, sigma_tilde):
    n = len(R)
    S = sigma_tilde**2 * np.eye(n) + sigma_gamma**2 * (V @ V.T)
    sign, logdet = np.linalg.slogdet(S)
    assert sign > 0
    return float(-0.5 * (n * np.log(2 * np.pi) + logdet + R @ np.linalg.solve(S, R)))


def dense_log_det(V, sigma_gamma, sigma_tilde):
    n = V.shape[0]
    S = sigma_tilde**2 * np.eye(n) + sigma_gamma**2 * (V @ V.T)
    return float(np.linalg.slogdet(S)[1])


# ---------------------------------------------------------------------------
# independent recursive evaluator of the tree-structure prior

def recursive_log_prior(nodes: FlatTree, region, d: Dataset, alpha, beta, i=0, depth=0):
    """Log prior of the subtree of node i of `nodes`, whose region is `region`."""
    p = d.p
    j = nodes.feature[i]
    if j < 0:
        return math.log1p(-alpha / (1.0 + depth) ** beta)
    mask = region.contains(d.features)
    n_cuts = np.unique(d.features[mask, j]).size - 1
    total = (
        math.log(alpha / (1.0 + depth) ** beta) - math.log(p) - math.log(n_cuts)
    )
    left, right = region.split(j, nodes.threshold[i])
    total += recursive_log_prior(nodes, left, d, alpha, beta, nodes.left[i], depth + 1)
    total += recursive_log_prior(nodes, right, d, alpha, beta, nodes.right[i], depth + 1)
    return total


def grown_tree(*splits):
    """Node arrays grown from one leaf by the (node, j, s) splits, in order;
    the children of a split are appended, left first."""
    nodes = FlatTree.leaf()
    for i, j, s in splits:
        nodes.grow(i, j, s)
    return nodes


# ---------------------------------------------------------------------------
# dataset fixtures

def random_dataset(rng, n, p, noise=0.5):
    X = rng.normal(size=(n, p))
    coef = rng.normal(size=p)
    y = X @ coef + np.sin(2.0 * X[:, 0]) + noise * rng.normal(size=n)
    return Dataset(X, y, tuple(f"x{j}" for j in range(p)))


@pytest.fixture
def small_data():
    rng = np.random.default_rng(12345)
    return random_dataset(rng, 80, 3)


@pytest.fixture
def diabetes():
    sklearn = pytest.importorskip("sklearn.datasets")
    raw = sklearn.load_diabetes(scaled=False)
    return Dataset(raw.data, raw.target, tuple(raw.feature_names))
