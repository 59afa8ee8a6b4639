"""Single probabilistic regression tree: greedy split search scoring every
candidate by the least-squares refit of all leaf weights (a rank-one update
of the current fit), and soft prediction."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from operator import index
from typing import NamedTuple

import numpy as np

from .data import Dataset, check_features
# membership_column is unused here; bench/test_bench.py checks that the tracer patches this binding
from .kernel import membership_column, membership_columns, normal_cdf  # noqa: F401
from .regions import Region

log = logging.getLogger(__name__)

# Growth stops once the split search's best refit lowers the SSE by <= GAIN_TOL * (1 + SSE).
GAIN_TOL = 1e-12
# Singular values below PINV_RCOND * largest are treated as zero.
PINV_RCOND = 1e-10
# Layout version of every model file; a file of any other version is rejected.
SCHEMA = "prtree/3"


def model_json(obj: dict) -> str:
    """A model file: `obj` as JSON, led by the schema key."""
    return json.dumps({"schema": SCHEMA, **obj})


def read_model_json(text: str, kind: str | None = None) -> dict:
    """The object of a model file of `kind`, or of any kind if None (a file
    naming no kind holds a tree), its feature names a tuple (empty if absent);
    a ValueError unless it has this schema."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a model file holds a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ValueError(
            f"model file schema {obj.get('schema')!r}, expected {SCHEMA!r}: refit the model"
        )
    if kind is not None and obj.get("kind", "tree") != kind:
        raise ValueError(f"not a {kind} model")
    obj.setdefault("feature_names", [])
    obj["feature_names"] = model_value(obj, "feature_names", tuple)
    return obj


def scales(v, p: int | None = None) -> np.ndarray:
    """A list of finite non-negative numbers (sigma, sigma_trace) as a float
    vector; given p, the sigma of a fit over p features, so of length p."""
    a = np.array(v, dtype=float) if np.ndim(v) == 1 else None
    if a is None or not np.all(np.isfinite(a) & (a >= 0)) or p not in (None, a.size):
        raise ValueError("expected a list of finite non-negative numbers" if p is None
                         else f"sigma must be {p} finite non-negative numbers")
    return a


def model_value(obj, key: str, kind):
    """kind(obj[key]) for an object of a model file; a ValueError naming the
    key if obj is no object, lacks the key or holds a value kind rejects."""
    try:
        return kind(obj[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model file key {key!r} missing or malformed: {exc}") from None


@dataclass
class FlatTree:
    """A binary tree as parallel node arrays (sklearn's layout; Pedregosa et
    al. 2011). Node 0 is the root. Split node i sends x with
    x[feature[i]] <= threshold[i] to node left[i] and the rest to right[i]. A
    leaf has feature -1, threshold 0 and children -1; value holds its weight
    (0 at a split). Leaf regions are derived by `walk`, never stored."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    @classmethod
    def leaf(cls, value: float = 0.0) -> "FlatTree":
        return cls([-1], [0.0], [-1], [-1], [value])

    @classmethod
    def from_dict(cls, obj: dict, p: int) -> "FlatTree":
        """The node arrays of a model file's tree over p coordinates; a
        ValueError unless they form one binary tree rooted at node 0, each
        child numbered after its parent, as `grow` and `prune` keep them."""
        try:
            tree = cls(*([kind(v) for v in obj[f.name]]
                         for f, kind in zip(fields(cls), (index, float, index, index, float))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed node arrays: {exc!r}") from None
        n = len(tree.feature)
        if n == 0 or {len(a) for a in vars(tree).values()} != {n}:
            raise ValueError("node arrays must be non-empty and of equal length")
        for i, (j, *children) in enumerate(zip(tree.feature, tree.left, tree.right)):
            if not (0 <= j < p and min(children) > i or j == -1 and children == [-1, -1]):
                raise ValueError(f"node {i} has feature {j} and children {children}: a leaf "
                                 f"has -1, -1, -1 and a split a feature in [0, {p}) and two "
                                 "children of larger index")
        # with one parent per node, of a smaller index, the walk from the root
        # reaches every node exactly once
        if sorted(tree.left + tree.right) != [-1] * 2 * tree.feature.count(-1) + [*range(1, n)]:
            raise ValueError("every node but the root must be a child exactly once")
        return tree

    def copy(self) -> "FlatTree":
        return FlatTree(self.feature[:], self.threshold[:], self.left[:], self.right[:],
                        self.value[:])

    def grow(self, i: int, j: int, s: float) -> tuple[int, int]:
        """Split leaf i at s on coordinate j into two appended leaves, which
        take its weight; returns their indices."""
        k = len(self.feature)
        self.feature += [-1, -1]
        self.threshold += [0.0, 0.0]
        self.left += [-1, -1]
        self.right += [-1, -1]
        self.value += [self.value[i]] * 2
        self.feature[i], self.threshold[i], self.value[i] = j, s, 0.0
        self.left[i], self.right[i] = k, k + 1
        return k, k + 1

    def prune(self, i: int):
        """Make split node i, whose children are leaves, a leaf of weight 0;
        the children's entries are deleted and later nodes renumbered."""
        gone = (self.left[i], self.right[i])
        self.feature[i], self.threshold[i], self.left[i], self.right[i] = -1, 0.0, -1, -1
        self.value[i] = 0.0
        keep = [k for k in range(len(self.feature)) if k not in gone]
        index = {-1: -1, **{old: new for new, old in enumerate(keep)}}
        self.feature, self.threshold, self.value = (
            [a[k] for k in keep] for a in (self.feature, self.threshold, self.value)
        )
        self.left, self.right = ([index[a[k]] for k in keep] for a in (self.left, self.right))

    def walk(self, p: int):
        """(node, depth, region) of every node in preorder, a child's region
        being its parent's Region.split; a threshold outside its node's
        region raises ValueError."""
        stack = [(0, 0, Region.root(p))]
        while stack:
            i, depth, region = stack.pop()
            yield i, depth, region
            if self.feature[i] >= 0:
                lo, hi = region.split(self.feature[i], self.threshold[i])
                stack += [(self.right[i], depth + 1, hi), (self.left[i], depth + 1, lo)]


@dataclass(frozen=True)
class StoppingRule:
    """Growth limits. The leaf-size rule counts hard (sigma = 0) assignments."""

    min_leaf_fraction: float = 0.10
    max_depth: int | None = None
    max_leaves: int | None = None

    def __post_init__(self):
        if not (0.0 < self.min_leaf_fraction <= 0.5):
            raise ValueError("min_leaf_fraction must lie in (0, 0.5]")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 (0 keeps the root only)")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")

    def min_count(self, n: int) -> int:
        return max(1, int(np.ceil(self.min_leaf_fraction * n - 1e-9)))


def fit_weights(V, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares leaf weights for the n x K membership array V.

    Hard-assignment matrices (exact 0/1 entries, disjoint columns) are
    solved column-wise, which is exact; the general case goes through the
    Moore-Penrose pseudo-inverse.
    """
    V = np.asarray(V, dtype=float)
    y = np.asarray(y, dtype=float)
    if V.shape[0] != y.shape[0]:
        raise ValueError("row count of V must match the target length")
    if np.all((V == 0.0) | (V == 1.0)) and np.all(V.sum(axis=1) <= 1.0):
        gamma = np.empty(V.shape[1])
        for k in range(V.shape[1]):
            members = y[V[:, k] != 0.0]
            gamma[k] = members.sum() / members.size if members.size else 0.0
        return gamma
    return np.linalg.pinv(V, rcond=PINV_RCOND) @ y


def _hard_cut_sse(vs: np.ndarray, ys: np.ndarray, ws=None):
    """Children SSE of every hard cut of each column of ys, given sorted by
    the same column of vs (CART prefix sums, Breiman et al. 1984; a cumsum
    along axis 0 adds each column in row order). Row i is the cut with i + 1
    rows left, admissible where vs[i] != vs[i + 1]. Returns (admissible,
    sse_left, sse_right), (n - 1) x columns, and each column's SSE around
    its mean. `ws`, given in the order of ys, weights each row's squared
    error by its multiplicity: the count, sum and square sums become
    weighted ones."""
    if ws is None:
        wy, m = ys, np.arange(1.0, ys.shape[0] + 1)[:, None]
    else:
        wy, m = ws * ys, np.cumsum(ws, axis=0)
    c1, c2 = np.cumsum(wy, axis=0), np.cumsum(wy * ys, axis=0)
    tot1, tot2, n = c1[-1], c2[-1], m[-1]
    c1, c2, m = c1[:-1], c2[:-1], m[:-1]
    sse_l = c2 - c1**2 / m
    sse_r = (tot2 - c2) - (tot1 - c1) ** 2 / (n - m)
    return vs[:-1] != vs[1:], sse_l, sse_r, tot2 - tot1**2 / n


def _partition_block(block: np.ndarray, go_left: np.ndarray):
    """The children's order blocks when the leaf's rows go left where go_left:
    each column filtered, which keeps it stable (SLIQ's presorting; Mehta et
    al. 1996), and renumbered to the child's local positions."""
    left = go_left[block].T
    local = np.where(go_left, np.cumsum(go_left), np.cumsum(~go_left)) - 1
    return tuple(local[block.T[side].reshape(block.shape[1], -1).T] for side in (left, ~left))


def candidate_variables(d: Dataset, rows, k: int, features, block, w=None) -> list[int]:
    """The k coordinates whose best hard split over `rows` reduces SSE the
    most; ties broken toward the smaller coordinate index. Coordinates with
    fewer than two distinct values have no split and are dropped. One pass
    of `_hard_cut_sse` over the rows x features block ranks them all, a cut
    between equal values scoring -inf. `block` is the leaf's order block: the
    stable argsort of each of the rows x features columns. `w`, when given, is
    the integer multiplicity of each of d's rows (a weighted fit's repeated
    rows, see `fit_prtree`); by default each row counts once."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("rows must be non-empty")
    cols = list(range(d.p) if features is None else features)
    vs = np.take_along_axis(d.features[rows][:, cols], block, axis=0)
    ws = None if w is None else w[rows][block]
    admissible, sse_l, sse_r, sse_tot = _hard_cut_sse(vs, d.target[rows][block], ws)
    best = np.where(admissible, sse_tot - sse_l - sse_r, -np.inf).max(axis=0, initial=-np.inf)
    scored = sorted((-float(g), j) for g, j, ok in zip(best, cols, admissible.any(axis=0)) if ok)
    return [j for _, j in scored[:k]]


def cut_points(v: np.ndarray):
    """(left, cuts) of a sorted column v: a cut between each pair of consecutive
    distinct values lo < hi, left[i] values of v lying at or below cuts[i]. The
    cut is their midpoint (CART; Breiman et al. 1984), or lo where rounding or
    overflow puts it outside [lo, hi), so x <= cut sends exactly v[:left] left."""
    left = np.flatnonzero(v[:-1] != v[1:]) + 1
    lo, hi = v[left - 1], v[left]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return left, np.where((lo <= mid) & (mid < hi), mid, lo)


def _split_sse_batch(Q, ry, L, norm):
    """SSE of the full refit for each cut of one coordinate, from the leaf's
    table (L, norm) (see `_leaf_cuts`).

    Q is an orthonormal basis of the current columns V and ry the target with
    their span projected out. Cut i replaces the leaf's column c by L[:, i]
    and c - L[:, i], which span (V, L[:, i]): with L' = L projected off Q, the
    SSE is ry.ry - (L'.ry)^2 / (L'.L'), and 0 gain when L' keeps at most
    PINV_RCOND of L's norm (L lies in span V)."""
    L = L - Q @ (Q.T @ L)
    a = np.einsum("ij,ij->j", L, L)
    u = L.T @ ry
    gain = np.divide(u * u, a, out=np.zeros_like(a), where=a > PINV_RCOND**2 * norm)
    return float(ry @ ry) - gain


def _leaf_cuts(d: Dataset, region: Region, y, rows, vars, sigma, min_count: int, orders,
               w=None):
    """The half of find_best_split that depends on the leaf alone, unchanged
    until the leaf is split: (rows_mask, per-coordinate entries). There is an
    entry (j, cuts, table) for each j of vars, ascending, whose cuts are the
    `cut_points` leaving min_count rows on each side. At sigma = 0 the table
    is the children's SSE at each cut, by `_hard_cut_sse` of the leaf's
    centred target; otherwise it is (L, norm): L[:, i] is the left child's
    membership at cut i, the leaf's region with j freed (one
    membership_columns call for all j) times F(j, cut) - F(j, a), and norm
    its squared column norms. `orders` is the leaf's order block over ascending
    vars: the stable argsort of each column of its rows, in ascending row
    order. `w`, the rows' multiplicities in a weighted fit, makes the counts
    and SSE weighted and scales L by sqrt(w)."""
    mask = np.zeros(d.n, dtype=bool)
    mask[rows] = True
    X, wk, entries, found = d.features, None if w is None else w[mask], [], []
    n = np.count_nonzero(mask) if wk is None else wk.sum()
    if n < 2 * min_count:
        return mask, entries
    vars = sorted(vars)
    vs = np.take_along_axis(X[mask][:, vars], orders, axis=0)
    wo = None if wk is None else wk[orders]  # the sorted rows' multiplicities
    hard = not sigma.any()
    if hard:
        # the children's SSE is shift-invariant; centring keeps the prefix sums small
        yk = y[mask]
        yk = yk - (yk.mean() if wk is None else wk @ yk / n)
        _, sse_l, sse_r, _ = _hard_cut_sse(vs, yk[orders], wo)
    for i, j in enumerate(vars):
        left, cuts = cut_points(vs[:, i])
        count = left if wo is None else np.cumsum(wo[:, i])[left - 1]
        keep = (count >= min_count) & (n - count >= min_count)
        left, cuts = left[keep], cuts[keep]
        if not cuts.size:
            continue
        if hard:
            entries.append((j, cuts, sse_l[left - 1, i] + sse_r[left - 1, i]))
        else:
            lower, upper = region.lower.copy(), region.upper.copy()
            lower[j], upper[j] = -np.inf, np.inf
            found.append((j, cuts, Region(lower, upper)))
    others = membership_columns(X, [freed for *_, freed in found], sigma)
    for (j, cuts, _), other in zip(found, others):
        # F at every cut, less F at a unless a = -inf, where F is exactly 0:
        # the indicator 1{x_j <= t} at sigma_j = 0, else Phi
        a = region.lower[j]
        t = cuts if a == -np.inf else np.concatenate(([a], cuts))
        xj = X[:, j, None]
        F = (xj <= t).astype(float) if sigma[j] == 0.0 else normal_cdf((t - xj) / sigma[j])
        if a > -np.inf:
            F = F[:, 1:] - F[:, :1]
        if w is not None:
            other = np.sqrt(w) * other
        L = other[:, None] * F
        entries.append((j, cuts, (L, np.einsum("ij,ij->j", L, L))))
    return mask, entries


def _round_basis(V: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """The half of find_best_split that a round's leaves share, from V alone:
    at sigma = 0 the residual around the leaf means; otherwise (Q, ry), a QR
    basis of V and the target with its span projected out. A weighted fit
    passes V and y scaled by sqrt(w): the hard means are then weighted, as
    each column's squared norm is its leaf's weighted count."""
    if not sigma.any():
        counts = np.einsum("ij,ij->j", V, V)
        means = np.divide(V.T @ y, counts, out=np.zeros_like(counts), where=counts > 0)
        return y - V @ means
    Q, _ = np.linalg.qr(V)
    return Q, y - Q @ (Q.T @ y)


def find_best_split(cuts, basis, sigma):
    """Best (coordinate, cut) for one leaf of a round, by the SSE of the refit
    of every leaf weight, over the leaf's admissible candidates, as (j, s,
    sse), or None. Ties break toward the smaller (j, s).

    `cuts` is `_leaf_cuts` of the leaf (kept by a fit until the leaf is
    split), `basis` is `_round_basis` of the round's membership columns V
    (formed once per round) and `sigma` the fit's scale vector. A cut's SSE
    is then:

    - every sigma is 0: the other leaves' SSE around their means, the basis
      residual outside the leaf (O(n)), plus the children's;
    - otherwise (soft or mixed sigma): a rank-one update of the current fit
      per cut, from the basis (O(n K x #cuts); see `_split_sse_batch`).
    """
    mask, entries = cuts
    if not entries:
        return None
    if not sigma.any():
        r = basis[~mask]
        base = float(r @ r)
    best = None
    for j, s, table in entries:
        sse = base + table if not sigma.any() else _split_sse_batch(*basis, *table)
        # argmin keeps the first (smallest) cut among exact ties, and the
        # strict < the smallest j: the order of min over (sse, j, s)
        i = int(np.argmin(sse))
        if best is None or sse[i] < best[2]:
            best = (j, float(s[i]), float(sse[i]))
    return best


def split_membership_column(V: np.ndarray, regions, k: int, j: int, s: float, d: Dataset, sigma):
    """(V, regions) with column k and regions[k] replaced by the two children
    of a split at s on coordinate j, evaluated fresh in one call; for every row
    they sum to the parent value up to roundoff (Gaussian mass is additive over
    a partition of the parent region)."""
    regions = tuple(regions)
    children = regions[k].split(j, s)
    cols = membership_columns(d.features, children, sigma)
    V = np.column_stack([V[:, :k], *cols, V[:, k + 1 :]])
    return V, regions[:k] + children + regions[k + 1 :]


class Leaf(NamedTuple):
    region: Region
    gamma: float


@dataclass
class PRTree:
    """A fitted probabilistic regression tree.

    Prediction is the gamma-weighted sum of soft memberships over all
    leaves; with sigma = 0 this degenerates to the usual piecewise-constant
    lookup. The node arrays are the whole model; `leaves`, each leaf's
    region and weight in preorder, is derived from them once. Immutable in
    practice once fitted.
    """

    nodes: FlatTree
    sigma: np.ndarray
    feature_names: tuple[str, ...] = ()
    leaves: list[Leaf] = field(init=False, repr=False)

    def __post_init__(self):
        self.leaves = [
            Leaf(region, self.nodes.value[i])
            for i, _, region in self.nodes.walk(self.p)
            if self.nodes.feature[i] < 0
        ]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.p)
        regions = [leaf.region for leaf in self.leaves]
        V = np.column_stack(list(membership_columns(X, regions, self.sigma)))
        gammas = np.array([leaf.gamma for leaf in self.leaves])
        return V @ gammas

    def to_dict(self) -> dict:
        """sigma and the node arrays; the feature names are kept by the file,
        once for a forest or a boosted model."""
        return {"sigma": [float(v) for v in self.sigma], **asdict(self.nodes)}

    def to_json(self) -> str:
        return model_json({"feature_names": list(self.feature_names), **self.to_dict()})

    @classmethod
    def from_dict(cls, obj: dict, feature_names=()) -> "PRTree":
        sigma = model_value(obj, "sigma", scales)
        return cls(FlatTree.from_dict(obj, sigma.size), sigma, tuple(feature_names))

    @classmethod
    def from_json(cls, text: str) -> "PRTree":
        obj = read_model_json(text, "tree")
        return cls.from_dict(obj, obj["feature_names"])


@dataclass
class _FitLeaf:
    node: int
    rows: np.ndarray
    depth: int
    block: np.ndarray  # the rows' stable order by each of the fit's coordinates
    vars: list[int] | None = None
    cuts: tuple | None = None  # _leaf_cuts of vars, kept until the leaf is split


def _repeated_rows(d: Dataset, order: np.ndarray, j: int):
    """(first, w) when some rows of d repeat exactly, in features and target:
    first marks each distinct row's first occurrence, and w holds, in row
    order, how often each marked row occurs. None when every row is distinct,
    which `order`, the stable argsort of feature j, shows in O(n) unless
    feature j has ties."""
    v = d.features[order, j]
    if not np.any(v[1:] == v[:-1]):
        return None
    table = np.column_stack([d.features, d.target])
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, firsts, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                           return_counts=True)
    if firsts.size == d.n:
        return None
    first = np.zeros(d.n, dtype=bool)
    first[firsts] = True
    return first, counts[inverse[first]]


def fit_prtree(
    d: Dataset,
    sigma,
    rule: StoppingRule = StoppingRule(),
    features=None,
    target=None,
) -> PRTree:
    """Grow a PR tree greedily: each iteration applies the single best
    admissible split across all current leaves (full weight refit per
    candidate, scored by `find_best_split`) until it lowers the training SSE
    by no more than GAIN_TOL; `fit_weights` then solves the leaf weights once.

    `features`, when given, restricts splits to that coordinate subset
    (used by forests). `target`, when given, replaces d.target for both the
    fit and the candidate-variable ranking (used by boosting). Growth is
    deterministic.

    Rows that repeat exactly (features and target), as in a bootstrap sample,
    are fitted once each with their multiplicity w as an integer weight: the
    split search's counts, prefix sums and least-squares problems are
    weighted, and the final weight solve takes each row w times, so the fit
    minimises the SSE of the repeated rows (bagging; Breiman 1996).
    """
    sigma = scales(sigma, d.p)
    if target is not None:
        d = Dataset(d.features, target, d.feature_names)
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 rows to fit a tree")
    # sums of y reach n max|y|, and their squares overflow past 2^512: beyond
    # 2^500 the fit is of y * 2^-e (exact) and the leaf weights are scaled
    # back by 2^e
    top = np.abs(d.target).max()
    e = int(np.frexp(top)[1]) if n * top > 2.0**500 else 0
    if e:
        d = Dataset(d.features, np.ldexp(d.target, -e), d.feature_names)

    # the root's rows are sorted once, and every other leaf inherits its order
    cols = list(range(d.p) if features is None else features)
    block = np.argsort(d.features[:, cols], axis=0, kind="stable")
    w = sw = None
    repeated = _repeated_rows(d, block[:, 0], cols[0])
    if repeated is not None:
        first, w = repeated
        d = Dataset(d.features[first], d.target[first], d.feature_names)
        block, _ = _partition_block(block, first)
        sw = np.sqrt(w)[:, None]

    # leaves[k], regions[k] and column k of V describe the same leaf; a
    # weighted round's basis is that of the rows scaled by sqrt(w)
    y = d.target
    ys = y if w is None else sw[:, 0] * y
    nodes = FlatTree.leaf()
    leaves = [_FitLeaf(0, np.arange(d.n), 0, block)]
    regions = (Region.root(d.p),)
    V = np.ones((d.n, 1))
    min_count = rule.min_count(n)

    while rule.max_leaves is None or len(leaves) < rule.max_leaves:
        options, basis = [], None
        for idx, fl in enumerate(leaves):
            size = fl.rows.size if w is None else w[fl.rows].sum()
            if size < 2 * min_count or (rule.max_depth is not None
                                        and fl.depth >= rule.max_depth):
                continue
            if fl.vars is None:
                fl.vars = candidate_variables(d, fl.rows, 3, features, fl.block, w)
                fl.cuts = _leaf_cuts(d, regions[idx], y, fl.rows, fl.vars, sigma, min_count,
                                     fl.block[:, [cols.index(j) for j in sorted(fl.vars)]], w)
            if not fl.vars:
                continue
            if basis is None:
                basis = _round_basis(V if w is None else sw * V, ys, sigma)
            found = find_best_split(fl.cuts, basis, sigma)
            if found is not None:
                options.append((found[2], idx, *found[:2]))
        if not options:
            break
        # ties in sse go to the smaller leaf index, then j, then s
        sse_new, idx, j, s = min(options)
        r = basis if not sigma.any() else basis[1]  # the current fit's residual
        sse_cur = float(r @ r)
        if sse_cur - sse_new <= GAIN_TOL * (1.0 + sse_cur):
            break

        fl = leaves[idx]
        V, regions = split_membership_column(V, regions, idx, j, s, d, sigma)
        go_left = d.features[fl.rows, j] <= s
        children = zip(nodes.grow(fl.node, int(j), float(s)), (go_left, ~go_left),
                       _partition_block(fl.block, go_left))
        leaves[idx : idx + 1] = [_FitLeaf(node, fl.rows[side], fl.depth + 1, block)
                                 for node, side, block in children]
        log.debug("split leaf=%d j=%d s=%.6g leaves=%d sse=%.6g", idx, j, s, len(leaves), sse_new)

    # the weights solve the repeated rows' own problem, once per fit, so the
    # hard leaf means stay exact sums over their members
    if w is not None:
        V, y = np.repeat(V, w, axis=0), np.repeat(y, w)
    for fl, g in zip(leaves, fit_weights(V, y)):
        nodes.value[fl.node] = math.ldexp(float(g), e)
    return PRTree(nodes, sigma, d.feature_names)
