"""Single probabilistic regression tree: greedy split search scoring every
candidate by the least-squares refit of all leaf weights (a rank-one update
of the current fit), and soft prediction."""

from __future__ import annotations

import json
import logging
import math
import reprlib
from dataclasses import asdict, dataclass, field, fields
from operator import index
from typing import NamedTuple

import numpy as np

from .data import Dataset, check_features
# membership_column and normal_cdf are unused here; bench/test_bench.py checks that the
# tracer patches these bindings
from .kernel import Boxes, box_mass, cdf, membership_column, normal_cdf  # noqa: F401
from .regions import Region

log = logging.getLogger(__name__)

# Growth stops once the split search's best refit lowers the SSE by <= GAIN_TOL * (1 + SSE).
GAIN_TOL = 1e-12
# Singular values below PINV_RCOND * largest are treated as zero.
PINV_RCOND = 1e-10
# Layout version of every model file; a file of any other version is rejected.
SCHEMA = "prtree/4"


def read_model_json(text: str) -> dict:
    """The object of a model file of any kind, decoded once for `Model.from_obj`;
    a ValueError unless it is an object of this schema."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a model file holds a JSON object")
    if obj.get("schema") != SCHEMA:
        raise ValueError(
            f"model file schema {obj.get('schema')!r}, expected {SCHEMA!r}: refit the model"
        )
    return obj


def scales(v, p: int | None = None) -> np.ndarray:
    """A list of finite non-negative numbers as a float vector: given p, a fit's
    sigma over p features; else a model file's (sigma, sigma_trace), JSON numbers."""
    if p is None:
        v = _array(_number)(v)
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model file key {key!r} missing or malformed: {exc}") from None


def checked(kind, ok, what: str):
    """A `model_value` kind: kind(v), a ValueError unless ok accepts it."""
    def parse(v):
        v = kind(v)
        if not ok(v):
            raise ValueError(f"expected {what}, got {reprlib.repr(v)}")
        return v
    return parse


def _typed(what: str, *types):
    """A `model_value` kind: a value of exactly one of the types json.loads gives,
    as the last; so a bool (a subclass of int) is no integer, and a number a float."""
    def parse(v):
        if type(v) not in types:
            raise ValueError(f"expected {what}, got {reprlib.repr(v)}")
        return types[-1](v)
    return parse


_integer = _typed("an integer", int)
_number = _typed("a number", int, float)
_list = _typed("a list", list)
_object = _typed("an object", dict)
finite = checked(_number, math.isfinite, "a finite number")


def _array(kind):
    """A `model_value` kind: a JSON list, each item read by kind."""
    return lambda v: [kind(x) for x in _list(v)]


def _feature_names(obj, p: int) -> tuple[str, ...]:
    """A model file's feature names over p features: none (or no key) or p strings."""
    return model_value({"feature_names": [], **obj}, "feature_names", checked(
        lambda v: tuple(_array(_typed("a string", str))(v)), lambda names: len(names) in (0, p),
        f"no names or {p} names"))


class Model:
    """A fitted model and the codec of its file: the schema, the class's `kind` (none
    for a tree), the feature names, then the kind's own `fields()`, which `read(obj)` reads."""

    def __eq__(self, other) -> bool:
        """Of one class and writing the same file (a dataclass subclass takes eq=False)."""
        return type(other) is type(self) and other.to_json() == self.to_json()

    def to_json(self) -> str:
        kind = {} if self.kind == "tree" else {"kind": self.kind}
        return json.dumps({"schema": SCHEMA, **kind, "feature_names": list(self.feature_names),
                           **self.fields()})

    @classmethod
    def from_json(cls, text: str):
        return cls.from_obj(read_model_json(text))

    @classmethod
    def from_obj(cls, obj: dict):
        """The model of a decoded model file (`read_model_json`) of this class's kind."""
        if obj.get("kind", "tree") != cls.kind:
            raise ValueError(f"not a {cls.kind} model")
        return cls.read(obj)


@dataclass
class FlatTree:
    """A binary tree as parallel node arrays (sklearn's layout; Pedregosa et
    al. 2011). Node 0 is the root. Split node i sends x with
    x[feature[i]] <= threshold[i] to node left[i] and the rest to right[i]. A
    leaf has feature -1, threshold 0 and children -1; value holds its weight
    (0 at a split). Leaf regions are derived by `leaf_regions`, never stored."""

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
        ValueError unless the weights are finite and the arrays form one tree
        rooted at node 0, each child after its parent, as `grow` and `prune` keep them."""
        kinds = (_integer, _number, _integer, _integer, finite)
        tree = cls(*(model_value(obj, f.name, _array(kind)) for f, kind in zip(fields(cls), kinds)))
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

    def leaf_regions(self, p: int) -> list[tuple[int, Region]]:
        """(node, region) of every leaf in preorder, a child's region being
        its parent's Region.split; a threshold outside its node's region
        raises ValueError."""
        stack, found = [(0, Region.root(p))], []
        while stack:
            i, region = stack.pop()
            if self.feature[i] < 0:
                found.append((i, region))
            else:
                lo, hi = region.split(self.feature[i], self.threshold[i])
                stack += [(self.right[i], hi), (self.left[i], lo)]
        return found


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
    """The children's order blocks when row i goes left where go_left[i]:
    each column of row ids filtered, which keeps it stable (SLIQ's attribute
    lists; Mehta et al. 1996)."""
    left = go_left[block].T
    return tuple(block.T[side].reshape(block.shape[1], -1).T for side in (left, ~left))


def candidate_variables(d: Dataset, k: int, features, block, w=None) -> list[int]:
    """The k coordinates whose best hard split over a leaf reduces SSE the
    most; ties broken toward the smaller coordinate index. Coordinates with
    fewer than two distinct values have no split and are dropped. One pass
    of `_hard_cut_sse` over the leaf's order `block` ranks them all, a cut
    between equal values scoring -inf. `block` holds the leaf's row ids of
    d, column i sorted stably by `features[i]` (default: every coordinate).
    `w`, when given, is the integer multiplicity of each of d's rows (a
    weighted fit's repeated rows, see `fit_prtree`); by default each row
    counts once. The prefix sums are of the uncentred target, so a large
    offset of the target can hide the ranking's signal in rounding."""
    if not block.size:
        raise ValueError("the order block must be non-empty")
    cols = list(range(d.p) if features is None else features)
    ws = None if w is None else w[block]
    admissible, sse_l, sse_r, sse_tot = _hard_cut_sse(d.features[block, cols], d.target[block], ws)
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Node:
    """One node of a tree grown on a dataset d, greedily (`fit_prtree`) or by
    MH moves (`pbart.SampledTree`): what its split path from the root fixes.
    That is its depth, its region's read-only `lower` and `upper` bounds, its
    hard rows, `F`, per coordinate j its pair (F(j, lower), F(j, upper)) of
    `kernel.cdf` columns at (d.features, sigma) (None if j is unbounded),
    and `col`, their `box_mass`, its membership column. `split` alone derives
    a child's rows, bounds and columns. It does not validate them again,
    since the split value lies strictly inside the node's interval (a
    `cut_points` cut of its rows, or a bound `refresh` checked).

    The greedy fit keeps a leaf's `order` block (its row ids, sorted stably
    by each of the fit's coordinates, which the children filter), its split
    `search` (`_leaf_cuts`) and the raw F `tables` of a search, its parent's
    until it searches, then its own; the sampler builds on demand the
    admissible coordinates and, per coordinate, its `cut_points` pair."""

    __slots__ = ("depth", "lower", "upper", "rows", "F", "col", "order", "search", "tables",
                 "adm", "cuts")

    def __init__(self, depth: int, lower: np.ndarray, upper: np.ndarray, rows: np.ndarray,
                 F: list, n: int):
        self.depth, self.lower, self.upper, self.rows, self.F = depth, lower, upper, rows, F
        self.col = box_mass(filter(None, F), n)
        self.order = self.search = self.tables = self.adm = None
        self.cuts = {}

    @classmethod
    def root(cls, d: Dataset) -> "_Node":
        """All of R^p, holding every row of d; its column is ones."""
        return cls(0, _read_only(np.full(d.p, -np.inf)), _read_only(np.full(d.p, np.inf)),
                   np.arange(d.n), [None] * d.p, d.n)

    def split(self, d: Dataset, j: int, s: float, sigma, min_count: int = 0):
        """The children at x_j <= s and x_j > s, each with one bound replaced
        and, if this node has an order block, its part of it; None if either
        would hold fewer than min_count rows. F(j, s) is evaluated once for
        both; they keep this node's other F pairs and `tables` by reference."""
        go = d.features[:, j] <= s  # over all of d's rows, as the order block holds row ids
        go_left = go[self.rows]
        k = np.count_nonzero(go_left)
        if min(k, go_left.size - k) < min_count:
            return None
        left_hi, right_lo = self.upper.copy(), self.lower.copy()
        left_hi[j] = right_lo[j] = s
        Fs = cdf(d.features[:, j], s, sigma[j])
        lo, hi = self.F[j] or (0.0, 1.0)
        left_F, right_F = self.F.copy(), self.F.copy()
        left_F[j], right_F[j] = (lo, Fs), (Fs, hi)
        left = _Node(self.depth + 1, self.lower, _read_only(left_hi), self.rows[go_left], left_F,
                     d.n)
        right = _Node(self.depth + 1, _read_only(right_lo), self.upper, self.rows[~go_left],
                      right_F, d.n)
        left.tables = right.tables = self.tables
        if self.order is not None:
            left.order, right.order = _partition_block(self.order, go)
        return left, right

    def admissible(self, d: Dataset) -> list[int]:
        """Coordinates with at least two distinct values over the rows."""
        if self.adm is None:
            X = d.features[self.rows]
            self.adm = np.flatnonzero((X != X[0]).any(axis=0)).tolist()
        return self.adm

    def cuts_on(self, d: Dataset, j: int):
        """The `cut_points` (left, cuts) of coordinate j over the rows: cut i
        sends left[i] of them to x_j <= cuts[i]."""
        if j not in self.cuts:
            self.cuts[j] = cut_points(np.sort(d.features[self.rows, j]))
        return self.cuts[j]


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


def _cdf_table(x: np.ndarray, cuts: np.ndarray, sigma_j: float, parent) -> np.ndarray:
    """`kernel.cdf` at the rows' values x of coordinate j and each cut, n x
    cuts; a column whose cut equals bit for bit a cut t of the parent's
    table (t, F) on j, if there is one, is copied from it instead."""
    if parent is None:
        return cdf(x[:, None], cuts, sigma_j)
    t, Ft = parent
    at = np.minimum(np.searchsorted(t, cuts), t.size - 1)
    F, new = np.take(Ft, at, axis=1), t[at] != cuts  # C order, as cdf's table
    if new.any():
        F[:, new] = cdf(x[:, None], cuts[new], sigma_j)
    return F


def _leaf_cuts(d: Dataset, leaf: _Node, vars, sigma, min_count: int, orders, w=None):
    """The half of find_best_split that depends on the leaf alone, unchanged
    until the leaf is split: (rows_mask, per-coordinate entries), from the
    leaf's hard rows, bounds and F pairs. There is an entry (j, cuts, table)
    for each j of vars, ascending, whose cuts are the `cut_points` leaving
    min_count rows on each side. At sigma = 0 the table is the children's SSE
    at each cut, by `_hard_cut_sse` of the leaf's centred target; otherwise
    it is (L, norm): L[:, i] is the left child's membership at cut i, the
    `box_mass` of the leaf's F pairs without j's times F(j, cut) - F(j, a),
    and norm its squared column norms. The raw tables F(j, cut) (`_cdf_table`)
    reuse the columns of the parent's tables, which `leaf.tables` holds until
    this search replaces them with the leaf's own, for its children. `orders`
    is the leaf's order block over ascending vars: its row ids, column i
    sorted stably by coordinate vars[i]. `w`, the rows' multiplicities in a
    weighted fit, makes the counts and SSE weighted and scales L by
    sqrt(w)."""
    mask = np.zeros(d.n, dtype=bool)
    mask[leaf.rows] = True
    parent, leaf.tables = leaf.tables or {}, {}
    X, wk, entries = d.features, None if w is None else w[mask], []
    n = np.count_nonzero(mask) if wk is None else wk.sum()
    vars = sorted(vars)
    vs = X[orders, vars]
    wo = None if w is None else w[orders]  # the sorted rows' multiplicities
    hard = not sigma.any()
    if hard:
        # the children's SSE is shift-invariant; centring keeps the prefix sums small
        yk = d.target[mask]
        mean = yk.mean() if wk is None else wk @ yk / n
        _, sse_l, sse_r, _ = _hard_cut_sse(vs, d.target[orders] - mean, wo)
    for i, j in enumerate(vars):
        left, cuts = cut_points(vs[:, i])
        count = left if wo is None else np.cumsum(wo[:, i])[left - 1]
        keep = (count >= min_count) & (n - count >= min_count)
        left, cuts = left[keep], cuts[keep]
        if not cuts.size:
            continue
        if hard:
            entries.append((j, cuts, sse_l[left - 1, i] + sse_r[left - 1, i]))
            continue
        other = box_mass([f for k, f in enumerate(leaf.F) if f and k != j], d.n)
        if w is not None:
            other = np.sqrt(w) * other
        F = _cdf_table(X[:, j], cuts, sigma[j], parent.get(j))
        leaf.tables[j] = cuts, F
        if leaf.lower[j] > -np.inf:  # F(j, -inf) is exactly 0
            F = F - leaf.F[j][0][:, None]
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


class Leaf(NamedTuple):
    region: Region
    gamma: float


@dataclass(eq=False)
class PRTree(Model):
    """A fitted probabilistic regression tree.

    Prediction is the gamma-weighted sum of soft memberships over all
    leaves; with sigma = 0 this degenerates to the usual piecewise-constant
    lookup. The node arrays are the whole model; `leaves`, each leaf's
    region and weight in preorder, and `boxes`, the leaves' regions compiled
    at sigma (`kernel.Boxes`), are derived from them once and never stored.
    Immutable in practice once fitted.
    """

    kind = "tree"
    nodes: FlatTree
    sigma: np.ndarray
    feature_names: tuple[str, ...] = ()
    leaves: list[Leaf] = field(init=False, repr=False)
    boxes: Boxes = field(init=False, repr=False)

    def __post_init__(self):
        self.leaves = [Leaf(region, self.nodes.value[i])
                       for i, region in self.nodes.leaf_regions(self.p)]
        self.boxes = Boxes([leaf.region for leaf in self.leaves], self.sigma)

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_sum(check_features(X, self.p))

    def leaf_sum(self, X: np.ndarray) -> np.ndarray:
        """V @ gamma, the leaves' membership columns of X, which the caller
        has checked (`check_features`), weighted by the leaf weights."""
        V = np.column_stack(list(self.boxes.columns(X)))
        return V @ np.array([leaf.gamma for leaf in self.leaves])

    def fields(self) -> dict:
        """sigma and the node arrays; a forest's or gbt's file keeps the feature names once."""
        return {"sigma": [float(v) for v in self.sigma], **asdict(self.nodes)}

    @classmethod
    def read(cls, obj: dict) -> "PRTree":
        sigma = model_value(obj, "sigma", scales)
        return cls(FlatTree.from_dict(obj, sigma.size), sigma, _feature_names(obj, sigma.size))


def _repeated_rows(d: Dataset, block: np.ndarray, j: int):
    """(first, w, block) when some rows of d repeat exactly, in features and
    target: first marks each distinct row's first occurrence, w holds, in
    row order, how often each marked row occurs, and block is the order
    block `block` of d's rows kept to the marked rows and renumbered to
    their positions among them. None when every row is distinct, which
    block[:, 0], d's rows sorted by feature j, shows in O(n) unless feature
    j has ties."""
    v = d.features[block[:, 0], j]
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
    kept, _ = _partition_block(block, first)
    return first, counts[inverse[first]], (np.cumsum(first) - 1)[kept]


def fit_prtree(
    d: Dataset,
    sigma,
    rule: StoppingRule = StoppingRule(),
    features=None,
) -> PRTree:
    """Grow a PR tree greedily: each iteration applies the single best
    admissible split across all current leaves (full weight refit per
    candidate, scored by `find_best_split`) until it lowers the training SSE
    by no more than GAIN_TOL; `fit_weights` then solves the leaf weights once.

    `features`, when given, restricts splits to that coordinate subset,
    distinct integers in [0, p) (used by forests). Growth is deterministic.

    Rows that repeat exactly (features and target), as in a bootstrap sample,
    are fitted once each with their multiplicity w as an integer weight: the
    split search's counts, prefix sums and least-squares problems are
    weighted, and the final weight solve takes each row w times, so the fit
    minimises the SSE of the repeated rows (bagging; Breiman 1996).
    """
    sigma = scales(sigma, d.p)
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 rows to fit a tree")
    try:
        cols = list(range(d.p)) if features is None else [index(j) for j in features]
    except TypeError:
        cols = []
    if not cols or len(set(cols)) < len(cols) or not 0 <= min(cols) <= max(cols) < d.p:
        raise ValueError(f"features must be distinct integers in [0, {d.p}), at least one; "
                         f"got {reprlib.repr(features)}")
    # sums of y reach n max|y|, and their squares overflow past 2^512: beyond
    # 2^500 the fit is of y * 2^-e (exact) and the leaf weights are scaled
    # back by 2^e
    top = np.abs(d.target).max()
    e = int(np.frexp(top)[1]) if n * top > 2.0**500 else 0
    if e:
        d = Dataset(d.features, np.ldexp(d.target, -e), d.feature_names)

    # the root's rows are sorted once, and every other leaf inherits its order
    block = np.argsort(d.features[:, cols], axis=0, kind="stable")
    w = sw = None
    repeated = _repeated_rows(d, block, cols[0])
    if repeated is not None:
        first, w, block = repeated
        d = Dataset(d.features[first], d.target[first], d.feature_names)
        sw = np.sqrt(w)[:, None]

    # leaves holds (node index, _Node) of each leaf, left to right; a weighted
    # round's basis is that of the rows scaled by sqrt(w)
    y = d.target
    ys = y if w is None else sw[:, 0] * y
    nodes = FlatTree.leaf()
    root = _Node.root(d)
    root.order = block
    leaves = [(0, root)]
    del root  # a split leaf's search tables go with it
    min_count = rule.min_count(n)

    while rule.max_leaves is None or len(leaves) < rule.max_leaves:
        options, basis = [], None
        for idx, (_, leaf) in enumerate(leaves):
            size = leaf.rows.size if w is None else w[leaf.rows].sum()
            if size < 2 * min_count or (rule.max_depth is not None
                                        and leaf.depth >= rule.max_depth):
                leaf.tables = None  # it never searches: its parent's tables go
                continue
            if leaf.search is None:
                vars = sorted(candidate_variables(d, 3, cols, leaf.order, w))
                leaf.search = _leaf_cuts(d, leaf, vars, sigma, min_count,
                                         leaf.order[:, [cols.index(j) for j in vars]], w)
            if not leaf.search[1]:
                continue
            if basis is None:
                V = np.column_stack([node.col for _, node in leaves])
                basis = _round_basis(V if w is None else sw * V, ys, sigma)
            found = find_best_split(leaf.search, basis, sigma)
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

        i, leaf = leaves[idx]
        leaves[idx : idx + 1] = zip(nodes.grow(i, int(j), float(s)), leaf.split(d, j, s, sigma))
        log.debug("split leaf=%d j=%d s=%.6g leaves=%d sse=%.6g", idx, j, s, len(leaves), sse_new)

    # the weights solve the repeated rows' own problem, once per fit, so the
    # hard leaf means stay exact sums over their members
    V = np.column_stack([node.col for _, node in leaves])
    if w is not None:
        V, y = np.repeat(V, w, axis=0), np.repeat(y, w)
    for (i, _), g in zip(leaves, fit_weights(V, y)):
        nodes.value[i] = math.ldexp(float(g), e)
    return PRTree(nodes, sigma, d.feature_names)
