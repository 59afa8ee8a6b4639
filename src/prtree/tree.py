"""Single probabilistic regression tree: greedy split search with a full
least-squares weight refit at every candidate, and soft prediction."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .kernel import (
    MembershipMatrix,
    interval_mass,
    membership_column,
    normal_cdf,
)
from .regions import Region

log = logging.getLogger(__name__)

# Relative threshold below which a candidate split's SSE gain is treated as
# a tie (and as no gain at all when deciding whether to keep growing).
GAIN_TOL = 1e-12
# Singular values below PINV_RCOND * largest are treated as zero.
PINV_RCOND = 1e-10


@dataclass
class LeafNode:
    region: Region
    gamma: float = 0.0


@dataclass
class SplitNode:
    j: int
    s: float
    left: "SplitNode | LeafNode"
    right: "SplitNode | LeafNode"


@dataclass(frozen=True)
class StoppingRule:
    """Growth limits. The leaf-size rule counts hard (sigma = 0) assignments."""

    min_leaf_fraction: float = 0.10
    max_depth: int | None = None
    max_leaves: int | None = None

    def __post_init__(self):
        if not (0.0 < self.min_leaf_fraction <= 0.5):
            raise ValueError("min_leaf_fraction must lie in (0, 0.5]")

    def min_count(self, n: int) -> int:
        return max(1, int(np.ceil(self.min_leaf_fraction * n - 1e-9)))


def _is_disjoint_binary(V: np.ndarray) -> bool:
    return bool(np.all((V == 0.0) | (V == 1.0)) and np.all(V.sum(axis=1) <= 1.0))


def fit_weights(P, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares leaf weights for membership matrix P.

    Hard-assignment matrices (exact 0/1 entries, disjoint columns) are
    solved column-wise, which is exact; the general case goes through the
    Moore-Penrose pseudo-inverse.
    """
    V = P.values if isinstance(P, MembershipMatrix) else np.asarray(P, dtype=float)
    y = np.asarray(y, dtype=float)
    if V.shape[0] != y.shape[0]:
        raise ValueError("row count of P must match the target length")
    if _is_disjoint_binary(V):
        gamma = np.empty(V.shape[1])
        for k in range(V.shape[1]):
            members = y[V[:, k] != 0.0]
            gamma[k] = members.sum() / members.size if members.size else 0.0
        return gamma
    return np.linalg.pinv(V, rcond=PINV_RCOND) @ y


def _hard_cut_sse(vs: np.ndarray, ys: np.ndarray):
    """Children SSE of every hard cut of ys, given sorted by the values vs
    (the CART prefix-sum formula; Breiman et al. 1984).

    Cut i lies between the distinct values vs[after[i]] and vs[after[i] + 1],
    so after[i] + 1 rows go left. Returns (after, sse_left, sse_right,
    sse_total), where sse_total is the SSE of all of ys around its mean.
    """
    n = ys.shape[0]
    after = np.flatnonzero(vs[:-1] != vs[1:])
    c1 = np.cumsum(ys)
    c2 = np.cumsum(ys * ys)
    tot1, tot2 = c1[-1], c2[-1]
    m = after + 1.0
    sse_l = c2[after] - c1[after] ** 2 / m
    sse_r = (tot2 - c2[after]) - (tot1 - c1[after]) ** 2 / (n - m)
    return after, sse_l, sse_r, tot2 - tot1**2 / n


def _best_hard_reduction(v: np.ndarray, y: np.ndarray) -> float | None:
    """Largest SSE reduction of a single hard split of y along values v;
    None when v has fewer than two distinct values."""
    order = np.argsort(v, kind="stable")
    after, sse_l, sse_r, sse_tot = _hard_cut_sse(v[order], y[order])
    if after.size == 0:
        return None
    return float(np.max(sse_tot - sse_l - sse_r))


def candidate_variables(d: Dataset, rows, k: int = 3, features=None) -> list[int]:
    """The k coordinates whose best hard split over `rows` reduces SSE the
    most; ties broken toward the smaller coordinate index. Coordinates with
    no valid split are dropped."""
    rows = np.asarray(rows)
    if rows.size == 0:
        raise ValueError("rows must be non-empty")
    X = d.features[rows]
    y = d.target[rows]
    cols = range(d.p) if features is None else features
    scored = []
    for j in cols:
        red = _best_hard_reduction(X[:, j], y)
        if red is not None:
            scored.append((-red, j))
    scored.sort()
    return [j for _, j in scored[:k]]


def split_candidates(d: Dataset, region: Region, j: int) -> np.ndarray:
    """Midpoints between consecutive distinct values of feature j among the
    rows hard-assigned to the region."""
    mask = region.contains(d.features)
    values = np.unique(d.features[mask, j])
    return (values[:-1] + values[1:]) / 2.0


def _pick_best(candidates):
    """Smallest-SSE candidate; near-ties (relative GAIN_TOL) resolve to the
    lexicographically smallest remaining fields."""
    if not candidates:
        return None
    best_sse = min(c[0] for c in candidates)
    tol = GAIN_TOL * (1.0 + abs(best_sse))
    return min(c for c in candidates if c[0] <= best_sse + tol)


def _split_sse_batch(ry, Q, L, R):
    """SSE of the full refit for each candidate pair of child columns.

    ry is the target with the span of the untouched columns projected out,
    Q an orthonormal basis of that span. Each candidate adds two columns;
    the explained quadratic is solved from the projected 2x2 Gram system.
    """
    if Q is not None and Q.shape[1] > 0:
        L = L - Q @ (Q.T @ L)
        R = R - Q @ (Q.T @ R)
    base = float(ry @ ry)
    a = np.einsum("ij,ij->j", L, L)
    b = np.einsum("ij,ij->j", L, R)
    c = np.einsum("ij,ij->j", R, R)
    u = L.T @ ry
    v = R.T @ ry
    det = a * c - b * b
    trace = a + c
    safe = det > (PINV_RCOND**2) * trace**2
    quad = np.zeros_like(det)
    with np.errstate(invalid="ignore", divide="ignore"):
        q_full = (c * u * u - 2.0 * b * u * v + a * v * v) / det
    quad[safe] = q_full[safe]
    for i in np.flatnonzero(~safe):
        # (near) rank-deficient pair: fall back to a dense 2-column solve
        A = np.column_stack([L[:, i], R[:, i]])
        coef, *_ = np.linalg.lstsq(A, ry, rcond=PINV_RCOND)
        fit = A @ coef
        quad[i] = float(ry @ fit)
    return base - quad


def _find_best_hard_split(X, V, y, rows_mask, vars, min_count):
    """find_best_split when every sigma is 0. The columns of V are then
    disjoint 0/1 indicators, so a candidate's refit SSE is the other leaves'
    SSE around their means plus the children's SSE from prefix sums over
    the split leaf's rows (rows_mask), one sort per coordinate."""
    xk, yk = X[rows_mask], y[rows_mask]
    if yk.size < 2 * min_count:
        return None
    counts = V.sum(axis=0)
    means = np.divide(V.T @ y, counts, out=np.zeros_like(counts), where=counts > 0)
    r = (y - V @ means)[~rows_mask]
    base = float(r @ r)
    # the children's SSE is shift-invariant; centring keeps the prefix sums small
    yk = yk - yk.mean()
    best = None
    for j in sorted(vars):
        order = np.argsort(xk[:, j], kind="stable")
        vs = xk[order, j]
        after, sse_l, sse_r, _ = _hard_cut_sse(vs, yk[order])
        n_left = after + 1
        ok = (n_left >= min_count) & (yk.size - n_left >= min_count)
        if not ok.any():
            continue
        after = after[ok]
        sse = base + (sse_l[ok] + sse_r[ok])
        # argmin keeps the first (smallest) cut among exact ties, and the
        # strict < keeps the smallest j: the same order as _pick_best
        i = int(np.argmin(sse))
        if best is None or sse[i] < best[2]:
            s = (vs[after[i]] + vs[after[i] + 1]) / 2.0
            best = (j, float(s), float(sse[i]))
    return best


def find_best_split(d: Dataset, P: MembershipMatrix, y, k: int, vars, sigma, rule: StoppingRule):
    """Best (coordinate, cut) for leaf k by refit SSE over all admissible
    candidates, as (j, s, sse), or None. Ties break toward the smaller (j, s).

    Cuts are the midpoints between consecutive distinct values of leaf k's
    hard-assigned rows that leave at least rule.min_count(n) rows on each
    side. Two paths compute the same refit SSE:

    - every sigma is 0: the leaves are disjoint indicators, and the SSE
      comes from one sort and prefix sums per coordinate (O(n_k log n_k));
    - otherwise (soft or mixed sigma): dense child columns for every cut,
      projected off a QR basis of the other leaves (O(n x #cuts)).
    """
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y, dtype=float)
    V = P.values
    n, K = V.shape
    region = P.regions[k]
    min_count = rule.min_count(n)
    rows_mask = region.contains(d.features)
    if not sigma.any():
        return _find_best_hard_split(d.features, V, y, rows_mask, vars, min_count)
    B = np.delete(V, k, axis=1)
    if K > 1:
        Q, _ = np.linalg.qr(B)
        ry = y - Q @ (Q.T @ y)
    else:
        Q, ry = None, y.copy()

    X = d.features
    candidates = []
    for j in sorted(vars):
        a, b = region.lower[j], region.upper[j]
        inleaf = np.sort(X[rows_mask, j])
        uniq = np.unique(inleaf)
        if uniq.size < 2:
            continue
        cuts = (uniq[:-1] + uniq[1:]) / 2.0
        left_cnt = np.searchsorted(inleaf, cuts, side="right")
        ok = (left_cnt >= min_count) & (inleaf.size - left_cnt >= min_count)
        cuts = cuts[ok]
        if cuts.size == 0:
            continue
        # child columns = (product of the other coordinates' masses) times
        # the j-th coordinate's mass over (a, s] resp. (s, b]
        other = np.ones(n)
        for jj in range(d.p):
            if jj != j:
                other *= interval_mass(X[:, jj], region.lower[jj], region.upper[jj], sigma[jj])
        xj = X[:, j]
        if sigma[j] == 0.0:
            above = (xj > a) if a != -np.inf else np.ones(n, dtype=bool)
            below = (xj <= b) if b != np.inf else np.ones(n, dtype=bool)
            lmask = above[:, None] & (xj[:, None] <= cuts)
            L = lmask * other[:, None]
            R = ((xj[:, None] > cuts) & below[:, None]) * other[:, None]
        else:
            Fa = np.zeros(n) if a == -np.inf else normal_cdf((a - xj) / sigma[j])
            Fb = np.ones(n) if b == np.inf else normal_cdf((b - xj) / sigma[j])
            Fs = normal_cdf((cuts[None, :] - xj[:, None]) / sigma[j])
            L = other[:, None] * (Fs - Fa[:, None])
            R = other[:, None] * (Fb[:, None] - Fs)
        sse = _split_sse_batch(ry, Q, L, R)
        for s, val in zip(cuts, sse):
            candidates.append((float(val), j, float(s)))

    best = _pick_best(candidates)
    if best is None:
        return None
    return best[1], best[2], best[0]


@dataclass
class PRTree:
    """A fitted probabilistic regression tree.

    Prediction is the gamma-weighted sum of soft memberships over all
    leaves; with sigma = 0 this degenerates to the usual piecewise-constant
    lookup. Immutable in practice once fitted.
    """

    root: SplitNode | LeafNode
    sigma: np.ndarray
    leaves: list[LeafNode] = field(repr=False)
    feature_names: tuple[str, ...] = ()

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def p(self) -> int:
        return self.leaves[0].region.p

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.p:
            raise ValueError(f"expected {self.p} features, got {X.shape[1]}")
        V = np.column_stack(
            [membership_column(X, leaf.region, self.sigma) for leaf in self.leaves]
        )
        gammas = np.array([leaf.gamma for leaf in self.leaves])
        return V @ gammas

    def to_dict(self) -> dict:
        nodes = []

        def emit(node):
            idx = len(nodes)
            nodes.append(None)
            if isinstance(node, LeafNode):
                nodes[idx] = {
                    "kind": "leaf",
                    "gamma": float(node.gamma),
                    "lower": [float(v) for v in node.region.lower],
                    "upper": [float(v) for v in node.region.upper],
                }
            else:
                left = emit(node.left)
                right = emit(node.right)
                nodes[idx] = {
                    "kind": "split",
                    "j": int(node.j),
                    "s": float(node.s),
                    "left": left,
                    "right": right,
                }
            return idx

        emit(self.root)
        return {"sigma": [float(v) for v in self.sigma], "nodes": nodes}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "PRTree":
        nodes = obj["nodes"]
        leaves: list[LeafNode] = []

        def build(idx):
            spec = nodes[idx]
            if spec["kind"] == "leaf":
                leaf = LeafNode(
                    Region(np.array(spec["lower"]), np.array(spec["upper"])),
                    gamma=float(spec["gamma"]),
                )
                leaves.append(leaf)
                return leaf
            left = build(spec["left"])
            right = build(spec["right"])
            return SplitNode(int(spec["j"]), float(spec["s"]), left, right)

        root = build(0)
        return cls(root=root, sigma=np.array(obj["sigma"], dtype=float), leaves=leaves)

    @classmethod
    def from_json(cls, text: str) -> "PRTree":
        return cls.from_dict(json.loads(text))


def predict_tree(t: PRTree, x) -> float:
    """Prediction of a fitted tree at a single point."""
    return float(t.predict(np.asarray(x, dtype=float)[None, :])[0])


@dataclass
class _FitLeaf:
    node: LeafNode
    rows: np.ndarray
    depth: int
    parent: SplitNode | None
    side: str
    vars: list[int] | None = None


def fit_prtree(
    d: Dataset,
    sigma,
    rule: StoppingRule = StoppingRule(),
    features=None,
    n_candidate_vars: int = 3,
    target=None,
) -> PRTree:
    """Grow a PR tree greedily: each iteration applies the single best
    admissible split across all current leaves (full weight refit per
    candidate), until no split reduces the training SSE.

    `features`, when given, restricts splits to that coordinate subset
    (used by forests). `target`, when given, replaces d.target for both the
    fit and the candidate-variable ranking (used by boosting). Growth is
    deterministic.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (d.p,) or np.any(sigma < 0):
        raise ValueError("sigma must be a non-negative vector of length p")
    if target is not None:
        d = Dataset(d.features, target, d.feature_names)
    y = d.target
    n = d.n
    if n < 2:
        raise ValueError("need at least 2 rows to fit a tree")

    root_leaf = LeafNode(Region.root(d.p))
    root: SplitNode | LeafNode = root_leaf
    leaves = [_FitLeaf(root_leaf, np.arange(n), 0, None, "")]
    V = np.ones((n, 1))

    def mm():
        return MembershipMatrix(V, [fl.node.region for fl in leaves])

    gamma = fit_weights(V, y)
    resid = y - V @ gamma
    sse_cur = float(resid @ resid)
    min_count = rule.min_count(n)

    while True:
        if rule.max_leaves is not None and len(leaves) >= rule.max_leaves:
            break
        P = mm()
        options = []
        for idx, fl in enumerate(leaves):
            if rule.max_depth is not None and fl.depth >= rule.max_depth:
                continue
            if fl.rows.size < 2 * min_count:
                continue
            if fl.vars is None:
                fl.vars = candidate_variables(d, fl.rows, n_candidate_vars, features)
            if not fl.vars:
                continue
            found = find_best_split(d, P, y, idx, fl.vars, sigma, rule)
            if found is not None:
                j, s, sse = found
                options.append((sse, idx, j, s))
        chosen = _pick_best(options)
        if chosen is None:
            break
        _, idx, j, s = chosen

        fl = leaves[idx]
        left_r, right_r = fl.node.region.split(j, s)
        lcol = membership_column(d.features, left_r, sigma)
        rcol = membership_column(d.features, right_r, sigma)
        V_new = np.column_stack([V[:, :idx], lcol, rcol, V[:, idx + 1 :]])
        gamma_new = fit_weights(V_new, y)
        resid = y - V_new @ gamma_new
        sse_new = float(resid @ resid)
        if sse_cur - sse_new <= GAIN_TOL * (1.0 + sse_cur):
            break

        go_left = d.features[fl.rows, j] <= s
        left_leaf = LeafNode(left_r)
        right_leaf = LeafNode(right_r)
        split = SplitNode(j, float(s), left_leaf, right_leaf)
        if fl.parent is None:
            root = split
        else:
            setattr(fl.parent, fl.side, split)
        leaves[idx : idx + 1] = [
            _FitLeaf(left_leaf, fl.rows[go_left], fl.depth + 1, split, "left"),
            _FitLeaf(right_leaf, fl.rows[~go_left], fl.depth + 1, split, "right"),
        ]
        V, gamma, sse_cur = V_new, gamma_new, sse_new
        log.debug("split leaf=%d j=%d s=%.6g leaves=%d sse=%.6g", idx, j, s, len(leaves), sse_cur)

    gamma = fit_weights(V, y)
    for fl, g in zip(leaves, gamma):
        fl.node.gamma = float(g)
    return PRTree(root=root, sigma=sigma, leaves=[fl.node for fl in leaves],
                  feature_names=d.feature_names)
