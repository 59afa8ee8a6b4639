"""Bayesian additive PR trees: tree-structure prior, Metropolis-Hastings
topology moves, marginalized residual likelihood, and Gibbs draws of leaf
weights and the noise scale."""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from operator import mul

import numpy as np
from scipy.special import gammainccinv

from .data import Dataset, RngSpec, check_features
# membership_column is unused here; bench/test_bench.py checks that the tracer patches this binding
from .kernel import membership_column, membership_columns  # noqa: F401
from .regions import Region
from .tree import (FlatTree, StoppingRule, cut_points, model_json, model_value,
                   read_model_json, scales)

log = logging.getLogger(__name__)

GROW, PRUNE, CHANGE, SWAP = "grow", "prune", "change", "swap"


def _log(x: float) -> float:
    """log with log(0) = -inf, so zero-probability reverse moves reject."""
    return math.log(x) if x > 0.0 else -np.inf
MOVES = (GROW, PRUNE, CHANGE, SWAP)


@dataclass
class PBartHyper:
    """Prior and chain-length settings for the Bayesian sampler.

    lam (noise-scale prior) and sigma_gamma (weight prior std) default to
    data-calibrated values chosen at fit time: lam puts prior probability
    0.9 below the normalized target's sample variance, and sigma_gamma is
    0.5 / (2 sqrt(m)) so the m-tree sum matches the [-0.5, 0.5] range.
    """

    m: int = 50
    alpha: float = 0.95
    beta: float = 2.0
    nu: float = 3.0
    lam: float | None = None
    sigma_gamma: float | None = None
    it_burn: int = 200
    it_max: int = 1000
    move_probs: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        for name, zero_ok in (("nu", False), ("beta", True), ("lam", False),
                              ("sigma_gamma", True), ("it_burn", True)):
            v = getattr(self, name)
            if v is None and name in ("lam", "sigma_gamma"):  # calibrated at fit time
                continue
            if not (math.isfinite(v) and (v > 0 or zero_ok and v == 0)):
                raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0")
        if self.it_burn >= self.it_max:
            raise ValueError("it_burn must be < it_max")
        if abs(sum(self.move_probs) - 1.0) > 1e-9 or min(self.move_probs) < 0.0:
            raise ValueError("move_probs must be non-negative and sum to 1")

    def calibrated(self, y_norm: np.ndarray) -> "PBartHyper":
        lam = self.lam
        if lam is None:
            s2 = float(np.var(y_norm, ddof=1)) if y_norm.size > 1 else 1.0
            s2 = max(s2, 1e-12)
            # the 0.9 quantile of InvGamma(nu / 2, 1), as scipy.stats.invgamma computes it
            q90 = 1.0 / gammainccinv(self.nu / 2.0, 0.9)
            lam = 2.0 * s2 / (self.nu * q90)
        sg = self.sigma_gamma
        if sg is None:
            sg = 0.5 / (2.0 * math.sqrt(self.m))
        return replace(self, lam=lam, sigma_gamma=sg)


class _Node:
    """What a node's split path from the root fixes, for one dataset d and one
    sigma: its depth, region and hard rows, and on demand its rows x p block
    sorted by column, admissible coordinates, cuts and, as a leaf, its
    membership column at (d.features, sigma)."""

    __slots__ = ("depth", "region", "rows", "block", "adm", "cuts", "col")

    def __init__(self, depth: int, region: Region, rows: np.ndarray):
        self.depth, self.region, self.rows = depth, region, rows
        self.block, self.adm, self.cuts, self.col = None, None, {}, None

    def split(self, d: Dataset, j: int, s: float) -> tuple["_Node", "_Node"]:
        go_left = d.features[self.rows, j] <= s
        lo, hi = self.region.split(j, s)
        return (_Node(self.depth + 1, lo, self.rows[go_left]),
                _Node(self.depth + 1, hi, self.rows[~go_left]))

    def sorted_block(self, d: Dataset) -> np.ndarray:
        if self.block is None:
            self.block = np.sort(d.features[self.rows], axis=0)
        return self.block

    def admissible(self, d: Dataset) -> list[int]:
        """Coordinates with at least two distinct values over the rows."""
        if self.adm is None:
            X = self.sorted_block(d)
            self.adm = np.flatnonzero((X[1:] != X[:-1]).any(axis=0)).tolist()
        return self.adm

    def cuts_on(self, d: Dataset, j: int) -> np.ndarray:
        """The `cut_points` of coordinate j over the rows, from the sorted block."""
        if j not in self.cuts:
            self.cuts[j] = cut_points(self.sorted_block(d)[:, j])[1]
        return self.cuts[j]


class SampledTree:
    """One tree of the additive model at one sigma, for its whole life: node
    arrays plus caches keyed by node index, so a move edits a copy of the
    arrays at the indices the caches give.

    `refresh` binds the tree to a dataset d, recomputes the caches from the
    arrays and reports whether the tree is structurally valid (every split
    value strictly inside its region, every leaf at least `min_count` hard
    rows). Leaves and internal nodes are listed in preorder; `at` maps a node
    index to its `_Node`. Copies keep the sigma and share the `_Node`s by
    split path, so a refresh builds only those whose path a move changed,
    rows carried down from the parent (x_j <= s going left, exactly
    `Region.contains`), and `membership` evaluates only their columns."""

    def __init__(self, nodes: FlatTree, sigma: np.ndarray):
        self.nodes, self.sigma, self.data, self.paths = nodes, sigma, None, {}
        self.at, self.leaves, self.internals, self.pairs = {}, [], [], []

    def copy(self) -> "SampledTree":
        """A tree on copies of the arrays at the same sigma, sharing the
        `_Node`s: node indices of this tree locate the same nodes in the copy
        until it is edited."""
        t = SampledTree(self.nodes.copy(), self.sigma)
        t.data, t.paths = self.data, self.paths
        return t

    def refresh(self, d: Dataset, min_count: int) -> bool:
        # paths: the root under (), a split's children under (its path, j, s),
        # the children's own paths being (that key, 0) and (that key, 1)
        old = self.paths if self.data is d else {}
        self.data, self.paths, self.at = d, {}, {}
        self.leaves, self.internals, self.pairs = [], [], []
        feature, threshold = self.nodes.feature, self.nodes.threshold
        left, right = self.nodes.left, self.nodes.right
        self.paths[()] = root = old.get(()) or _Node(0, Region.root(d.p), np.arange(d.n))
        stack = [(0, (), root)]
        while stack:
            i, path, node = stack.pop()
            self.at[i], j, s = node, feature[i], threshold[i]
            if j < 0:
                self.leaves.append(i)
                if node.rows.size < min_count:
                    return False
                continue
            if not (node.region.lower[j] < s < node.region.upper[j]):
                return False
            self.internals.append(i)
            self.pairs += [(i, c) for c in (left[i], right[i]) if feature[c] >= 0]
            key = (path, j, s)
            self.paths[key] = lo, hi = old.get(key) or node.split(d, j, s)
            stack += [(right[i], (key, 1), hi), (left[i], (key, 0), lo)]
        return True

    @property
    def regions(self) -> list[Region]:
        return [self.at[i].region for i in self.leaves]

    def n_cuts(self, i: int) -> int:
        """The number of `cut_points` of internal node i's coordinate over its rows."""
        return self.at[i].cuts_on(self.data, self.nodes.feature[i]).size

    @property
    def k(self) -> int:
        return len(self.leaves)

    def gammas(self) -> np.ndarray:
        return np.array([self.nodes.value[i] for i in self.leaves])

    def set_gammas(self, gam: np.ndarray):
        for i, g in zip(self.leaves, gam):
            self.nodes.value[i] = float(g)

    def membership(self) -> np.ndarray:
        """The n x K leaf membership columns at (d.features, sigma), each kept
        on its `_Node` once evaluated."""
        new = [self.at[i] for i in self.leaves if self.at[i].col is None]
        regions = [node.region for node in new]
        for node, col in zip(new, membership_columns(self.data.features, regions, self.sigma)):
            node.col = col
        return np.column_stack([self.at[i].col for i in self.leaves])

    def prunable(self) -> list[int]:
        """The internal nodes whose children are both leaves."""
        f, left, right = self.nodes.feature, self.nodes.left, self.nodes.right
        return [i for i in self.internals if f[left[i]] < 0 and f[right[i]] < 0]


def tree_log_prior(t: SampledTree, alpha: float, beta: float) -> float:
    """Log prior of a tree topology: depth-decaying split probabilities
    plus uniform split-variable and cut-point factors."""
    total = 0.0
    p = t.at[0].region.p
    for node in t.internals:
        total += math.log(alpha / (1.0 + t.at[node].depth) ** beta)
        n_cuts = t.n_cuts(node)
        if n_cuts == 0:
            return -np.inf
        total += -math.log(p) - math.log(n_cuts)
    for leaf in t.leaves:
        total += math.log1p(-alpha / (1.0 + t.at[leaf].depth) ** beta)
    return total


def marginal_log_likelihood(R, V, sigma_gamma: float, sigma_tilde: float) -> float:
    """Log density of residuals with leaf weights integrated out:
    N(0, sigma_tilde^2 I + sigma_gamma^2 V V^T), for the n x K membership array V,
    evaluated from the K x K Gram statistics (see `_sigma0_terms`)."""
    logdet, quad = _sigma0_terms(R, V, sigma_gamma, sigma_tilde)
    n = len(np.asarray(R))
    return float(-0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad)


def _sigma0_terms(R, V, sigma_gamma: float, sigma_tilde: float):
    """(log det Sigma0, R^T Sigma0^{-1} R) for Sigma0 = st2 I + sg2 V V^T.

    From G = V^T V and b = V^T R alone: with r = sg2 / st2 and the Cholesky
    factor I + r G = L L^T, taken on Python floats (K is small),
    log det Sigma0 = n log st2 + 2 sum log L_ii (the determinant lemma) and
    R^T Sigma0^{-1} R = (R^T R - r |L^{-1} b|^2) / st2 (Woodbury)."""
    if sigma_tilde <= 0.0:
        raise ValueError("sigma_tilde must be positive")
    V = np.asarray(V, dtype=float)
    R = np.asarray(R, dtype=float)
    n = V.shape[0]
    if R.shape != (n,):
        raise ValueError("residual length must match V's row count")
    st2 = sigma_tilde**2
    r = sigma_gamma**2 / st2
    logdet, L, z = n * math.log(st2), [], []  # z = L^{-1} b
    for Gi, bi in zip((V.T @ V).tolist(), (V.T @ R).tolist()):
        Li = []
        for Lj in L:
            Li.append((r * Gi[len(Li)] - sum(map(mul, Li, Lj))) / Lj[-1])
        pivot = 1.0 + r * Gi[len(Li)] - sum(map(mul, Li, Li))
        logdet += math.log(pivot)
        Li.append(math.sqrt(pivot))
        L.append(Li)
        z.append((bi - sum(map(mul, Li, z))) / Li[-1])
    return logdet, (float(R @ R) - r * sum(map(mul, z, z))) / st2


def propose_tree(
    t: SampledTree,
    rng: np.random.Generator,
    move_probs,
    d: Dataset,
    rule: StoppingRule,
):
    """Draw one local topology move. Returns (candidate, log q-ratio, kind);
    an impossible or invalid proposal carries log q-ratio = -inf and a
    None candidate."""
    min_count = rule.min_count(d.n)
    # the draw of rng.choice(4, p=move_probs), without its per-call array checks
    cdf = list(accumulate(move_probs))
    kind = MOVES[bisect_right([c / cdf[-1] for c in cdf], rng.random())]
    invalid = (None, -np.inf, kind)

    if kind == GROW:
        i = int(rng.integers(len(t.leaves)))
        if rule.max_depth is not None and t.at[t.leaves[i]].depth >= rule.max_depth:
            return invalid
        adm = t.at[t.leaves[i]].admissible(d)
        if not adm:
            return invalid
        j = adm[int(rng.integers(len(adm)))]
        cuts = t.at[t.leaves[i]].cuts_on(d, j)
        s = float(cuts[int(rng.integers(cuts.size))])
        star = t.copy()
        star.nodes.grow(t.leaves[i], j, s)
        if not star.refresh(d, min_count):
            return invalid
        log_fwd = (
            _log(move_probs[0]) - math.log(len(t.leaves))
            - math.log(len(adm)) - math.log(cuts.size)
        )
        log_rev = _log(move_probs[1]) - math.log(len(star.prunable()))
        return star, log_rev - log_fwd, kind

    if kind == PRUNE:
        prunable = t.prunable()
        if not prunable:
            return invalid
        node = prunable[int(rng.integers(len(prunable)))]
        star = t.copy()
        star.nodes.prune(node)
        if not star.refresh(d, min_count):
            return invalid
        log_fwd = _log(move_probs[1]) - math.log(len(prunable))
        log_rev = (
            _log(move_probs[0]) - math.log(len(star.leaves))
            - math.log(len(t.at[node].admissible(d))) - math.log(t.n_cuts(node))
        )
        return star, log_rev - log_fwd, kind

    if kind == CHANGE:
        if not t.internals:
            return invalid
        node = t.internals[int(rng.integers(len(t.internals)))]
        adm = t.at[node].admissible(d)
        if not adm:
            return invalid
        j_new = adm[int(rng.integers(len(adm)))]
        cuts_new = t.at[node].cuts_on(d, j_new)
        s_new = float(cuts_new[int(rng.integers(cuts_new.size))])
        star = t.copy()
        star.nodes.feature[node], star.nodes.threshold[node] = j_new, s_new
        if not star.refresh(d, min_count):
            return invalid
        return star, math.log(cuts_new.size) - math.log(t.n_cuts(node)), kind

    # SWAP: exchange the split rules of a parent/child internal pair
    if not t.pairs:
        return invalid
    pick = int(rng.integers(len(t.pairs)))
    parent, child = t.pairs[pick]
    star = t.copy()
    f, s = star.nodes.feature, star.nodes.threshold
    f[parent], f[child] = f[child], f[parent]
    s[parent], s[child] = s[child], s[parent]
    if not star.refresh(d, min_count):
        return invalid
    return star, 0.0, kind


def mh_accept(
    t: SampledTree,
    t_star: SampledTree | None,
    R,
    V,
    V_star,
    hyper: PBartHyper,
    rng: np.random.Generator,
    sigma_tilde: float,
    log_q_ratio: float = 0.0,
) -> bool:
    """Metropolis-Hastings accept/reject for a proposed tree, using the
    weight-marginalized residual likelihood; a None proposal is rejected."""
    if t_star is None or log_q_ratio == -np.inf:
        return False
    delta = (
        log_q_ratio
        + marginal_log_likelihood(R, V_star, hyper.sigma_gamma, sigma_tilde)
        - marginal_log_likelihood(R, V, hyper.sigma_gamma, sigma_tilde)
        + tree_log_prior(t_star, hyper.alpha, hyper.beta)
        - tree_log_prior(t, hyper.alpha, hyper.beta)
    )
    if delta >= 0.0:
        return True
    return bool(rng.random() < math.exp(delta))


def draw_gammas(
    t: SampledTree,
    R,
    V,
    hyper: PBartHyper,
    rng: np.random.Generator,
    sigma_tilde: float,
) -> np.ndarray:
    """One full Gibbs sweep over leaf weights, in leaf order, each draw
    conditioning on the freshest values of the other weights. Leaf k's
    conditional needs A_k = G_kk and B_k = b_k - sum_{l != k} G_kl gamma_l
    of G = V^T V and b = V^T R, so the sweep runs on Python floats."""
    V = np.asarray(V, dtype=float)
    R = np.asarray(R, dtype=float)
    sg2 = hyper.sigma_gamma**2
    st2 = sigma_tilde**2
    gam = t.gammas().tolist()
    for k, (Gk, bk) in enumerate(zip((V.T @ V).tolist(), (V.T @ R).tolist())):
        gam[k] = 0.0  # so that B sums over the other leaves only
        B = bk - sum(map(mul, Gk, gam))
        denom = st2 + sg2 * Gk[k]
        gam[k] = sg2 * B / denom + math.sqrt(st2 * sg2 / denom) * rng.standard_normal()
    t.set_gammas(gam)
    return np.array(gam)


def draw_sigma_tilde(y, full_fit, hyper: PBartHyper, rng: np.random.Generator) -> float:
    """Posterior draw of the noise scale: sigma^2 ~ IG((nu+n)/2,
    (nu lam + SSE)/2); with no data this falls back to the prior."""
    y = np.asarray(y, dtype=float)
    fit = np.asarray(full_fit, dtype=float)
    if y.shape != fit.shape:
        raise ValueError("y and full_fit must have the same length")
    n = y.size
    if n == 0:
        shape, scale = hyper.nu / 2.0, hyper.nu * hyper.lam / 2.0
    else:
        sse = float(np.sum((y - fit) ** 2))
        shape = (hyper.nu + n) / 2.0
        scale = (hyper.nu * hyper.lam + sse) / 2.0
    var = scale / rng.gamma(shape)
    return math.sqrt(var)


@dataclass
class PBartChain:
    """Post-burn-in posterior trace of the additive tree model: per retained
    iteration, the node arrays of each of the m trees, leaf weights included.
    `snapshots` holds the same iterations as (regions tuple, gamma array) per
    tree, leaves in preorder, derived from the arrays once."""

    trees: list[list[FlatTree]]
    sigma_trace: np.ndarray
    acceptance_log: dict
    sigma: np.ndarray
    y_offset: float
    y_scale: float
    hyper: PBartHyper
    feature_names: tuple[str, ...] = ()
    snapshots: list = field(init=False, repr=False)

    def __post_init__(self):
        # each distinct tree structure is walked once. Identical regions recur
        # across snapshots; their weights are summed once here, in first-seen
        # order, so that predict evaluates each distinct region's column once
        p = self.sigma.shape[0]
        walked: dict[tuple, tuple[list[int], tuple[Region, ...]]] = {}
        groups: dict[bytes, list] = {}
        self.snapshots = []
        for snap in self.trees:
            pairs = []
            for t in snap:
                key = (tuple(t.feature), tuple(t.threshold), tuple(t.left), tuple(t.right))
                if key not in walked:
                    found = [(i, r) for i, _, r in t.walk(p) if t.feature[i] < 0]
                    walked[key] = [i for i, _ in found], tuple(r for _, r in found)
                leaves, regions = walked[key]
                gammas = np.array([t.value[i] for i in leaves])
                pairs.append((regions, gammas))
                for region, g in zip(regions, gammas):
                    bounds = region.lower.tobytes() + region.upper.tobytes()
                    groups.setdefault(bounds, [region, 0.0])[1] += float(g)
            self.snapshots.append(pairs)
        self._regions = [region for region, _ in groups.values()]
        self._gsums = [gsum for _, gsum in groups.values()]

    @property
    def n_snapshots(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.sigma.shape[0])
        total = np.zeros(X.shape[0])
        for gsum, col in zip(self._gsums, membership_columns(X, self._regions, self.sigma)):
            total += gsum * col
        norm = total / self.n_snapshots
        return (norm + 0.5) * self.y_scale + self.y_offset

    def to_json(self) -> str:
        return model_json(
            {
                "kind": "pbart",
                "feature_names": list(self.feature_names),
                "hyper": asdict(self.hyper),
                "sigma": [float(v) for v in self.sigma],
                "y_offset": self.y_offset,
                "y_scale": self.y_scale,
                "sigma_trace": [float(v) for v in self.sigma_trace],
                "acceptance_log": self.acceptance_log,
                "snapshots": [[vars(t) for t in snap] for snap in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "PBartChain":
        obj = read_model_json(text, "pbart")
        sigma = model_value(obj, "sigma", scales)
        return cls(
            trees=model_value(obj, "snapshots", lambda snaps: [
                [FlatTree.from_dict(t, sigma.size) for t in snap] for snap in snaps]),
            sigma_trace=model_value(obj, "sigma_trace", scales),
            acceptance_log=model_value(obj, "acceptance_log", dict),
            sigma=sigma,
            y_offset=model_value(obj, "y_offset", float),
            y_scale=model_value(obj, "y_scale", float),
            hyper=model_value(obj, "hyper", lambda h: PBartHyper(
                **{**h, "move_probs": tuple(h["move_probs"])})),
            feature_names=obj["feature_names"],
        )


def fit_pbart(
    d: Dataset,
    hyper: PBartHyper,
    sigma,
    rng: RngSpec,
    rule: StoppingRule = StoppingRule(),
    sigma_tilde_fixed: float | None = None,
) -> PBartChain:
    """Run the Gibbs/MH sampler and retain post-burn-in snapshots.

    The target is internally shifted and scaled to [-0.5, 0.5]; prediction
    undoes the transform. `sigma_tilde_fixed` pins the noise scale instead
    of resampling it (diagnostics and exactness tests)."""
    if d.n < 2:
        raise ValueError("need at least 2 rows")
    sigma = scales(sigma, d.p)
    y = d.target
    y_min, y_max = float(y.min()), float(y.max())
    span = y_max - y_min if y_max > y_min else 1.0
    y_norm = (y - y_min) / span - 0.5

    hyper = hyper.calibrated(y_norm)
    gen = rng.generator()
    min_count = rule.min_count(d.n)

    trees = []
    fits = np.zeros((hyper.m, d.n))
    for ell in range(hyper.m):
        t = SampledTree(FlatTree.leaf(float(gen.normal(0.0, hyper.sigma_gamma))), sigma)
        t.data, t.paths = d, trees[0].paths if trees else {}  # all trees share one root _Node
        t.refresh(d, min_count)
        trees.append(t)
        fits[ell] = t.membership() @ t.gammas()
    total_fit = fits.sum(axis=0)

    if sigma_tilde_fixed is not None:
        sigma_tilde = float(sigma_tilde_fixed)
    else:
        sigma_tilde = math.sqrt(
            (hyper.nu * hyper.lam / 2.0) / gen.gamma(hyper.nu / 2.0)
        )

    accept_log = {kind: {"accepted": 0, "rejected": 0} for kind in MOVES}
    sigma_trace = np.empty(hyper.it_max)
    snapshots = []

    for it in range(1, hyper.it_max + 1):
        for ell in range(hyper.m):
            R = y_norm - (total_fit - fits[ell])
            t = trees[ell]
            star, log_q, kind = propose_tree(t, gen, hyper.move_probs, d, rule)
            V = t.membership()
            V_star = None if star is None else star.membership()
            accepted = mh_accept(t, star, R, V, V_star, hyper, gen, sigma_tilde, log_q)
            accept_log[kind]["accepted" if accepted else "rejected"] += 1
            if accepted:
                trees[ell] = t = star
                V = V_star
            new_fit = V @ draw_gammas(t, R, V, hyper, gen, sigma_tilde)
            total_fit += new_fit - fits[ell]
            fits[ell] = new_fit
        if sigma_tilde_fixed is None:
            sigma_tilde = draw_sigma_tilde(y_norm, total_fit, hyper, gen)
        sigma_trace[it - 1] = sigma_tilde
        if it > hyper.it_burn:
            snapshots.append([t.nodes.copy() for t in trees])
        if it % 100 == 0:
            acc = sum(v["accepted"] for v in accept_log.values())
            tot = acc + sum(v["rejected"] for v in accept_log.values())
            log.debug("iteration %d sigma=%.4g acceptance=%.3f", it, sigma_tilde, acc / tot)

    return PBartChain(
        trees=snapshots,
        sigma_trace=sigma_trace,
        acceptance_log=accept_log,
        sigma=sigma,
        y_offset=y_min,
        y_scale=span,
        hyper=hyper,
        feature_names=d.feature_names,
    )
