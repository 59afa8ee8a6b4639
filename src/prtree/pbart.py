"""Bayesian additive PR trees: tree-structure prior, Metropolis-Hastings
topology moves, marginalized residual likelihood, and Gibbs draws of leaf
weights and the noise scale."""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import accumulate
from operator import mul

import numpy as np
from scipy.special import gammainccinv

from .data import Dataset, RngSpec, check_features
# membership_column is unused here; bench/test_bench.py checks that the tracer patches this binding
from .kernel import Boxes, membership_column  # noqa: F401
from .tree import (FlatTree, Model, StoppingRule, _array, _feature_names, _integer, _list,
                   _Node, _number, _object, _read_only, checked, finite, model_value, scales)

log = logging.getLogger(__name__)

GROW, PRUNE, CHANGE, SWAP = "grow", "prune", "change", "swap"
MOVES = (GROW, PRUNE, CHANGE, SWAP)


def check_rule(rule: StoppingRule):
    """A ValueError if `rule` caps the leaf count, which pbart's tree prior sets."""
    if rule.max_leaves is not None:
        raise ValueError("max_leaves does not apply to pbart: the tree prior (alpha, beta) "
                         "sets the tree sizes")


def _log(x: float) -> float:
    """log with log(0) = -inf, so zero-probability reverse moves reject."""
    return math.log(x) if x > 0.0 else -np.inf


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
        mp = self.move_probs
        if not (len(mp) == len(MOVES) and all(v >= 0.0 for v in mp) and abs(sum(mp) - 1.0) <= 1e-9):
            raise ValueError(f"move_probs must be {len(MOVES)} non-negative numbers summing to 1, "
                             f"one per move of {MOVES}")

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
    rows and columns carried down from the parent (x_j <= s going left,
    exactly `Region.contains`); a split leaving a child fewer than `min_count`
    rows ends the refresh before its columns are evaluated.

    A refreshed tree's structure does not change, since moves edit copies,
    so the tree keeps its membership array V and Gram matrix G = V^T V, each
    formed on first use."""

    def __init__(self, nodes: FlatTree, sigma: np.ndarray):
        self.nodes, self.sigma, self.data, self.paths = nodes, sigma, None, {}
        self.at, self.leaves, self.internals = {}, [], []
        self.V = self.G = None

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
        self.leaves, self.internals = [], []
        self.V = self.G = None
        feature, threshold = self.nodes.feature, self.nodes.threshold
        left, right = self.nodes.left, self.nodes.right
        self.paths[()] = root = old.get(()) or _Node.root(d)
        stack = [(0, (), root)]
        while stack:
            i, path, node = stack.pop()
            self.at[i], j, s = node, feature[i], threshold[i]
            if j < 0:
                self.leaves.append(i)
                if node.rows.size < min_count:
                    return False
                continue
            if not (node.lower[j] < s < node.upper[j]):
                return False
            self.internals.append(i)
            key = (path, j, s)
            pair = old.get(key) or node.split(d, j, s, self.sigma, min_count)
            if pair is None:
                return False
            self.paths[key] = lo, hi = pair
            stack += [(right[i], (key, 1), hi), (left[i], (key, 0), lo)]
        return True

    def n_cuts(self, i: int) -> int:
        """The number of `cut_points` of internal node i's coordinate over its rows."""
        return self.at[i].cuts_on(self.data, self.nodes.feature[i])[1].size

    def gammas(self) -> np.ndarray:
        return np.array([self.nodes.value[i] for i in self.leaves])

    def set_gammas(self, gam: np.ndarray):
        for i, g in zip(self.leaves, gam):
            self.nodes.value[i] = float(g)

    def membership(self) -> np.ndarray:
        """The read-only n x K leaf membership array V at (d.features, sigma),
        stacked once per tree from the columns kept on each `_Node`."""
        if self.V is None:
            self.V = _read_only(np.column_stack([self.at[i].col for i in self.leaves]))
        return self.V

    def gram(self) -> np.ndarray:
        """The K x K Gram matrix G = V^T V of `membership`, formed once per tree."""
        if self.G is None:
            V = self.membership()
            self.G = V.T @ V
        return self.G

    def prunable(self) -> list[int]:
        """The internal nodes whose children are both leaves."""
        f, left, right = self.nodes.feature, self.nodes.left, self.nodes.right
        return [i for i in self.internals if f[left[i]] < 0 and f[right[i]] < 0]

    def pairs(self) -> list[tuple[int, int]]:
        """The (parent, child) pairs of internal nodes: parents in preorder,
        then the left child before the right."""
        f, left, right = self.nodes.feature, self.nodes.left, self.nodes.right
        return [(i, c) for i in self.internals for c in (left[i], right[i]) if f[c] >= 0]


def tree_log_prior(t: SampledTree, alpha: float, beta: float) -> float:
    """Log prior of a tree topology: depth-decaying split probabilities
    plus uniform split-variable and cut-point factors."""
    total = 0.0
    p = t.data.p
    for node in t.internals:
        total += math.log(alpha / (1.0 + t.at[node].depth) ** beta)
        n_cuts = t.n_cuts(node)
        if n_cuts == 0:
            return -np.inf
        total += -math.log(p) - math.log(n_cuts)
    for leaf in t.leaves:
        total += math.log1p(-alpha / (1.0 + t.at[leaf].depth) ** beta)
    return total


def marginal_log_likelihood(G, b, RR: float, n: int, sigma_gamma: float,
                            sigma_tilde: float) -> float:
    """Log density of n residuals R with leaf weights integrated out:
    N(0, Sigma0), Sigma0 = st2 I + sg2 V V^T for the n x K membership array
    V, evaluated from G = V^T V, b = V^T R and RR = R^T R alone. With
    r = sg2 / st2 and the Cholesky factor I + r G = L L^T, taken on Python
    floats (K is small), log det Sigma0 = n log st2 + 2 sum log L_ii (the
    determinant lemma) and R^T Sigma0^{-1} R = (RR - r |L^{-1} b|^2) / st2
    (Woodbury); at b = 0 and RR = 0 the density is -(n log 2 pi + log det
    Sigma0) / 2."""
    if sigma_tilde <= 0.0:
        raise ValueError("sigma_tilde must be positive")
    if np.shape(G) != (len(b), len(b)):
        raise ValueError("G must be K x K for the K entries of b")
    st2 = sigma_tilde**2
    r = sigma_gamma**2 / st2
    logdet, L, z = n * math.log(st2), [], []  # z = L^{-1} b
    for Gi, bi in zip(G.tolist(), b.tolist()):
        Li = []
        for Lj in L:
            Li.append((r * Gi[len(Li)] - sum(map(mul, Li, Lj))) / Lj[-1])
        pivot = 1.0 + r * Gi[len(Li)] - sum(map(mul, Li, Li))
        logdet += math.log(pivot)
        Li.append(math.sqrt(pivot))
        L.append(Li)
        z.append((bi - sum(map(mul, Li, z))) / Li[-1])
    quad = (RR - r * sum(map(mul, z, z))) / st2
    return float(-0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet - 0.5 * quad)


def _grow_log_q(move_probs, t: SampledTree, star: SampledTree, i: int) -> float:
    """log q(prune back) - log q(grow) of the grow of t's leaf i into star's
    split node i: a leaf, then a coordinate and a cut, drawn uniformly. A
    prune's ratio is the negation of that of the grow undoing it; in IEEE
    arithmetic x - y = -(y - x) exactly."""
    log_fwd = (_log(move_probs[0]) - math.log(len(t.leaves))
               - math.log(len(star.at[i].admissible(t.data))) - math.log(star.n_cuts(i)))
    return _log(move_probs[1]) - math.log(len(star.prunable())) - log_fwd


@lru_cache(maxsize=16)
def _move_cdf(move_probs: tuple) -> tuple:
    """The cumulative move probabilities, normalised as `rng.choice` does."""
    cdf = list(accumulate(move_probs))
    return tuple(c / cdf[-1] for c in cdf)


def propose_tree(t: SampledTree, rng: np.random.Generator, move_probs, rule: StoppingRule):
    """Draw one local topology move of t on the dataset it was refreshed on.

    The edit is drawn first: grow and change draw a node (a leaf within
    `rule.max_depth`, or an internal node), one of its admissible coordinates
    and one of that coordinate's cuts; prune draws a node whose children are
    leaves and swap a parent/child pair of internal nodes. A grow or change
    whose cut leaves either side of the node fewer than `rule.min_count` rows
    ends there, since `refresh` would reject it and no draw follows. Only then
    is t copied, and the copy takes the edit and one refresh. Returns
    (candidate, log q-ratio, kind); a move with no edit to draw, or whose
    edited copy is invalid, carries log q-ratio = -inf and a None candidate."""
    d, min_count = t.data, rule.min_count(t.data.n)
    # the draw of rng.choice(4, p=move_probs), without its per-call array checks
    kind = MOVES[bisect_right(_move_cdf(tuple(move_probs)), rng.random())]
    pool = (t.leaves if kind == GROW else t.prunable() if kind == PRUNE
            else t.internals if kind == CHANGE else t.pairs())
    pick = pool[int(rng.integers(len(pool)))] if pool else None
    edit = pick if kind == PRUNE or kind == SWAP else None
    if pick is not None and edit is None:  # grow and change go on to a coordinate and a cut
        at = t.at[pick]
        deep = kind == GROW and rule.max_depth is not None and at.depth >= rule.max_depth
        adm = [] if deep else at.admissible(d)
        if adm:
            j = adm[int(rng.integers(len(adm)))]
            left, cuts = at.cuts_on(d, j)
            c = int(rng.integers(cuts.size))
            if min(left[c], at.rows.size - left[c]) < min_count:
                return None, -np.inf, kind
            edit = pick, j, float(cuts[c])
    if edit is not None:
        star = t.copy()
        f, s = star.nodes.feature, star.nodes.threshold
        if kind == GROW:
            star.nodes.grow(*edit)
        elif kind == PRUNE:
            star.nodes.prune(edit)
        elif kind == CHANGE:
            f[edit[0]], s[edit[0]] = edit[1:]
        else:
            a, b = edit
            f[a], f[b], s[a], s[b] = f[b], f[a], s[b], s[a]
        if star.refresh(d, min_count):
            if kind == GROW:
                log_q = _grow_log_q(move_probs, t, star, edit[0])
            elif kind == PRUNE:
                log_q = -_grow_log_q(move_probs, star, t, edit)
            else:  # swap's is 0; change's counts the cuts of the new and the old coordinate
                i = edit[0]
                log_q = 0.0 if kind == SWAP else math.log(star.n_cuts(i)) - math.log(t.n_cuts(i))
            return star, log_q, kind
    return None, -np.inf, kind


def mh_accept(t: SampledTree, t_star: SampledTree | None, R, hyper: PBartHyper,
              rng: np.random.Generator, sigma_tilde: float, log_q_ratio: float = 0.0) -> bool:
    """Metropolis-Hastings accept/reject for a proposed tree, using the
    weight-marginalized residual likelihood; a None proposal is rejected.
    Each tree keeps its V and G (`membership`, `gram`), so a step forms the
    proposal's alone; this forms b = V^T R of both trees and R^T R."""
    if t_star is None or log_q_ratio == -np.inf:
        return False
    R = np.asarray(R, dtype=float)
    RR, sg = float(R @ R), hyper.sigma_gamma
    delta = (
        log_q_ratio
        + marginal_log_likelihood(t_star.gram(), t_star.membership().T @ R, RR, R.size, sg,
                                  sigma_tilde)
        - marginal_log_likelihood(t.gram(), t.membership().T @ R, RR, R.size, sg, sigma_tilde)
        + tree_log_prior(t_star, hyper.alpha, hyper.beta)
        - tree_log_prior(t, hyper.alpha, hyper.beta)
    )
    if delta >= 0.0:
        return True
    return bool(rng.random() < math.exp(delta))


def draw_gammas(t: SampledTree, b, hyper: PBartHyper, rng: np.random.Generator,
                sigma_tilde: float) -> np.ndarray:
    """One full Gibbs sweep over t's leaf weights, in leaf order, each draw
    conditioning on the freshest values of the other weights. Leaf k's
    conditional needs A_k = G_kk and B_k = b_k - sum_{l != k} G_kl gamma_l
    of t's Gram matrix G = V^T V (`gram`) and b = V^T R, so the sweep runs
    on Python floats."""
    sg2 = hyper.sigma_gamma**2
    st2 = sigma_tilde**2
    gam = t.gammas().tolist()
    for k, (Gk, bk) in enumerate(zip(t.gram().tolist(), b.tolist())):
        gam[k] = 0.0  # so that B sums over the other leaves only
        B = bk - sum(map(mul, Gk, gam))
        denom = st2 + sg2 * Gk[k]
        gam[k] = sg2 * B / denom + math.sqrt(st2 * sg2 / denom) * rng.standard_normal()
    t.set_gammas(gam)
    return np.array(gam)


def draw_sigma_tilde(y, full_fit, hyper: PBartHyper, rng: np.random.Generator) -> float:
    """Posterior draw of the noise scale: sigma^2 ~ IG((nu+n)/2,
    (nu lam + SSE)/2); with no rows, (nu/2, nu lam/2) is the prior."""
    y = np.asarray(y, dtype=float)
    fit = np.asarray(full_fit, dtype=float)
    if y.shape != fit.shape:
        raise ValueError("y and full_fit must have the same length")
    sse = float(np.sum((y - fit) ** 2))
    return math.sqrt((hyper.nu * hyper.lam + sse) / 2.0 / rng.gamma((hyper.nu + y.size) / 2.0))


def _snapshots(structures: list[FlatTree], snaps) -> list[list[FlatTree]]:
    """The trees of a P-BART file's snapshots, lists of [k, weights] pairs: structure k,
    sharing its node arrays, with the weights on its leaves in node order. One pass of
    `finite` over the weights of all snapshots checks them."""
    snaps = [[(_integer(k), _list(ws)) for k, ws in _list(snap)] for snap in _list(snaps)]
    w = iter([finite(v) for snap in snaps for _, ws in snap for v in ws])

    def tree(k: int, n_weights: int) -> FlatTree:
        if not 0 <= k < len(structures):
            raise ValueError(f"expected a structure index in [0, {len(structures)})")
        t = structures[k]
        if n_weights != t.feature.count(-1):
            raise ValueError(f"structure {k} has {t.feature.count(-1)} leaves, not {n_weights}")
        return FlatTree(t.feature, t.threshold, t.left, t.right,
                        [next(w) if j < 0 else 0.0 for j in t.feature])
    return [[tree(k, len(ws)) for k, ws in snap] for snap in snaps]


@dataclass(eq=False)
class PBartChain(Model):
    """Post-burn-in posterior trace of the additive tree model: per retained
    iteration, the node arrays of each of the m trees, leaf weights included.
    `snapshots` gives the same iterations as (regions tuple, gamma array) per
    tree, leaves in preorder, derived from the arrays when read."""

    kind = "pbart"
    trees: list[list[FlatTree]]
    sigma_trace: np.ndarray
    acceptance_log: dict
    sigma: np.ndarray
    y_offset: float
    y_scale: float
    hyper: PBartHyper
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        # identical regions recur across snapshots; their weights are summed
        # once here, in first-seen order, and the distinct regions compiled
        # (`kernel.Boxes`), so that predict evaluates each distinct region's
        # column once. Each distinct tree structure is walked, and its leaves
        # matched to their regions' sums, once; `fields` writes the
        # structures in this first-seen order, and each tree's position in it
        p = self.sigma.shape[0]
        walked: dict[tuple, tuple[int, list[tuple[int, list]]]] = {}
        groups: dict[bytes, list] = {}
        self._index = []
        for snap in self.trees:
            for t in snap:
                key = (tuple(t.feature), tuple(t.threshold), tuple(t.left), tuple(t.right))
                if key not in walked:
                    walked[key] = len(walked), [
                        (i, groups.setdefault(r.lower.tobytes() + r.upper.tobytes(), [r, 0.0]))
                        for i, r in t.leaf_regions(p)]
                k, leaves = walked[key]
                self._index.append(k)
                for i, group in leaves:
                    group[1] += t.value[i]
        self._structures = list(walked)
        self._boxes = Boxes([region for region, _ in groups.values()], self.sigma)
        self._gsums = [gsum for _, gsum in groups.values()]

    @property
    def snapshots(self) -> list:
        p = self.sigma.shape[0]

        def pair(t: FlatTree):
            found = t.leaf_regions(p)
            return tuple(r for _, r in found), np.array([t.value[i] for i, _ in found])
        return [[pair(t) for t in snap] for snap in self.trees]

    @property
    def n_snapshots(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_features(X, self.sigma.shape[0])
        total = np.zeros(X.shape[0])
        for gsum, col in zip(self._gsums, self._boxes.columns(X)):
            total += gsum * col
        norm = total / self.n_snapshots
        return (norm + 0.5) * self.y_scale + self.y_offset

    def fields(self) -> dict:
        """Each distinct structure once; per snapshot tree, its index and leaf weights."""
        k = iter(self._index)
        return {
            "hyper": asdict(self.hyper),
            "sigma": [float(v) for v in self.sigma],
            "y_offset": self.y_offset,
            "y_scale": self.y_scale,
            "sigma_trace": [float(v) for v in self.sigma_trace],
            "acceptance_log": self.acceptance_log,
            "structures": [dict(zip(("feature", "threshold", "left", "right"), key))
                           for key in self._structures],
            "snapshots": [[[next(k), [v for v, j in zip(t.value, t.feature) if j < 0]]
                           for t in snap] for snap in self.trees],
        }

    @classmethod
    def read(cls, obj: dict) -> "PBartChain":
        sigma = model_value(obj, "sigma", scales)
        hyper = model_value(obj, "hyper", lambda h: PBartHyper(**{
            **h, **{key: _integer(h[key]) for key in ("m", "it_burn", "it_max")},
            **{key: _number(h[key]) for key in ("alpha", "beta", "nu", "lam", "sigma_gamma")},
            "move_probs": tuple(_array(_number)(h["move_probs"]))}))
        structures = model_value(obj, "structures", _array(lambda s: FlatTree.from_dict(
            {**s, "value": [0.0] * len(s["feature"])}, sigma.size)))
        return cls(
            trees=model_value(obj, "snapshots", checked(
                lambda snaps: _snapshots(structures, snaps),
                lambda snaps: snaps and all(len(snap) == hyper.m for snap in snaps),
                f"snapshots of hyper.m = {hyper.m} trees each")),
            sigma_trace=model_value(obj, "sigma_trace", scales),
            acceptance_log=model_value(obj, "acceptance_log", checked(
                _object, lambda log: set(log) <= set(MOVES) and all(
                    _object(c).keys() == {"accepted", "rejected"}
                    and all(_integer(v) >= 0 for v in c.values()) for c in log.values()),
                f"accepted and rejected counts of moves of {MOVES}")),
            sigma=sigma,
            y_offset=model_value(obj, "y_offset", finite),
            y_scale=model_value(obj, "y_scale", checked(
                _number, lambda v: 0.0 < v < math.inf, "a finite positive number")),
            hyper=hyper,
            feature_names=_feature_names(obj, sigma.size),
        )


def fit_pbart(
    d: Dataset,
    hyper: PBartHyper,
    sigma,
    rng: RngSpec,
    rule: StoppingRule = StoppingRule(),
) -> PBartChain:
    """Run the Gibbs/MH sampler and retain post-burn-in snapshots.

    The target is internally shifted and scaled to [-0.5, 0.5]; prediction
    undoes the transform. The first noise scale is drawn from its prior. Of
    `rule`, proposals keep `min_leaf_fraction` and `max_depth`; `max_leaves`
    is rejected."""
    if d.n < 2:
        raise ValueError("need at least 2 rows")
    check_rule(rule)
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

    sigma_tilde = draw_sigma_tilde(np.zeros(0), np.zeros(0), hyper, gen)

    accept_log = {kind: {"accepted": 0, "rejected": 0} for kind in MOVES}
    sigma_trace = np.empty(hyper.it_max)
    snapshots = []

    for it in range(1, hyper.it_max + 1):
        for ell in range(hyper.m):
            R = y_norm - (total_fit - fits[ell])
            t = trees[ell]
            star, log_q, kind = propose_tree(t, gen, hyper.move_probs, rule)
            accepted = mh_accept(t, star, R, hyper, gen, sigma_tilde, log_q)
            accept_log[kind]["accepted" if accepted else "rejected"] += 1
            if accepted:
                trees[ell] = t = star
            V = t.membership()
            new_fit = V @ draw_gammas(t, V.T @ R, hyper, gen, sigma_tilde)
            total_fit += new_fit - fits[ell]
            fits[ell] = new_fit
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
