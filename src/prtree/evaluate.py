"""Benchmark harness: noise-scale grid search, stratified 10-fold
cross-validation RMSE, and the repeated-subsampling bias-variance
decomposition."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Dataset, RngSpec, standard_scale
from .ensemble import fit_prgbt, fit_prrf
from .pbart import PBartHyper, check_rule, fit_pbart
from .tree import StoppingRule, fit_prtree

log = logging.getLogger(__name__)

GRID_MULTIPLIERS = tuple(c / 4.0 for c in range(9))  # 0, 1/4, ..., 2


@dataclass(frozen=True)
class CVPlan:
    """Ten disjoint index folds stratified on target deciles.

    Each evaluation round holds out two consecutive folds (20% test); the
    remaining eight folds provide the 65/15 train/validation split when a
    learner needs tuning."""

    folds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = sorted(i for fold in self.folds for i in fold)
        if seen != list(range(len(seen))):
            raise ValueError("folds must partition the index range")

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def round_indices(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(rest, test) index arrays for round i; test is folds i and i+1."""
        test = np.array(self.folds[i] + self.folds[(i + 1) % self.n_folds])
        rest = np.array(
            [
                idx
                for k, fold in enumerate(self.folds)
                if k not in (i, (i + 1) % self.n_folds)
                for idx in fold
            ]
        )
        return rest, test


def make_cv_plan(d: Dataset, n_folds: int = 10, n_bins: int = 10) -> CVPlan:
    """Decile-bin the target and deal each bin's indices round-robin across
    folds, so every fold's target histogram matches the global one to
    within one count per bin."""
    if n_folds < 3:
        raise ValueError(f"n_folds must be at least 3, got {n_folds}: each round holds out two "
                         "folds, so at least one more must be left to train on")
    if d.n < n_folds:
        raise ValueError(f"need at least {n_folds} rows, got {d.n}")
    y = d.target
    edges = np.quantile(y, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    bins = np.searchsorted(edges, y, side="left")
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    cursor = 0
    for b in range(n_bins):
        members = np.nonzero(bins == b)[0]
        order = members[np.argsort(y[members], kind="stable")]
        for idx in order:
            folds[cursor % n_folds].append(int(idx))
            cursor += 1
    return CVPlan(tuple(tuple(f) for f in folds))


def tune_sigma(train: Dataset, valid: Dataset, learner: Callable) -> np.ndarray:
    """Grid-search the shared noise multiplier c over {0, 1/4, ..., 2}
    with sigma_j = c * (training std of feature j); returns the argmin-RMSE
    sigma vector, ties broken toward smaller c. Raises ValueError when no
    grid point gives a finite validation RMSE."""
    if valid.n == 0:
        raise ValueError("validation set is empty")
    sigma_hat = train.features.std(axis=0, ddof=1) if train.n > 1 else np.zeros(train.p)
    best_sigma, best_rmse = None, np.inf
    for c in GRID_MULTIPLIERS:
        sigma = c * sigma_hat
        model = learner(train, sigma)
        rmse = float(np.sqrt(np.mean((model.predict(valid.features) - valid.target) ** 2)))
        log.debug("sigma grid c=%.2f valid rmse=%.6g", c, rmse)
        if rmse < best_rmse:
            best_sigma, best_rmse = sigma, rmse
    if best_sigma is None:
        raise ValueError(
            f"no sigma grid multiplier in {list(GRID_MULTIPLIERS)} gave a finite validation RMSE"
        )
    return best_sigma


# The tree count of each learner kind when none is given; the CLI reads it too.
DEFAULT_TREES = {"tree": 1, "rf": 100, "gbt": 50, "pbart": 50}


@dataclass
class LearnerSpec:
    """What to fit inside the harness: model kind plus its knobs.

    sigma=None requests per-fold grid tuning; an explicit vector skips it.
    n_trees=None takes the kind's DEFAULT_TREES. For pbart, hyper defaults to
    PBartHyper(m=n_trees); a hyper.m other than n_trees, or a leaf cap, is
    rejected here, before any tuning fit."""

    kind: str = "tree"
    n_trees: int | None = None
    shrinkage: float = 1.0
    rule: StoppingRule = field(default_factory=StoppingRule)
    hyper: PBartHyper | None = None
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("tree", "rf", "gbt", "pbart"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.n_trees is None:
            self.n_trees = DEFAULT_TREES[self.kind]
        if self.kind == "pbart":
            if self.hyper is None:
                self.hyper = PBartHyper(m=self.n_trees)
            if self.hyper.m != self.n_trees:
                raise ValueError(f"hyper.m = {self.hyper.m} differs from n_trees = "
                                 f"{self.n_trees}")
            check_rule(self.rule)


def fit_model(spec: LearnerSpec, train: Dataset, sigma, rng: RngSpec):
    """Fit the learner `spec` names on `train` at noise scale `sigma`; the
    forest and the Bayesian model draw from `rng`."""
    if spec.kind == "tree":
        return fit_prtree(train, sigma, spec.rule)
    if spec.kind == "rf":
        return fit_prrf(train, spec.n_trees, sigma, spec.rule, rng=rng)
    if spec.kind == "gbt":
        return fit_prgbt(train, spec.n_trees, sigma, spec.rule, shrinkage=spec.shrinkage)
    return fit_pbart(train, spec.hyper, sigma, rng, rule=spec.rule)


def _tuning_learner(spec: LearnerSpec, rng: RngSpec) -> Callable:
    """Learner used on the validation split. The single tree and the boosted
    model tune with themselves; the forest and the Bayesian model reuse the
    noise scale tuned for a single tree."""
    if spec.kind in ("rf", "pbart"):
        spec = LearnerSpec(kind="tree", rule=spec.rule)
    return lambda tr, sigma: fit_model(spec, tr, sigma, rng)


def tune_on_holdout(d: Dataset, spec: LearnerSpec, rng: RngSpec, cut: int) -> np.ndarray:
    """tune_sigma on one random holdout of d: a permutation drawn from rng,
    whose first `cut` rows train and the rest validate."""
    perm = rng.generator().permutation(d.n)
    return tune_sigma(d.subset(perm[:cut]), d.subset(perm[cut:]), _tuning_learner(spec, rng))


def _train_valid_split(rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 15 of the remaining 80 points of each round go to validation: spread
    # 3 of every 16 positions so the stratified fold interleaving carries over
    pos = np.arange(rest.size)
    valid_mask = (pos % 16) < 3
    return rest[~valid_mask], rest[valid_mask]


@dataclass(frozen=True)
class CVResult:
    fold_rmse: np.ndarray
    mean: float
    std: float


def cross_validate(d: Dataset, spec: LearnerSpec, plan: CVPlan, rng: RngSpec) -> CVResult:
    """Per-round test RMSE plus mean and sample std across rounds.

    Each round scales features on its training portion, tunes sigma on the
    validation portion when the spec asks for it, refits on the full
    training portion, and scores the held-out 20%."""
    if d.n < 10:
        raise ValueError("need at least 10 rows for cross-validation")
    rmses = np.empty(plan.n_folds)
    for i in range(plan.n_folds):
        rest, test = plan.round_indices(i)
        fold_rng = rng.stream(i)
        d_rest, scaler = standard_scale(d.subset(rest))
        d_test = Dataset(scaler.transform(d.features[test]), d.target[test], d.feature_names)
        if spec.sigma is not None:
            sigma = np.asarray(spec.sigma, dtype=float)
        else:
            tr_idx, va_idx = _train_valid_split(np.arange(rest.size))
            sigma = tune_sigma(
                d_rest.subset(tr_idx), d_rest.subset(va_idx), _tuning_learner(spec, fold_rng)
            )
        model = fit_model(spec, d_rest, sigma, fold_rng)
        pred = model.predict(d_test.features)
        rmses[i] = np.sqrt(np.mean((pred - d_test.target) ** 2))
        log.info("round %d test rmse %.6g", i, rmses[i])
    return CVResult(
        fold_rmse=rmses, mean=float(rmses.mean()), std=float(rmses.std(ddof=1))
    )


@dataclass(frozen=True)
class BiasVarReport:
    """Squared bias, across-trial prediction variance, and raw MSE over a
    fixed evaluation pool. mse is measured against noisy targets, so it is
    not asserted to equal bias_sq + variance."""

    bias_sq: float
    variance: float
    mse: float
    trials: int
    # per-pool-point decompositions, for trend tests with real sample sizes
    per_point_bias_sq: np.ndarray | None = None
    per_point_variance: np.ndarray | None = None


def bias_variance(d: Dataset, spec: LearnerSpec, trials: int, rng: RngSpec) -> BiasVarReport:
    """Repeated 80/20 subsampling: fit on each trial's 80%, predict the
    fixed pool (the first trial's held-out 20%), and decompose the error."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    n_train = int(round(0.8 * d.n))
    n_train = min(max(n_train, 1), d.n - 1)

    if spec.sigma is not None:
        sigma = np.asarray(spec.sigma, dtype=float)
    else:
        # one shared tuning split so every trial sees the same noise scale
        cut = max(1, int(round(0.8 * d.n * 0.8125)))
        sigma = tune_on_holdout(d, spec, rng.stream(1_000_003), cut)

    pool_X = pool_y = None
    preds = []
    for t in range(trials):
        gen = rng.stream(t).generator()
        perm = gen.permutation(d.n)
        train = d.subset(perm[:n_train])
        if pool_X is None:
            pool_X = d.features[perm[n_train:]]
            pool_y = d.target[perm[n_train:]]
        model = fit_model(spec, train, sigma, rng.stream(t))
        preds.append(model.predict(pool_X))
    preds = np.stack(preds)  # trials x pool
    mean_pred = preds.mean(axis=0)
    pt_bias = (pool_y - mean_pred) ** 2
    pt_var = preds.var(axis=0, ddof=1)
    mse = float(np.mean((preds - pool_y[None, :]) ** 2))
    return BiasVarReport(
        bias_sq=float(pt_bias.mean()),
        variance=float(pt_var.mean()),
        mse=mse,
        trials=trials,
        per_point_bias_sq=pt_bias,
        per_point_variance=pt_var,
    )


def write_cv_csv(path, rows) -> None:
    """rows: iterables of (dataset, method, fold, rmse)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dataset", "method", "fold", "rmse"])
        for dataset, method, fold, rmse in rows:
            w.writerow([dataset, method, fold, repr(float(rmse))])


def write_biasvar_csv(path, rows) -> None:
    """rows: iterables of (method, knob, bias_sq, variance, mse)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "knob", "bias_sq", "variance", "mse"])
        for method, knob, b, v, m in rows:
            w.writerow([method, knob, repr(float(b)), repr(float(v)), repr(float(m))])
