"""Friedman #1 inputs, the four benchmark workloads, and their correctness checks.

Every input is drawn from `RngSpec` streams of the workload seed, so one seed
always gives the same training sets, held-out rows and job seeds. The program
under test only ever sees the generated `Dataset` and arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

P = 10
HELD_OUT_ROWS = 2048
PREDICT_BATCH = 1024

# RngSpec stream ids of a workload seed; job k fits the training set drawn
# from stream TRAIN_STREAM + k, so no two jobs of a run share a draw.
HELD_OUT_STREAM, JOB_SEED_STREAM, TRAIN_STREAM = 0, 1, 2
MAX_JOBS = 4096


def friedman1(prtree, spec, n: int):
    """n rows of Friedman #1 (Friedman 1991): x ~ U[0,1]^10 and
    y = 10 sin(pi x1 x2) + 20 (x3 - 1/2)^2 + 10 x4 + 5 x5 + N(0, 1)."""
    gen = spec.generator()
    X = gen.uniform(0.0, 1.0, size=(n, P))
    y = (
        10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20.0 * (X[:, 2] - 0.5) ** 2
        + 10.0 * X[:, 3]
        + 5.0 * X[:, 4]
        + gen.standard_normal(n)
    )
    return prtree.Dataset(X, y, tuple(f"x{j + 1}" for j in range(P)))


@dataclass(frozen=True)
class Inputs:
    prtree: object
    root: object
    n: int
    soft: bool
    held_out: object
    job_seeds: np.ndarray

    def job(self, k: int):
        """(training set, sigma, job seed) of job k. The training set is drawn
        here, outside any timed call. Soft workloads smooth with 0.5 x each
        feature's training standard deviation."""
        train = friedman1(self.prtree, self.root.stream(TRAIN_STREAM + k), self.n)
        sigma = 0.5 * train.features.std(axis=0, ddof=1) if self.soft else np.zeros(P)
        return train, sigma, int(self.job_seeds[k])


def make_inputs(prtree, seed: int, n: int, soft: bool) -> Inputs:
    """The held-out rows and per-job seeds of `seed`, each from its own
    stream; training sets come from further streams, one per job."""
    root = prtree.RngSpec(seed)
    held_out = friedman1(prtree, root.stream(HELD_OUT_STREAM), HELD_OUT_ROWS)
    job_seeds = root.stream(JOB_SEED_STREAM).generator().integers(0, 2**63, size=MAX_JOBS)
    return Inputs(prtree, root, n, soft, held_out, job_seeds)


def rmse(pred, target) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - np.asarray(target)) ** 2)))


@dataclass(frozen=True)
class Workload:
    """One closed-loop job type; BENCHMARK.json says why each one exists.

    `job(prtree, train, sigma, job_seed)` is the timed call. `model(prtree,
    train, sigma, result)` gives the fitted model whose prediction, size and
    round trip are measured; after each job it predicts `predict_batches`
    timed batches. Every job's `test_rmse` must lie in `rmse_window`: 0.75 x
    the lowest and 1.25 x the highest value the unmodified library gave over
    20 seeds, rounded outward. The windows are never widened to absorb a
    regression.
    """

    name: str
    n: int
    soft: bool
    job: Callable
    model: Callable
    test_rmse: Callable
    rmse_window: tuple[float, float]
    predict_batches: int
    leaf_exact: bool = False


def _hard_tree(prtree, train, sigma, job_seed):
    return prtree.fit_prtree(train, sigma, prtree.StoppingRule(min_leaf_fraction=0.05))


def _soft_forest(prtree, train, sigma, job_seed):
    return prtree.fit_prrf(train, m=20, sigma=sigma, rng=prtree.RngSpec(job_seed))


def _pbart(prtree, train, sigma, job_seed):
    hyper = prtree.PBartHyper(m=50, it_burn=10, it_max=30)
    return prtree.fit_pbart(train, hyper, sigma, prtree.RngSpec(job_seed))


def _cv_tree(prtree, train, sigma, job_seed):
    return prtree.cross_validate(
        train, prtree.LearnerSpec(kind="tree"), prtree.make_cv_plan(train),
        prtree.RngSpec(job_seed),
    )


def _own_model(prtree, train, sigma, result):
    return result


def _cv_refit(prtree, train, sigma, result):
    # cross_validate returns no model; prediction and size are measured on the
    # same learner refit on every training row at the workload's sigma.
    return prtree.fit_prtree(train, sigma, prtree.LearnerSpec(kind="tree").rule)


def _held_out_rmse(held_out, result, model):
    return rmse(model.predict(held_out.features), held_out.target)


def _cv_mean(held_out, result, model):
    return float(result.mean)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hard-tree-n2000", 2000, False, _hard_tree, _own_model, _held_out_rmse,
                 (2.15, 3.85), 40, leaf_exact=True),
        Workload("soft-forest-n442", 442, True, _soft_forest, _own_model, _held_out_rmse,
                 (1.8, 3.3), 8),
        Workload("pbart-n442", 442, True, _pbart, _own_model, _held_out_rmse, (1.1, 2.4), 8),
        Workload("cv-tree-n200", 200, True, _cv_tree, _cv_refit, _cv_mean, (1.5, 3.75), 40),
    )
}


def check_job(w: Workload, held_out, result, model) -> tuple[float, int, list[str]]:
    """Test RMSE and model JSON size of one job, and the checks it fails."""
    problems = []
    score = w.test_rmse(held_out, result, model)
    lo, hi = w.rmse_window
    if not (math.isfinite(score) and lo <= score <= hi):
        problems.append(f"test_rmse {score!r} outside [{lo}, {hi}]")
    X = held_out.features[:PREDICT_BATCH]
    own = model.predict(X)
    text = model.to_json()
    again = type(model).from_json(text).predict(X)
    if not np.array_equal(own, again):
        problems.append("predictions changed after a to_json/from_json round trip")
    if w.leaf_exact:
        gammas = np.array([leaf.gamma for leaf in model.leaves])
        if not np.all(np.isin(own, gammas)):
            problems.append("a sigma = 0 prediction is not exactly a leaf gamma")
    return score, len(text), problems
