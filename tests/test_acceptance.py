"""Acceptance gate: nine numbered criteria, each printing one PASS/FAIL line.

Criteria needing the Boston or Abalone tables look for user-supplied CSVs
under data/ (the package ships no datasets); absent files fail with an
explicit diagnostic rather than being skipped.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import prtree
from conftest import (
    brute_force_split,
    dense_log_density,
    dense_log_det,
    grown_tree,
    hard_tree_oracle,
    random_dataset,
    recursive_log_prior,
    search_leaf,
)
from prtree.data import Dataset, RngSpec, load_csv
from prtree.evaluate import LearnerSpec, bias_variance, cross_validate, make_cv_plan
from prtree.kernel import Boxes, build_membership
from prtree.pbart import (
    PBartHyper,
    SampledTree,
    draw_gammas,
    draw_sigma_tilde,
    marginal_log_likelihood,
    mh_accept,
    propose_tree,
    tree_log_prior,
)
from prtree.regions import Region
from prtree.tree import FlatTree, StoppingRule, fit_prtree

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. hard-limit equivalence with an independent CART

def test_criterion_1_hard_cart_equivalence():
    rng = np.random.default_rng(20260823)
    start = time.time()
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        p = int(rng.integers(1, 6))
        d = random_dataset(rng, n, p)
        t = fit_prtree(d, np.zeros(p))
        ref, _ = hard_tree_oracle(d.features, d.target)
        if not np.array_equal(t.predict(d.features), ref):
            mismatches += 1
    elapsed = time.time() - start
    _report(1, "hard-limit CART equivalence", mismatches == 0 and elapsed < 60.0,
            f"mismatches={mismatches}/50, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. split search vs exhaustive brute force

def test_criterion_2_split_search_oracle():
    rng = np.random.default_rng(7)
    rule = StoppingRule()
    start = time.time()
    disagreements = 0
    for i in range(100):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(1, 4))
        d = random_dataset(rng, n, p)
        sigma = rng.choice([0.0, 0.2, 0.6]) * d.features.std(axis=0, ddof=1)
        root = Region.root(p)
        if i % 2 == 0 or n < 12:
            regions = [root]
        else:
            regions = list(root.split(int(rng.integers(p)),
                                      float(np.median(d.features[:, 0]) if p == 1
                                            else np.median(d.features[:, 1]))))
        # guard: splitting on a coordinate needs the cut inside the region
        try:
            V = build_membership(d, regions, sigma)
        except ValueError:
            regions = [root]
            V = build_membership(d, regions, sigma)
        k = int(rng.integers(V.shape[1]))
        vars = list(range(p))
        got = search_leaf(d, V, regions[k], vars, sigma, rule)
        want = brute_force_split(d, V, regions[k], d.target, k, vars, sigma, rule)
        if want is None or got is None:
            if (want is None) != (got is None):
                disagreements += 1
        elif (got[0], got[1]) != (want[1], want[2]):
            disagreements += 1
    elapsed = time.time() - start
    _report(2, "split-search brute-force agreement",
            disagreements == 0 and elapsed < 120.0,
            f"disagreements={disagreements}/100, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. membership row sums and child additivity

def test_criterion_3_membership_properties():
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    worst_add = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        p = int(rng.integers(1, 5))
        d = random_dataset(rng, max(n, 2), p).subset(np.arange(n)) if n >= 1 else None
        sigma = np.where(rng.random(p) < 0.3, 0.0, rng.uniform(0.05, 2.0, p))
        # random recursive partition of R^p
        regions = [Region.root(p)]
        for _ in range(int(rng.integers(0, 4))):
            idx = int(rng.integers(len(regions)))
            j = int(rng.integers(p))
            r = regions[idx]
            lo = r.lower[j] if np.isfinite(r.lower[j]) else -3.0
            hi = r.upper[j] if np.isfinite(r.upper[j]) else 3.0
            s = float(rng.uniform(lo, hi))
            if not (r.lower[j] < s < r.upper[j]):
                continue
            left, right = r.split(j, s)
            regions[idx : idx + 1] = [left, right]
        V = build_membership(d, regions, sigma)
        worst_sum = max(worst_sum, float(np.max(np.abs(V.sum(axis=1) - 1.0))))
        # split one region further and check the children add to the parent
        k = int(rng.integers(V.shape[1]))
        r = regions[k]
        j = int(rng.integers(p))
        lo = r.lower[j] if np.isfinite(r.lower[j]) else -3.0
        hi = r.upper[j] if np.isfinite(r.upper[j]) else 3.0
        s = float(rng.uniform(lo, hi))
        if not (r.lower[j] < s < r.upper[j]):
            continue
        left, right = Boxes(r.split(j, s), sigma).columns(d.features)
        child_sum = left + right
        worst_add = max(worst_add, float(np.max(np.abs(child_sum - V[:, k]))))
    ok = worst_sum <= 1e-9 and worst_add <= 1e-9
    _report(3, "membership row sums and additivity", ok,
            f"max|rowsum-1|={worst_sum:.2e}, max additivity gap={worst_add:.2e}")


# ---------------------------------------------------------------------------
# 4. Gram/Cholesky likelihood vs dense linear algebra

def test_criterion_4_recursion_vs_dense():
    rng = np.random.default_rng(13)
    worst_ll = 0.0
    worst_det = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        K = int(rng.integers(1, 6))
        V = rng.random((n, K))
        R = rng.normal(size=n)
        sg = float(rng.uniform(0.05, 3.0))
        st = float(rng.uniform(0.05, 3.0))
        ll = marginal_log_likelihood(V.T @ V, V.T @ R, R @ R, n, sg, st)
        ll_ref = dense_log_density(R, V, sg, st)
        # at b = 0 and RR = 0 the log density is -(n log 2 pi + log det Sigma0) / 2
        ld = -2.0 * marginal_log_likelihood(V.T @ V, np.zeros(K), 0.0, n, sg, st) \
            - n * math.log(2.0 * math.pi)
        ld_ref = dense_log_det(V, sg, st)
        worst_ll = max(worst_ll, abs(ll - ll_ref) / max(1.0, abs(ll_ref)))
        worst_det = max(worst_det, abs(ld - ld_ref) / max(1.0, abs(ld_ref)))
    ok = worst_ll <= 1e-8 and worst_det <= 1e-8
    _report(4, "marginal likelihood vs dense oracle", ok,
            f"worst rel err: logdensity={worst_ll:.2e}, logdet={worst_det:.2e}")


# ---------------------------------------------------------------------------
# 5. posterior-draw calibration

def test_criterion_5_posterior_draw_calibration():
    n_draws = 100_000
    gen = np.random.default_rng(17)
    failures = []

    # noise scale: IG((nu+n)/2, (nu*lam + SSE)/2) with nu=3, lam=1, n=4, SSE=2
    hyper = PBartHyper(m=1, nu=3.0, lam=1.0)
    y = np.zeros(4)
    fit = np.array([1.0, 0.0, -1.0, 0.0])
    draws2 = np.array([draw_sigma_tilde(y, fit, hyper, gen) ** 2 for _ in range(n_draws)])
    shape, scale = 3.5, 2.5
    mean = scale / (shape - 1.0)
    var = scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
    se = math.sqrt(var / n_draws)
    if abs(draws2.mean() - mean) > 3 * se:
        failures.append(f"sigma draw mean {draws2.mean():.4f} vs {mean:.4f} (3se={3*se:.4f})")

    # leaf weight: fixed instance, others frozen between sweeps
    rng_d = np.random.default_rng(5)
    V = rng_d.random((12, 2))
    R = rng_d.normal(size=12)
    data = Dataset(np.arange(12.0)[:, None], np.zeros(12), ("a",))
    t = SampledTree(grown_tree((0, 0, 5.5)), np.zeros(1))
    assert t.refresh(data, 1)
    t.G = V.T @ V  # the draw reads the tree's Gram matrix
    sg, st, frozen = 0.4, 0.7, 0.3
    A1 = float(V[:, 0] @ V[:, 0])
    B1 = float(V[:, 0] @ (R - frozen * V[:, 1]))
    m1 = sg**2 * B1 / (st**2 + sg**2 * A1)
    v1 = st**2 * sg**2 / (st**2 + sg**2 * A1)
    hyper2 = PBartHyper(m=1, lam=1.0, sigma_gamma=sg)
    samples = np.empty(n_draws)
    for i in range(n_draws):
        t.set_gammas([0.0, frozen])
        samples[i] = draw_gammas(t, V.T @ R, hyper2, gen, st)[0]
    se_mean = math.sqrt(v1 / n_draws)
    se_var = v1 * math.sqrt(2.0 / (n_draws - 1))
    if abs(samples.mean() - m1) > 3 * se_mean:
        failures.append(f"gamma mean {samples.mean():.5f} vs {m1:.5f}")
    if abs(samples.var(ddof=1) - v1) > 3 * se_var:
        failures.append(f"gamma var {samples.var(ddof=1):.5f} vs {v1:.5f}")

    _report(5, "posterior draw Monte Carlo calibration", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# 6. micro state space: empirical topology law vs enumerated posterior

def test_criterion_6_micro_chain_exactness():
    d = Dataset(np.array([[0.0], [1.0], [2.0]]), np.zeros(3), ("a",))
    y = np.array([-0.4, 0.1, 0.3])
    sigma = np.array([0.3])
    sg, st = 0.25, 0.3
    alpha, beta = 0.95, 2.0
    hyper = PBartHyper(m=1, lam=1.0, sigma_gamma=sg, alpha=alpha, beta=beta)
    rule = StoppingRule(max_depth=1)

    # enumerate: single leaf, stump at 0.5, stump at 1.5
    def stump(s):
        t = SampledTree(grown_tree((0, 0, s)), sigma)
        assert t.refresh(d, 1)
        return t

    states = [SampledTree(FlatTree.leaf(), sigma), stump(0.5), stump(1.5)]
    states[0].refresh(d, 1)
    log_post = []
    for t in states:
        P = t.membership()
        lp = recursive_log_prior(t.nodes, Region.root(1), d, alpha, beta)
        log_post.append(lp + dense_log_density(y, P, sg, st))
    log_post = np.array(log_post)
    target = np.exp(log_post - log_post.max())
    target /= target.sum()

    def classify(t):
        if len(t.leaves) == 1:
            return 0
        return 1 if abs(t.nodes.threshold[0] - 0.5) < 1e-9 else 2

    gen = np.random.default_rng(23)
    t = states[0]
    counts = np.zeros(3)
    iters = 1_000_000
    start = time.time()
    for _ in range(iters):
        star, logq, kind = propose_tree(t, gen, hyper.move_probs, rule)
        if mh_accept(t, star, y, hyper, gen, st, logq):
            t = star
        counts[classify(t)] += 1
    elapsed = time.time() - start
    empirical = counts / iters
    tv = 0.5 * float(np.abs(empirical - target).sum())
    _report(6, "micro-chain topology distribution", tv <= 0.02 and elapsed < 600.0,
            f"TV={tv:.4f}, target={np.round(target, 3).tolist()}, "
            f"empirical={np.round(empirical, 3).tolist()}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. benchmark RMSE reproduction

def _seed_averaged_cv(d, spec, seeds=(0, 1, 2)):
    plan = make_cv_plan(d)
    means = [cross_validate(d, spec, plan, RngSpec(s)).mean for s in seeds]
    return float(np.mean(means)), means


def _require_csv(name, target):
    path = DATA_DIR / name
    if not path.exists():
        pytest.fail(
            f"dataset file {path} not present: this environment has no network "
            f"access and no mirror carries the dataset, so the benchmark cannot "
            f"run. Supply a numeric CSV with target column {target!r} to run it."
        )
    return load_csv(path, target)


def test_criterion_7a_tree_diabetes(diabetes):
    mean, per_seed = _seed_averaged_cv(diabetes, LearnerSpec(kind="tree"))
    ok = 48.0 <= mean <= 63.8
    _report("7a", "single tree on Diabetes", ok,
            f"mean RMSE={mean:.2f} (accept [48.0, 63.8]), per-seed={np.round(per_seed, 2).tolist()}")


def test_criterion_7b_tree_boston():
    d = _require_csv("boston.csv", "medv")
    mean, per_seed = _seed_averaged_cv(d, LearnerSpec(kind="tree"))
    ok = 2.4 <= mean <= 6.6
    _report("7b", "single tree on Boston", ok,
            f"mean RMSE={mean:.2f} (accept [2.4, 6.6]), per-seed={np.round(per_seed, 2).tolist()}")


def test_criterion_7c_tree_abalone():
    d = _require_csv("abalone.csv", "rings")
    mean, per_seed = _seed_averaged_cv(d, LearnerSpec(kind="tree"))
    ok = 2.6 <= mean <= 3.7
    _report("7c", "single tree on Abalone", ok,
            f"mean RMSE={mean:.2f} (accept [2.6, 3.7]), per-seed={np.round(per_seed, 2).tolist()}")


def test_criterion_7d_forest_diabetes(diabetes):
    mean, per_seed = _seed_averaged_cv(diabetes, LearnerSpec(kind="rf", n_trees=100))
    ok = 47.7 <= mean <= 60.9
    _report("7d", "100-tree forest on Diabetes", ok,
            f"mean RMSE={mean:.2f} (accept [47.7, 60.9]), per-seed={np.round(per_seed, 2).tolist()}")


def test_criterion_7e_gbt_boston():
    d = _require_csv("boston.csv", "medv")
    mean, per_seed = _seed_averaged_cv(d, LearnerSpec(kind="gbt", n_trees=50))
    ok = 2.2 <= mean <= 4.6
    _report("7e", "50-stage boosting on Boston", ok,
            f"mean RMSE={mean:.2f} (accept [2.2, 4.6]), per-seed={np.round(per_seed, 2).tolist()}")


def test_criterion_7f_pbart_diabetes(diabetes):
    spec = LearnerSpec(kind="pbart", n_trees=50,
                       hyper=PBartHyper(m=50, it_burn=200, it_max=1000))
    mean, per_seed = _seed_averaged_cv(diabetes, spec)
    ok = 48.8 <= mean <= 59.3
    _report("7f", "Bayesian additive trees on Diabetes", ok,
            f"mean RMSE={mean:.2f} (accept [48.8, 59.3]), per-seed={np.round(per_seed, 2).tolist()}")


# ---------------------------------------------------------------------------
# 8. bias-variance qualitative trends

def _trend(knobs, reports, attr, expect_sign):
    """One-sided Spearman test on per-pool-point decompositions."""
    xs, ys = [], []
    for knob, rep in zip(knobs, reports):
        vals = getattr(rep, attr)
        xs.extend([knob] * len(vals))
        ys.extend(vals.tolist())
    rho, p_two = spearmanr(xs, ys)
    ok = np.sign(rho) == expect_sign and p_two / 2.0 < 0.05
    return ok, rho, p_two / 2.0


def test_criterion_8_bias_variance_trends(diabetes):
    start = time.time()
    rng = RngSpec(2026)
    sigma = 0.5 * diabetes.features.std(axis=0, ddof=1)
    trials = 20
    problems = []

    knobs_a = [2, 4, 8, 16]
    reps_a = [
        bias_variance(
            diabetes,
            LearnerSpec(kind="tree", rule=StoppingRule(max_leaves=k), sigma=sigma),
            trials, rng,
        )
        for k in knobs_a
    ]
    ok, rho, p = _trend(knobs_a, reps_a, "per_point_bias_sq", -1.0)
    if not ok:
        problems.append(f"tree bias trend rho={rho:.3f} p={p:.3g}")
    ok, rho, p = _trend(knobs_a, reps_a, "per_point_variance", +1.0)
    if not ok:
        problems.append(f"tree variance trend rho={rho:.3f} p={p:.3g}")

    knobs_b = [1, 10, 50, 100]
    reps_b = [
        bias_variance(diabetes, LearnerSpec(kind="rf", n_trees=m, sigma=sigma), trials, rng)
        for m in knobs_b
    ]
    ok, rho, p = _trend(knobs_b, reps_b, "per_point_variance", -1.0)
    if not ok:
        problems.append(f"forest variance trend rho={rho:.3f} p={p:.3g}")

    knobs_c = [1, 10, 50]
    reps_c = [
        bias_variance(diabetes, LearnerSpec(kind="gbt", n_trees=m, sigma=sigma), trials, rng)
        for m in knobs_c
    ]
    ok, rho, p = _trend(knobs_c, reps_c, "per_point_bias_sq", -1.0)
    if not ok:
        problems.append(f"boosting bias trend rho={rho:.3f} p={p:.3g}")

    elapsed = time.time() - start
    if elapsed >= 1200.0:
        problems.append(f"runtime {elapsed:.0f}s over budget")
    _report(8, "bias-variance qualitative trends", not problems,
            "; ".join(problems) or f"all trends significant, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. byte-level determinism of CLI commands

def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] ** 2 - X[:, 1] + 0.2 * rng.normal(size=60)
    csv_path = tmp_path / "d.csv"
    with open(csv_path, "w") as fh:
        fh.write("a,b,y\n")
        for row, t in zip(X, y):
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{float(t)!r}\n")

    commands = {
        "fit": ["fit", "--model", "gbt", "--trees", "3", "--data", str(csv_path),
                "--target", "y", "--seed", "9"],
        "cv": ["cv", "--model", "tree", "--data", str(csv_path), "--target", "y",
               "--seed", "9"],
        "biasvar": ["biasvar", "--model", "rf", "--trees", "1,4", "--trials", "3",
                    "--data", str(csv_path), "--target", "y", "--seed", "9",
                    "--sigma", "0.5"],
        "fit-pbart": ["fit", "--model", "pbart", "--trees", "3", "--iters", "20",
                      "--burn", "5", "--data", str(csv_path), "--target", "y", "--seed", "9"],
        "predict": ["predict", "--model-file", str(tmp_path / "fit-pbart_0.out"),
                    "--data", str(csv_path), "--target", "y"],
    }
    # Run the CLI from the source tree these tests import, not whatever copy
    # (if any) is installed: a relative PYTHONPATH would resolve against cwd.
    source_root = str(Path(prtree.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, inherited])))
    problems = []
    for name, argv in commands.items():
        outputs = []
        for rep in range(2):
            out = tmp_path / f"{name}_{rep}.out"
            res = subprocess.run(
                [sys.executable, "-m", "prtree.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, cwd=tmp_path, env=env,
            )
            if res.returncode != 0:
                last = (res.stderr.strip().splitlines() or ["(no stderr)"])[-1]
                problems.append(f"{name} exited {res.returncode}: {last}")
                break
            outputs.append(out.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            problems.append(f"{name} output differs between identical runs")
    _report(9, "byte-level determinism", not problems, "; ".join(problems))
