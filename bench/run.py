"""Friedman #1 benchmark of prtree.

    python3 bench/run.py --workload hard-tree-n2000 --seed 1 --seconds 30 --trace 0

Run from the repository root. The library is imported from `src/` of the same
checkout. Each workload is a closed loop with one client in this process: a job
starts only after the previous one has finished and been checked. `--trace 0`
reports the end-to-end metrics; `--trace 1` runs each job untraced and then
traced, reports the per-layer metrics and the tracing overhead, and writes the
spans to `bench/out/`. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread keeps the load within the machine's cores and the timing
    # steady; the workloads' matrices are small. Set before numpy is imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import reference_s  # noqa: E402
from tracer import Tracer, count_under, summarize  # noqa: E402
from workloads import (  # noqa: E402
    PREDICT_BATCH, WORKLOADS, Workload, check_job, make_inputs,
)

# Set-up is timed once before the first job and SETUP_PER_JOB more times after
# each job, so that its median samples the machine's speed across the run.
SETUP_PER_JOB = 2
# test_rmse and model_bytes summarise the first MIN_JOBS jobs, each on its own
# training draw. Their inputs are fixed by --seed, so both are deterministic.
MIN_JOBS = 10
MOVES = ("grow", "prune", "change", "swap")

# Counts of a layer's own work, recorded per span by tracer.TARGETS.
WORK_STATS = ("rows", "evals", "cells")


def import_program():
    """Import prtree from this checkout's `src/`, replacing any earlier import."""
    for name in [m for m in sys.modules if m == "prtree" or m.startswith("prtree.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    prtree = importlib.import_module("prtree")
    if Path(prtree.__file__).resolve().parent != SRC / "prtree":
        raise ImportError(f"prtree was imported from {prtree.__file__}, not from {SRC}")
    return prtree


def warm_up(prtree) -> None:
    """Touch every layer once on a tiny problem, so lazy initialisation in
    numpy, scipy and the library is paid in set-up rather than in job 0."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(40, 3))
    d = prtree.Dataset(X, X[:, 0] + X[:, 1] ** 2, ("a", "b", "c"))
    sigma = np.full(3, 0.2)
    tree = prtree.fit_prtree(d, sigma, prtree.StoppingRule(min_leaf_fraction=0.2))
    forest = prtree.fit_prrf(d, 2, np.zeros(3), prtree.StoppingRule(0.25), prtree.RngSpec(0))
    chain = prtree.fit_pbart(
        d, prtree.PBartHyper(m=2, it_burn=1, it_max=3), sigma, prtree.RngSpec(0)
    )
    prtree.make_cv_plan(d)
    for model in (tree, forest, chain):
        type(model).from_json(model.to_json()).predict(X)


def set_up(w: Workload, seed: int):
    """Import the library, generate the inputs and warm up; returns the time
    taken, the library and the inputs."""
    t0 = time.perf_counter()
    prtree = import_program()
    inp = make_inputs(prtree, seed, w.n, w.soft)
    warm_up(prtree)
    return time.perf_counter() - t0, prtree, inp


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Loop:
    """Closed-loop job runner that checks every job and counts failures."""

    def __init__(self, prtree, w: Workload, inp):
        self.prtree, self.w, self.inp = prtree, w, inp
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run_job(self, k: int, tracer: Tracer | None = None):
        """Job k, untraced or inside `tracer`; returns (result, model, seconds)."""
        prtree, w = self.prtree, self.w
        train, sigma, job_seed = self.inp.job(k)
        if tracer is None:
            result, seconds = timed(w.job, prtree, train, sigma, job_seed)
        else:
            with tracer, tracer.span("bench.job"):
                result, seconds = timed(w.job, prtree, train, sigma, job_seed)
        return result, w.model(prtree, train, sigma, result), seconds

    def check(self, k: int, result, model, extra=()) -> tuple[float, int]:
        """Test RMSE and model size of job k; counts the job as failed when a
        check fails."""
        self.attempted += 1
        score, nbytes, problems = check_job(self.w, self.inp.held_out, result, model)
        problems = [*problems, *extra]
        if problems:
            self.failed += 1
            self.problems.extend(f"job {k}: {p}" for p in problems)
        return score, nbytes


def measure(w: Workload, seed: int, seconds: float) -> tuple[Loop, dict]:
    """Untraced run within `seconds` of measuring time.

    Job k is timed between two timings of the reference computation, and its
    time is reported as a multiple of their mean, so that the machine's speed
    at that moment cancels. The job is followed by `w.predict_batches` timed
    predict batches of its own model, so every model weighs the same in the
    pooled batch times and predictions are timed across the whole run.

    Only the p90 of the batch times is reported, in milliseconds: a 1-2 ms
    batch lands in either of the core's two speed modes, so the median and
    mean moved by up to 38 % between runs, while the p90 sits in the slow mode
    and moved far less. Dividing it by reference timings made it spread more
    between seeds, not less."""
    t, prtree, inp = set_up(w, seed)
    loop = Loop(prtree, w, inp)
    batch = inp.held_out.features[:PREDICT_BATCH]
    setup_s, job_s, job_ref, predict_ms = [t], [], [], []
    scores, sizes, ref_s = [], [], []
    reference_s()  # warm-up
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # stop once the next job and its batches, at the mean pace, would overrun
        if len(job_s) >= MIN_JOBS and elapsed + elapsed / len(job_s) > seconds:
            break
        k = len(job_s)
        before = reference_s()
        result, model, t = loop.run_job(k)
        after = reference_s()
        job_s.append(t)
        job_ref.append(t / (0.5 * (before + after)))
        ref_s.extend((before, after))
        score, nbytes = loop.check(k, result, model)
        if k < MIN_JOBS:
            scores.append(score)
            sizes.append(nbytes)
        for _ in range(w.predict_batches):
            _, t = timed(model.predict, batch)
            predict_ms.append(1000.0 * t)
        # later rounds replace the library's modules in sys.modules; this run
        # keeps using the objects of the first round
        setup_s.extend(set_up(w, seed)[0] for _ in range(SETUP_PER_JOB))

    print(
        f"# {w.name} seed={seed}: {len(job_s)} jobs, {len(predict_ms)} predict "
        f"batches of {PREDICT_BATCH} rows, {len(setup_s)} set-ups, "
        f"fail_frac={loop.failed / loop.attempted:.3g}, "
        f"job_s={[round(t, 3) for t in job_s]}"
    )
    print(
        f"# in seconds: job_s.p50 = {statistics.median(job_s):.4g} s, "
        f"reference_ms.p50 = {1000.0 * statistics.median(ref_s):.4g} ms"
    )
    return loop, {
        "setup_s": statistics.median(setup_s),
        "job_ref.p50": statistics.median(job_ref),
        "predict_ms.p90": quantile(predict_ms, 0.9),
        "test_rmse": statistics.mean(scores),
        "model_bytes": statistics.mean(sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(w: Workload, seed: int, seconds: float, names) -> tuple[Loop, dict]:
    """Traced run: job k untraced and then traced, until `seconds` have passed.
    Each traced job is followed by one traced predict batch of its model.
    Returns the per-layer metrics `names` per traced unit (job plus batch)."""
    _, prtree, inp = set_up(w, seed)
    loop = Loop(prtree, w, inp)
    tracer = Tracer()
    batch = inp.held_out.features[:PREDICT_BATCH]
    plain_s, traced_s, regions, accept = [], [], [], {m: [0, 0] for m in MOVES}
    start = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - start + plain_s[-1] + traced_s[-1] <= seconds:
        result, model, t_plain = loop.run_job(k)
        t_result, t_model, t_traced = loop.run_job(k, tracer)
        with tracer, tracer.span("bench.predict"):
            t_model.predict(batch)
        plain_s.append(t_plain)
        traced_s.append(t_traced)
        same = []
        if t_model.to_json() != model.to_json() or w.test_rmse(
            inp.held_out, t_result, t_model
        ) != w.test_rmse(inp.held_out, result, model):
            same.append("tracing changed test_rmse or the model")
        loop.check(k, result, model, same)
        if hasattr(model, "snapshots"):
            regions.append(len({
                r.lower.tobytes() + r.upper.tobytes()
                for snap in model.snapshots for rs, _ in snap for r in rs
            }))
            for m in MOVES:
                accept[m][0] += model.acceptance_log[m]["accepted"]
                accept[m][1] += model.acceptance_log[m]["rejected"]
        k += 1

    arrays = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{w.name}-seed{seed}.npz")
    s = summarize(arrays)
    units = k

    def per_unit(d, name):
        return d.get(name, 0) / units

    values = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = per_unit(s.self_s, layer)
        elif stat == "calls":
            values[name] = per_unit(s.calls, layer)
        elif stat in WORK_STATS:
            values[name] = per_unit(s.work, layer)
    proposals = s.calls.get("pbart.propose_tree", 0)
    fit_pbart_s = s.total_s.get("pbart.fit_pbart", 0.0)
    values.update({
        "ensemble.trees_fitted": count_under(arrays, "tree.fit_prtree", "ensemble.fit_prrf", True) / units,
        "pbart.proposal_valid_frac": s.work.get("pbart.propose_tree", 0) / proposals if proposals else 0.0,
        "pbart.tree_steps_per_s": proposals / fit_pbart_s if fit_pbart_s else 0.0,
        "pbart.predict.regions": statistics.mean(regions) if regions else 0.0,
        "evaluate.fits": count_under(arrays, "tree.fit_prtree", "evaluate.cross_validate") / units,
        "trace.job_s.p50": statistics.median(traced_s),
        "trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
    })
    for m in MOVES:
        acc, rej = accept[m]
        values[f"pbart.accept_rate.{m}"] = acc / (acc + rej) if acc + rej else 0.0
    print(
        f"# {w.name} seed={seed}: {k} traced units, {len(arrays['code'])} spans, "
        f"job_s.p50 untraced {statistics.median(plain_s):.4g} s, traced {statistics.median(traced_s):.4g} s"
        + (f", not in the library: {tracer.missing}" if tracer.missing else "")
    )
    return loop, {name: values[name] for name in names}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import prtree from {SRC}: {exc}", file=sys.stderr)
        return 1
    # BENCHMARK.json names the metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# environment " + json.dumps(environment()))
    w = WORKLOADS[args.workload]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        loop, values = measure_traced(w, args.seed, args.seconds, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        loop, values = measure(w, args.seed, args.seconds)
    for problem in loop.problems:
        print(f"# FAILED {problem}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and all(math.isfinite(values[n]) for n in units),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
