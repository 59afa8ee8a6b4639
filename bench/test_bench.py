"""Tests of the benchmark itself: its inputs, its tracer and its command line.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import prtree  # noqa: E402
import reference  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SMALL_N = 150


def small(name):
    return dataclasses.replace(WORKLOADS[name], n=SMALL_N)


def test_generator_is_deterministic_per_seed():
    a = make_inputs(prtree, 7, SMALL_N, True)
    b = make_inputs(prtree, 7, SMALL_N, True)
    c = make_inputs(prtree, 8, SMALL_N, True)
    for k in range(3):
        (ta, sa, ja), (tb, sb, jb), (tc, _, jc) = a.job(k), b.job(k), c.job(k)
        for field in ("features", "target"):
            assert np.array_equal(getattr(ta, field), getattr(tb, field))
            assert not np.array_equal(getattr(ta, field), getattr(tc, field))
        assert np.array_equal(sa, sb)
        assert ja == jb and ja != jc
    for field in ("features", "target"):
        assert np.array_equal(getattr(a.held_out, field), getattr(b.held_out, field))
    assert np.array_equal(a.job_seeds, b.job_seeds)
    # every job's training set and the held-out rows come from distinct streams
    firsts = [a.job(k)[0].features[0, 0] for k in range(5)] + [a.held_out.features[0, 0]]
    assert len(set(firsts)) == len(firsts)


def _run(w, inp, tracer=None):
    train, sigma, job_seed = inp.job(0)
    if tracer is None:
        result = w.job(prtree, train, sigma, job_seed)
    else:
        with tracer:
            result = w.job(prtree, train, sigma, job_seed)
    model = w.model(prtree, train, sigma, result)
    return w.test_rmse(inp.held_out, result, model), model.to_json()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output(name):
    w = small(name)
    inp = make_inputs(prtree, 3, w.n, w.soft)
    tracer = tr.Tracer()
    plain_rmse, plain_json = _run(w, inp)
    traced_rmse, traced_json = _run(w, inp, tracer)
    assert traced_rmse == plain_rmse
    assert len(traced_json) == len(plain_json) and traced_json == plain_json
    assert len(tracer.codes) > 0
    evals = tr.summarize(tracer.arrays()).work["kernel.normal_cdf"]
    if not w.soft:
        assert evals == 0


def _all_bindings():
    out = []
    for target in tr.TARGETS:
        owner, attr = tr.resolve(target.where)
        original = vars(owner)[attr]
        out.extend((holder, key, original) for holder, key in tr.bindings(target.where))
    return out


def test_every_binding_is_patched_then_restored():
    before = _all_bindings()
    holders = {(getattr(h, "__name__", h), k) for h, k, _ in before}
    # imports by name in other modules are patched too, not just the definition
    for expected in [
        ("prtree.kernel", "normal_cdf"), ("prtree.tree", "normal_cdf"),
        ("prtree.tree", "membership_column"), ("prtree.pbart", "membership_column"),
        ("prtree.ensemble", "fit_prtree"), ("prtree.evaluate", "fit_prtree"),
        ("prtree", "fit_prtree"), ("Region", "contains"),
    ]:
        assert expected in holders
    w = small("pbart-n442")
    inp = make_inputs(prtree, 1, w.n, w.soft)
    with tr.Tracer() as t:
        for holder, key, original in before:
            assert getattr(holder, key) is not original
        prtree.fit_prtree(*inp.job(0)[:2])
    assert t.codes
    for holder, key, original in before:
        assert vars(holder)[key] is original


def test_function_missing_from_the_library_traces_as_zero_calls():
    targets = (tr.Target("gone", "prtree.tree:no_such_function"), tr.TARGETS[0])
    with tr.Tracer(targets) as t:
        prtree.Dataset(np.zeros((2, 1)), np.zeros(2), ("a",)).subset([0])
    assert t.missing == ["prtree.tree:no_such_function"]
    calls = tr.summarize(t.arrays()).calls
    assert calls["gone"] == 0 and calls["data.subset"] == 1


def test_reference_is_fixed_and_never_calls_the_library():
    with tr.Tracer() as t:
        value = reference.reference()
    assert not t.codes
    assert reference.reference() == value
    assert reference.reference_s() > 0


def test_self_time_subtracts_direct_children():
    a = {
        "names": np.array(["outer", "inner"]),
        "code": np.array([0, 1, 1, 0], dtype=np.int32),
        "parent": np.array([-1, 0, 1, -1]),
        "start": np.array([0.0, 1.0, 2.0, 10.0]),
        "end": np.array([8.0, 5.0, 3.0, 11.0]),
        "work": np.array([0, 4, 6, 0]),
    }
    s = tr.summarize(a)
    assert s.self_s == {"outer": 4.0 + 1.0, "inner": 3.0 + 1.0}
    assert s.calls == {"outer": 2, "inner": 2}
    assert s.work["inner"] == 10
    assert tr.count_under(a, "inner", "outer") == 2
    assert tr.count_under(a, "inner", "outer", direct=True) == 1


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric_last(trace, kind):
    proc = _bench(HERE.parent, "--workload", "hard-tree-n2000", "--seed", "2",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in bench[kind]}
    for m in bench[kind]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    if trace:
        assert metrics["kernel.normal_cdf.evals"] == 0
        assert metrics["tree.find_best_split.calls"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "hard-tree-n2000", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
