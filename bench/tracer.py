"""Spans around the library's layer boundaries, recorded from outside the library.

`Tracer` replaces each traced function with a wrapper at every place it is
bound: the defining module, every `prtree` module that imported it by name,
and the package namespace. Methods are replaced on their class. Leaving the
`with` block puts every original back. Spans stay in memory as parallel lists
(name code, parent index, start, end, work) and are written out once, at the
end of a run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _rows(X) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def _cells(X) -> int:
    X = np.atleast_2d(np.asarray(X))
    return int(X.shape[0] * X.shape[1])


@dataclass(frozen=True)
class Target:
    """One traced function: span name, `module:qualname`, and an optional
    work count taken from (args, result)."""

    span: str
    where: str
    work: Callable | None = None


TARGETS = (
    Target("data.subset", "prtree.data:Dataset.subset"),
    Target("regions.contains", "prtree.regions:Region.contains", lambda a, r: _rows(a[1])),
    Target("kernel.normal_cdf", "prtree.kernel:normal_cdf", lambda a, r: int(np.size(a[0]))),
    Target("kernel.membership_column", "prtree.kernel:membership_column", lambda a, r: _cells(a[0])),
    Target("tree.fit_prtree", "prtree.tree:fit_prtree"),
    Target("tree.candidate_variables", "prtree.tree:candidate_variables"),
    Target("tree.find_best_split", "prtree.tree:find_best_split"),
    Target("tree.fit_weights", "prtree.tree:fit_weights"),
    Target("tree.predict", "prtree.tree:PRTree.predict"),
    Target("ensemble.fit_prrf", "prtree.ensemble:fit_prrf"),
    Target("ensemble.Forest.predict", "prtree.ensemble:Forest.predict"),
    Target("pbart.fit_pbart", "prtree.pbart:fit_pbart"),
    Target("pbart.propose_tree", "prtree.pbart:propose_tree", lambda a, r: int(r[0] is not None)),
    Target("pbart.refresh", "prtree.pbart:SampledTree.refresh"),
    Target("pbart.copy", "prtree.pbart:SampledTree.copy"),
    Target("pbart.membership", "prtree.pbart:SampledTree.membership"),
    Target("pbart.mh_accept", "prtree.pbart:mh_accept"),
    Target("pbart.marginal_log_likelihood", "prtree.pbart:marginal_log_likelihood"),
    Target("pbart.tree_log_prior", "prtree.pbart:tree_log_prior"),
    Target("pbart.draw_gammas", "prtree.pbart:draw_gammas"),
    Target("pbart.draw_sigma_tilde", "prtree.pbart:draw_sigma_tilde"),
    Target("pbart.predict", "prtree.pbart:PBartChain.predict"),
    Target("evaluate.cross_validate", "prtree.evaluate:cross_validate"),
    Target("evaluate.tune_sigma", "prtree.evaluate:tune_sigma"),
)


def resolve(where: str):
    """(owner, attribute) of a `module:qualname`; the owner is a module or a class."""
    module_name, qualname = where.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def bindings(where: str) -> list[tuple[object, str]]:
    """Every (holder, attribute) that refers to the traced function.

    A method has one binding, its class. A module-level function is bound in
    its own module and in every loaded `prtree` module that imported it."""
    owner, attr = resolve(where)
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "prtree" or name.startswith("prtree.")):
            continue
        for key, value in vars(module).items():
            if value is fn:
                found.append((module, key))
    return found


class Tracer:
    """Context manager that patches every target binding on entry and restores
    it on exit. It can be entered many times; spans accumulate."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.span_names = [t.span for t in self.targets]
        self.codes: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def add_name(self, span: str) -> int:
        """Code of a span name recorded by the benchmark itself."""
        if span not in self.span_names:
            self.span_names.append(span)
        return self.span_names.index(span)

    def span(self, span: str):
        """A span opened by the benchmark around its own calls into the library."""
        return _Span(self, self.add_name(span))

    def _open(self, code: int) -> int:
        idx = len(self.starts)
        self.codes.append(code)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, code: int, fn, work):
        open_, close, counts = self._open, self._close, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if work is not None:
                counts[idx] = work(args, result)
            return result

        return traced

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for code, target in enumerate(self.targets):
            try:
                owner, attr = resolve(target.where)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                # a function the library no longer has traces as zero calls
                self.missing.append(target.where)
                continue
            binds = bindings(target.where)
            wrapper = self._wrap(code, original, target.work)
            for holder, key in binds:
                self._saved.append((holder, key, vars(holder)[key]))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.span_names),
            "code": np.array(self.codes, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "work": np.array(self.work, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, code: int):
        self.tracer, self.code = tracer, code

    def __enter__(self):
        self.idx = self.tracer._open(self.code)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


@dataclass(frozen=True)
class Summary:
    """Per-name totals of a span table."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]
    work: dict[str, int]


def summarize(a: dict[str, np.ndarray]) -> Summary:
    """Calls, self time, inclusive time and work per span name. A span's self
    time is its duration minus the durations of its direct children."""
    names = [str(s) for s in a["names"]]
    k = len(names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    ) if dur.size else np.zeros(0)
    self_t = dur - child
    code = a["code"]
    calls = np.bincount(code, minlength=k)
    selfs = np.bincount(code, weights=self_t, minlength=k)
    total = np.bincount(code, weights=dur, minlength=k)
    work = np.bincount(code, weights=a["work"], minlength=k)
    return Summary(
        calls={n: int(calls[i]) for i, n in enumerate(names)},
        self_s={n: float(selfs[i]) for i, n in enumerate(names)},
        total_s={n: float(total[i]) for i, n in enumerate(names)},
        work={n: int(work[i]) for i, n in enumerate(names)},
    )


def count_under(a: dict[str, np.ndarray], span: str, ancestor: str, direct: bool = False) -> int:
    """Number of `span` spans with an `ancestor` span above them (the direct
    parent only, when `direct`)."""
    names = [str(s) for s in a["names"]]
    if span not in names or ancestor not in names:
        return 0
    want, anc = names.index(span), names.index(ancestor)
    code, parent = a["code"], a["parent"]
    n = 0
    for idx in np.flatnonzero(code == want):
        p = parent[idx]
        while p >= 0:
            if code[p] == anc:
                n += 1
                break
            if direct:
                break
            p = parent[p]
    return n
