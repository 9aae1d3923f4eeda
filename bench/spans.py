"""Span tracing of thermolb from outside the package.

A Tracer replaces selected thermolb functions with wrappers that record a
span (name, start, end, parent) per call, and a few exact counts, and puts
the originals back when it is closed.  The package source carries no
tracing code: every module that bound a traced function by name
(``from .equilibrium import expand``) gets the wrapper under the same name.

Spans are kept in memory and written out by the caller at the end of a run.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  A dotted attribute is a method on a class.
SPANS = (
    ("cli.simulate", "thermolb.cli", "cmd_simulate"),
    ("cli.compare", "thermolb.cli", "cmd_compare"),
    ("cli.stability_scan", "thermolb.cli", "cmd_stability_scan"),
    ("cli.sweep", "thermolb.cli", "cmd_sweep"),
    ("cli.derive", "thermolb.cli", "cmd_derive"),
    ("cli.verify", "thermolb.cli", "cmd_verify"),
    ("cli.catalog", "thermolb.cli", "cmd_catalog"),
    ("cli.snapshot_csv", "thermolb.cli", "_snapshot_csv"),
    ("cli.read_snapshot_csv", "thermolb.cli", "_read_snapshot_csv"),
    ("simulator.stability_scan", "thermolb.simulator", "stability_scan"),
    ("simulator.run", "thermolb.simulator", "run"),
    ("simulator.init_shock_tube", "thermolb.simulator", "init_shock_tube"),
    ("simulator.step", "thermolb.simulator", "step"),
    ("simulator.apply_boundaries", "thermolb.simulator", "apply_boundaries"),
    ("simulator.check_health", "thermolb.simulator", "check_health"),
    ("equilibrium.expand", "thermolb.equilibrium", "expand"),
    ("equilibrium.populations", "thermolb.equilibrium", "DiscreteEquilibrium.populations"),
    ("equilibrium.verify_moments", "thermolb.equilibrium", "verify_moments"),
    ("model_solver.resolve_catalog", "thermolb.model_solver", "resolve_catalog"),
    ("model_solver.solve_model", "thermolb.model_solver", "solve_model"),
    ("model_solver.build_polynomial", "thermolb.model_solver", "build_polynomial"),
    ("ratpoly.isolate_positive_roots", "thermolb._ratpoly", "isolate_positive_roots"),
    ("ratpoly.exact_rational_roots", "thermolb._ratpoly", "exact_rational_roots"),
    ("ratpoly.refine_root", "thermolb._ratpoly", "refine_root"),
    ("moments.discrete_moment", "thermolb.moments", "discrete_moment"),
    ("riemann.solve_riemann", "thermolb.riemann", "solve_riemann"),
    ("riemann.sample_profile", "thermolb.riemann", "sample_profile"),
)

# Called too often for a span each; counted only.
COUNTED = (("ratpoly.eval_at", "thermolb._ratpoly", "eval_at"),)


class Tracer:
    """Records spans and counts while installed (use as a context manager).

    spans[i] = [name, start, end, parent index or -1].  Calls made from the
    simulator's worker threads have no open span of their own; their parent
    is the span open in the installing thread, on whose behalf they run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.attrs: dict[int, float] = {}  # span index -> value from its result hook
        self.expand_seen: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return -1

    def _span_wrapper(self, name: str, fn):
        tracer = self
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if on_result is not None:
                on_result(tracer, idx, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            stack = tracer._stack()
            if stack and tracer.spans[stack[-1]][0] == "ratpoly.exact_rational_roots":
                # a rational-root-theorem candidate being tested
                tracer.attrs[stack[-1]] = tracer.attrs.get(stack[-1], 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- patching

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermolb" or mod_name.startswith("thermolb.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def __enter__(self) -> "Tracer":
        self._local.stack = self._main_stack
        for name, module, attr in SPANS:
            self._patch(module, attr, functools.partial(self._span_wrapper, name))
        for name, module, attr in COUNTED:
            self._patch(module, attr, functools.partial(self._count_wrapper, name))
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # ---------------------------------------------------------- analysis

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def first_call_durations(self, name: str) -> list[float]:
        """Durations of the spans flagged as the first call for their input."""
        return [s[2] - s[1] for i, s in enumerate(self.spans)
                if s[0] == name and self.attrs.get(i) == 1.0]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                out[s[3]].append(i)
        return out

    def self_times(self, name: str) -> list[float]:
        """Duration minus the part of the span that its children cover."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            covered = _union_length([(self.spans[k][1], self.spans[k][2])
                                     for k in kids.get(i, ())], s[1], s[2])
            out.append(s[2] - s[1] - covered)
        return out

    def ancestor(self, idx: int, name: str) -> int:
        p = self.spans[idx][3]
        while p >= 0 and self.spans[p][0] != name:
            p = self.spans[p][3]
        return p

    def covered_within(self, outer: str, inner: str) -> float:
        """Time the `inner` spans cover inside `outer` spans.  Overlapping
        inner spans, as from worker threads, count once."""
        by_outer: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[0] == inner:
                a = self.ancestor(i, outer)
                if a >= 0:
                    by_outer[a].append((s[1], s[2]))
        return sum(_union_length(spans, self.spans[a][1], self.spans[a][2])
                   for a, spans in by_outer.items())

    def bytes_within(self, outer: str, inner: str) -> float:
        return sum(self.attrs.get(i, 0) for i, s in enumerate(self.spans)
                   if s[0] == inner and self.ancestor(i, outer) >= 0)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


# ------------------------------------------------------- result hooks

def _on_populations(tracer: Tracer, idx: int, args, result) -> None:
    tracer.attrs[idx] = float(np.asarray(result).nbytes)


def _on_step(tracer: Tracer, idx: int, args, result) -> None:
    tracer.attrs[idx] = float(args[1].nodes)  # node updates of this step


def _on_snapshot_csv(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counts["cli.csv_bytes"] += len(result.encode())


def _on_solve_model(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counts["model_solver.models_found"] += len(result)


def _on_exact_rational_roots(tracer: Tracer, idx: int, args, result) -> None:
    candidates = tracer.attrs.pop(idx, 0)
    if candidates:  # the rational root theorem ran (degree >= 3)
        tracer.counts["ratpoly.root_candidates"] += candidates
        tracer.counts["ratpoly.rational_roots_found"] += len(result)


def _on_solve_riemann(tracer: Tracer, idx: int, args, result) -> None:
    tracer.attrs[idx] = float(result.iterations)


def _on_expand(tracer: Tracer, idx: int, args, result) -> None:
    spec = args[0]
    key = (spec.kind, spec.order, spec.theta0)
    if key not in tracer.expand_seen:  # first call for this spec: cold in a fresh process
        tracer.expand_seen.add(key)
        tracer.attrs[idx] = 1.0
        tracer.counts["equilibrium.monomials"] = max(
            tracer.counts["equilibrium.monomials"], len({k[1:] for k in result.terms}))


_ON_RESULT = {
    "simulator.step": _on_step,
    "equilibrium.populations": _on_populations,
    "cli.snapshot_csv": _on_snapshot_csv,
    "model_solver.solve_model": _on_solve_model,
    "ratpoly.exact_rational_roots": _on_exact_rational_roots,
    "riemann.solve_riemann": _on_solve_riemann,
    "equilibrium.expand": _on_expand,
}


def percentile_pair(values: list[float]) -> tuple[float, float, float, int]:
    """(median, tail, tail percentile, sample count).

    The tail is the highest percentile with at least ten samples beyond it
    (capped at 99.9); with 20 samples or fewer, where that percentile would
    not exceed the median, it is the maximum.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    arr = np.asarray(values, dtype=np.float64)
    median = float(np.median(arr))
    if n <= 20:
        return median, float(arr.max()), 100.0, n
    pct = min(99.9, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    return median, float(np.percentile(arr, pct)), pct, n
