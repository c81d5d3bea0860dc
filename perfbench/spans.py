"""Layer spans and counters around envyprice's entry points, from outside
the package.

The tracer replaces each traced function in every envyprice module that
binds it, because the modules import one another's functions by name:
`bounds` binds `core.price_ratio`, and `oracle` and `structure` bind
`core.envy_free_matching`. Patching only the defining module would miss
the explorer's certifications and the fuzzer's rejection tests.

A span's self time is its duration minus the time of the traced spans it
called. Spans are folded into per-name totals in memory as they close.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

from envyprice import bounds, core, oracle, solver, structure

# Spans whose descendants are counted separately (explore evaluations,
# fuzz draws).
EXPLORE = "bounds.explore_witness"
FUZZ = "oracle.fuzz_instances"


class Tracer:
    """Per-span call counts and self times, plus named work counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._active: Counter = Counter()
        self._candidates: dict = {}

    def enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def candidates(self, n: int, search) -> int:
        """s-vectors one solve_alpha call scans; cached so that a traced
        phase can be primed before it starts."""
        key = (n, search)
        if key not in self._candidates:
            if n == 1:
                count = 1
            elif search is solver.Search.FULL_ENUMERATION:
                count = math.comb(2 * n - 1, n - 1)  # compositions of n into n parts
            else:
                count = sum(1 for _ in solver.lemma4_candidates(n))
            self._candidates[key] = count
        return self._candidates[key]

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; `before(*args)` runs ahead of the clock,
        `after(result, *args)` after it stops."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def span_generator(self, name: str, fn):
        """fn returns a generator; each resumption is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[name + ".emitted"] += 1
                yield item

        return wrapper


def _bindings(original):
    for name, module in list(sys.modules.items()):
        if name == "envyprice" or name.startswith("envyprice."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr


@contextmanager
def installed(tracer: Tracer):
    """Route every binding of the traced entry points through `tracer`.

    An entry point that no longer exists is skipped; its metrics then read
    zero, which the run reports for every workload that claims them.
    """
    counts = tracer.counts
    patches = []

    def patch(owner, name: str, span: str, before=None, after=None, generator=False):
        original = getattr(owner, name, None)
        if original is None:
            return
        if generator:
            wrapper = tracer.span_generator(span, original)
        else:
            wrapper = tracer.span(span, original, before, after)
        targets = [(owner, name)] + [b for b in _bindings(original) if b != (owner, name)]
        for target, attr in targets:
            setattr(target, attr, wrapper)
            patches.append((target, attr, original))

    def on_matrix(_, x):
        counts["core.UtilityMatrix.entries"] += len(x.columns) * len(x.columns[0])
        if tracer.inside(FUZZ):
            counts[FUZZ + ".draws"] += 1

    def on_price_ratio(report, x, *args, **kwargs):
        if tracer.inside(EXPLORE):
            counts[EXPLORE + ".evals"] += 1
            counts[EXPLORE + ".certified"] += report.ratio is not None

    def on_exhaustive(x, *args, **kwargs):
        counts["core.envy_free_optimal_exhaustive.allocations"] += x.n ** x.m

    def on_solve_alpha(n, alpha, options=None):
        search = (options or solver.SolveOptions()).search
        counts["solver.candidates"] += tracer.candidates(n, search)

    def on_dp_step(n, alpha):
        # n - 1 agent layers, each over budgets b = 0..n and takes t = 0..b
        counts["oracle.dp_cells"] += (n - 1) * (n + 1) * (n + 2) // 2

    try:
        patch(core.UtilityMatrix, "__post_init__", "core.UtilityMatrix", after=on_matrix)
        patch(core, "envy_free_matching", "core.envy_free_matching")
        patch(core, "optimal_welfare", "core.optimal_welfare")
        patch(core, "price_ratio", "core.price_ratio", after=on_price_ratio)
        patch(core, "envy_free_optimal_exhaustive", "core.envy_free_optimal_exhaustive", before=on_exhaustive)
        patch(structure, "build_witness_matrix", "structure.build_witness_matrix")
        patch(solver, "solve_p_nn", "solver.solve_p_nn")
        patch(solver, "solve_alpha", "solver.solve_alpha", before=on_solve_alpha)
        patch(oracle, "oracle_p_nn", "oracle.oracle_p_nn")
        patch(oracle, "_oracle_dp", "oracle.dp_step", before=on_dp_step)
        patch(oracle, "fuzz_instances", FUZZ, generator=True)
        patch(bounds, "lower_construction", "bounds.lower_construction")
        patch(bounds, "explore_witness", EXPLORE)
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    c, k = t.calls, t.counts
    out: dict[str, tuple[float, str]] = {}
    for span in (
        "core.UtilityMatrix",
        "core.envy_free_matching",
        "core.price_ratio",
        "core.envy_free_optimal_exhaustive",
        "structure.build_witness_matrix",
        "solver.solve_alpha",
        "oracle.dp_step",
        EXPLORE,
    ):
        out[span + ".calls"] = (c[span], "count")
    for span in (
        "core.UtilityMatrix",
        "core.envy_free_matching",
        "core.optimal_welfare",
        "core.price_ratio",
        "core.envy_free_optimal_exhaustive",
        "structure.build_witness_matrix",
        "solver.solve_alpha",
        "oracle.dp_step",
        FUZZ,
        "bounds.lower_construction",
        EXPLORE,
    ):
        out[span + ".self_s"] = (t.self_s(span), "s")
    out["core.UtilityMatrix.entries"] = (k["core.UtilityMatrix.entries"], "count")
    out["core.envy_free_optimal_exhaustive.allocations"] = (
        k["core.envy_free_optimal_exhaustive.allocations"],
        "count",
    )
    out["solver.iters_per_solve"] = (
        _ratio(c["solver.solve_alpha"], c["solver.solve_p_nn"]),
        "iters/solve",
    )
    out["solver.candidates"] = (k["solver.candidates"], "count")
    out["solver.candidates_per_s"] = (
        _ratio(k["solver.candidates"], t.self_s("solver.solve_alpha")),
        "1/s",
    )
    out["oracle.iters_per_solve"] = (
        _ratio(c["oracle.dp_step"], c["oracle.oracle_p_nn"]),
        "iters/solve",
    )
    out["oracle.dp_cells"] = (k["oracle.dp_cells"], "count")
    out["oracle.dp_cells_per_s"] = (
        _ratio(k["oracle.dp_cells"], t.self_s("oracle.dp_step")),
        "1/s",
    )
    out[FUZZ + ".draws"] = (k[FUZZ + ".draws"], "count")
    out[FUZZ + ".emitted"] = (k[FUZZ + ".emitted"], "count")
    out[FUZZ + ".accept_ratio"] = (
        _ratio(k[FUZZ + ".emitted"], k[FUZZ + ".draws"]),
        "ratio",
    )
    out[EXPLORE + ".evals"] = (k[EXPLORE + ".evals"], "count")
    out[EXPLORE + ".certified_ratio"] = (
        _ratio(k[EXPLORE + ".certified"], k[EXPLORE + ".evals"]),
        "ratio",
    )
    return out
