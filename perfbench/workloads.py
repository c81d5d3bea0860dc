"""Benchmark workloads: seeded inputs, one operation each, and the checks.

A workload is a sequence of rounds. Round r is a list of operations whose
sizes come from the seed by stratified sampling, so a new seed changes the
inputs but keeps their size profile. Every operation goes through the
public envyprice API with default `SolveOptions`, except that `crosscheck`
also runs the guarded full enumeration it is compared against.

Module attributes are looked up at call time (`core.price_ratio`, never a
name bound at import), so the span tracer sees every call.

Every result is checked against values this file holds or recomputes
without the package: the literal table p(1..9), the closed-form ratio of
the square-root construction, the ratio of a histogram witness, the ratio
of a vertex configuration, the exact bound sandwich, and a brute-force
price ratio for the explorer's small m > n matrices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from envyprice import bounds, core, oracle, solver, structure

# p(1)..p(9), the paper's table.
P_TABLE = {
    1: Fraction(1),
    2: Fraction(1),
    3: Fraction(8, 7),
    4: Fraction(4, 3),
    5: Fraction(60, 43),
    6: Fraction(3, 2),
    7: Fraction(63, 40),
    8: Fraction(72, 43),
    9: Fraction(9, 5),
}

FUZZ_SIZES = (5, 6, 7)
FUZZ_DRAWS_PER_SIZE = 10
# Effectively unbounded: one stream serves a whole measured phase.
FUZZ_STREAM = 10**9
EXPLORE_SHAPES = ((2, 5), (3, 5), (2, 6))
EXPLORE_BUDGET = 40


class CheckFailed(AssertionError):
    pass


# An operation: (kind, n, argument).
Op = tuple


def _stratified(rng: random.Random, lo: int, hi: int, width: int) -> list[int]:
    """One value from each of the strata lo.., lo+width.., ... up to hi."""
    return [rng.randint(a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def construction_ratio(n: int) -> Fraction:
    """Price ratio of the square-root construction: with a = k = isqrt(n),
    (a + (n - a*k)/n) / (a/k + (n - a)/n)."""
    a = k = math.isqrt(n)
    return (a + Fraction(n - a * k, n)) / (Fraction(a, k) + Fraction(n - a, n))


def histogram_ratio(s, r) -> Fraction:
    """(sum r_i/i) / (sum s_i/i), indices 1-based."""
    num = sum(Fraction(ri, i) for i, ri in enumerate(r, 1))
    den = sum(Fraction(si, i) for i, si in enumerate(s, 1))
    return num / den


def config_ratio(pairs) -> Fraction:
    """(sum t_j/s_j) / (sum 1/s_j) over (support size, hits) pairs."""
    num = sum(Fraction(t, s) for s, t in pairs)
    den = sum(Fraction(1, s) for s, _ in pairs)
    return num / den


def within_bounds(n: int, p: Fraction) -> bool:
    """sqrt(n)/2 - 1/2 <= p <= max(1, sqrt(n)/2 + 1/n + 1), decided exactly."""
    slack = p - 1 - Fraction(1, n)
    return (2 * p + 1) ** 2 >= n and (slack <= 0 or (2 * slack) ** 2 <= n)


def brute_force_ratio(columns) -> Fraction | None:
    """Optimal over best envy-free welfare, by enumerating all n^m
    allocations of an exact column-major matrix; None if none is envy-free."""
    n, m = len(columns), len(columns[0])
    scale = math.lcm(*(v.denominator for col in columns for v in col))
    grid = [[int(v * scale) for v in col] for col in columns]
    optimum = sum(max(col[i] for col in grid) for i in range(m))
    best = None
    for owners in product(range(n), repeat=m):
        worth = [[0] * n for _ in range(n)]  # worth[j][g]: g's bundle to j
        for i, g in enumerate(owners):
            for j in range(n):
                worth[j][g] += grid[j][i]
        if all(worth[j][j] == max(worth[j]) for j in range(n)):
            welfare = sum(worth[j][j] for j in range(n))
            if best is None or welfare > best:
                best = welfare
    return None if best is None else Fraction(optimum, best)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_p(n: int, p: Fraction, s, r) -> None:
    _expect(p == histogram_ratio(s, r), f"p({n}) = {p} is not its witness's ratio")
    if n in P_TABLE:
        _expect(p == P_TABLE[n], f"p({n}) = {p}, table says {P_TABLE[n]}")
    _expect(within_bounds(n, p), f"p({n}) = {p} outside the bound sandwich")
    _expect(p >= construction_ratio(n), f"p({n}) = {p} below the construction")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def execute(op: Op, state: dict):
    """Run one operation through the public API and return its outputs."""
    kind, n, arg = op
    if kind == "solve":
        w = solver.solve_p_nn(n)
        return w.ratio, w.s, w.r
    if kind == "cross":
        w = solver.solve_p_nn(n)
        value, config = oracle.oracle_p_nn(n)
        return w.ratio, w.s, w.r, value, config.pairs
    if kind == "full":
        w = solver.solve_p_nn(n)
        full = solver.solve_p_nn(n, solver.SolveOptions(search=solver.Search.FULL_ENUMERATION))
        return w.ratio, w.s, w.r, full.ratio, full.s, full.r
    if kind == "construct":
        return core.price_ratio(bounds.lower_construction(n)).ratio
    if kind == "witness":
        s, r = arg
        return core.price_ratio(structure.build_witness_matrix(s, r, n)).ratio
    if kind == "fuzz":
        if n not in state:
            state[n] = oracle.fuzz_instances(n, FUZZ_STREAM, arg)
        x = next(state[n])
        return x.columns, core.price_ratio(x).ratio
    if kind == "explore":
        m, seed = arg
        ratio, x = bounds.explore_witness(n, m, EXPLORE_BUDGET, seed)
        return ratio, x.columns
    raise ValueError(f"unknown operation {kind!r}")


def check(op: Op, result) -> None:
    """Raise CheckFailed unless the result matches the references."""
    kind, n, arg = op
    if kind == "solve":
        _check_p(n, *result)
    elif kind == "cross":
        p, s, r, value, pairs = result
        _check_p(n, p, s, r)
        _expect(value == p, f"oracle p({n}) = {value}, solver says {p}")
        _expect(config_ratio(pairs) == value, f"oracle p({n}) = {value} is not its config's ratio")
    elif kind == "full":
        p, s, r, p_full, s_full, r_full = result
        _check_p(n, p, s, r)
        _expect(
            (p_full, s_full, r_full) == (p, s, r),
            f"full enumeration p({n}) = {p_full} differs from the restricted scan's {p}",
        )
    elif kind == "construct":
        want = construction_ratio(n)
        _expect(result == want, f"construction n={n}: ratio {result}, closed form {want}")
    elif kind == "witness":
        want = histogram_ratio(*arg)
        _expect(result == want, f"witness n={n}: ratio {result}, histogram says {want}")
        if n in P_TABLE:
            _expect(result == P_TABLE[n], f"witness n={n}: ratio {result}, table says {P_TABLE[n]}")
    elif kind == "fuzz":
        _, ratio = result
        _expect(ratio is not None, f"fuzz n={n}: emitted instance has no envy-free allocation")
        _expect(1 <= ratio <= P_TABLE[n], f"fuzz n={n}: ratio {ratio} outside [1, p({n})]")
    elif kind == "explore":
        ratio, columns = result
        m = arg[0]
        want = brute_force_ratio(columns)
        _expect(ratio == want, f"explore {n}x{m}: ratio {ratio}, brute force {want}")
        _expect(1 <= ratio <= n, f"explore {n}x{m}: ratio {ratio} outside [1, {n}]")
    else:
        raise ValueError(f"unknown operation {kind!r}")


def size(op: Op) -> str:
    kind, n, arg = op
    if kind == "explore":
        return f"{kind}:{n}x{arg[0]}"
    return f"{kind}:{n}"


def solver_calls(op: Op) -> list:
    """(n, search) of every solve an operation starts, to prime the tracer."""
    kind, n, _ = op
    restricted = (n, solver.Search.LEMMA4_RESTRICTED)
    if kind in ("solve", "cross"):
        return [restricted]
    if kind == "full":
        return [restricted, (n, solver.Search.FULL_ENUMERATION)]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # seed -> inputs; this is the input generation that setup_s includes
    prepare: Callable[[int], dict]
    # (inputs, round index) -> operations
    round: Callable[[dict, int], list]
    # rounds the traced run replays, once untraced and once traced
    trace_rounds: int
    # per-layer metrics that must be nonzero in the traced run
    claims: tuple[str, ...]


def _rng(name: str, inputs: dict, r: int) -> random.Random:
    return random.Random(f"{name}:{inputs['seed']}:{r}")


def _shuffled(rng: random.Random, ops: list) -> list:
    # Seeded order, so that a slow spell of the machine falls on a mix of
    # sizes instead of a run of neighbouring ones.
    rng.shuffle(ops)
    return ops


def _solve_round(inputs: dict, r: int) -> list:
    # One seeded size from each of 1..3, 4..6, ..., 88..90, and n = 100
    # twice. The largest operations of a round set the tail, so they are
    # the same size in every round and for every seed; the narrow strata
    # keep the median steady.
    rng = _rng("solve", inputs, r)
    ns = _stratified(rng, 1, 90, 3) + [100, 100]
    return _shuffled(rng, [("solve", n, None) for n in ns])


def _crosscheck_round(inputs: dict, r: int) -> list:
    # All of n = 1..30, one seeded size from each of 31..40, ..., 61..70,
    # n = 80, and the full enumeration for n = 1..9. The largest
    # operation is the same in every round, as in `solve`. (The full
    # enumeration takes 0.4 s at n = 10, a third of a round.)
    rng = _rng("crosscheck", inputs, r)
    ns = list(range(1, 31)) + _stratified(rng, 31, 70, 10) + [80]
    ops = [("cross", n, None) for n in ns] + [("full", n, None) for n in range(1, 10)]
    return _shuffled(rng, ops)


def _certify_prepare(seed: int) -> dict:
    witnesses = {}
    for n in range(1, 31):
        w = solver.solve_p_nn(n)
        witnesses[n] = (w.s, w.r)
    return {"seed": seed, "witnesses": witnesses}


def _certify_round(inputs: dict, r: int) -> list:
    # One seeded size from each twelfth of 1..300, and every witness of
    # n = 1..30 rebuilt and certified.
    rng = _rng("certify_large", inputs, r)
    ops = [("construct", n, None) for n in _stratified(rng, 1, 300, 25)]
    ops += [("witness", n, w) for n, w in inputs["witnesses"].items()]
    return _shuffled(rng, ops)


def _sample_round(inputs: dict, r: int) -> list:
    # Ten draws per size from one seeded fuzz stream per n, then one seeded
    # explorer run per m > n shape.
    rng = _rng("sample_small", inputs, r)
    seed = inputs["seed"]
    ops = [("fuzz", n, seed) for _ in range(FUZZ_DRAWS_PER_SIZE) for n in FUZZ_SIZES]
    ops += [("explore", n, (m, rng.randrange(2**31))) for n, m in EXPLORE_SHAPES]
    return _shuffled(rng, ops)


def _seed_only(seed: int) -> dict:
    return {"seed": seed}


_CORE = (
    "core.UtilityMatrix.calls",
    "core.UtilityMatrix.self_s",
    "core.UtilityMatrix.entries",
    "core.envy_free_matching.calls",
    "core.envy_free_matching.self_s",
    "core.optimal_welfare.self_s",
    "core.price_ratio.calls",
    "core.price_ratio.self_s",
)
_SOLVER = (
    "solver.solve_alpha.calls",
    "solver.solve_alpha.self_s",
    "solver.iters_per_solve",
    "solver.candidates",
    "solver.candidates_per_s",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", _seed_only, _solve_round, 1, _SOLVER),
        Workload(
            "crosscheck",
            _seed_only,
            _crosscheck_round,
            2,
            _SOLVER
            + (
                "oracle.dp_step.calls",
                "oracle.dp_step.self_s",
                "oracle.iters_per_solve",
                "oracle.dp_cells",
                "oracle.dp_cells_per_s",
            ),
        ),
        Workload(
            "certify_large",
            _certify_prepare,
            _certify_round,
            3,
            _CORE
            + (
                "structure.build_witness_matrix.calls",
                "structure.build_witness_matrix.self_s",
                "bounds.lower_construction.self_s",
            ),
        ),
        Workload(
            "sample_small",
            _seed_only,
            _sample_round,
            10,
            _CORE
            + (
                "core.envy_free_optimal_exhaustive.calls",
                "core.envy_free_optimal_exhaustive.self_s",
                "core.envy_free_optimal_exhaustive.allocations",
                "oracle.fuzz_instances.draws",
                "oracle.fuzz_instances.emitted",
                "oracle.fuzz_instances.accept_ratio",
                "oracle.fuzz_instances.self_s",
                "bounds.explore_witness.calls",
                "bounds.explore_witness.self_s",
                "bounds.explore_witness.evals",
                "bounds.explore_witness.certified_ratio",
            ),
        ),
    )
}
