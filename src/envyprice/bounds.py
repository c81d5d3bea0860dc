"""Closed-form bounds on the worst-case ratio, and an explorer for m > n.

The square-root construction gives the lower bound: with a = k = floor(sqrt
n), it spends a agents on pairwise-disjoint k-item blocks and leaves the
rest uniform, reaching (a + (n-ak)/n) / (a/k + (n-a)/n). The ceiling comes
from g(d) = n(d+1)/(d^2+n) maximized over integer d. Comparisons against
the irrational sqrt(n)/2 forms are decided exactly by sign-guarded
squaring, never with floats.

explore_witness is a certified heuristic: every value it returns is the exact
price ratio of some concrete instance it evaluated, so it is a true lower
bound on the supremum for (n, m), but never a claim of optimality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    UtilityMatrix,
    _check_allocation_count,
    _check_n,
    _check_rational,
    _is_int,
    construction_ratio,
    price_ratio,
)

__all__ = [
    "BoundReport",
    "lower_construction",
    "construction_ratio",
    "g_of_d",
    "upper_g_max",
    "check_upper_bound",
    "check_lower_bound",
    "bound_report",
    "explore_witness",
]

# allocation-space ceiling for the explorer's exhaustive certification; a
# square instance certifies by matching and is not capped
EXPLORE_ALLOCATION_CAP = 4 ** 8


def lower_construction(n: int) -> UtilityMatrix:
    """The square-root instance: a = floor(sqrt n) agents uniform on
    disjoint k-item blocks (agent t on items t*k .. t*k+k-1), the remaining
    n - a agents uniform on everything."""
    _check_n(n)
    k = math.isqrt(n)
    blocks = [[0] * (t * k) + [1] * k + [0] * (n - (t + 1) * k) for t in range(k)]
    return UtilityMatrix.from_weights(blocks + [(1,) * n] * (n - k))


def g_of_d(n: int, d: Fraction) -> Fraction:
    """The ceiling curve n(d+1)/(d^2+n); equals 1 at d = 0 and d = n."""
    _check_n(n)
    d = _check_rational(d, "d")
    return n * (d + 1) / (d * d + n)


def upper_g_max(n: int) -> Fraction:
    """max of g_of_d(n, d) over integer d in 0..n, an upper bound on the
    worst-case ratio.

    Over real d >= 0 the derivative of g has the sign of n - 2d - d^2, so
    g rises up to d* = sqrt(n+1) - 1 and falls after it. The integer
    maximum is therefore at a = floor(d*) = isqrt(n+1) - 1 or at a + 1,
    both in 0..n for n >= 1.
    """
    _check_n(n)
    a = math.isqrt(n + 1) - 1
    return max(g_of_d(n, Fraction(a)), g_of_d(n, Fraction(a + 1)))


def check_upper_bound(n: int, p: Fraction) -> bool:
    """Exactly decide p <= max(1, sqrt(n)/2 + 1/n + 1).

    For p above 1 + 1/n both sides of 2(p - 1 - 1/n) <= sqrt(n) are
    positive, so squaring is an equivalence.
    """
    _check_n(n)
    slack = _check_rational(p, "p") - 1 - Fraction(1, n)
    if slack <= 0:
        return True
    return (2 * slack) ** 2 <= n


def check_lower_bound(n: int, p: Fraction) -> bool:
    """Exactly decide p >= sqrt(n)/2 - 1/2, i.e. (2p + 1)^2 >= n."""
    _check_n(n)
    p = _check_rational(p, "p")
    return (2 * p + 1) ** 2 >= n


@dataclass(frozen=True)
class BoundReport:
    n: int
    lower_construction_ratio: Fraction
    upper_g_max: Fraction
    p_exact: Optional[Fraction]
    checks: tuple[tuple[str, bool], ...]

    def __post_init__(self) -> None:
        if self.p_exact is not None and not (
            self.lower_construction_ratio <= self.p_exact <= self.upper_g_max
        ):
            raise ValueError(
                "exact value must lie between the construction ratio and "
                "the ceiling"
            )


def bound_report(n: int, p_exact: Optional[Fraction] = None) -> BoundReport:
    lower = construction_ratio(n)
    ceiling = upper_g_max(n)
    checks = [
        ("construction_lower_bound", check_lower_bound(n, lower)),
        ("construction_below_ceiling", lower <= ceiling),
    ]
    if p_exact is not None:
        p_exact = _check_rational(p_exact, "p_exact")
        checks += [
            ("construction_at_most_exact", lower <= p_exact),
            ("exact_at_most_ceiling", p_exact <= ceiling),
            ("lower_bound", check_lower_bound(n, p_exact)),
            ("upper_bound", check_upper_bound(n, p_exact)),
        ]
    return BoundReport(n, lower, ceiling, p_exact, tuple(checks))


def _segmented_columns(n: int, m: int) -> list[list[int]]:
    # agent j cares only about its own segment of near-equal size; the
    # segment allocation is envy-free and optimal, so the ratio is 1
    base, spill = divmod(m, n)
    cols = []
    start = 0
    for j in range(n):
        size = base + (1 if j < spill else 0)
        col = [0] * m
        for i in range(start, start + size):
            col[i] = 1
        start += size
        cols.append(col)
    return cols


def explore_witness(
    n: int,
    m: int,
    budget: int,
    seed: int = 0,
    seed_matrices: Sequence[UtilityMatrix] = (),
) -> tuple[Fraction, UtilityMatrix]:
    """Heuristic lower bound on the worst-case ratio for n agents and m
    items, with the instance attaining it.

    Spends `budget` exact certifications: first on the envy-free segmented
    baseline, then on the given seed matrices, then on random restarts with
    single-entry hill climbing over integer weight grids. Deterministic for
    fixed arguments; the result is the best certified ratio, so it is a
    true lower bound but carries no optimality claim.
    """
    for name, value in (("n", n), ("m", m), ("budget", budget), ("seed", seed)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n < 1 or m < n:
        raise ValueError("need m >= n >= 1")
    if m > n:
        _check_allocation_count(n, m, EXPLORE_ALLOCATION_CAP)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    for x in seed_matrices:
        if not isinstance(x, UtilityMatrix):
            raise ValueError(f"seed matrices must be UtilityMatrix objects, got {x!r}")
        if (x.n, x.m) != (n, m):
            raise ValueError(f"seed matrices must have {n} agents and {m} items")

    # the segmented baseline is envy-free and optimal: it certifies ratio 1
    evals = 1
    baseline = UtilityMatrix.from_weights(_segmented_columns(n, m))
    best = (price_ratio(baseline).ratio, baseline)

    def certify(cols: Sequence[Sequence[int]]) -> Optional[Fraction]:
        nonlocal evals, best
        evals += 1
        x = UtilityMatrix.from_weights(cols)
        ratio = price_ratio(x).ratio
        if ratio is not None and ratio > best[0]:
            best = (ratio, x)
        return ratio

    restart = 0
    while evals < budget:
        rng = random.Random(f"explore:{seed}:{restart}")
        if restart < len(seed_matrices):
            cols = [list(col) for col in seed_matrices[restart].grid]
        else:
            cols = []
            for _ in range(n):
                w = [rng.randrange(11) for _ in range(m)]
                while not any(w):
                    w = [rng.randrange(11) for _ in range(m)]
                cols.append(w)
        current = certify(cols)
        stall = 0
        while evals < budget and current is not None and stall < 40:
            j = rng.randrange(n)
            i = rng.randrange(m)
            delta = rng.choice((1, -1))
            if cols[j][i] + delta < 0:
                continue
            cols[j][i] += delta
            if not any(cols[j]):
                cols[j][i] -= delta
                continue
            candidate = certify(cols)
            if candidate is not None and candidate > current:
                current = candidate
                stall = 0
            else:
                cols[j][i] -= delta
                stall += 1
        restart += 1

    return best
