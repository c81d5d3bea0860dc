"""Independent verification: a vertex-configuration oracle and a fuzzer.

The oracle reaches the worst-case ratio through a different search space
than the histogram program, so agreement between the two is a meaningful
cross-check.

Fix an m = n instance in which the identity allocation is envy-free. Column
j then lives in the polytope P_j = {x >= 0, sum_i x_i = 1, x_j >= x_i}.
Every vertex of P_j is uniform over a subset of items containing j: a
coordinate that is neither 0 nor equal to x_j lies on no tight inequality,
and (a) two such coordinates admit the perturbation x_a +/- eps, x_b -/+
eps, while (b) a single one, say x_a, admits b*x_a +/- eps together with
x_i -/+ eps/1 on each of the b coordinates tied at the maximum, both of
which preserve every tight constraint; either way x is a proper convex
combination of feasible points, not a vertex. The objective (welfare of a
fixed optimal allocation minus alpha times the envy-free welfare) is linear
in each column separately, so it is maximized with every column at a
vertex. A vertex column of support size s contributes 1/s for each of its
items the allocation assigns to its agent and has column maximum 1/s, so an
instance collapses to per-agent pairs (s_j, t_j) with sum t_j <= n; the
ratio of such a configuration is (sum t_j/s_j) / (sum 1/s_j).

_oracle_dp maximizes sum (t_j - alpha)/s_j exactly: for a fixed t the best
support size is forced by the sign of t - alpha (smallest legal when
positive, n when negative), and the agents are identical, which leaves an
unbounded knapsack of capacity n over the positive t_j, O(n^2) per step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from typing import Iterator

from .core import (
    UtilityMatrix,
    _check_n,
    _is_int,
    dinkelbach,
    envy_free_matching,
)

__all__ = [
    "VertexConfig",
    "LayoutInfeasible",
    "RejectionCapExceeded",
    "oracle_p_nn",
    "realize_config",
    "fuzz_instances",
]


class LayoutInfeasible(ValueError):
    def __init__(self, agent: int, detail: str):
        self.agent = agent
        super().__init__(f"LayoutInfeasible({agent}): {detail}")


class RejectionCapExceeded(RuntimeError):
    def __init__(self, instance: int, budget: int):
        self.instance = instance
        self.budget = budget
        super().__init__(
            f"aggregate attempt budget {budget} exhausted at instance "
            f"{instance}"
        )


@dataclass(frozen=True)
class VertexConfig:
    """Per-agent (support size, hit count) pairs, kept sorted.

    Agent j's column is uniform over s_j items including its own, and the
    optimal allocation hands it t_j of them. The pair order carries no
    meaning, so configs are normalized to ascending order on construction.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.pairs)
        if n == 0:
            raise ValueError("a config needs at least one agent")
        values = [*chain.from_iterable(self.pairs)]
        if not (set(map(type, values)) == {int} or all(map(_is_int, values))):
            raise ValueError("support sizes and hit counts must be ints")
        normalized = tuple(sorted(map(tuple, self.pairs)))
        object.__setattr__(self, "pairs", normalized)
        total = 0
        for s, t in normalized:
            if not 1 <= s <= n:
                raise ValueError(f"support size {s} outside 1..{n}")
            if not 0 <= t <= s:
                raise ValueError(f"hit count {t} outside 0..{s}")
            total += t
        if total > n:
            raise ValueError(f"hit counts sum to {total}, more than {n} items")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def ratio(self) -> Fraction:
        scale = math.lcm(*{s for s, _ in self.pairs})
        num = sum(t * (scale // s) for s, t in self.pairs)
        return Fraction(num, sum(scale // s for s, _ in self.pairs))


def _oracle_dp(n: int, alpha: Fraction) -> tuple[Fraction, VertexConfig]:
    """Exact maximum of sum (t_j - alpha)/s_j with a maximizing config.

    Integer scoring: with L = lcm(1..n) and alpha = p/q, an agent taking t
    items scores val[t] = (t*q - p) * (L // s_for[t]); the true objective is
    the total divided by q*L. Positive t summing to at most n fit in n
    agents, the rest taking t = 0, so the maximum is n*val[0] plus an
    unbounded knapsack of capacity n with gains val[t] - val[0] > 0, which
    the optimum fills. Each capacity is keyed on (gain, -count), and the
    rebuild takes the smallest t whose remainder still reaches the key, so
    ties go to the fewest item-holding agents, then to the smallest t first.
    """
    p, q = alpha.numerator, alpha.denominator
    scale = math.lcm(*range(1, n + 1))
    s_for = [max(t, 1) if t * q >= p else n for t in range(n + 1)]
    val = [(t * q - p) * (scale // s) for t, s in enumerate(s_for)]

    # (gain, -count) packed as gain*(n+1) - count: count <= n keeps the order
    # lexicographic, and the keys of disjoint multisets add
    w = [(v - val[0]) * (n + 1) - 1 for v in val]
    key = [0] * (n + 1)
    for c in range(1, n + 1):
        key[c] = max(map(add, key[c - 1 :: -1], w[1 : c + 1]))

    hits, c = [], n
    while c:
        t = next(t for t in range(1, c + 1) if key[c - t] + w[t] == key[c])
        hits.append(t)
        c -= t
    hits += [0] * (n - len(hits))
    pairs = tuple((s_for[t], t) for t in hits)
    return Fraction(sum(val[t] for t in hits), q * scale), VertexConfig(pairs)


def oracle_p_nn(n: int) -> tuple[Fraction, VertexConfig]:
    """Exact worst-case ratio over configs, with a maximizing config.

    Exact Dinkelbach iteration (`core.dinkelbach`) over `_oracle_dp`,
    which starts at the square-root construction's ratio
    (`core.construction_ratio`), attainable and so at most the optimum.

    >>> oracle_p_nn(3)[0]
    Fraction(8, 7)
    """
    _check_n(n)
    return dinkelbach(n, lambda alpha: _oracle_dp(n, alpha))


def realize_config(cfg: VertexConfig, n: int) -> UtilityMatrix:
    """An m = n matrix attaining the config: identity allocation envy-free,
    price ratio >= cfg.ratio, with equality when sum t_j = n and the layout
    below goes through.

    Layout: agent j's first hit is its own item; further hits are drawn
    from the items of agents with t = 0, larger supports drawing from
    larger donors first. Each item then carries a floor, the support size
    of the agent whose bundle it lands in (its own column's size if it
    lands nowhere), and remaining support slots are filled with the
    lowest-index items whose floor does not exceed the column's size. Row
    i's maximum is exactly 1/floor(i), so hit items contribute what the
    config claims. Only fills violating a floor are refused: they would
    push the optimum strictly above the claim.
    """
    pairs = cfg.pairs
    if len(pairs) != n:
        raise ValueError(f"config has {len(pairs)} agents, expected {n}")
    sizes = [s for s, _ in pairs]

    takers = sorted(
        (j for j, (_, t) in enumerate(pairs) if t >= 1),
        key=lambda j: (-sizes[j], j),
    )
    pool = sorted(
        (j for j, (_, t) in enumerate(pairs) if t == 0),
        key=lambda j: (-sizes[j], j),
    )
    hits: dict[int, list[int]] = {}
    pos = 0
    for j in takers:
        extra = pairs[j][1] - 1
        hits[j] = [j] + pool[pos : pos + extra]
        pos += extra

    floor = [sizes[i] for i in range(n)]  # unassigned: own column binds
    for j, items in hits.items():
        for i in items:
            floor[i] = sizes[j]
    for i in range(n):
        # every column must contain its own item
        if sizes[i] < floor[i]:
            raise LayoutInfeasible(
                i + 1,
                f"own support size {sizes[i]} is below the item's floor "
                f"{floor[i]}",
            )

    columns = []
    for j in range(n):
        support = set(hits.get(j, [j]))
        for i in range(n):
            if len(support) == sizes[j]:
                break
            if i not in support and floor[i] <= sizes[j]:
                support.add(i)
        if len(support) < sizes[j]:
            raise LayoutInfeasible(
                j + 1,
                f"support needs {sizes[j]} items, only {len(support)} have "
                f"a small enough floor",
            )
        columns.append([1 if i in support else 0 for i in range(n)])
    return UtilityMatrix.from_weights(columns)


def fuzz_instances(
    n: int, count: int, seed: int, attempts: int = 100
) -> Iterator[UtilityMatrix]:
    """Deterministic stream of valid m = n matrices admitting envy-free
    allocations: integer weights in 0..16 normalized per column, rejection
    sampling against an aggregate budget of attempts * count draws shared
    by the whole stream.

    The fraction of draws admitting an envy-free matching shrinks with n
    (unique column maxima alone give roughly n!/n^n), so a fixed cap per
    instance would fail at moderate n even though the stream as a whole
    needs far fewer than 100 draws per emitted instance on average.
    Instance idx always draws from Random(f"fuzz:{seed}:{idx}"), so the
    emitted matrices do not depend on the budget.
    """
    _check_n(n)
    for name, value in (("count", count), ("attempts", attempts)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    budget = attempts * count
    used = 0
    for idx in range(count):
        getrandbits = random.Random(f"fuzz:{seed}:{idx}").getrandbits
        while True:
            if used >= budget:
                raise RejectionCapExceeded(idx, budget)
            used += 1
            cols = []
            for _ in range(n):
                weights = []
                for _ in range(n):
                    # rng.randrange(17), inlined: the same rejection loop
                    # over 5 random bits, so the same stream
                    v = getrandbits(5)
                    while v >= 17:
                        v = getrandbits(5)
                    weights.append(v)
                if not any(weights):
                    break
                cols.append(weights)
            if len(cols) < n:
                continue
            x = UtilityMatrix.from_weights(cols)
            if envy_free_matching(x) is not None:
                yield x
                break
