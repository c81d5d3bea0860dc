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
    _all_ints,
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


_ATTEMPTS = 100  # draws per emitted instance in the fuzzer's shared budget


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
        if not _all_ints(chain.from_iterable(self.pairs)):
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
    which starts at the best ratio of the all-full vector and the
    two-size blocks near sqrt(n). Each block, read as per-agent
    (support size, hits) pairs, is a config, so the start is attainable
    and at most the optimum; for n <= 150 it is the optimum, and one DP
    step certifies it.

    >>> oracle_p_nn(3)[0]
    Fraction(8, 7)
    """
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
    _check_n(n)
    if not isinstance(cfg, VertexConfig):
        raise ValueError(f"cfg must be a VertexConfig, got {cfg!r}")
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


# randrange(17) takes the top 5 bits of one 32-bit word and draws again while
# they are >= 17; in getrandbits(32 * k) word i fills bits 32i .. 32i + 31, so
# its top 5 bits are the top 5 bits of byte 4i + 3 of the little-endian bytes
_TOP5 = bytes(b >> 3 for b in range(256))
_OVER16 = bytes(range(17 << 3, 256))  # top bytes whose top 5 bits are >= 17


def _randrange17_block(getrandbits, words: int) -> bytes:
    """The randrange(17) values that `words` 32-bit words of a Random's
    stream give, in order: concatenated blocks are its randrange(17) stream."""
    raw = getrandbits(32 * words).to_bytes(4 * words, "little")
    return raw[3::4].translate(_TOP5, delete=_OVER16)


def _max_cover(cols: list[bytes]) -> int:
    """Bitmask of the items at which some column attains its maximum, every
    such item on ties."""
    covered = 0
    for col in cols:
        top = max(col)
        i = col.index(top)
        while i >= 0:
            covered |= 1 << i
            i = col.find(top, i + 1)
    return covered


def fuzz_instances(n: int, count: int, seed: int) -> Iterator[UtilityMatrix]:
    """Deterministic stream of valid m = n matrices admitting envy-free
    allocations: integer weights in 0..16 normalized per column, rejection
    sampling against an aggregate budget of _ATTEMPTS * count draws shared
    by the whole stream. Every raw draw counts against the budget, rejected
    before a matrix is built or not.

    The fraction of draws admitting an envy-free matching shrinks with n
    (unique column maxima alone give roughly n!/n^n), so a fixed cap per
    instance would fail at moderate n even though the stream as a whole
    needs far fewer than 100 draws per emitted instance on average.
    Instance idx always draws from Random(f"fuzz:{seed}:{idx}"), so the
    emitted matrices do not depend on the budget.

    A draw takes n columns of n weights, each weight rng.randrange(17), and
    stops early at its first all-zero column, which rejects it. Before any
    matrix is built, a draw is rejected when fewer than n items attain some
    column's maximum: Hall's condition on the set of all agents then fails,
    so `envy_free_matching` finds no perfect matching. Normalizing scales each
    column by a positive factor, which keeps its argmax, so the check on raw
    weights is exact; a draw that passes still goes through `from_weights`
    and `envy_free_matching`.

    The weights are drawn a block of 2 n^2 words at a time
    (`_randrange17_block`): randrange(17) is getrandbits(5), the top 5 bits
    of one 32-bit word, drawn again while >= 17, and getrandbits(32 * k)
    returns k words with the first in the lowest bits. So the values are
    those of successive randrange(17) calls. Each instance's generator is
    discarded after its accepted draw, so reading past it changes nothing.
    """
    _check_n(n)
    if not _is_int(count):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    budget = _ATTEMPTS * count
    used = 0
    need = n * n
    every_item = (1 << n) - 1
    zero = bytes(n)
    for idx in range(count):
        getrandbits = random.Random(f"fuzz:{seed}:{idx}").getrandbits
        buf, pos = b"", 0
        while True:
            if used >= budget:
                raise RejectionCapExceeded(idx, budget)
            used += 1
            while len(buf) - pos < need:
                buf = buf[pos:] + _randrange17_block(getrandbits, 2 * need)
                pos = 0
            cols = [buf[i : i + n] for i in range(pos, pos + need, n)]
            if zero in cols:
                pos += (cols.index(zero) + 1) * n  # the draw ends at its first zero column
                continue
            pos += need
            if _max_cover(cols) != every_item:
                continue
            x = UtilityMatrix.from_weights(list(map(list, cols)))
            if envy_free_matching(x) is not None:
                yield x
                break
