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
unbounded knapsack of capacity n over the positive t_j. A loss bound leaves
only the few t that can appear in an optimal fill (at the first step, at
most 15 for n <= 80 and 40 at n = 1000), and the knapsack runs over those.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterator, Optional

from .core import (
    UtilityMatrix,
    _all_ints,
    _check_n,
    _hopcroft_karp,
    _is_int,
    dinkelbach,
    envy_free_matching,
)

__all__ = [
    "VertexConfig",
    "LayoutInfeasible",
    "RejectionCapExceeded",
    "FuzzCheckFailed",
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


class FuzzCheckFailed(RuntimeError):
    """A draw whose raw weights admit a perfect matching on the column
    maxima has no envy-free matching once normalized. Normalizing keeps
    every column's argmax, so this is a defect, not an input error."""

    def __init__(self, instance: int):
        self.instance = instance
        super().__init__(
            f"fuzz instance {instance}: the raw-weight matching and "
            f"envy_free_matching disagree"
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

    Only the live weights enter the knapsack. Let t* maximize w[t]/t, W =
    w[t*] and loss(t) = W*t - t*w[t] >= 0, so that a fill S of capacity n
    has t* key(S) = n W - sum of loss(t) over S.
    (1) The greedy fill, n // t* copies of t* and one n mod t* when that is
        not 0, has key lb, so every weight of an optimal fill of n has loss
        at most slack = n W - t* lb: those weights are live.
    (2) Each capacity the rebuild visits is the remainder of an optimal fill
        of n, so its optimal fills, with the weights taken so far, are
        optimal fills of n: the live knapsack, which keys each capacity on
        its best live fill weighing at most that much, reaches the full key
        there, and a lighter fill scores below it (copies of 1 add w[1] > 0).
    (3) So key[c - t] + w[t] == key[c] holds there for a t exactly when it
        holds in the full knapsack, where it makes t live: the rebuild over
        the live weights in ascending order picks the full rebuild's t.
    """
    p, q = alpha.numerator, alpha.denominator
    scale = math.lcm(*range(1, n + 1))
    s_for = [max(t, 1) if t * q >= p else n for t in range(n + 1)]
    val = [(t * q - p) * (scale // s) for t, s in enumerate(s_for)]

    # (gain, -count) packed as gain*(n+1) - count: count <= n keeps the order
    # lexicographic, and the keys of disjoint multisets add; every w[t] > 0
    # for t >= 1, w[0] = 0 is no item, and t* = best is found by
    # cross-multiplying
    w, best, top = [0], 1, 0
    for t in range(1, n + 1):
        w.append((val[t] - val[0]) * (n + 1) - 1)
        if w[t] * best > top * t:
            best, top = t, w[t]
    lb = n // best * top + w[n % best]
    slack = n * top - best * lb
    live = [t for t in range(1, n + 1) if top * t - best * w[t] <= slack]

    key = [0] * (n + 1)
    for t in live:
        gain = w[t]
        for c in range(t, n + 1):
            if key[c - t] + gain > key[c]:
                key[c] = key[c - t] + gain

    # some live t <= c always matches, and live ascends, so no t > c is tried
    hits, c = [], n
    while c:
        t = next(t for t in live if key[c - t] + w[t] == key[c])
        hits.append(t)
        c -= t
    zeros = n - len(hits)
    pairs = tuple((s_for[t], t) for t in hits) + ((s_for[0], 0),) * zeros
    value = sum(val[t] for t in hits) + zeros * val[0]
    return Fraction(value, q * scale), VertexConfig(pairs)


def oracle_p_nn(n: int) -> tuple[Fraction, VertexConfig]:
    """Exact worst-case ratio over configs, with a maximizing config.

    Exact Dinkelbach iteration (`core.dinkelbach`) over `_oracle_dp`,
    which starts at the ratio one step from the all-full ratio 1 over the
    two closed-form blocks near sqrt(n) (`core._start_blocks`). Each
    block, read as per-agent (support size, hits) pairs, is a config, so
    the start is attainable and at most the optimum; for n <= 150 it is
    the optimum, and one DP step certifies it.

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
    push the optimum strictly above the claim. No floor exceeds n, so the
    full-support agents, last in pair order, share one all-ones column: on a
    2-core x86 box the n = 6 000 optimum rebuilds and certifies in 0.1 s and
    37 MiB, where a column each took 20 s and 3 GB.
    """
    _check_n(n)
    if not isinstance(cfg, VertexConfig):
        raise ValueError(f"cfg must be a VertexConfig, got {cfg!r}")
    pairs = cfg.pairs
    if len(pairs) != n:
        raise ValueError(f"config has {len(pairs)} agents, expected {n}")
    sizes = [s for s, _ in pairs]

    order = sorted(range(n), key=lambda j: (-sizes[j], j))
    takers = [j for j in order if pairs[j][1] >= 1]
    pool = [j for j in order if pairs[j][1] == 0]
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
    for j in range(n - sizes.count(n)):
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
    return UtilityMatrix.from_weights(columns + [(1,) * n] * (n - len(columns)))


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


def _block_words(n: int) -> int:
    """Words per refill block. A word gives a value with probability 17/32,
    so 32 n^2 words hold about 17 draws of n^2 values. The block is capped
    at 2^16 words (256 KiB), so that at large n it stays near one draw, but
    it never falls below 2 n^2 words, which hold about one draw."""
    return max(2 * n * n, min(32 * n * n, 1 << 16))


def _hall_windows(values: bytes, n: int) -> tuple[bytes, bytes]:
    """Two bytes per whole column of n values (each below 128): the column's
    maximum, and 1 when the n columns from it on have a maximum at every
    item, else 0. That is Hall's condition on the set of all agents for a
    draw that starts at the column, so a draw failing it has no perfect
    matching on its column maxima.

    Item i's values across the columns are the bytes values[i::n], read as
    one integer with a byte lane per column, and all lanes are compared at
    once: (a | 0x80) - b has bit 7 of a lane set exactly when a >= b, and no
    lane borrows from the next, since every value is below 128. This gives
    the lane-wise maximum, then the lanes where item i attains it; shifts by
    doubling widths then OR each lane with the n - 1 lanes above it.
    """
    cols = len(values) // n
    lanes = partial(int.from_bytes, byteorder="little")
    high, ones = lanes(b"\x80" * cols), lanes(b"\x01" * cols)

    def at_least(a: int, b: int) -> int:  # 1 in each lane where a >= b, else 0
        return (((a | high) - b) >> 7) & ones

    items = [lanes(values[i : cols * n : n]) for i in range(n)]
    top = items[0]
    for v in items[1:]:
        top ^= (v ^ top) & at_least(v, top) * 255
    width = 1 << (n.bit_length() - 1)  # the largest power of 2 up to n
    covered = ones
    for v in items:
        hit = at_least(v, top)
        step = 1
        while step < width:
            hit |= hit >> (8 * step)
            step *= 2
        covered &= hit | hit >> (8 * (n - width))
    return top.to_bytes(cols, "little"), covered.to_bytes(cols, "little")


def _first_matched_draw(getrandbits, n: int, limit: int) -> tuple[Optional[list[bytes]], int]:
    """The columns of the first of at most `limit` draws of the randrange(17)
    stream whose column maxima admit a perfect matching, or None, and the
    number of draws taken. A draw takes n columns of n values and ends early
    at its first all-zero column. Every whole draw a refill block holds is
    tested on the block's `_hall_windows`; the few that pass go through
    `_hopcroft_karp` on their raw argmax lists."""
    words = _block_words(n)
    buf, drawn = b"", 0
    while drawn < limit:
        buf += _randrange17_block(getrandbits, words)
        tops, covered = _hall_windows(buf, n)
        start = 0  # the first column of the draw
        while start + n <= len(tops) and drawn < limit:
            drawn += 1
            zero = tops.find(0, start, start + n)
            if zero >= 0:
                start = zero + 1
                continue
            if covered[start]:
                cols = [buf[i : i + n] for i in range(start * n, (start + n) * n, n)]
                argmax = [[i for i, v in enumerate(col) if v == top]
                          for col, top in zip(cols, tops[start : start + n])]
                if -1 not in _hopcroft_karp(argmax, n):
                    return cols, drawn
            start += n
        buf = buf[start * n :]
    return None, drawn


def fuzz_instances(n: int, count: int, seed: int) -> Iterator[UtilityMatrix]:
    """Deterministic stream of valid m = n matrices admitting envy-free
    allocations: integer weights in 0..16 normalized per column, rejection
    sampling against an aggregate budget of _ATTEMPTS * count draws shared
    by the whole stream. Every raw draw counts against the budget.

    The fraction of draws admitting an envy-free matching shrinks with n
    (unique column maxima alone give roughly n!/n^n), so a fixed cap per
    instance would fail at moderate n even though the stream as a whole
    needs far fewer than 100 draws per emitted instance on average.
    Instance idx always draws from Random(f"fuzz:{seed}:{idx}"), so the
    emitted matrices do not depend on the budget.

    A draw takes n columns of n weights, each weight rng.randrange(17), and
    stops early at its first all-zero column, which rejects it. An m = n
    allocation is envy-free exactly when it matches every agent to an item
    at its column maximum (`envy_free_matching`), and normalizing scales
    each column by a positive factor, which keeps its argmax. So draws are
    tested on their raw weights (`_first_matched_draw`), a refill block at
    a time, and only the draw that is emitted becomes a matrix: one
    `from_weights` and one `envy_free_matching` per emitted instance. Should
    that matching disagree with the raw one, FuzzCheckFailed is raised.

    The weights are drawn a block of `_block_words(n)` words at a time
    (`_randrange17_block`): randrange(17) is getrandbits(5), the top 5
    bits of one 32-bit word, drawn again while >= 17, and getrandbits(32 *
    k) returns k words with the first in the lowest bits. So the values are
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
    for idx in range(count):
        getrandbits = random.Random(f"fuzz:{seed}:{idx}").getrandbits
        cols, drawn = _first_matched_draw(getrandbits, n, budget - used)
        used += drawn
        if cols is None:
            raise RejectionCapExceeded(idx, budget)
        x = UtilityMatrix.from_weights(cols)
        if envy_free_matching(x) is None:
            raise FuzzCheckFailed(idx)
        yield x
