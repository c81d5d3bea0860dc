"""Exact worst-case ratio p(n) for n agents and n items.

The search space is the compact program over support-size histograms: s_i
counts columns that are uniform on i items, r_i counts optimally-assigned
items inside those columns, and

    p(n) = max (sum r_i/i) / (sum s_i/i)
    subject to sum s_i = n, sum r_i = n, 0 <= r_i <= i*s_i.

For a fixed s the best r is forced: fill the budget of n items into the
smallest supported indices first (a unit at index i is worth 1/i). That
collapses the search to s alone. Two outer searches are provided: the
restricted family whose sub-n support is two consecutive sizes {j, j+1}
(plus full-support columns), which contains an optimum, and an exact DP
over all compositions that does not assume that structure and
cross-checks it (see `_scan_full`). The DP runs over the items filled
alone, O(n^2) big-integer steps per call, with no size limit.

The restricted family has O(n^2) vectors: the all-full vector and blocks
(j, x) keyed by the least size j, with x >= 1 columns of size j, y of
size j+1 for a range of y, full support on the rest. `_scan_restricted`
scores each block's best y, stops each size j at x = floor(n/j) and walks
only the sizes a per-item bound leaves live: 23 blocks at n = 100, where
the whole range has 481. It returns what scoring the whole family would.

The ratio itself is found by exact Dinkelbach iteration (`core.dinkelbach`).
It starts one step from the all-full ratio 1 over the two blocks of
`core._start_blocks`, each a feasible (s, r), so at most p; it is p at
every n checked, so one solve usually certifies it. The search ends with
a zero-objective solve at p: its witness is the lexicographically least.

All arithmetic is exact. Restricted blocks are scored on small integers,
on the scale j*(j+1)*n (`core._block_score`); the full DP scales its keys
by lcm(1..n). A witness is kept as its support, never as length-n vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    _best_block,
    _check_n,
    _check_rational,
    _is_int,
    _read_json,
    _start_blocks,
    _write_json,
    dinkelbach,
    format_rational,
    parse_rational,
)
from .structure import InvalidWitness, _check_support, _support

__all__ = [
    "Search",
    "SolveOptions",
    "StructuredWitness",
    "KNOWN_RATIOS",
    "lemma4_candidates",
    "solve_alpha",
    "solve_p_nn",
    "witness_to_dict",
    "witness_from_dict",
    "read_witness",
    "write_witness",
]

# Reference values for small n, used by the verify command and regression
# tests: p(1)..p(9).
KNOWN_RATIOS = {
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


class Search(Enum):
    LEMMA4_RESTRICTED = "lemma4"
    FULL_ENUMERATION = "full"


@dataclass(frozen=True)
class SolveOptions:
    search: Search = Search.LEMMA4_RESTRICTED

    def __post_init__(self) -> None:
        if type(self.search) is not Search:
            raise ValueError(f"search must be a Search, got {self.search!r}")


@dataclass(frozen=True, init=False)
class StructuredWitness:
    """Feasible (s, r) of the compact program and its exact ratio, kept as its support,
    the (i, s_i, r_i) with s_i > 0 in rising i; dense ``s`` and ``r`` are built on read."""

    n: int
    support: tuple[tuple[int, int, int], ...]
    ratio: Fraction

    def __init__(self, s: Sequence[int], r: Sequence[int], ratio: Fraction) -> None:
        self._init_support(len(s), _support(s, r, len(s)), ratio)

    def _init_support(self, n: int, support: tuple, ratio: Fraction) -> StructuredWitness:
        if ratio != (found := _check_support(n, support)):
            raise InvalidWitness(f"ratio {ratio} does not equal (sum r_i/i)/(sum s_i/i) = {found}")
        self.__dict__.update(n=n, support=support, ratio=ratio)
        return self

    s = cached_property(lambda self: _dense(self.n, self.support, 1))
    r = cached_property(lambda self: _dense(self.n, self.support, 2))


def _dense(n: int, entries: Iterable[Sequence[int]], k: int) -> tuple[int, ...]:
    """Length-n vector holding at i the sum of e[k] over the entries e with e[0] = i."""
    v = [0] * n
    for e in entries:
        v[e[0] - 1] += e[k]
    return tuple(v)


def lemma4_candidates(n: int) -> Iterator[tuple[int, ...]]:
    """The restricted s-vectors as full tuples, each summing to n, in
    increasing order: the all-full vector, the least s, then blocks (j, x)
    with j falling and x rising. Block (j, x) has x >= 1 columns of size j,
    y of size j+1 for y rising over 0..y_hi, and full support on the other
    n - x - y columns; each vector comes once. Size j+1 = n is full support
    itself, so there y_hi = 0. The columns below full support hold at most
    2n items: past that, dropping some of them keeps the filled numerator
    and shrinks the denominator, so no optimum is lost."""
    _check_n(n)
    if n < 2:
        raise ValueError("the restricted family needs n >= 2")
    yield _dense(n, [(n, n)], 1)
    for j in range(n - 1, 0, -1):
        for x in range(1, min(n, 2 * n // j) + 1):
            y_hi = min(n - x, (2 * n - j * x) // (j + 1)) if j + 1 < n else 0
            for y in range(y_hi + 1):
                yield _dense(n, [(j, x), (j + 1, y), (n, n - x - y)], 1)


def _scan_restricted(n: int, p: int, q: int) -> tuple[Fraction, tuple, Fraction]:
    """Best (objective, support, ratio) over the restricted family at alpha = p/q.

    Against the all-full vector (objective 1 - alpha) a column of size
    i < n holding c <= i items adds (c - alpha)(n - i)/(n*i). In block
    (j, x), with k = j + 1, x <= n/j and R = n - j*x, the fill puts j items
    in each j-column, k in each of the first lo = floor(R/k) k-columns,
    e = R - k*lo in the next and none after. So for k < n the objective is
    concave in y, and its least maximizer is 0 if q*k <= p, else lo, plus
    one if q*e > p. Both lie in the range 0..y_hi of `lemma4_candidates`:
    where the step gains, e > 0, so k*(lo+1) <= 2n - j*x and lo+1 <= n - x.

    x stops at floor(n/j): no block past it is a strict maximum. From
    c = ceil(n/j) on, a further j-column is empty and adds
    -alpha*(n - j)/(n*j) <= 0. Where j does not divide n, block (j, c) holds
    e = n - j*(c-1) < j items in its last j-column. If q*e <= p, block
    (j, c-1) with y = 0, walked before it, scores no less; otherwise block
    (j-1, 1) with y = c-1, walked after it, scores
    (j - 1 - alpha)/(j*(j - 1)) > 0 more.

    Only live sizes are walked. As c <= i and alpha >= 0, a column adds at
    most c*h(i), h(i) = (n - i)(i - alpha)/(n*i^2), and a block's non-full
    columns hold C <= n items. Let LB >= 0 be the most that the all-full
    vector (0) and the blocks of `core._start_blocks(n)` add; i is live
    when n*h(i) >= LB. A block with neither j nor k live adds less than LB:
    below C*LB/n <= LB for C > 0; for C = 0 at most -alpha*x*(n - j)/(n*j)
    <= 0, below LB unless LB = alpha = 0, where h(j) > 0. With z = 1/i,
    n*h(i) = (n*z - 1)(1 - alpha*z) is concave in z, so the live sizes are
    an interval [a, b] holding the integer maximizer of h, the floor or
    ceil of 2*n*alpha/(n + alpha) clamped to 1..n. It is never empty:
    LB > 0 makes its block's j or k live, LB = 0 makes n live. The walk
    covers j = min(b, n-1) down to max(1, a-1).

    `core._block_score` gives q*num - p*den, the objective times q*j*k*n,
    compared across blocks by cross-multiplying with j*k, and t for r. The
    walk starts at the all-full vector and meets the family in increasing
    lexicographic s, so its first strict maximum has the least s. Its support
    keeps the entries with s_i > 0; y = 0 where k = n, so k never repeats n.
    """
    v, w = _best_block(n, p, q, _start_blocks(n))[:2]
    # gap = LB*q*n*w; i is live when (n - i)(q*i - p)/i^2 >= LB*q
    gap = v - (q - p) * n * w

    def live(i: int) -> bool:
        return (n - i) * (q * i - p) * n * w >= gap * i * i

    a = b = min(n, max(1, 2 * n * p // (n * q + p)))
    if not live(a):
        a = b = min(n, a + 1)
    while b < n and live(b + 1):
        b += 1
    while a > 1 and live(a - 1):
        a -= 1
    walk = ((j, x) for j in range(min(b, n - 1), max(1, a - 1) - 1, -1)
            for x in range(1, n // j + 1))
    v, w, (j, x, y, t), num, den = _best_block(n, p, q, walk)
    block = ((j, x, j * x), (j + 1, y, t), (n, n - x - y, n - j * x - t))
    return Fraction(v, q * n * w), tuple(e for e in block if e[1]), Fraction(num, den)


def _scan_full(n: int, p: int, q: int, wgt: Sequence[int]) -> tuple[int, tuple, Fraction]:
    """Best (key, support, ratio) over all compositions of n into n parts, by a DP.

    Columns go in smallest size first, so the greedy fill is a running
    count f of filled items: one more column of size i holds
    t = min(i, n - f) of them. Keys are kept relative to the all-full
    vector, as in `_scan_restricted`: after c columns holding f items the
    columns left full add W(n)*(q*(n - f) - p*(n - c)), so a column of
    size i < n adds (W(i) - W(n))*(q*t - p) and the column count c drops
    out. With best[f] the most that sizes i..n-1 add from f items filled
    (0 at size n),

        best[f] = max(best_{i+1}[f], (W(i) - W(n))*(q*t - p) + best_i[f+t]),

    filled in place for f = n down to 0. At f = n a column adds
    -(W(i) - W(n))*p <= 0 and is never taken, so every taken column fills
    an item. take[i] marks where another column of size i is strictly
    better; following it from f = 0 takes the fewest columns of each size
    in turn, which is the lexicographically least optimal s, and the t
    of each column taken is its r; the ratio is sum W(i)*r_i / sum W(i)*s_i.
    O(n^2) per call, with no size limit.
    """
    w_n = wgt[n]
    best = [0] * (n + 1)
    take = [bytearray()] * n
    for i in range(n - 1, 0, -1):
        u = wgt[i] - w_n
        marks = take[i] = bytearray(n + 1)
        for f in range(n, -1, -1):
            t = min(i, n - f)
            key = u * (q * t - p) + best[f + t]
            if key > best[f]:
                best[f] = key
                marks[f] = 1
    entries, c, f = [], 0, 0
    for i in range(1, n):
        c0, f0 = c, f
        while take[i][f]:
            c, f = c + 1, f + min(i, n - f)
        entries.append((i, c - c0, f - f0))
    support = tuple(e for e in entries + [(n, n - c, n - f)] if e[1])
    ratio = Fraction(sum(wgt[i] * ri for i, _, ri in support), sum(wgt[i] * si for i, si, _ in support))
    return best[0] + w_n * (q - p) * n, support, ratio


def solve_alpha(
    n: int, alpha: Fraction, options: Optional[SolveOptions] = None
) -> tuple[Fraction, StructuredWitness]:
    """Exact maximum of sum r_i/i - alpha * sum s_i/i with its witness.

    The witness is the maximizing (s, r) pair, ties broken toward the
    lexicographically smallest s; its ratio field is the witness's own
    ratio, not alpha. A nonnegative maximum certifies p(n) >= alpha.
    """
    _check_n(n)
    alpha = _check_rational(alpha, "alpha")
    if options is None:
        options = SolveOptions()
    elif not isinstance(options, SolveOptions):
        raise ValueError(f"options must be a SolveOptions, got {options!r}")

    p, q = alpha.numerator, alpha.denominator
    if options.search is Search.FULL_ENUMERATION:
        m = math.lcm(*range(1, n + 1))
        key, support, ratio = _scan_full(n, p, q, [0] + [m // i for i in range(1, n + 1)])
        objective = Fraction(key, q * m)
    else:
        objective, support, ratio = _scan_restricted(n, p, q)
    # the constructor's checks, on the support, with the ratio recomputed over its lcm
    return objective, StructuredWitness.__new__(StructuredWitness)._init_support(n, support, ratio)


def solve_p_nn(n: int, options: Optional[SolveOptions] = None) -> StructuredWitness:
    """Exact p(n) with a maximizing witness.

    Exact Dinkelbach iteration (`core.dinkelbach`) over `solve_alpha`,
    which starts at the ratio one step from 1 over the two closed-form
    blocks near sqrt(n): one step at every n checked (all n <= 5000 and a
    sample to 10^6). The last step runs at alpha = p(n), and its witness is
    the lexicographically least one attaining p(n).
    """
    return dinkelbach(n, lambda alpha: solve_alpha(n, alpha, options))[1]


def witness_to_dict(w: StructuredWitness) -> dict:
    return {
        "n": w.n,
        "s": list(w.s),
        "r": list(w.r),
        "ratio": format_rational(w.ratio),
    }


def witness_from_dict(payload: dict) -> StructuredWitness:
    if not isinstance(payload, dict):
        raise InvalidWitness("witness file: expected a JSON object")
    for key in ("n", "s", "r", "ratio"):
        if key not in payload:
            raise InvalidWitness(f"witness file: missing key {key!r}")
    n = payload["n"]
    s, r = payload["s"], payload["r"]
    if not _is_int(n) or not isinstance(s, list) or not isinstance(r, list):
        raise InvalidWitness("witness file: n must be an int, s and r lists")
    if len(s) != n or len(r) != n:
        raise InvalidWitness(f"witness file: s and r must have {n} entries")
    try:
        ratio = parse_rational(payload["ratio"])
    except ValueError as err:
        raise InvalidWitness(f"witness file: {err}") from None
    return StructuredWitness(s, r, ratio)


def read_witness(path: str) -> StructuredWitness:
    return witness_from_dict(_read_json(path, InvalidWitness, "witness file"))


def write_witness(w: StructuredWitness, path: str) -> None:
    _write_json(witness_to_dict(w), path)
