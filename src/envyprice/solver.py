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
size j+1 for a range of y, full support on the rest. Within a block the
objective is concave and piecewise linear in y with one break at
y = R/(j+1), R being the items the j-columns leave, so the least
maximizing y follows from alpha in closed form: an end of the range or
one of the two integers around the break. The blocks are walked in
increasing lexicographic s, so the walk order alone breaks ties toward
the least s. The scan scores one y per block and stops each size j at
x = floor(n/j), the sum of floor(n/j) over j < n blocks per step (481 at
n = 100): past ceil(n/j) the j-columns hold all n items, so a further
j-column only adds to the denominator, and the block at ceil(n/j) is
beaten by one with a column fewer or a column one size smaller. It
returns exactly what scoring the whole family would (see
`_scan_restricted`).

The ratio itself is found by exact Dinkelbach iteration (`core.dinkelbach`).
It starts at the best ratio of the paper's square-root construction and
the two-size blocks with least size floor(sqrt n) or one more, each a
feasible (s, r), so attainable and at most p. That start is p itself at
every n checked, so one solve usually certifies it. The search finishes
with a zero-objective solve at p and so returns the lexicographically
least witness attaining it.

All arithmetic is exact. Internally a candidate is scored with integers:
with M = lcm(1..n) and alpha = p/q, the objective sign of a candidate is the
sign of q*(M*sum r_i/i) - p*(M*sum s_i/i), both factors integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional, Sequence

from .core import (
    _check_n,
    _check_rational,
    _is_int,
    _read_json,
    _write_json,
    dinkelbach,
    format_rational,
    parse_rational,
)
from .structure import InvalidWitness, _check_witness_vectors

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


@dataclass(frozen=True)
class StructuredWitness:
    """Feasible (s, r) pair of the compact program with its exact ratio."""

    s: tuple[int, ...]
    r: tuple[int, ...]
    ratio: Fraction

    def __post_init__(self) -> None:
        n = len(self.s)
        _check_witness_vectors(self.s, self.r, n)
        ratio = _witness_ratio(self.s, self.r)
        if self.ratio != ratio:
            raise InvalidWitness(
                f"ratio {self.ratio} does not equal (sum r_i/i)/(sum s_i/i) = {ratio}"
            )


def _restricted_blocks(n: int) -> Iterator[tuple[int, int, int]]:
    """Blocks (j, x, y_hi) of the restricted family, keyed by least size.

    A block's vectors have x >= 1 columns of support j, y columns of
    support j+1 for each y in 0..y_hi, and full support on the other
    n - x - y columns; with the all-full vector these are the whole
    family, each vector once. Size j+1 = n is full support itself, so
    there y_hi = 0. The columns below full support hold at most 2n items:
    past that, dropping some of them keeps the filled numerator and
    shrinks the denominator, so no optimum is lost. Blocks come with j
    falling and x rising, so the walk, with y rising inside a block, is in
    increasing lexicographic s after the all-full vector, the least s.
    """
    cap = 2 * n
    for j in range(n - 1, 0, -1):
        for x in range(1, min(n, cap // j) + 1):
            y_hi = min(n - x, (cap - j * x) // (j + 1)) if j + 1 < n else 0
            yield j, x, y_hi


def _block_s(n: int, j: int, x: int, y: int) -> tuple[int, ...]:
    """Dense s of x columns of size j, y of size j+1 and the rest full;
    x = 0 with j = n-1 gives the all-full vector."""
    s = [0] * n
    s[j - 1] = x
    s[j] += y
    s[-1] += n - x - y
    return tuple(s)


def lemma4_candidates(n: int) -> Iterator[tuple[int, ...]]:
    """The restricted s-vectors as full tuples, each summing to n, in
    increasing order."""
    _check_n(n)
    if n < 2:
        raise ValueError("the restricted family needs n >= 2")
    yield _block_s(n, n - 1, 0, 0)
    for j, x, y_hi in _restricted_blocks(n):
        for y in range(y_hi + 1):
            yield _block_s(n, j, x, y)


def _greedy_fill(s: Sequence[int], n: int) -> tuple[int, ...]:
    """Optimal r for fixed s: budget n poured into the smallest indices."""
    r = [0] * len(s)
    budget = n
    for idx, si in enumerate(s):
        if budget == 0:
            break
        if si:
            take = min(budget, (idx + 1) * si)
            r[idx] = take
            budget -= take
    return tuple(r)


def _scan_restricted(
    n: int, p: int, q: int, wgt: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Best (key, s) over the restricted family, scoring one y per block.

    Within a block (j, x) only y varies. With k = j+1 and x <= n/j (see
    below), the greedy fill puts F = j*x items into the j-columns,
    min(R, k*y) of the R = n - F left into the k-columns and the rest into
    the full ones, so with W(i) = lcm(1..n)/i the integer key q*f - p*g
    is the all-full vector's key W(n)*(q - p)*n plus

        (W(j) - W(n)) * (q*F - p*x) + (W(k) - W(n)) * (q*min(R, k*y) - p*y),

    and W(j) > W(k) >= W(n). That is concave and piecewise linear in y:
    slope q*k - p up to y = R/k, slope -p after it. With lo = floor(R/k)
    its least integer maximizer is 0 where nothing rises (q*k <= p) and
    otherwise lo or lo + 1, whichever scores higher: the step from lo to
    lo + 1 gains q*(R - k*lo) - p, so lo wins ties and always wins where
    k divides R. Both lie in the block's range 0..y_hi (see
    `_restricted_blocks`): where the step gains, R > k*lo, so
    k*(lo + 1) <= R + k <= 2n - F and lo + 1 <= n - x.

    x stops at floor(n/j); no block past it is a strict maximum. From
    c = ceil(n/j) on the j-columns hold all n items, so R = 0, y = 0 and
    the key, const - p*(W(j) - W(n))*x, falls with x, or stays flat at
    alpha = 0. Where j does not divide n, block (j, c) holds
    e = n - j*(c-1) < j items in its last j-column. If q*e <= p, block
    (j, c-1) with y = 0, walked before it, scores no less: the column is
    full support instead. Otherwise block (j-1, 1) with y = c-1, walked
    after it, scores (W(j-1) - W(j))*(q*(j-1) - p) > 0 more: one
    j-column is one size smaller.

    The walk starts at the all-full vector and meets the family in
    increasing lexicographic s, so keeping the first strict maximum
    breaks ties toward the least s, as scoring every vector of the family
    would. It scores 481 blocks at n = 100, of the 896 blocks and 14 948
    vectors in the family. Keys are kept relative to the all-full vector,
    whose key is added back on return.
    """
    w_n = wgt[n]
    best_key = 0
    best_block = (n - 1, 0, 0)
    for j in range(n - 1, 0, -1):
        k = j + 1
        u = wgt[j] - w_n
        d = wgt[k] - w_n
        rises = k < n and q * k > p
        for x in range(1, n // j + 1):
            filled = j * x
            key = u * (q * filled - p * x)
            y = 0
            if rises:
                rest = n - filled
                y = rest // k
                t = k * y
                if q * (rest - t) > p:
                    y += 1
                    t = rest
                key += d * (q * t - p * y)
            if key > best_key:
                best_key, best_block = key, (j, x, y)
    return best_key + w_n * (q - p) * n, _block_s(n, *best_block)


def _scan_full(
    n: int, p: int, q: int, wgt: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Best (key, s) over all compositions of n into n parts, by a DP.

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
    in turn, which is the lexicographically least optimal s. O(n^2) per
    call, with no size limit.
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
    s = [0] * n
    f = 0
    for i in range(1, n):
        marks = take[i]
        while marks[f]:
            s[i - 1] += 1
            f += min(i, n - f)
    s[n - 1] = n - sum(s)
    return best[0] + w_n * (q - p) * n, tuple(s)


def _witness_ratio(s: Sequence[int], r: Sequence[int]) -> Fraction:
    """(sum r_i/i) / (sum s_i/i) over the lcm of the sizes i with s_i > 0,
    which also holds every i with r_i > 0, since r_i <= i*s_i."""
    sizes = [i for i, si in enumerate(s, 1) if si]
    scale = math.lcm(*sizes)
    num = sum(r[i - 1] * (scale // i) for i in sizes)
    den = sum(s[i - 1] * (scale // i) for i in sizes)
    return Fraction(num, den)


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
    m = math.lcm(*range(1, n + 1))
    wgt = [0] + [m // i for i in range(1, n + 1)]
    scan = _scan_full if options.search is Search.FULL_ENUMERATION else _scan_restricted
    best_key, best_s = scan(n, p, q, wgt)

    r = _greedy_fill(best_s, n)
    # the ratio on the scan's weights W(i) = m/i; StructuredWitness checks
    # it against `_witness_ratio`, computed on another scale
    ratio = Fraction(sum(map(mul, r, wgt[1:])), sum(map(mul, best_s, wgt[1:])))
    witness = StructuredWitness(best_s, r, ratio)
    return Fraction(best_key, q * m), witness


def solve_p_nn(n: int, options: Optional[SolveOptions] = None) -> StructuredWitness:
    """Exact p(n) with a maximizing witness.

    Exact Dinkelbach iteration (`core.dinkelbach`) over `solve_alpha`,
    which starts at the best attainable ratio of the square-root
    construction and the two-size blocks near sqrt(n): one step for
    n <= 300. The last step runs at alpha = p(n), and its witness is the
    lexicographically least one attaining p(n).
    """
    return dinkelbach(n, lambda alpha: solve_alpha(n, alpha, options))[1]


def witness_to_dict(w: StructuredWitness) -> dict:
    return {
        "n": len(w.s),
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
    return StructuredWitness(tuple(s), tuple(r), ratio)


def read_witness(path: str) -> StructuredWitness:
    return witness_from_dict(_read_json(path, InvalidWitness, "witness file"))


def write_witness(w: StructuredWitness, path: str) -> None:
    _write_json(witness_to_dict(w), path)
