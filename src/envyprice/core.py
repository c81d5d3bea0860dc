"""Exact welfare arithmetic for allocating m indivisible items to n agents.

Utilities are additive and normalized: entry x[i][j] is the value agent j
assigns to item i, every agent's column sums to exactly 1, and all entries are
nonnegative rationals. Everything here is exact: no floats, bools or decimals
are produced, and only values of type exactly int or Fraction are accepted.

The module provides the instance type (:class:`UtilityMatrix`), welfare of an
allocation, the welfare optimum, envy-freeness checks, the optimal envy-free
welfare (via bipartite matching when m = n, via an exact branch and bound
otherwise), and the per-instance price ratio u*(x) / u*_f(x).

>>> x = UtilityMatrix.from_strings([["1/2", "1/2", "0"],
...                                 ["1/3", "1/3", "1/3"],
...                                 ["1/3", "1/3", "1/3"]])
>>> price_ratio(x).ratio
Fraction(8, 7)
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import add, gt
from typing import Any, Callable, Iterable, Optional, Sequence, Union

__all__ = [
    "Fraction",
    "Allocation",
    "UtilityMatrix",
    "WelfareReport",
    "NegativeUtility",
    "ColumnNotNormalized",
    "DimensionMismatch",
    "SearchSpaceTooLarge",
    "RatioSearchFailed",
    "construction_ratio",
    "dinkelbach",
    "parse_rational",
    "format_rational",
    "allocation_welfare",
    "optimal_welfare",
    "is_envy_free",
    "envy_free_matching",
    "envy_free_optimal_welfare",
    "envy_free_optimal_exhaustive",
    "price_ratio",
    "read_instance",
    "write_instance",
    "instance_from_dict",
    "instance_to_dict",
]

# An allocation maps each item index to the 0-based index of its owner.
Allocation = tuple[int, ...]

EXHAUSTIVE_CAP = 10_000_000

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class NegativeUtility(ValueError):
    """Some utility entry is negative. Positions are reported 1-based."""

    def __init__(self, item: int, agent: int, value: Fraction):
        self.item = item
        self.agent = agent
        self.value = value
        super().__init__(f"NegativeUtility({item}, {agent})")


class ColumnNotNormalized(ValueError):
    """An agent's utilities do not sum to 1. The column is reported 1-based."""

    def __init__(self, column: int, total: Fraction):
        self.column = column
        self.total = total
        super().__init__(f"ColumnNotNormalized({column}, {total})")


class DimensionMismatch(ValueError):
    def __init__(self, m: int, n: int, need: str):
        self.m = m
        self.n = n
        super().__init__(f"DimensionMismatch: m={m}, n={n}, need {need}")


class SearchSpaceTooLarge(ValueError):
    """n^m allocations exceed cap. The count is printed in decimal, or as
    "n^m" when it has too many digits for Python to print."""

    def __init__(self, n: int, m: int, cap: int):
        self.n = n
        self.m = m
        self.cap = cap
        size = f"{n}^{m}"
        # n^m has over m * n.bit_length() / 2 bits, so past this bound it has
        # more digits than Python prints by default (4300) and is not built
        if m * n.bit_length() <= 1 << 16:
            try:
                size = str(n**m)
            except ValueError:  # past the interpreter's int-to-str limit
                pass
        super().__init__(f"SearchSpaceTooLarge: {size} allocations exceed cap {cap}")


def _check_allocation_count(n: int, m: int, cap: int) -> None:
    """Raise SearchSpaceTooLarge when n^m exceeds cap. For n >= 2, n^m > cap
    once m exceeds cap's bit length, so n^m is built only below that."""
    if (n > 1 and m > cap.bit_length()) or n**m > cap:
        raise SearchSpaceTooLarge(n, m, cap)


# Step bound of `dinkelbach`. Each step strictly raises alpha within the
# finite set of attainable ratios, so the bound is only reached through a
# defect.
MAX_RATIO_STEPS = 100_000


class RatioSearchFailed(RuntimeError):
    """The ratio search `dinkelbach`, which the solver and the oracle share,
    broke an invariant that guarantees it terminates: it ran past
    `MAX_RATIO_STEPS` steps, or met a negative objective. That means the
    step's maximum is wrong, or the start is above the optimum, since the
    start `_start_ratio(n)` and each maximizer's ratio are attainable."""

    def __init__(self, n: int, detail: str):
        self.n = n
        super().__init__(f"ratio search for n = {n} failed: {detail}")


def construction_ratio(n: int) -> Fraction:
    """Closed-form price ratio of lower_construction(n): with a = k =
    floor(sqrt n), (a + (n-ak)/n) / (a/k + (n-a)/n)."""
    _check_n(n)
    a = k = math.isqrt(n)
    num = a + Fraction(n - a * k, n)
    den = Fraction(a, k) + Fraction(n - a, n)
    return num / den


def _block_score(n: int, j: int, x: int, y: int) -> tuple[int, int, int]:
    """(num, den, t): (sum r_i/i, sum s_i/i) times j*k*n, k = j + 1, of x
    columns uniform on j items, y on k and the rest on n, x <= n/j, filled
    greedily: j*x items, then t = min(R, k*y) of the R left, then the rest."""
    k = j + 1
    filled = j * x
    t = min(n - filled, k * y)
    num = filled * k * n + t * j * n + (n - filled - t) * j * k
    den = x * k * n + y * j * n + (n - x - y) * j * k
    return num, den, t


def _best_block(n: int, p: int, q: int, blocks: Iterable[tuple[int, int]]) -> tuple:
    """First strict maximum (v, w, (j, x, y, t), num, den) at alpha = p/q of
    the all-full vector and the blocks (j, x) in order, x <= n/j, each at
    its least maximizing y: v/w is the objective times q*n, num/den the ratio."""
    best = ((q - p) * n, 1, (n - 1, 0, 0, 0), 1, 1)
    for j, x in blocks:
        k = j + 1
        rest = n - j * x
        y = rest // k + (q * (rest % k) > p) if k < n and q * k > p else 0
        num, den, t = _block_score(n, j, x, y)
        v = q * num - p * den
        jk = j * k
        if v * best[1] > best[0] * jk:
            best = (v, jk, (j, x, y, t), num, den)
    return best


def _start_blocks(n: int) -> list[tuple[int, int]]:
    """Blocks (j, x) near sqrt(n), where the optimum for m = n sits, for
    j = floor(sqrt n) + 1, then floor(sqrt n), below n: x = c - y columns
    of size j and y = n - j*c of size j+1, c = floor(n/(j+1)) + 1, hold n
    items; x = floor(n/j) where y < 0. Falling j wins ties: 8/7 at n = 3."""
    root = math.isqrt(n)
    blocks = []
    for j in (root + 1, root):
        if j < n:
            c = n // (j + 1) + 1
            y = n - j * c
            blocks.append((j, c - y if y >= 0 else n // j))
    return blocks


def _start_ratio(n: int) -> Fraction:
    """One Dinkelbach step from the all-full ratio 1 over `_start_blocks(n)`.
    Each block is a feasible (s, r) of the histogram program and, read as
    per-agent (support size, hits) pairs, a vertex config of the oracle,
    so the start is at most the optimum of either search."""
    _check_n(n)
    num, den = _best_block(n, 1, 1, _start_blocks(n))[3:]
    return Fraction(num, den)


def dinkelbach(
    n: int, step: Callable[[Fraction], tuple[Fraction, Any]]
) -> tuple[Fraction, Any]:
    """Exact Dinkelbach iteration for the largest attainable ratio num/den.

    ``step(alpha)`` returns the maximum of num - alpha*den over a finite
    candidate set, with a maximizer whose ``ratio`` is its own num/den.
    Starting at alpha = ``_start_ratio(n)``, alpha jumps to that ratio
    until the maximum is zero; each jump strictly raises alpha among the
    attainable ratios, so the search ends. The start is valid because it is
    the ratio of the all-full vector or of one of the two closed-form
    blocks `_start_blocks(n)`, each attainable in both the solver's and the
    oracle's search, so it never exceeds the optimum; were it above, the
    first step would go negative and raise RatioSearchFailed. It equals
    p(n) at every n checked (all n <= 5000 and a sample to 10^6), so the
    first step is usually the certifying one.
    Returns (alpha, maximizer) from the zero-objective step.
    """
    alpha = _start_ratio(n)
    for _ in range(MAX_RATIO_STEPS):
        objective, best = step(alpha)
        if objective == 0:
            return alpha, best
        if objective < 0:
            raise RatioSearchFailed(
                n, f"objective {objective} below zero at ratio {alpha}"
            )
        alpha = best.ratio
    raise RatioSearchFailed(
        n, f"no zero objective within {MAX_RATIO_STEPS} Dinkelbach steps"
    )


def _is_int(value: object) -> bool:
    """True when the type is exactly int: bools (JSON true/false) and other subclasses fail."""
    return type(value) is int


def _all_ints(values: Iterable[object]) -> bool:
    """True when every value's type is exactly int (one pass); False for none."""
    return set(map(type, values)) == {int}


def _check_n(n: object) -> None:
    """Reject an n that is not a positive int (floats and bools included)."""
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")


def _check_rational(value: object, name: str) -> Fraction:
    """value as a Fraction; only nonnegative values of type exactly int or Fraction are
    taken: a float reads as its binary expansion, a bool as 0/1, a subclass may lie."""
    if type(value) not in (int, Fraction):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return Fraction(value)


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse a rational written as "p/q" or "p" (integers only, no decimals)."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render exactly, as "p/q", or "p" when the denominator is 1."""
    return str(value)


@dataclass(frozen=True)
class UtilityMatrix:
    """Normalized additive utilities as exact integers over one common scale.

    ``grid`` is column-major: ``grid[j][i] / scale`` is the value of item i to
    agent j, and every column sums to ``scale``, which the constructor reduces
    to the least common denominator, so equal matrices have equal fields. The
    hot loops run on these integers; ``columns``, the Fraction view, is built
    on first read. A column object that several agents share is checked,
    scaled and reduced once, and ``grid`` repeats the resulting tuple; the
    welfare, the matching and ``columns`` then handle it once as well.

    >>> x = UtilityMatrix.from_weights([[2, 2, 0], [1, 1, 1]])
    >>> x.grid, x.scale, x.entry(0, 0)
    (((3, 3, 0), (2, 2, 2)), 6, Fraction(1, 2))
    """

    grid: tuple[tuple[int, ...], ...]
    scale: int
    # the distinct column objects of grid (see `_distinct`), found while
    # building it, so that later passes find sharing at no cost
    _distinct_columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (grid, distinct), scale = _int_columns(self.grid), self.scale
        if not _is_int(scale) or scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale!r}")
        if min(chain.from_iterable(distinct)) < 0 or set(map(sum, distinct)) != {scale}:
            # some column is bad: walk all agents in order to report the first
            for j, col in enumerate(grid):
                if min(col) < 0:
                    i = next(i for i, v in enumerate(col) if v < 0)
                    raise NegativeUtility(i + 1, j + 1, Fraction(col[i], scale))
                total = sum(col)
                if total != scale:
                    raise ColumnNotNormalized(j + 1, Fraction(total, scale))
        # the gcd of scale and every entry divides the gcd of scale and one
        # nonzero entry per column (each column sums to scale >= 1), which
        # is 1 for most matrices; only above 1 does the full scan run
        common = math.gcd(scale, *[next(filter(None, col)) for col in distinct])
        for col in distinct:
            if common == 1:
                break
            common = math.gcd(common, *col)
        if common > 1:
            grid = _spread(grid, distinct, [tuple([v // common for v in col]) for col in distinct])
            distinct = _distinct(grid)
            scale //= common
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_distinct_columns", distinct)

    @cached_property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as Fractions: ``columns[j][i] = grid[j][i] / scale``.
        Agents sharing a column object in ``grid`` share its Fraction tuple."""
        grid, distinct = self.grid, self._distinct_columns
        value = {v: Fraction(v, self.scale) for v in set(chain.from_iterable(distinct))}
        return _spread(grid, distinct, [tuple(list(map(value.__getitem__, col))) for col in distinct])

    @property
    def n(self) -> int:
        """Number of agents."""
        return len(self.grid)

    @property
    def m(self) -> int:
        """Number of items."""
        return len(self.grid[0])

    def entry(self, item: int, agent: int) -> Fraction:
        return Fraction(self.grid[agent][item], self.scale)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]]) -> "UtilityMatrix":
        """Build from columns that each sum to exactly 1, of Fractions, ints or
        "p/q" strings (`parse_rational`); floats, bools, decimals and subclasses are refused."""
        # ints and Fractions are kept: a Fraction per entry is slow on large matrices.
        cols = [[v if type(v) in (int, Fraction) else _exact(v, i, j) for i, v in enumerate(col)]
                for j, col in enumerate(columns)]
        denominators = {v.denominator for col in cols for v in col}
        scale = math.lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        return cls([tuple([v.numerator * factor[v.denominator] for v in col]) for col in cols], scale)

    @classmethod
    def from_weights(cls, weights: Sequence[Sequence[int]]) -> "UtilityMatrix":
        """Build from nonnegative integer weights, normalizing each column by
        its own total, which must be positive."""
        cols, distinct = _int_columns(weights)
        totals = list(map(sum, distinct))
        scale = math.lcm(*[t for t in totals if t > 0])
        grid = []
        for col, t in zip(distinct, totals):
            # Columns without a positive total pass unscaled; the constructor rejects them.
            if t > 0:
                factor = scale // t
                col = tuple([w * factor for w in col])
            grid.append(col)
        return cls(_spread(cols, distinct, grid), scale)

    from_strings = from_columns


def _exact(v: Any, item: int, agent: int) -> Fraction:
    if isinstance(v, float):
        raise ValueError(f"entry ({item + 1}, {agent + 1}) is a float; use a Fraction")
    return parse_rational(v)


# The tuples of a matrix are built from lists of their exact length: CPython
# builds a tuple from an iterator of unknown length by resizing it, and the
# resized tuples, once freed, pile up in its free lists for small sizes.

def _int_columns(columns: Sequence[Sequence[int]]) -> tuple[tuple, tuple]:
    """The columns as tuples, once they form a nonempty rectangle of ints, and
    the distinct column objects among them (see `_distinct`)."""
    cols = tuple(list(map(tuple, columns)))  # keeps a tuple as is, so a shared one stays shared
    if not cols or not cols[0]:
        raise ValueError("utility matrix needs at least one agent and one item")
    if len(set(map(len, cols))) != 1:
        raise ValueError("all agent columns must have the same length")
    distinct = _distinct(cols)
    if not _all_ints(chain.from_iterable(distinct)):
        raise ValueError("utility matrix entries must be integers")
    return cols, distinct


def _distinct(cols: Sequence) -> Sequence:
    """The distinct objects in cols, in order of their first place: ``cols``
    itself when none is shared, which callers test with ``is``."""
    if len(set(map(id, cols))) == len(cols):
        return cols
    return tuple(dict(zip(map(id, cols), cols)).values())


def _spread(cols: Sequence, distinct: Sequence, new: list) -> tuple:
    """cols with each object replaced by the ``new`` entry at its place in
    ``distinct``: agents sharing a column share its entry."""
    if distinct is cols:
        return tuple(new)
    return tuple(list(map(dict(zip(map(id, distinct), new)).__getitem__, map(id, cols))))


def _check_allocation(x: UtilityMatrix, allocation: Sequence[int]) -> None:
    if len(allocation) != x.m:
        raise ValueError(f"allocation covers {len(allocation)} items, matrix has {x.m}")
    if not _all_ints(allocation):
        raise ValueError("allocation owners must be ints")
    for owner in allocation:
        if not 0 <= owner < x.n:
            raise ValueError(f"allocation owner {owner} out of range 0..{x.n - 1}")


def allocation_welfare(x: UtilityMatrix, allocation: Sequence[int]) -> Fraction:
    """Utilitarian welfare: each item counted at its owner's value for it."""
    _check_allocation(x, allocation)
    total = sum(x.grid[owner][i] for i, owner in enumerate(allocation))
    return Fraction(total, x.scale)


def optimal_welfare(x: UtilityMatrix) -> tuple[Fraction, Allocation]:
    """Welfare optimum over all allocations, with one witnessing allocation.

    Each item independently goes to an agent valuing it most; ties break
    toward the lowest agent index, so the witness is unique and deterministic.
    The maxima are taken over the distinct column objects only.
    """
    grid, distinct = x.grid, x._distinct_columns
    rows = list(zip(*distinct))
    best = list(map(max, rows))
    # tuple.index finds the first distinct column attaining the maximum; they
    # are in order of their first agent, so that agent is the lowest one
    owners = list(map(tuple.index, rows, best))
    if distinct is not grid:
        lowest = dict(zip(map(id, reversed(grid)), range(len(grid) - 1, -1, -1)))
        first = [lowest[id(col)] for col in distinct]
        owners = list(map(first.__getitem__, owners))
    return Fraction(sum(best), x.scale), tuple(owners)


def is_envy_free(x: UtilityMatrix, allocation: Sequence[int]) -> bool:
    """True iff no agent values another agent's bundle above its own."""
    _check_allocation(x, allocation)
    n = x.n
    for j, col in enumerate(x.grid):
        bundles = [0] * n  # bundles[g] = value of g's bundle to agent j
        for v, owner in zip(col, allocation):
            bundles[owner] += v
        if max(bundles) > bundles[j]:
            return False
    return True


def _compat_adjacency(x: UtilityMatrix) -> Sequence[list[int]]:
    """The items attaining each agent's column maximum, one list per agent;
    agents sharing a column object share its list, built once."""
    grid, distinct = x.grid, x._distinct_columns
    lists = []
    for col in distinct:
        best = max(col)
        ties = col.count(best)
        if ties == 1:
            lists.append([col.index(best)])
        elif ties == len(col):
            lists.append(list(range(ties)))
        else:
            lists.append([i for i, v in enumerate(col) if v == best])
    return _spread(grid, distinct, lists)


def _hopcroft_karp(adj: Sequence[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns right-mate per left vertex (-1 if none).

    Deterministic: vertices and adjacency are scanned in index order and no
    sets are used, so identical inputs give identical matchings.

    The first phase is a greedy pass: each left vertex, in order, takes the
    first free item in its list. It is exactly the first BFS and DFS phase,
    which starts with every vertex free. That BFS gives every vertex
    distance 0 and sets no other, since it meets no matched item. The DFS
    from each root then steps only to a matched item's mate at distance 1,
    which none has, so it takes the first free item in the root's list, or
    fails and sets the root's distance to INF. The next BFS resets every
    distance, so the later phases and the matching returned do not change.
    Each list object has one iterator over it as its cursor, shared by the
    vertices holding it (agents holding one column object). During the pass
    an item, once taken, stays taken, so the free part of a list only
    shrinks and the items a cursor has passed need no second look. A list
    held by many vertices then costs its length plus one step per vertex,
    not its length per vertex.
    """
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    edges: list = [None] * n_left  # adjacency iterators of the path vertices

    cursors = dict(zip(map(id, adj), map(iter, adj)))
    for u, items in enumerate(adj):
        for v in cursors[id(items)]:
            if match_r[v] == -1:
                match_r[v] = u
                match_l[u] = v
                break

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    while bfs():
        for root in range(n_left):
            if match_l[root] != -1:
                continue
            # Depth-first search for an augmenting path with an explicit
            # stack, so its length is not bounded by the recursion limit.
            # Each vertex on the path resumes its own adjacency iterator,
            # which keeps the scan order of the recursive form.
            path = [root]
            edges[root] = iter(adj[root])
            while path:
                u = path[-1]
                step = dist[u] + 1
                for v in edges[u]:
                    w = match_r[v]
                    if w == -1:
                        while path:  # flip the path's edges, emptying it
                            left = path.pop()
                            match_r[v] = left
                            match_l[left], v = v, match_l[left]
                        break
                    if dist[w] == step:
                        path.append(w)
                        edges[w] = iter(adj[w])
                        break
                else:
                    dist[u] = INF
                    path.pop()
    return match_l


def envy_free_matching(x: UtilityMatrix) -> Optional[Allocation]:
    """One-item-per-agent envy-free allocation for square instances.

    With m = n an allocation is envy-free exactly when it is a bijection that
    hands every agent an item attaining its column maximum (each agent must
    get value at least 1/n, forcing one item each; a single item beats every
    other bundle only if it beats every other single item). So the search is
    a perfect matching in the compatibility graph agent j ~ item i iff
    x[i][j] = max_i' x[i'][j]. Returns None when no perfect matching exists.
    """
    n = x.n
    if x.m != n:
        raise DimensionMismatch(x.m, n, "a square instance (m = n)")
    match_l = _hopcroft_karp(_compat_adjacency(x), n)
    if -1 in match_l:
        return None
    owners = [-1] * x.m
    for agent, item in enumerate(match_l):
        owners[item] = agent
    return tuple(owners)


def envy_free_optimal_welfare(x: UtilityMatrix) -> Optional[Fraction]:
    """Best envy-free welfare of a square instance, or None if none exists.

    All envy-free allocations of a square instance have the same welfare,
    the sum of the column maxima, because every agent receives an item it
    values at exactly its column maximum: the matched entries sum to it.
    """
    owners = envy_free_matching(x)
    if owners is None:
        return None
    grid = x.grid
    return Fraction(sum(grid[agent][item] for item, agent in enumerate(owners)), x.scale)


def envy_free_optimal_exhaustive(x: UtilityMatrix) -> Optional[tuple[Fraction, Allocation]]:
    """Best envy-free allocation by an exact depth-first branch and bound.

    Independent of the matching path; usable for any m. Items are handed
    out in index order and agents tried in ascending order, so complete
    allocations are reached in lexicographic order of their owner vectors,
    and only a strict improvement replaces the best: ties break toward the
    lexicographically smallest owner vector. A branch is cut when adding
    every remaining item's maximum value cannot lift its welfare above the
    best found, or when some agent already values the bundle just extended
    above its own bundle plus all items still unassigned, an envy that later
    items cannot remove. Raises SearchSpaceTooLarge when n^m exceeds
    EXHAUSTIVE_CAP, whatever the pruning would leave.
    """
    n, m, grid = x.n, x.m, x.grid
    _check_allocation_count(n, m, EXHAUSTIVE_CAP)
    items = list(zip(*grid))  # items[i][j] = agent j's value for item i
    # rest[i][j]: agent j's value for items i..; top[i]: their maxima summed
    rest = [(0,) * n] * (m + 1)
    top = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rest[i] = tuple(map(add, rest[i + 1], items[i]))
        top[i] = top[i + 1] + max(items[i])
    held = [(0,) * n] * n  # held[g][j] = agent j's value for g's bundle
    own = [0] * n  # own[j] = held[j][j]
    owners = [-1] * m  # the path: owner of each item assigned so far
    # prev[i]: held[owners[i]] before item i joined it; it is set before the
    # welfare cut, so taking back an item that was cut there changes nothing
    prev = [held[0]] * m
    base = [0] * (m + 1)  # base[i]: welfare of items 0..i-1 on the path
    best_welfare = -1
    best_alloc: Optional[Allocation] = None
    i = 0
    while i >= 0:
        g = owners[i]
        if g >= 0:  # take item i back from its owner
            held[g] = prev[i]
            own[g] = prev[i][g]
        g += 1
        if g == n:
            owners[i] = -1
            i -= 1
            continue
        owners[i] = g
        item = items[i]
        welfare = base[i] + item[g]
        prev[i] = before = held[g]
        if welfare + top[i + 1] <= best_welfare:
            continue
        held[g] = after = tuple(map(add, before, item))
        own[g] = after[g]
        if any(map(gt, after, map(add, own, rest[i + 1]))):
            continue
        if i + 1 < m:
            base[i + 1] = welfare
            i += 1
        elif not any(any(map(gt, row, own)) for row in held):
            best_welfare = welfare
            best_alloc = tuple(owners)
    if best_alloc is None:
        return None
    return Fraction(best_welfare, x.scale), best_alloc


@dataclass(frozen=True)
class WelfareReport:
    """Welfare optimum, envy-free optimum (if any), and their ratio."""

    optimal: Fraction
    envy_free_optimal: Optional[Fraction]
    ratio: Optional[Fraction]

    def __post_init__(self) -> None:
        if self.envy_free_optimal is not None:
            if not (self.optimal >= self.envy_free_optimal >= 1):
                raise ValueError(
                    f"inconsistent report: optimal={self.optimal}, "
                    f"envy-free optimal={self.envy_free_optimal}"
                )
            if self.ratio != self.optimal / self.envy_free_optimal:
                raise ValueError("ratio does not match the reported welfares")


def price_ratio(x: UtilityMatrix) -> WelfareReport:
    """Per-instance price of envy-freeness u*(x) / u*_f(x).

    Square instances go through the matching characterization. For all
    others SearchSpaceTooLarge is raised when n^m exceeds EXHAUSTIVE_CAP;
    below it, an envy-free welfare-optimal allocation (the one
    `optimal_welfare` returns) certifies u*_f = u* and ratio 1 at once, and
    otherwise the exact branch and bound of `envy_free_optimal_exhaustive`
    finds u*_f. The ratio is absent exactly when the instance admits no
    envy-free allocation.

    >>> u = UtilityMatrix.from_strings([["1/2", "1/2"], ["1/2", "1/2"]])
    >>> price_ratio(u)
    WelfareReport(optimal=Fraction(1, 1), envy_free_optimal=Fraction(1, 1), ratio=Fraction(1, 1))
    """
    opt, owners = optimal_welfare(x)
    if x.m == x.n:
        fair = envy_free_optimal_welfare(x)
    else:
        _check_allocation_count(x.n, x.m, EXHAUSTIVE_CAP)
        if is_envy_free(x, owners):
            fair = opt
        else:
            found = envy_free_optimal_exhaustive(x)
            fair = None if found is None else found[0]
    if fair is None:
        return WelfareReport(opt, None, None)
    return WelfareReport(opt, fair, opt / fair)


# ---------------------------------------------------------------------------
# Instance files: {"n": int, "m": int, "columns": [[entries of column j]]}
# with columns[j][i] = value of item i+1 to agent j+1, entries "p/q" or "p".
# ---------------------------------------------------------------------------

def instance_from_dict(payload: dict) -> UtilityMatrix:
    if not isinstance(payload, dict):
        raise ValueError("instance file: expected a JSON object")
    for key in ("n", "m", "columns"):
        if key not in payload:
            raise ValueError(f"instance file: missing key {key!r}")
    n, m, columns = payload["n"], payload["m"], payload["columns"]
    if not _is_int(n) or not _is_int(m) or n < 1 or m < 1:
        raise ValueError("instance file: n and m must be positive integers")
    if not isinstance(columns, list):
        raise ValueError(f"instance file: expected a list of {n} columns")
    if len(columns) != n:
        raise ValueError(f"instance file: expected {n} columns, got {len(columns)}")
    for j, col in enumerate(columns):
        if not isinstance(col, list) or len(col) != m:
            raise ValueError(f"instance file: column {j + 1} must list {m} entries")
        for i, v in enumerate(col):
            if isinstance(v, float):
                raise ValueError(f'instance file: entry ({i + 1}, {j + 1}) is a float; use "p/q"')
    return UtilityMatrix.from_columns(columns)


def instance_to_dict(x: UtilityMatrix) -> dict:
    columns = x.columns
    distinct = _distinct(columns)
    text = _spread(columns, distinct, [[format_rational(v) for v in col] for col in distinct])
    # one list per column, so that editing one agent's column edits no other
    return {"n": x.n, "m": x.m, "columns": list(map(list, text))}


def read_instance(path: str) -> UtilityMatrix:
    return instance_from_dict(_read_json(path, ValueError, "instance file"))


def write_instance(x: UtilityMatrix, path: str) -> None:
    _write_json(instance_to_dict(x), path)


def _read_json(path: str, error: type[ValueError], what: str) -> Any:
    """The JSON value in the file at path; invalid JSON raises error, prefixed with what."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{what}: invalid JSON ({exc})") from exc


def _write_json(payload: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
