"""Test-side oracles, instance generators and the paper's normalization steps.

The oracles here deliberately avoid the library's integer fast path and its
matching shortcut: plain Fraction arithmetic over an explicit enumeration of
all n^m allocations. Slow, but independent.

The reference square path walks every agent's column and opens the matching
with a plain breadth-first phase, as the library did before it handled a
column object shared by several agents once and began with a greedy phase;
the library must return exactly its outputs.

The reference fuzzer draws every weight with its own call for 5 random
bits and builds and tests a matrix for every draw without a zero column, as
the library did before it drew a block of words at a time, tested every
draw of a block on its raw weights at once and built a matrix only for the
draw it emits; the library must emit the same stream.

The reference restricted scan walks every block size j = n-1..1 on keys
scaled by lcm(1..n), as the library did before it scored blocks on the
small scale j*(j+1)*n and walked only the sizes its per-item bound leaves
live; `solve_alpha` must return exactly its outputs. Its r is the greedy
fill of s, computed apart from the scan, as the library did before each
scan returned the r of the witness it chose.

The reference start scores every block of sizes floor(sqrt n) and one
more, as the library did before it took one Dinkelbach step from the
all-full ratio over two closed-form blocks; `core._start_ratio` must
equal it.

The normalization steps reduce every worst case to columns that are uniform
on their supports, which all three searches rest on. They are bare column
transforms: callers pass a valid instance and an optimal assignment tau
(item i goes to agent tau[i], a row maximum). An agent is big if it
receives an item under tau, small otherwise.
"""

import math
import random
from fractions import Fraction
from itertools import chain, product
from operator import mul

from envyprice.core import (
    UtilityMatrix,
    allocation_welfare,
    envy_free_matching,
    envy_free_optimal_exhaustive,
    envy_free_optimal_welfare,
    optimal_welfare,
    price_ratio,
)
from envyprice.oracle import _ATTEMPTS, RejectionCapExceeded
from envyprice.solver import StructuredWitness, _block_vector


def random_columns(rng, n, m, max_w=10):
    """Random normalized columns via integer weights. Returns tuples of Fractions."""
    cols = []
    for _ in range(n):
        while True:
            w = [rng.randint(0, max_w) for _ in range(m)]
            if sum(w) > 0:
                break
        s = sum(w)
        cols.append(tuple(Fraction(a, s) for a in w))
    return tuple(cols)


def brute_optimum(cols):
    """Max welfare over all allocations, by literal enumeration."""
    n = len(cols)
    m = len(cols[0])
    best = Fraction(-1)
    for owners in product(range(n), repeat=m):
        w = sum(cols[g][i] for i, g in enumerate(owners))
        if w > best:
            best = w
    return best


def brute_ef_allocations(cols):
    """Every envy-free allocation, with its welfare, in lexicographic order."""
    n = len(cols)
    m = len(cols[0])
    out = []
    for owners in product(range(n), repeat=m):
        bundle = [[Fraction(0)] * n for _ in range(n)]
        for i, g in enumerate(owners):
            for j in range(n):
                bundle[j][g] += cols[j][i]
        if all(bundle[j][j] >= bundle[j][g] for j in range(n) for g in range(n)):
            out.append((owners, sum(bundle[j][j] for j in range(n))))
    return out


def brute_ef_optimum(cols):
    """(welfare, lex-min argmax allocation) of the envy-free optimum, or None."""
    best = None
    for owners, w in brute_ef_allocations(cols):
        if best is None or w > best[0]:
            best = (w, owners)
    return best


def _with_column(x, j, weights):
    """x with column j replaced by integer weights, normalized by their total."""
    return UtilityMatrix.from_weights(x.grid[:j] + (tuple(weights),) + x.grid[j + 1 :])


def uniform_column(x, j):
    """Smoothing: a small agent's column becomes uniform.

    The welfare of tau is untouched (it never uses column j), so the optimum
    cannot drop; agent j's column maximum falls to 1/m, so the envy-free
    optimum cannot grow, and an envy-free matching survives because a
    uniform column is compatible with every item. The ratio never decreases.
    """
    return _with_column(x, j, [1] * x.m)


def block_average(x, tau, j):
    """Leveling: a big agent's entries on its block T = tau^{-1}(j) each
    become w/k, for the block total w and k = |T|.

    tau keeps its welfare, so the optimum does not drop, and column j's
    maximum does not grow, so the envy-free optimum does not grow when it
    still exists. Leveling can destroy envy-free existence.
    """
    block = [i for i, g in enumerate(tau) if g == j]
    w = sum(x.grid[j][i] for i in block)
    # on the scale k * x.scale, entries off the block keep their value
    weights = [v * len(block) for v in x.grid[j]]
    for i in block:
        weights[i] = w
    return _with_column(x, j, weights)


def two_boundary(x, tau, j):
    """Extremizing: push a leveled big column to the better boundary.

    x is in canonical position (the identity allocation is envy-free), j is
    in its block T = tau^{-1}(j), |T| = k < n, and T is leveled at value v.
    Column j then sits in the family "1/k - t on T, kt/(n-k) off T" for t
    in [0, 1/k - 1/n], along which the ratio is f(t) = (a + k(1/k - t)) /
    (b + 1/k - t) with a = u* - kv and b = u*_f - v. f is monotone, so its
    maximum is at t = 0 (support exactly T) or t = 1/k - 1/n (uniform). Both
    are compared exactly, ties toward t = 0.
    """
    block = [i for i, g in enumerate(tau) if g == j]
    k, n = len(block), x.n
    v = Fraction(x.grid[j][j], x.scale)
    a = optimal_welfare(x)[0] - k * v
    b = envy_free_optimal_welfare(x) - v
    if (a + 1) / (b + Fraction(1, k)) >= (a + Fraction(k, n)) / (b + Fraction(1, n)):
        return _with_column(x, j, [int(i in block) for i in range(n)])
    return uniform_column(x, j)


def relabel_by_matching(x):
    """Canonical position: permute the items of an envy-free square x so
    that agent j's matched item lands at position j. Then x[j][j] attains
    agent j's column maximum; neither welfare changes."""
    item_of = [0] * x.n
    for item, agent in enumerate(envy_free_matching(x)):
        item_of[agent] = item
    return UtilityMatrix(tuple(tuple(col[i] for i in item_of) for col in x.grid), x.scale)


def keep_single_item_agents(x):
    """Reduction of an n-agent, m-item x (m >= n, envy-free) to m x m.

    S is the set of agents holding exactly one item in the lexicographically
    least optimal envy-free allocation. The output keeps S's columns in
    agent order and fills up with m - |S| uniform columns. The new
    envy-free optimum exceeds the old by at most (m - |S|)/m, and the old
    optimum exceeds the new by at most n - |S|.
    """
    _, owners = envy_free_optimal_exhaustive(x)
    keep = [j for j in range(x.n) if owners.count(j) == 1]
    return UtilityMatrix.from_weights(
        [x.grid[j] for j in keep] + [(1,) * x.m] * (x.m - len(keep))
    )


def pad_zero_rows(x, extra):
    """Append `extra` items that everyone values at zero; no bundle's worth
    changes, so neither does the price ratio."""
    return UtilityMatrix(tuple(col + (0,) * extra for col in x.grid), x.scale)


def check_smoothing_monotonicity(x):
    """Apply every applicable normalization step to x in canonical position
    and assert the ratio guarantees. x must be square and admit an envy-free
    allocation. Returns per-operation application counts.

    Leveling may destroy envy-free existence; when it does, the unconditional
    parts are still checked (optimum up, identity welfare down) and the event
    is counted instead of the full ratio comparison.
    """
    before = price_ratio(x)
    assert before.ratio is not None, "caller must filter to envy-free instances"
    x0 = relabel_by_matching(x)
    base_report = price_ratio(x0)
    assert base_report.ratio == before.ratio  # relabeling preserves both welfares
    base = base_report.ratio
    _, tau = optimal_welfare(x0)
    identity = tuple(range(x0.n))
    counts = {"smooth": 0, "level": 0, "level_lost_ef": 0, "extremize": 0}
    for j in range(x0.n):
        if j not in tau:
            x1 = uniform_column(x0, j)
            assert price_ratio(x1).ratio >= base
            counts["smooth"] += 1
            continue
        x1 = block_average(x0, tau, j)
        opt1, _ = optimal_welfare(x1)
        assert opt1 >= base_report.optimal
        diag1 = allocation_welfare(x1, identity)
        assert diag1 <= base_report.envy_free_optimal
        assert opt1 / diag1 >= base
        after = price_ratio(x1)
        if after.ratio is None:
            counts["level_lost_ef"] += 1
        else:
            assert after.ratio >= base
        counts["level"] += 1
        block = [i for i in range(x0.n) if tau[i] == j]
        leveled = len({x0.grid[j][i] for i in block}) == 1
        if j in block and len(block) < x0.n and leveled:
            x2 = two_boundary(x0, tau, j)
            assert price_ratio(x2).ratio >= base
            counts["extremize"] += 1
    return counts


def random_canonical_leveled(rng, n):
    """Instance in canonical position whose agent 0 holds a leveled block.

    Returns (matrix, intended block). Agent 0's column is v on the block and
    at most v elsewhere; every other column peaks on its own item and stays
    ≤ v on block rows, so the identity allocation is envy-free and an optimal
    assignment can send the whole block to agent 0.
    """
    k = rng.randint(1, n - 1)
    others = list(range(1, n))
    rng.shuffle(others)
    block = sorted([0] + others[: k - 1])
    denom = rng.randint(1, 12)
    v = Fraction(1, n) + (Fraction(1, k) - Fraction(1, n)) * Fraction(
        rng.randint(0, denom), denom
    )
    col0 = [Fraction(0)] * n
    for i in block:
        col0[i] = v
    off = [i for i in range(n) if i not in block]
    rest = 1 - k * v
    weights = [rng.randint(0, 10) for _ in off]
    shares = (
        [rest * Fraction(a, sum(weights)) for a in weights]
        if sum(weights) and rest
        else [rest / len(off)] * len(off)
    )
    if any(sh > v for sh in shares):
        shares = [rest / len(off)] * len(off)
    for i, sh in zip(off, shares):
        col0[i] = sh
    cols = [tuple(col0)]
    for g in range(1, n):
        for _ in range(50):
            wts = [rng.randint(0, 10) for _ in range(n)]
            wts[g] += rng.randint(1, 10)
            total = sum(wts)
            col = [Fraction(a, total) for a in wts]
            if col[g] == max(col) and all(col[i] <= v for i in block):
                break
        else:
            col = [Fraction(1, n)] * n
        cols.append(tuple(col))
    return UtilityMatrix.from_columns(tuple(cols)), block


# --- reference square path: every agent's column, no greedy phase ---------------

def reference_optimal_welfare(x):
    rows = list(zip(*x.grid))
    best = list(map(max, rows))
    # tuple.index finds the first agent attaining the maximum
    return Fraction(sum(best), x.scale), tuple(map(tuple.index, rows, best))


def reference_envy_free_welfare(x):
    if reference_matching(x) is None:
        return None
    return Fraction(sum(map(max, x.grid)), x.scale)


def reference_matching(x):
    n = x.n
    adj = _compat_adjacency(x)
    if max(map(len, adj)) < n and len(set(chain.from_iterable(adj))) < n:
        return None
    match_l = _hopcroft_karp(adj, n)
    if any(v == -1 for v in match_l):
        return None
    owners = [-1] * x.m
    for agent, item in enumerate(match_l):
        owners[item] = agent
    return tuple(owners)


def _compat_adjacency(x: UtilityMatrix) -> list[list[int]]:
    """Per agent, the items attaining that agent's column maximum."""
    adj = []
    for col in x.grid:
        best = max(col)
        ties = col.count(best)
        if ties == 1:
            adj.append([col.index(best)])
        elif ties == len(col):
            adj.append(list(range(ties)))
        else:
            adj.append([i for i, v in enumerate(col) if v == best])
    return adj


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns right-mate per left vertex (-1 if none).

    Deterministic: vertices and adjacency are scanned in index order and no
    sets are used, so identical inputs give identical matchings.
    """
    n_left = len(adj)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    edges: list = [None] * n_left  # adjacency iterators of the path vertices

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


# --- reference fuzzer: one getrandbits call per weight, a matrix per draw ---------

def reference_draw(getrandbits, n):
    """One draw: n columns of n weights, or None when it ends at its first
    all-zero column."""
    cols = []
    for _ in range(n):
        weights = []
        for _ in range(n):
            # rng.randrange(17), inlined: the same rejection loop over 5
            # random bits, so the same stream
            v = getrandbits(5)
            while v >= 17:
                v = getrandbits(5)
            weights.append(v)
        if not any(weights):
            return None
        cols.append(weights)
    return cols


def reference_fuzz_instances(n, count, seed):
    budget = _ATTEMPTS * count
    used = 0
    for idx in range(count):
        getrandbits = random.Random(f"fuzz:{seed}:{idx}").getrandbits
        while True:
            if used >= budget:
                raise RejectionCapExceeded(idx, budget)
            used += 1
            cols = reference_draw(getrandbits, n)
            if cols is None:
                continue
            x = UtilityMatrix.from_weights(cols)
            if envy_free_matching(x) is not None:
                yield x
                break


# --- reference restricted scan: every size, keys scaled by lcm(1..n) --------------

def greedy_fill(s, n):
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


def reference_scan_restricted(n, p, q, wgt):
    """Best (key, s) over the restricted family, with W(i) = wgt[i] =
    lcm(1..n)/i: the key of a block relative to the all-full vector is
    (W(j) - W(n))*(q*F - p*x) + (W(k) - W(n))*(q*t - p*y), and every size
    j < n is walked, x up to floor(n/j), ties to the first."""
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
    return best_key + w_n * (q - p) * n, _block_vector(n, *best_block)


def reference_solve_alpha(n, alpha):
    """`solve_alpha`'s restricted search on the lcm(1..n) scale:
    (objective, witness)."""
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    m = math.lcm(*range(1, n + 1))
    wgt = [0] + [m // i for i in range(1, n + 1)]
    key, s = reference_scan_restricted(n, p, q, wgt)
    r = greedy_fill(s, n)
    ratio = Fraction(sum(map(mul, r, wgt[1:])), sum(map(mul, s, wgt[1:])))
    return Fraction(key, q * m), StructuredWitness(s, r, ratio)


def reference_p_nn(n, alpha=Fraction(1)):
    """Dinkelbach iteration over `reference_solve_alpha` from alpha:
    (every alpha visited, the witness at the last)."""
    alphas = [alpha]
    while True:
        objective, witness = reference_solve_alpha(n, alphas[-1])
        if objective == 0:
            return alphas, witness
        assert objective > 0, (n, alphas[-1])
        alphas.append(witness.ratio)


def reference_start_ratio(n):
    """The best ratio of the all-full vector (1) and every block of least
    size j = floor(sqrt n) or one more, below n: x <= n/j columns of size
    j, y = floor(R/(j+1)) of size j+1 for the R items they leave, the rest
    full, filled greedily; compared on the scale j*(j+1)*n."""
    best_num = best_den = 1
    root = math.isqrt(n)
    for j in range(root, min(root + 1, n - 1) + 1):
        k = j + 1
        for x in range(1, n // j + 1):
            filled = j * x
            y = (n - filled) // k
            t = min(n - filled, k * y)
            num = filled * k * n + t * j * n + (n - filled - t) * j * k
            den = x * k * n + y * j * n + (n - x - y) * j * k
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num, best_den)
