"""Test-side oracles and instance generators.

The oracles here deliberately avoid the library's integer fast path and its
matching shortcut: plain Fraction arithmetic over an explicit enumeration of
all n^m allocations. Slow, but independent.
"""

from fractions import Fraction
from itertools import product

from envyprice.core import (
    UtilityMatrix,
    allocation_welfare,
    optimal_welfare,
    price_ratio,
)
from envyprice.structure import (
    AgentClass,
    canonicalize,
    classify_agents,
    extremize_offdiagonal,
    level_big_agent,
    smooth_small_agent,
)


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


def check_smoothing_monotonicity(x):
    """Apply every applicable structural operation to the canonicalized x and
    assert the ratio guarantees. x must be square and admit an envy-free
    allocation. Returns per-operation application counts.

    Leveling may destroy envy-free existence; when it does, the unconditional
    parts are still checked (optimum up, identity welfare down) and the event
    is counted instead of the full ratio comparison.
    """
    before = price_ratio(x)
    assert before.ratio is not None, "caller must filter to envy-free instances"
    x0 = canonicalize(x)
    base_report = price_ratio(x0)
    assert base_report.ratio == before.ratio  # relabeling preserves both welfares
    base = base_report.ratio
    _, tau = optimal_welfare(x0)
    labels = classify_agents(x0, tau)
    identity = tuple(range(x0.n))
    counts = {"smooth": 0, "level": 0, "level_lost_ef": 0, "extremize": 0}
    for j in range(x0.n):
        if labels[j] is AgentClass.SMALL:
            x1 = smooth_small_agent(x0, tau, j)
            assert price_ratio(x1).ratio >= base
            counts["smooth"] += 1
            continue
        x1 = level_big_agent(x0, tau, j)
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
        leveled = len({x0.columns[j][i] for i in block}) == 1
        if j in block and len(block) < x0.n and leveled:
            x2 = extremize_offdiagonal(x0, tau, j)
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
