"""Structural normal form of worst-case square instances.

For m = n, instances attaining the worst optimal-to-envy-free welfare ratio
can be normalized step by step without decreasing that ratio. Fix an optimal
assignment tau (item i goes to agent tau[i], a row maximum). An agent is big
if it receives at least one item under tau, small otherwise. Then:

- a small agent's column can be replaced by the uniform column (smoothing),
- a big agent's assigned entries can be replaced by their average (leveling),
- a big leveled column can be pushed to a boundary: either all mass on the
  assigned block (1/k each) or fully uniform (extremizing).

The ratio guarantees for leveling and extremizing are stated for instances in
canonical position: items relabeled so the identity allocation is envy-free
(x[j][j] is agent j's column maximum) and, for extremizing, tau[j] = j for
the treated agent. :func:`canonicalize` produces that relabeling.

The normal form that results consists of columns that are uniform on their
support: k_j entries of value 1/k_j. It has no type of its own:
:func:`build_witness_matrix` writes it as 0/1 weight columns, straight from
the support size histogram (s, r) that the solver searches over.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import gt, mul
from typing import Sequence

from .core import (
    Allocation,
    DimensionMismatch,
    UtilityMatrix,
    envy_free_matching,
    envy_free_optimal_exhaustive,
    envy_free_optimal_welfare,
    optimal_welfare,
    _all_ints,
    _is_int,
)

__all__ = [
    "AgentClass",
    "InconsistentTau",
    "NotSmall",
    "NotBig",
    "FullSupport",
    "NotLeveled",
    "NoEnvyFreeAllocation",
    "InvalidWitness",
    "NonRealizable",
    "validate_assignment",
    "classify_agents",
    "smooth_small_agent",
    "level_big_agent",
    "extremize_offdiagonal",
    "canonicalize",
    "build_witness_matrix",
    "reduce_to_square",
]


class AgentClass(Enum):
    BIG = "big"
    SMALL = "small"


class InconsistentTau(ValueError):
    """tau sends an item to an agent that does not attain the row maximum."""

    def __init__(self, item: int, agent: int):
        self.item = item
        self.agent = agent
        super().__init__(f"InconsistentTau({item}, {agent})")


class NotSmall(ValueError):
    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"NotSmall({agent})")


class NotBig(ValueError):
    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"NotBig({agent})")


class FullSupport(ValueError):
    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"FullSupport({agent})")


class NotLeveled(ValueError):
    def __init__(self, agent: int, detail: str):
        self.agent = agent
        super().__init__(f"NotLeveled({agent}): {detail}")


class NoEnvyFreeAllocation(ValueError):
    def __init__(self, detail: str = "instance admits no envy-free allocation"):
        super().__init__(detail)


class InvalidWitness(ValueError):
    pass


class NonRealizable(ValueError):
    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"NonRealizable: disjoint blocks below full support need {needed} "
            f"items, only {budget} exist"
        )


def validate_assignment(x: UtilityMatrix, tau: Sequence[int]) -> None:
    """Check that tau[i] attains the row maximum of item i.

    tau plays the role of an optimal allocation fixed once; every structural
    operation re-validates it against the matrix it is applied to.
    """
    if len(tau) != x.m:
        raise ValueError(f"tau covers {len(tau)} items, matrix has {x.m}")
    if not _all_ints(tau):
        raise ValueError("tau entries must be ints")
    n = x.n
    for i, (j, row) in enumerate(zip(tau, zip(*x.grid))):
        if not 0 <= j < n:
            raise ValueError(f"tau[{i}] = {j} out of range 0..{n - 1}")
        if row[j] != max(row):
            raise InconsistentTau(i + 1, j + 1)


def classify_agents(x: UtilityMatrix, tau: Sequence[int]) -> tuple[AgentClass, ...]:
    """Big agents receive at least one item under tau, small agents none."""
    if x.m != x.n:
        raise DimensionMismatch(x.m, x.n, "a square instance (m = n)")
    validate_assignment(x, tau)
    image = set(tau)
    return tuple(
        AgentClass.BIG if j in image else AgentClass.SMALL for j in range(x.n)
    )


def _replace_column(x: UtilityMatrix, j: int, weights: Sequence[int]) -> UtilityMatrix:
    """x with column j replaced by integer weights, normalized by their total."""
    return UtilityMatrix.from_weights(x.grid[:j] + (tuple(weights),) + x.grid[j + 1 :])


def smooth_small_agent(x: UtilityMatrix, tau: Sequence[int], j: int) -> UtilityMatrix:
    """Replace a small agent's column by the uniform column 1/n.

    The welfare of tau is untouched (it never uses column j), so the optimum
    cannot drop; agent j's column maximum falls to 1/n, so the envy-free
    optimum cannot grow, and an existing envy-free matching survives because
    a uniform column is compatible with every item. The ratio therefore never
    decreases.
    """
    labels = classify_agents(x, tau)
    if labels[j] is not AgentClass.SMALL:
        raise NotSmall(j + 1)
    return _replace_column(x, j, [1] * x.n)


def level_big_agent(x: UtilityMatrix, tau: Sequence[int], j: int) -> UtilityMatrix:
    """Average a big agent's assigned entries: each becomes w/k.

    w is the sum over the block T = tau^{-1}(j) and k = |T|. The allocation
    tau keeps its welfare (the block total is preserved), so the optimum does
    not drop, and column j's maximum does not grow, so the envy-free optimum
    does not grow when it still exists. Leveling can destroy envy-free
    existence on some instances; callers needing the ratio guarantee must
    check the result still admits one.
    """
    labels = classify_agents(x, tau)
    if labels[j] is not AgentClass.BIG:
        raise NotBig(j + 1)
    block = [i for i in range(x.m) if tau[i] == j]
    # on the scale k*x.scale, entries off the block keep their value and
    # each block entry becomes w/k
    w = sum(x.grid[j][i] for i in block)
    weights = [v * len(block) for v in x.grid[j]]
    for i in block:
        weights[i] = w
    return _replace_column(x, j, weights)


def extremize_offdiagonal(x: UtilityMatrix, tau: Sequence[int], j: int) -> UtilityMatrix:
    """Push a leveled big column to the better of its two boundary shapes.

    With T = tau^{-1}(j), |T| = k < n and the block leveled at value v,
    column j sits inside the family "1/k − t on T, kt/(n−k) off T" for
    t in [0, 1/k − 1/n]. In canonical position the instance ratio along the
    family is f(t) = (a + k(1/k − t)) / (b + 1/k − t) with a = u* − kv and
    b = u*_f − v, which is monotone, so the maximum sits at t = 0 (support
    exactly T) or at t = 1/k − 1/n (uniform). Both boundary values are
    compared exactly and the larger one is returned, ties toward t = 0.

    The guarantee "ratio never decreases" holds in canonical position
    (identity envy-free and j ∈ T); the operation requires j ∈ T since the
    leveled block must include the diagonal entry.
    """
    labels = classify_agents(x, tau)
    if labels[j] is not AgentClass.BIG:
        raise NotBig(j + 1)
    block = [i for i in range(x.m) if tau[i] == j]
    k = len(block)
    if k == x.n:
        raise FullSupport(j + 1)
    if j not in block:
        raise NotLeveled(j + 1, "own item is outside the assigned block; relabel first")
    values = {x.grid[j][i] for i in block}
    if len(values) > 1:
        raise NotLeveled(j + 1, "assigned entries differ; level the block first")
    v = Fraction(values.pop(), x.scale)

    u_star, _ = optimal_welfare(x)
    fair = envy_free_optimal_welfare(x)
    if fair is None:
        raise NoEnvyFreeAllocation(
            "extremizing needs the envy-free optimum of the input"
        )
    n = x.n
    a = u_star - k * v
    b = fair - v
    f_support = (a + 1) / (b + Fraction(1, k))
    f_uniform = (a + Fraction(k, n)) / (b + Fraction(1, n))

    if f_support >= f_uniform:
        return _replace_column(x, j, [int(i in block) for i in range(n)])
    return _replace_column(x, j, [1] * n)


def canonicalize(x: UtilityMatrix) -> UtilityMatrix:
    """Relabel items so the identity allocation is envy-free.

    Rows are permuted so that agent j's matched item lands at position j;
    afterwards x[j][j] attains agent j's column maximum. Row permutations
    change neither the optimum nor the envy-free optimum.
    """
    match = envy_free_matching(x)
    if match is None:
        raise NoEnvyFreeAllocation()
    item_of = [0] * x.n
    for item, agent in enumerate(match):
        item_of[agent] = item
    return UtilityMatrix(tuple(tuple(col[i] for i in item_of) for col in x.grid), x.scale)


def _check_witness_vectors(s: Sequence[int], r: Sequence[int], n: int) -> None:
    if not _is_int(n):
        raise InvalidWitness(f"n must be an int, got {n!r}")
    if n < 1:
        raise InvalidWitness(f"n must be positive, got {n}")
    if len(s) != n or len(r) != n:
        raise InvalidWitness(f"s and r must have {n} entries")
    values = (*s, *r)
    if not _all_ints(values) or min(values) < 0:
        raise InvalidWitness("s and r must be nonnegative integers")
    if sum(s) != n:
        raise InvalidWitness(f"sum(s) = {sum(s)}, expected {n}")
    if sum(r) != n:
        raise InvalidWitness(f"sum(r) = {sum(r)}, expected {n}")
    if any(map(gt, r, map(mul, range(1, n + 1), s))):
        # name the first index over its cap
        for i, (si, ri) in enumerate(zip(s, r), 1):
            if ri > i * si:
                raise InvalidWitness(f"r_{i} = {ri} exceeds i*s_i = {i * si}")


def build_witness_matrix(s: Sequence[int], r: Sequence[int], n: int) -> UtilityMatrix:
    """Reconstruct a square matrix from a support-size histogram witness.

    s_i (1-based i) counts agents whose column is uniform on a support of
    size i. Agents with i < n get pairwise-disjoint blocks: their own item
    plus fresh items taken from the tail; whatever items remain are covered
    by the uniform agents. The identity allocation is envy-free, the
    envy-free optimum is Σ s_i/i exactly, and the optimum is at least
    Σ r_i/i, so price_ratio of the result certifies the witness ratio.

    Blocks below full support need Σ_{i<n} i·s_i items; if that exceeds n
    the witness has no disjoint-support realization and is rejected.
    """
    _check_witness_vectors(s, r, n)
    needed = sum((idx + 1) * si for idx, si in enumerate(s[: n - 1]))
    if needed > n:
        raise NonRealizable(needed, n)

    cols = []  # block columns, ascending in size
    fresh = sum(s[: n - 1])  # next unclaimed tail item
    for size, count in enumerate(s[: n - 1], 1):
        for _ in range(count):
            col = [0] * n
            col[len(cols)] = 1
            col[fresh : fresh + size - 1] = [1] * (size - 1)
            fresh += size - 1
            cols.append(col)
    return UtilityMatrix.from_weights(cols + [(1,) * n] * (n - len(cols)))


def reduce_to_square(x: UtilityMatrix) -> UtilityMatrix:
    """Turn an n-agent, m-item instance (m ≥ n) into an m-agent, m-item one.

    S is the set of agents holding exactly one item in the lexicographically
    least optimal envy-free allocation. The output keeps the columns of S
    (ascending agent order) and fills up with m − |S| uniform-1/m columns.
    The construction keeps the two welfares close: the new envy-free optimum
    exceeds the old by at most (m − |S|)/m, and the old optimum exceeds the
    new by at most n − |S|.
    """
    if x.m < x.n:
        raise DimensionMismatch(x.m, x.n, "at least as many items as agents")
    found = envy_free_optimal_exhaustive(x)
    if found is None:
        raise NoEnvyFreeAllocation()
    _, owners = found
    counts = [0] * x.n
    for g in owners:
        counts[g] += 1
    keep = [j for j in range(x.n) if counts[j] == 1]
    uniform = [(1,) * x.m] * (x.m - len(keep))
    return UtilityMatrix.from_weights([x.grid[j] for j in keep] + uniform)
