"""Witness reconstruction: the normal form of worst-case square instances.

The worst case for m = n is attained by columns that are uniform on their
support: k_j entries of value 1/k_j (the paper's normalization lemmas, which
reduce every instance to this form, are checked in the test suite). The form
has no type of its own: :func:`build_witness_matrix` writes it as 0/1 weight
columns, straight from the support size histogram (s, r) that the solver
searches over.
"""

from __future__ import annotations

from itertools import compress
from operator import gt, mul
from typing import Sequence

from .core import UtilityMatrix, _all_ints, _is_int

# unused here, but perfbench/test_bench.py's
# test_tracer_replaces_and_restores_every_binding checks that this name stays
# bound to core.envy_free_matching
from .core import envy_free_matching  # noqa: F401

__all__ = ["InvalidWitness", "NonRealizable", "build_witness_matrix"]


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


def _check_witness_vectors(s: Sequence[int], r: Sequence[int], n: int) -> None:
    if not _is_int(n):
        raise InvalidWitness(f"n must be an int, got {n!r}")
    if n < 1:
        raise InvalidWitness(f"n must be positive, got {n}")
    if len(s) != n or len(r) != n:
        raise InvalidWitness(f"s and r must have {n} entries")
    if not (_all_ints(s) and _all_ints(r)) or min(s) < 0 or min(r) < 0:
        raise InvalidWitness("s and r must be nonnegative integers")
    if sum(s) != n:
        raise InvalidWitness(f"sum(s) = {sum(s)}, expected {n}")
    if sum(r) != n:
        raise InvalidWitness(f"sum(r) = {sum(r)}, expected {n}")
    # r_i <= i*s_i holds wherever r_i = 0, so only the positive r_i are tested
    if any(map(gt, compress(r, r), map(mul, compress(range(1, n + 1), r), compress(s, r)))):
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
