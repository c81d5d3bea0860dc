"""Witness reconstruction: the normal form of worst-case square instances.

The worst case for m = n is attained by columns that are uniform on their
support: k_j entries of value 1/k_j (the paper's normalization lemmas, which
reduce every instance to this form, are checked in the test suite). The form
has no type of its own: :func:`build_witness_matrix` writes it as 0/1 weight
columns, straight from the support size histogram (s, r) that the solver
searches over, after the checks every `StructuredWitness` passes: `_support`
reads off the nonzero (i, s_i, r_i), and `_check_support` checks them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
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


def _support(s: Sequence[int], r: Sequence[int], n: int) -> tuple:
    """The entries (i, s_i, r_i) of dense s and r with s_i or r_i nonzero."""
    if not _is_int(n):
        raise InvalidWitness(f"n must be an int, got {n!r}")
    if n < 1:
        raise InvalidWitness(f"n must be positive, got {n}")
    if len(s) != n or len(r) != n:
        raise InvalidWitness(f"s and r must have {n} entries")
    if not (_all_ints(s) and _all_ints(r)):
        raise InvalidWitness("s and r must be nonnegative integers")
    return tuple((i, si, ri) for i, si, ri in zip(count(1), s, r) if si or ri)


def _check_support(n: int, support: tuple) -> Fraction:
    """(sum r_i/i) / (sum s_i/i) over the lcm of the i, once the entries (i, s_i, r_i)
    are exact ints, i rising strictly in 1..n, s_i > 0, 0 <= r_i <= i*s_i, and the s_i
    and r_i each sum to n; else InvalidWitness: types and signs, then sums, then caps."""
    last = sum_s = sum_r = num = den = 0
    scale = 1
    for i, si, ri in support:
        if not type(si) is type(ri) is int or si < 0 or ri < 0:
            raise InvalidWitness("s and r must be nonnegative integers")
        if type(i) is not int or not last < i <= n or not (si or ri):
            raise InvalidWitness(f"support entries need s_i > 0 and i rising strictly in 1..{n}")
        last, scale, sum_s, sum_r = i, math.lcm(scale, i), sum_s + si, sum_r + ri
    for name, total in ("s", sum_s), ("r", sum_r):
        if total != n:
            raise InvalidWitness(f"sum({name}) = {total}, expected {n}")
    for i, si, ri in support:
        if ri > i * si:
            raise InvalidWitness(f"r_{i} = {ri} exceeds i*s_i = {i * si}")
        num, den = num + ri * (scale // i), den + si * (scale // i)
    return Fraction(num, den)


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
    support = _support(s, r, n)
    _check_support(n, support)
    blocks = [(i, si) for i, si, _ in support if i < n]
    needed = sum(i * si for i, si in blocks)
    if needed > n:
        raise NonRealizable(needed, n)

    cols = []  # block columns, ascending in size
    fresh = sum(si for _, si in blocks)  # next unclaimed tail item
    for size, many in blocks:
        for _ in range(many):
            col = [0] * n
            col[len(cols)] = 1
            col[fresh : fresh + size - 1] = [1] * (size - 1)
            fresh += size - 1
            cols.append(col)
    return UtilityMatrix.from_weights(cols + [(1,) * n] * (n - len(cols)))
