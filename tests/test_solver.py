import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from envyprice import core, oracle, solver
from envyprice.bounds import lower_construction
from envyprice.core import RatioSearchFailed, construction_ratio, price_ratio
from envyprice.solver import (
    KNOWN_RATIOS,
    Search,
    SolveOptions,
    StructuredWitness,
    lemma4_candidates,
    read_witness,
    solve_alpha,
    solve_p_nn,
    witness_from_dict,
    witness_to_dict,
    write_witness,
)
from envyprice.structure import InvalidWitness, build_witness_matrix
from util import greedy_fill, reference_p_nn, reference_solve_alpha, reference_start_ratio

F = Fraction

FULL = SolveOptions(search=Search.FULL_ENUMERATION)


# --- the reference table -----------------------------------------------------

def test_small_n_reference_values():
    for n, expected in KNOWN_RATIOS.items():
        assert solve_p_nn(n).ratio == expected


def test_trivial_witnesses():
    assert solve_p_nn(1) == StructuredWitness((1,), (1,), F(1))
    assert solve_p_nn(2) == StructuredWitness((0, 2), (0, 2), F(1))


def test_witness_n5():
    w = solve_p_nn(5)
    assert w.s == (0, 1, 1, 0, 3)
    assert w.r == (0, 2, 3, 0, 0)
    assert w.ratio == F(60, 43)


def test_witness_n7():
    w = solve_p_nn(7)
    assert w.s == (0, 2, 1, 0, 0, 0, 4)
    assert w.r == (0, 4, 3, 0, 0, 0, 0)
    assert w.ratio == F(63, 40)


def test_p_has_a_closed_form_to_1000():
    # j = ⌊√n⌋, c = ⌊n/(j+1)⌋ + 1, y = n − j·c and x = c − y: x columns of
    # support j and y of support j + 1 cover the n items once, the other
    # n − c are full. Ratios only: at pronic n = j(j+1) two blocks tie, and
    # the least-s witness is j columns of support j + 1.
    def closed_form(n):
        j = math.isqrt(n)
        c = n // (j + 1) + 1
        y = n - j * c
        return c / (F(c - y, j) + F(y, j + 1) + F(n - c, n))

    assert closed_form(3) == F(12, 11) and solve_p_nn(3).ratio == F(8, 7)
    assert all(closed_form(m * m) == F(m * m, 2 * m - 1) for m in range(1, 32))
    assert [n for n in range(1, 1001) if closed_form(n) != solve_p_nn(n).ratio] == [3]


# --- the parametric subproblem ------------------------------------------------

def test_alpha_one_is_always_attainable():
    # the all-uniform histogram scores exactly zero at alpha = 1
    for n in (1, 2, 3, 6, 11, 25):
        objective, _ = solve_alpha(n, F(1))
        assert objective >= 0


def test_alpha_first_iteration_n3():
    # hand-checked: maximum objective 1/6, reached by three histograms;
    # (0,1,2) is the lexicographically least of them
    objective, witness = solve_alpha(3, F(1))
    assert objective == F(1, 6)
    assert witness.s == (0, 1, 2)
    assert witness.r == (0, 2, 1)
    assert witness.ratio == F(8, 7)


def test_alpha_zero_objective_at_the_optimum():
    objective, witness = solve_alpha(5, F(60, 43))
    assert objective == 0
    assert witness.s == (0, 1, 1, 0, 3)
    assert witness.r == (0, 2, 3, 0, 0)


def test_alpha_negative_above_the_optimum():
    objective, _ = solve_alpha(2, F(2))
    assert objective == -1
    for n in (3, 4, 7):
        above, _ = solve_alpha(n, KNOWN_RATIOS[n] + F(1, 100))
        assert above < 0


def test_alpha_objective_monotone_in_alpha():
    grid = [F(1), F(9, 8), F(5, 4), F(4, 3), F(3, 2), F(2), F(3)]
    for n in (4, 6, 9):
        values = [solve_alpha(n, a)[0] for a in grid]
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("options", [None, FULL])
@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(7, 5), F(3)])
def test_alpha_single_agent(alpha, options):
    # one agent, one item: the only composition is s = (1,)
    witness = StructuredWitness((1,), (1,), F(1))
    assert solve_alpha(1, alpha, options) == (1 - alpha, witness)


def test_alpha_input_validation():
    with pytest.raises(ValueError):
        solve_alpha(0, F(1))
    with pytest.raises(ValueError):
        solve_alpha(3, F(-1))


def _scored_family(n):
    """Every restricted vector, sorted by s, as (M*sum r_i/i, M*sum s_i/i, s, r)
    with r the greedy fill and M = lcm(1..n); the sums are taken with
    Fractions and are integers after scaling."""
    scale = math.lcm(*range(1, n + 1))
    scored = []
    for s in sorted(lemma4_candidates(n)):
        r, budget = [], n
        for i, si in enumerate(s, 1):
            take = min(budget, i * si)
            r.append(take)
            budget -= take
        num = scale * sum(F(ri, i) for i, ri in enumerate(r, 1) if ri)
        den = scale * sum(F(si, i) for i, si in enumerate(s, 1) if si)
        assert num.denominator == den.denominator == 1
        scored.append((int(num), int(den), s, tuple(r)))
    return scale, scored


def test_alpha_matches_scoring_the_whole_family():
    # the scan scores one y per (j, x) block; the reference scores all of
    # them. Integer alphas 2..n-1 make the rising slope q*(j+1) - p zero
    # at j+1 = alpha, where a whole range of y ties.
    rng = random.Random(20141)
    for n in range(2, 41):
        scale, scored = _scored_family(n)
        alphas = {F(1), F(n + 1), F(3 * n + 1, 2), solve_p_nn(n).ratio}
        alphas.update(F(a) for a in range(2, n))
        alphas.update(F(rng.randint(1, 3 * n), rng.randint(1, 40)) for _ in range(3))
        for alpha in alphas:
            p, q = alpha.numerator, alpha.denominator
            # max() keeps the first of equal keys: the least s
            num, den, s, r = max(scored, key=lambda v: q * v[0] - p * v[1])
            objective, w = solve_alpha(n, alpha)
            assert (objective, w.s, w.r) == (F(q * num - p * den, q * scale), s, r), (n, alpha)


def _four_point_scan(n, p, q, wgt):
    """Reference: the restricted scan as it scored each block before the
    closed-form pick, at the ends of the range and the integers around the
    break R/(j+1), clipped to the range, plus the all-full vector, ties to
    the least s whatever the walk order."""
    best_key = wgt[n] * (q - p) * n
    best_s = (0,) * (n - 1) + (n,)
    blocks = [(j, x) for j in range(1, n) for x in range(1, min(n, 2 * n // j) + 1)]
    for j, x in blocks:
        y_hi = min(n - x, (2 * n - j * x) // (j + 1)) if j + 1 < n else 0
        filled = min(n, j * x)
        rest = n - filled
        gain = wgt[j + 1] - wgt[n]
        f0 = filled * wgt[j] + rest * wgt[n]
        g0 = x * wgt[j] + (n - x) * wgt[n]
        lo = rest // (j + 1)
        for y in {0, y_hi, min(lo, y_hi), min(lo + 1, y_hi)}:
            key = q * (f0 + min(rest, (j + 1) * y) * gain) - p * (g0 + y * gain)
            s = solver._block_vector(n, j, x, y)
            if key > best_key or (key == best_key and s < best_s):
                best_key, best_s = key, s
    return best_key, best_s


def _assert_matches_the_four_point_scan(n, alphas):
    scale = math.lcm(*range(1, n + 1))
    wgt = [0] + [scale // i for i in range(1, n + 1)]
    for alpha in alphas:
        p, q = alpha.numerator, alpha.denominator
        key, s = _four_point_scan(n, p, q, wgt)
        want = (F(key, q * scale), s, greedy_fill(s, n))
        objective, w = solve_alpha(n, alpha)
        assert (objective, w.s, w.r) == want, (n, alpha)


def test_closed_form_pick_matches_the_four_point_scan():
    # alpha = 0 makes the falling slope -p flat; alpha = k makes the rising
    # slope q*k - p zero; alphas above n make every slope fall; p(n) +- 1/1000
    # straddle the optimum the last Dinkelbach step sits on
    rng = random.Random(20147)
    for n in range(2, 61):
        ratio = solve_p_nn(n).ratio
        alphas = {F(0), F(n + 1), F(5 * n, 3), ratio - F(1, 1000), ratio + F(1, 1000)}
        alphas.update(F(k) for k in range(1, n + 1))
        alphas.update(F(rng.randint(0, 3 * n), rng.randint(1, 60)) for _ in range(4))
        _assert_matches_the_four_point_scan(n, alphas)


def test_pruned_walk_matches_the_four_point_scan_to_300():
    # the scan stops each size j at x = floor(n/j); the reference walks
    # every block. At alpha = 0 the blocks from x = ceil(n/j) on tie, so a
    # walk that keeps later ties gives another s
    for n in [*range(61, 151, 7), 200, 300]:
        ratio = solve_p_nn(n).ratio
        alphas = {F(0), F(1), F(n + 1), ratio, ratio - F(1, 1000), ratio + F(1, 1000)}
        _assert_matches_the_four_point_scan(n, alphas)


# --- the live window -----------------------------------------------------------

def _alpha_sweep(n):
    """0, 1, 3/2, n/2, n + 1, the start and p(n)."""
    ratio = solve_p_nn(n).ratio
    return sorted({F(0), F(1), F(3, 2), F(n, 2), F(n + 1), core._start_ratio(n), ratio})


def test_windowed_scan_matches_the_whole_range_reference_to_300():
    # the reference walks every size j < n on lcm(1..n) keys
    for n in range(1, 301):
        for alpha in _alpha_sweep(n):
            assert solve_alpha(n, alpha) == reference_solve_alpha(n, alpha), (n, alpha)


@pytest.mark.parametrize("n", [2000, 5000])
def test_windowed_scan_matches_the_whole_range_reference_at_scale(n):
    for alpha in _alpha_sweep(n):
        assert solve_alpha(n, alpha) == reference_solve_alpha(n, alpha), alpha


def test_search_from_one_takes_the_reference_steps_to_300(monkeypatch):
    # from alpha = 1 the steps run far below p(n), where the window is wide
    seen = []

    def step(n, alpha, options=None):
        seen.append(alpha)
        return solve_alpha(n, alpha, options)

    monkeypatch.setattr(core, "_start_ratio", lambda n: F(1))
    monkeypatch.setattr(solver, "solve_alpha", step)
    for n in range(1, 301):
        seen.clear()
        alphas, witness = reference_p_nn(n)
        assert solve_p_nn(n) == witness, n
        assert seen == alphas, n


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 150).flatmap(
    lambda n: st.tuples(st.just(n), st.fractions(0, n + 2, max_denominator=64))))
def test_windowed_scan_matches_the_reference_at_random_alpha(case):
    n, alpha = case
    assert solve_alpha(n, alpha) == reference_solve_alpha(n, alpha)


def _closed_form_blocks(n):
    """The start's blocks (j, x): j = isqrt(n) + 1, then isqrt(n), below
    n; with c = n//(j+1) + 1 and y = n - j*c, x = c - y, or n//j where
    y < 0."""
    blocks = []
    for j in (math.isqrt(n) + 1, math.isqrt(n)):
        c = n // (j + 1) + 1
        y = n - j * c
        if j < n:
            blocks.append((j, c - y if y >= 0 else n // j))
    return blocks


def _live_window(n, alpha, blocks):
    """The sizes j < n, falling, where j or j + 1 is live: i is live when
    (n - i)(i - alpha)/i^2 >= LB, checked at every i in 1..n. LB is the
    most that the all-full vector (0) and the blocks (j, x) add to the
    all-full objective, y at the ends of its range and around R/(j+1).
    A column of size i holding c items adds (c - alpha)(n - i)/(n*i)."""
    a, b = alpha.numerator, alpha.denominator
    lb = F(0)
    for j, x in blocks:
        k = j + 1
        rest = n - j * x
        y_hi = min(n - x, (2 * n - j * x) // k) if k < n else 0
        for y in {0, y_hi, min(rest // k, y_hi), min(rest // k + 1, y_hi)}:
            t = min(rest, k * y)
            gain = x * (b * j - a) * (n - j) * k + (b * t - a * y) * (n - k) * j
            lb = max(lb, F(gain, b * n * j * k))
    # (n - i)(i - alpha)/i^2 >= lb, cleared of the denominators of alpha and lb
    c, d = lb.numerator, lb.denominator
    live = [None] + [(n - i) * (b * i - a) * d >= c * b * i * i for i in range(1, n + 1)]
    return [j for j in range(n - 1, 0, -1) if live[j] or live[j + 1]]


def _brute_window(n, alpha):
    """The live sizes with LB from the start's two blocks."""
    return _live_window(n, alpha, _closed_form_blocks(n))


def _near_root_window(n, alpha):
    """The live sizes with LB from every block of least size isqrt(n) or
    one more, below n, as the scan took it before it read the start's two
    blocks."""
    root = math.isqrt(n)
    blocks = [(j, x) for j in (root, root + 1) if 1 <= j < n for x in range(1, n // j + 1)]
    return _live_window(n, alpha, blocks)


def _record_best_block(monkeypatch):
    """The blocks of each `_best_block` call the scan makes, as lists."""
    calls = []
    best_block = solver._best_block

    def recording(n, p, q, blocks):
        calls.append(list(blocks))
        return best_block(n, p, q, calls[-1])

    monkeypatch.setattr(solver, "_best_block", recording)
    return calls


def _walked(n, sizes):
    return [(j, x) for j in sizes for x in range(1, n // j + 1)]


def test_walk_visits_exactly_the_live_sizes(monkeypatch):
    # integer alphas above sqrt(n) + 1 leave LB = 0, the all-full vector,
    # and put the edge of the live interval on the size i = alpha, where
    # (n - i)(i - alpha) is zero; a live set is found by walking both ways
    # from the maximizer of h
    calls = _record_best_block(monkeypatch)
    rng = random.Random(26)
    for n in range(1, 201):
        root = math.isqrt(n)
        alphas = {F(0), F(1), F(3, 2), F(n, 2), F(n + 1), core._start_ratio(n)}
        alphas.update(F(a) for a in (2, root + 2, n // 2 + 1, n - 1, n))
        alphas.add(F(rng.randint(0, 3 * n), rng.randint(1, 40)))
        for alpha in alphas:
            calls.clear()
            solve_alpha(n, alpha)
            assert calls[0] == _closed_form_blocks(n) == core._start_blocks(n), (n, alpha)
            assert calls[1] == _walked(n, _brute_window(n, alpha)), (n, alpha)
    # away from the start two blocks bound LB less tightly than every
    # block of their sizes, so the window can be wider
    calls.clear()
    solve_alpha(19, F(17, 4))
    assert calls[1] == _walked(19, range(12, 3, -1))
    assert _near_root_window(19, F(17, 4)) == list(range(10, 4, -1))


def test_certifying_step_walks_the_near_root_window(monkeypatch):
    # at the start, p(n) at every n here, the two blocks set the same LB as
    # every block of their sizes, so the certifying step walks no more
    calls = _record_best_block(monkeypatch)
    for n in range(1, 201):
        start = core._start_ratio(n)
        calls.clear()
        solve_alpha(n, start)
        assert calls[1] == _walked(n, _near_root_window(n, start)), n


# Reference: the full search as it enumerated all C(2n-2, n-2) compositions
# before the DP, kept verbatim.
def _scan_full(
    n: int, p: int, q: int, wgt: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Best (key, s) over all compositions of n into n parts."""
    best_key = None
    best_s: Optional[tuple[int, ...]] = None
    for v in range(n + 1):
        rest = n - v
        slots = rest + n - 2  # compositions of rest into n-1 parts
        base_g = v * wgt[1]
        base_f = min(n, v) * wgt[1]
        base_budget = n - min(n, v)
        for bars in combinations(range(slots), n - 2):
            g = base_g
            f = base_f
            budget = base_budget
            prev = -1
            idx = 2
            for bar in bars:
                c = bar - prev - 1
                if c:
                    g += c * wgt[idx]
                    if budget:
                        take = idx * c
                        if take > budget:
                            take = budget
                        f += take * wgt[idx]
                        budget -= take
                prev = bar
                idx += 1
            c = slots - prev - 1
            if c:
                g += c * wgt[n]
                if budget:
                    take = budget  # n*c never binds: c*n >= budget
                    f += take * wgt[n]
                    budget = 0
            key = q * f - p * g
            if best_key is None or key > best_key:
                best_key = key
                best_s = _decode_bars(v, bars, slots, n)
            elif key == best_key:
                s = _decode_bars(v, bars, slots, n)
                if s < best_s:
                    best_s = s
    return best_key, best_s


def _decode_bars(v: int, bars, slots: int, n: int) -> tuple[int, ...]:
    s = [v]
    prev = -1
    for bar in bars:
        s.append(bar - prev - 1)
        prev = bar
    s.append(slots - prev - 1)
    return tuple(s)


def test_full_dp_matches_the_enumeration():
    # integer alphas 1..n make q*i - p zero at size i = alpha, where adding
    # a column of that size ties with not adding it, and alpha = 0 makes
    # every column past the fill free: the DP must break both toward the
    # fewest columns, as the enumeration's least s does
    rng = random.Random(20148)
    for n in range(2, 11):
        scale = math.lcm(*range(1, n + 1))
        wgt = [0] + [scale // i for i in range(1, n + 1)]
        ratio = solve_p_nn(n).ratio
        alphas = {F(0), F(n + 1), F(2 * n + 3, 2), ratio, ratio - F(1, 1000), ratio + F(1, 1000)}
        alphas.update(F(k) for k in range(1, n + 1))
        alphas.update(F(rng.randint(0, 3 * n), rng.randint(1, 40)) for _ in range(6))
        for alpha in alphas:
            p, q = alpha.numerator, alpha.denominator
            key, s, r = solver._scan_full(n, p, q, wgt)
            assert (key, s) == _scan_full(n, p, q, wgt), (n, alpha)
            assert r == greedy_fill(s, n), (n, alpha)


def test_full_dp_reads_r_off_partial_columns_under_other_weights():
    # with W(i) = lcm(1..n)/i no optimum has a column that the fill leaves
    # part empty, so the traceback's t = min(i, n - f) is only exercised by
    # other weights; the DP holds for any W with W(i) > W(n) for i < n
    rng = random.Random(28)
    partial = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        wgt = [0] + [rng.randint(2, 60) for _ in range(n - 1)] + [1]
        q = rng.randint(1, 5)
        p = rng.randint(0, 3 * n * q)
        key, s, r = solver._scan_full(n, p, q, wgt)
        assert (key, s) == _scan_full(n, p, q, wgt), (n, wgt, p, q)
        assert r == greedy_fill(s, n), (n, wgt, p, q)
        partial += any(0 < r[i] < (i + 1) * s[i] for i in range(n - 1))
    assert partial > 0


# Reference: the full search as a DP over (columns used, items filled)
# before the column count was dropped, kept verbatim. O(n^3) per call.
def _scan_full_by_columns(
    n: int, p: int, q: int, wgt: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    w = n + 1
    best = [wgt[n] * (q * (n - f) - p * (n - c)) for c in range(w) for f in range(w)]
    take = [bytearray()] * w
    for i in range(n - 1, 0, -1):
        marks = take[i] = bytearray(w * w)
        for c in range(n - 1, -1, -1):
            row = c * w
            for f in range(c, w):
                t = min(i, n - f)
                key = wgt[i] * (q * t - p) + best[row + w + f + t]
                if key > best[row + f]:
                    best[row + f] = key
                    marks[row + f] = 1
    s = [0] * n
    c = f = 0
    for i in range(1, n):
        while take[i][c * w + f]:
            s[i - 1] += 1
            c += 1
            f += min(i, n - f)
    s[n - 1] = n - c
    return best[0], tuple(s)


def test_items_only_dp_matches_the_column_dp():
    # dropping the column count shifts every comparison by the same
    # amount, so the strict marks and the least s must not change;
    # integer alphas make adding a column tie with not adding it
    rng = random.Random(15)
    for n in range(2, 41):
        scale = math.lcm(*range(1, n + 1))
        wgt = [0] + [scale // i for i in range(1, n + 1)]
        ratio = solve_p_nn(n).ratio
        alphas = {F(0), F(1), F(n), F(n + 1), ratio, ratio - F(1, 1000), ratio + F(1, 1000)}
        alphas.update(F(rng.randint(0, 3 * n), rng.randint(1, 40)) for _ in range(8))
        if n <= 20:
            alphas.update(F(k) for k in range(2, n))
        for alpha in alphas:
            p, q = alpha.numerator, alpha.denominator
            key, s, r = solver._scan_full(n, p, q, wgt)
            assert (key, s) == _scan_full_by_columns(n, p, q, wgt), (n, alpha)
            # the traceback's t = min(i, n - f) per column is the greedy fill
            assert r == greedy_fill(s, n), (n, alpha)


# --- candidate generation ------------------------------------------------------

def test_candidates_sum_to_n():
    for n in (2, 3, 7, 12):
        for s in lemma4_candidates(n):
            assert len(s) == n and sum(s) == n


def test_candidates_are_unique_and_sparse():
    for n in (4, 9, 15):
        seen = list(lemma4_candidates(n))
        assert len(seen) == len(set(seen))
        for s in seen:
            support = [i + 1 for i, v in enumerate(s) if v]
            assert len(support) <= 3
            sub = [i for i in support if i < n]
            assert len(sub) <= 2
            if len(sub) == 2:
                assert sub[1] - sub[0] == 1  # consecutive sizes
            assert sum(i * s[i - 1] for i in sub) <= 2 * n


def test_candidates_include_known_witnesses():
    assert (0, 1, 2) in set(lemma4_candidates(3))
    assert (0, 1, 1, 0, 3) in set(lemma4_candidates(5))
    assert (0, 2, 1, 0, 0, 0, 4) in set(lemma4_candidates(7))


def test_candidates_come_in_increasing_order():
    # the scan keeps the first strict maximum, so the walk order is its
    # tie-break toward the least s
    for n in range(2, 41):
        seen = list(lemma4_candidates(n))
        assert all(a < b for a, b in zip(seen, seen[1:])), n


def _compositions(n, parts):
    """Every tuple of `parts` nonnegative ints summing to n, in increasing order."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, parts - 1):
            yield (head, *tail)


def _in_restricted_family(s):
    """The all-full vector, or a vector whose support below n is {j} or
    {j, j+1}, with s_j >= 1 and at most 2n items in those columns."""
    n = len(s)
    sub = [i for i in range(1, n) if s[i - 1]]
    if not sub:
        return s[-1] == n
    j = sub[0]
    return sub in ([j], [j, j + 1]) and sum(i * s[i - 1] for i in sub) <= 2 * n


def test_candidates_are_the_filtered_compositions_in_order():
    for n in range(2, 10):
        want = [s for s in _compositions(n, n) if _in_restricted_family(s)]
        assert list(lemma4_candidates(n)) == want, n


def test_candidate_sequences_are_pinned():
    # the benchmark's traced runs count this sequence, so a refactor must
    # keep it element for element
    digest = hashlib.sha256()
    for n in range(2, 61):
        digest.update(repr(list(lemma4_candidates(n))).encode())
    assert digest.hexdigest() == "72706add69d4f6c56e5bed78c0b564f79060e108d976736125724ce239601012"


def test_candidates_need_two_agents():
    with pytest.raises(ValueError):
        list(lemma4_candidates(1))


def test_candidates_cover_everything_for_tiny_n():
    # for n <= 3 the family restriction is vacuous
    assert sorted(lemma4_candidates(2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(lemma4_candidates(3))) == 10


# --- search and mode equivalence ------------------------------------------------

def test_full_enumeration_matches_restricted():
    for n in range(1, 9):
        assert solve_p_nn(n, FULL) == solve_p_nn(n)


def test_options_validation():
    with pytest.raises(ValueError):
        solve_p_nn(0)


def test_options_search_must_be_a_search():
    # a string would otherwise run the restricted scan whatever it names
    with pytest.raises(ValueError, match="search must be a Search, got 'full'"):
        SolveOptions(search="full")


@pytest.mark.parametrize("options", ["full", Search.FULL_ENUMERATION, 0])
def test_options_must_be_solve_options(options):
    with pytest.raises(ValueError, match="options must be a SolveOptions"):
        solve_p_nn(12, options)
    with pytest.raises(ValueError, match="options must be a SolveOptions"):
        solve_alpha(12, F(1), options)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_alpha(5, 1.3),
        lambda: solve_alpha(5, True),
        lambda: solve_alpha(5, "3/2"),
        lambda: solve_alpha(2.0, F(1)),
        lambda: solve_p_nn(True),
        lambda: solve_p_nn(2.0),
        lambda: solve_p_nn(F(3)),
    ],
    ids=["alpha-float", "alpha-bool", "alpha-str", "n-float", "n-bool",
         "n-float-solve", "n-fraction"],
)
def test_floats_and_non_int_n_are_rejected(call):
    # a float alpha would be read as its 53-bit binary expansion
    with pytest.raises(ValueError, match="must be an int"):
        call()


def test_int_alpha_is_accepted():
    assert solve_alpha(5, 1) == solve_alpha(5, F(1))


# --- the warm start -----------------------------------------------------------

def _two_size_blocks(n):
    """Reference for the blocks the start scored before it kept only
    y = floor(R/(j+1)), as (s, r) pairs with the greedy fill: least size
    j = isqrt(n) or one more, below n; x <= n/j columns of size j;
    y = floor(R/(j+1)) or one more of size j+1, R being the items the
    j-columns leave; full support on the rest."""
    root = math.isqrt(n)
    for j in (root, root + 1):
        if not 1 <= j < n:
            continue
        for x in range(1, n // j + 1):
            low = (n - j * x) // (j + 1)
            for y in (low, low + 1):
                if x + y > n or (j + 1 == n and y):
                    continue
                s = [0] * n
                s[j - 1] = x
                s[j] += y
                s[-1] += n - x - y
                yield tuple(s), greedy_fill(s, n)


def test_start_lies_between_the_construction_and_p():
    # every n to 300, one seeded n per width-100 stratum of 301..1000, and
    # n = 2000
    rng = random.Random("solver:start-sample")
    sample = [rng.randrange(lo, lo + 100) for lo in range(301, 1001, 100)]
    for n in [*range(1, 301), *sample, 2000]:
        start = core._start_ratio(n)
        assert construction_ratio(n) <= start <= solve_p_nn(n).ratio, n
        if n > 40:
            continue
        # the start is the best ratio of the wider reference family, on
        # Fractions, with the construction as a floor, as it was before the
        # start dropped both; the matrix it comes from certifies it
        blocks = [(solver._witness_ratio(s, r), s, r) for s, r in _two_size_blocks(n)]
        ratio, s, r = max(blocks, key=lambda b: b[0], default=(F(0), None, None))
        assert start == max(ratio, construction_ratio(n)), n
        x = build_witness_matrix(s, r, n) if ratio == start else lower_construction(n)
        assert price_ratio(x).ratio == start, n


def test_start_equals_the_reference_start():
    # one step from the all-full ratio over the two closed-form blocks
    # gives the best ratio of every block of their sizes
    rng = random.Random("solver:start-reference")
    sample = [rng.randrange(5001, 10**6 + 1) for _ in range(60)]
    for n in [*range(1, 5001), *sample, 10**6]:
        assert core._start_ratio(n) == reference_start_ratio(n), n


def test_start_blocks_come_in_falling_size_order():
    # at n = 3 and alpha = 1 the blocks (2, 1, y = 0) and (1, 1, y = 1)
    # tie; the first strict maximum is p(3) = 8/7 only when the larger
    # size comes first
    assert core._start_blocks(3) == [(2, 1), (1, 1)]
    num, den = core._best_block(3, 1, 1, [(2, 1), (1, 1)])[3:]
    assert (F(num, den), core._start_ratio(3)) == (F(8, 7), F(8, 7))
    num, den = core._best_block(3, 1, 1, [(1, 1), (2, 1)])[3:]
    assert F(num, den) == F(12, 11)


def test_warm_start_takes_one_step(monkeypatch):
    # both searches start at `core._start_ratio(n)`, which is p(n) here, so
    # the first step is the certifying one
    first, calls = {}, Counter()

    def counting(inner, kind):
        def step(n, alpha, *args):
            first.setdefault((kind, n), alpha)
            calls[kind, n] += 1
            return inner(n, alpha, *args)
        return step

    monkeypatch.setattr(solver, "solve_alpha", counting(solver.solve_alpha, "solver"))
    monkeypatch.setattr(oracle, "_oracle_dp", counting(oracle._oracle_dp, "oracle"))
    for n in range(1, 301):
        solve_p_nn(n)
    for n in range(1, 151):
        oracle.oracle_p_nn(n)
    keys = [(kind, n) for kind, top in (("solver", 300), ("oracle", 150))
            for n in range(1, top + 1)]
    assert first == {(kind, n): core._start_ratio(n) for kind, n in keys}
    assert calls == Counter(keys)


def test_a_start_above_p_is_refused(monkeypatch):
    # an attainable start never exceeds the optimum; one that does makes
    # the first step negative, which both searches refuse
    p = {n: solve_p_nn(n).ratio for n in (1, 2, 3, 5, 8, 17, 40, 99)}
    monkeypatch.setattr(core, "_start_ratio", lambda n: p[n] + F(1, n + 1))
    for n in p:
        with pytest.raises(RatioSearchFailed, match="below zero"):
            solve_p_nn(n)
        with pytest.raises(RatioSearchFailed, match="below zero"):
            oracle.oracle_p_nn(n)


def test_warm_start_returns_the_witness_of_a_start_at_one(monkeypatch):
    # from any start the last step runs at p(n), so the result is what a
    # zero-objective solve at the optimum returns, and what a search
    # started at alpha = 1, in more steps, returns
    want = {}
    for n in range(1, 61):
        want[n] = witness = solve_p_nn(n)
        assert solve_alpha(n, witness.ratio) == (0, witness), n
    monkeypatch.setattr(core, "_start_ratio", lambda n: F(1))
    assert {n: solve_p_nn(n) for n in range(1, 61)} == want


def test_ratio_search_failures_are_typed(monkeypatch):
    two = StructuredWitness((0, 2), (0, 2), F(1))
    monkeypatch.setattr(solver, "solve_alpha", lambda n, alpha, options=None: (F(-1), two))
    with pytest.raises(RatioSearchFailed, match="below zero"):
        solve_p_nn(2)
    monkeypatch.setattr(oracle, "_oracle_dp", lambda n, alpha: (F(-1), None))
    with pytest.raises(RatioSearchFailed, match="below zero"):
        oracle.oracle_p_nn(2)

    # a positive objective that never raises alpha runs into the step bound
    monkeypatch.setattr(solver, "solve_alpha", lambda n, alpha, options=None: (F(1), two))
    flat = oracle.VertexConfig(((1, 1), (1, 1)))  # ratio 1
    monkeypatch.setattr(oracle, "_oracle_dp", lambda n, alpha: (F(1), flat))
    monkeypatch.setattr(core, "MAX_RATIO_STEPS", 3)
    with pytest.raises(RatioSearchFailed, match="within 3 "):
        solve_p_nn(2)
    with pytest.raises(RatioSearchFailed, match="within 3 "):
        oracle.oracle_p_nn(2)


# --- witness objects -----------------------------------------------------------

def test_returned_witnesses_are_certified():
    for n in (3, 5, 8, 14, 30):
        w = solve_p_nn(n)
        objective, _ = solve_alpha(n, w.ratio)
        assert objective == 0


def test_structured_witness_validation():
    with pytest.raises(InvalidWitness):
        StructuredWitness((0, 1), (0, 2), F(1))  # sum(s) != 2
    with pytest.raises(InvalidWitness):
        StructuredWitness((2, 0), (0, 2), F(1))  # r_2 > 2*s_2
    with pytest.raises(InvalidWitness):
        StructuredWitness((0, 2), (0, 2), F(2))  # ratio mismatch


def test_witness_json_round_trip(tmp_path):
    w = solve_p_nn(7)
    payload = witness_to_dict(w)
    assert payload == {
        "n": 7,
        "s": [0, 2, 1, 0, 0, 0, 4],
        "r": [0, 4, 3, 0, 0, 0, 0],
        "ratio": "63/40",
    }
    assert witness_from_dict(payload) == w
    path = tmp_path / "w7.json"
    write_witness(w, str(path))
    assert read_witness(str(path)) == w


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "s": [0, 2], "r": [0, 2]},
        {"n": 2, "s": [0, 2], "r": [0, 2, 0], "ratio": "1"},
        {"n": 2, "s": [0, 2], "r": [0, 2], "ratio": "3/2"},
        {"n": "2", "s": [0, 2], "r": [0, 2], "ratio": "1"},
        {"n": True, "s": [True], "r": [True], "ratio": "1"},
        {"n": 2, "s": [True, True], "r": [True, True], "ratio": "1"},
        5,
        [2, [0, 2], [0, 2], "1"],
        {"n": 2, "s": [0, 2], "r": [0, 2], "ratio": True},
        {"n": 2, "s": [0, 2], "r": [0, 2], "ratio": "x"},
    ],
)
def test_witness_dict_rejections(payload):
    with pytest.raises(InvalidWitness):
        witness_from_dict(payload)


def test_read_witness_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidWitness, match=r"^witness file: invalid JSON \("):
        read_witness(str(path))
