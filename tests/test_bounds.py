import random
import time
from fractions import Fraction

import pytest

import envyprice
import envyprice.core
from envyprice.bounds import (
    BoundReport,
    bound_report,
    check_lower_bound,
    check_upper_bound,
    construction_ratio,
    explore_witness,
    g_of_d,
    lower_construction,
    upper_g_max,
)
from envyprice.core import SearchSpaceTooLarge, price_ratio
from envyprice.oracle import fuzz_instances
from envyprice.solver import KNOWN_RATIOS, lemma4_candidates, solve_p_nn
from envyprice.structure import build_witness_matrix
from util import pad_zero_rows

F = Fraction

# 1.8-2.5 s measured on a 2-core x86 box (Python 3.11.7), alone and inside
# a full tier-1 run; the budget leaves room for a host that runs 40% slower
# in spells, and a search started at alpha = 1 (12.8 s) fails it
SANDWICH_300_BUDGET_S = 10.0
# 1.0-1.5 s measured on the same box for the 11 values of the sample to 5000
SANDWICH_5000_SAMPLE_BUDGET_S = 6.0
# about 0.05 s measured on the same box for the solve and the checks at
# n = 100 000; the scan over every block size took 31 s and 1.86 GiB there
SANDWICH_100000_BUDGET_S = 2.0


# --- the square-root construction ---------------------------------------------

def test_construction_ratio_reference_values():
    assert construction_ratio(1) == 1
    assert construction_ratio(2) == 1
    assert construction_ratio(4) == F(4, 3)
    assert construction_ratio(5) == F(11, 8)
    assert construction_ratio(9) == F(9, 5)
    # one function, kept in core next to the ratio search that starts at it
    assert construction_ratio is envyprice.core.construction_ratio is envyprice.construction_ratio


def test_construction_shape_n9():
    x = lower_construction(9)
    assert x.n == x.m == 9
    for t in range(3):
        block = {3 * t, 3 * t + 1, 3 * t + 2}
        col = x.columns[t]
        assert all(
            col[i] == (F(1, 3) if i in block else 0) for i in range(9)
        )
    for j in range(3, 9):
        assert all(v == F(1, 9) for v in x.columns[j])


def test_construction_single_agent():
    assert lower_construction(1).columns == ((F(1),),)
    with pytest.raises(ValueError):
        lower_construction(0)


def test_construction_certifies_its_closed_form():
    for n in range(1, 51):
        assert price_ratio(lower_construction(n)).ratio == construction_ratio(n)


def test_construction_tight_at_4_and_9_loose_at_5():
    assert construction_ratio(4) == KNOWN_RATIOS[4]
    assert construction_ratio(9) == KNOWN_RATIOS[9]
    assert construction_ratio(5) < KNOWN_RATIOS[5]


# --- the ceiling curve -----------------------------------------------------------

def test_g_endpoints_and_interior():
    for n in (1, 5, 9):
        assert g_of_d(n, F(0)) == 1
        assert g_of_d(n, F(n)) == 1
    assert g_of_d(8, F(2)) == 2
    assert g_of_d(3, F(1, 2)) == F(18, 13)


def test_g_validation():
    with pytest.raises(ValueError):
        g_of_d(3, F(-1))
    with pytest.raises(ValueError):
        g_of_d(0, F(1))


def test_g_stationary_point_on_friendly_n():
    # at n = k^2 + 2k the maximizer -1 + sqrt(1+n) is the integer k
    for k in (2, 3, 4):
        n = k * k + 2 * k
        peak = g_of_d(n, F(k))
        assert upper_g_max(n) == peak
        rng = random.Random(f"bounds:g:{n}")
        for _ in range(100):
            q = rng.randrange(1, 8)
            p = rng.randrange(1, n * q)
            assert g_of_d(n, F(p, q)) <= peak


def test_g_max_matches_a_full_scan():
    for n in range(1, 1001):
        scan = max(Fraction(n * (d + 1), d * d + n) for d in range(n + 1))
        assert upper_g_max(n) == scan, n


# --- exact irrational comparisons ------------------------------------------------

def test_lower_check():
    assert check_lower_bound(9, F(9, 5))
    assert check_lower_bound(2, F(1))
    assert not check_lower_bound(100, F(2))
    # p = sqrt(9)/2 - 1/2 exactly
    assert check_lower_bound(9, F(1))
    assert not check_lower_bound(9, F(99, 100))


def test_upper_check():
    assert check_upper_bound(9, F(9, 5))
    assert check_upper_bound(4, F(4, 3))
    assert check_upper_bound(1000, F(1))
    assert not check_upper_bound(4, F(3))
    # the bound at n = 9 is exactly 3/2 + 1/9 + 1 = 47/18
    assert check_upper_bound(9, F(47, 18))
    assert not check_upper_bound(9, F(47, 18) + F(1, 1000))


def test_check_validation():
    with pytest.raises(ValueError):
        check_lower_bound(4, F(-1))
    with pytest.raises(ValueError):
        check_upper_bound(4, F(-1))


def test_sandwich_on_known_values():
    for n, p in KNOWN_RATIOS.items():
        assert check_lower_bound(n, p)
        assert check_upper_bound(n, p)


def _assert_sandwich(n, c):
    # the paper's Theta(sqrt n) sandwich and its square-root construction,
    # checked against the exact p(n). The band
    # sqrt(n)/2 + 1/4 < p(n) <= sqrt(n)/2 + 1/4 + c/sqrt(n) is an observed
    # pattern, not a theorem; it is checked squared, in exact arithmetic.
    p = solve_p_nn(n).ratio
    assert check_lower_bound(n, p), n
    assert check_upper_bound(n, p), n
    assert p >= construction_ratio(n), n
    assert (4 * p - 1) ** 2 > 4 * n, n
    assert (p - F(1, 4)) ** 2 * n <= (F(n, 2) + c) ** 2, n


def test_sandwich_and_construction_hold_exactly_to_300():
    # three times criterion 4's range: c = 2/15 holds for n >= 50 (it fails
    # only at the squares 1, 4, ..., 49, and n = 64 attains it), c = 1/4 for
    # every n
    t0 = time.perf_counter()
    for n in range(1, 301):
        _assert_sandwich(n, F(2, 15) if n >= 50 else F(1, 4))
    elapsed = time.perf_counter() - t0
    assert elapsed < SANDWICH_300_BUDGET_S, f"{elapsed:.2f}s"


def test_sandwich_and_construction_hold_exactly_on_a_sample_to_5000():
    # one seeded n per width-500 stratum of 301..5000, plus n = 5000
    rng = random.Random(5000)
    sample = [rng.randrange(lo, min(lo + 500, 5001)) for lo in range(301, 5001, 500)]
    t0 = time.perf_counter()
    for n in [*sample, 5000]:
        _assert_sandwich(n, F(2, 15))
    elapsed = time.perf_counter() - t0
    assert elapsed < SANDWICH_5000_SAMPLE_BUDGET_S, f"{elapsed:.2f}s"


def test_sandwich_holds_at_n_100000():
    # the solver walks only the block sizes near sqrt(n) that its bound
    # leaves live, on small keys, so p(n) stays cheap far past the full
    # DP's range; the start is p(n) here, so one step certifies it
    n = 100_000
    t0 = time.perf_counter()
    _assert_sandwich(n, F(2, 15))
    elapsed = time.perf_counter() - t0
    assert elapsed < SANDWICH_100000_BUDGET_S, f"{elapsed:.2f}s"
    assert solve_p_nn(n).ratio == envyprice.core._start_ratio(n)


# --- input validation ----------------------------------------------------------------

@pytest.mark.parametrize("n", [True, 2.0, 2.5, 0], ids=["bool", "float", "fraction-float", "zero"])
@pytest.mark.parametrize(
    "call",
    [
        lower_construction,
        construction_ratio,
        lambda n: g_of_d(n, F(1)),
        upper_g_max,
        lambda n: check_upper_bound(n, F(5)),
        lambda n: check_lower_bound(n, F(1)),
        lambda n: list(fuzz_instances(n, 1, 0)),
        lambda n: list(lemma4_candidates(n)),
    ],
    ids=["lower_construction", "construction_ratio", "g_of_d", "upper_g_max",
         "check_upper_bound", "check_lower_bound", "fuzz_instances", "lemma4_candidates"],
)
def test_n_must_be_a_positive_int(call, n):
    # a bool or float n once gave a wrong answer, a ZeroDivisionError or a
    # bare TypeError depending on the function
    with pytest.raises(ValueError, match="n must be"):
        call(n)


@pytest.mark.parametrize("value", [9 / 5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: g_of_d(9, v),
        lambda v: check_upper_bound(9, v),
        lambda v: check_lower_bound(9, v),
        lambda v: bound_report(9, v),
    ],
    ids=["g_of_d", "check_upper_bound", "check_lower_bound", "bound_report"],
)
def test_rationals_must_be_ints_or_fractions(call, value):
    # a float would be checked as its binary expansion, a bool as 0 or 1
    with pytest.raises(ValueError, match="must be an int"):
        call(value)


# --- reports -------------------------------------------------------------------------

def test_bound_report_with_exact_value():
    report = bound_report(9, F(9, 5))
    assert report.n == 9
    assert report.lower_construction_ratio == F(9, 5)
    assert report.upper_g_max == g_of_d(9, F(2))
    assert report.p_exact == F(9, 5)
    assert all(ok for _, ok in report.checks)
    assert dict(report.checks)["construction_at_most_exact"]


def test_bound_report_without_exact_value():
    report = bound_report(12)
    assert report.p_exact is None
    assert [name for name, _ in report.checks] == [
        "construction_lower_bound",
        "construction_below_ceiling",
    ]
    assert all(ok for _, ok in report.checks)


def test_bound_report_rejects_out_of_order_values():
    with pytest.raises(ValueError):
        BoundReport(3, F(3, 2), F(3, 2), F(8, 7), ())


# --- worthless items -----------------------------------------------------------------

def test_worthless_items_preserve_ratio(w3):
    padded = pad_zero_rows(w3, 2)
    assert padded.m == 5 and padded.n == 3
    assert all(col[3] == col[4] == 0 for col in padded.columns)
    assert price_ratio(padded).ratio == F(8, 7)
    assert pad_zero_rows(w3, 0) == w3


# --- the explorer --------------------------------------------------------------------

def test_explore_square_two_agents_is_exactly_one():
    # every envy-free-admitting 2x2 instance has ratio 1
    assert explore_witness(2, 2, 30)[0] == 1


def test_explore_single_agent():
    assert explore_witness(1, 5, 3)[0] == 1


def test_explore_deterministic_and_bounded():
    first = explore_witness(2, 3, 200, seed=0)[0]
    assert explore_witness(2, 3, 200, seed=0)[0] == first
    assert F(1) <= first <= F(3, 2)  # the two-agent supremum caps it


def test_explore_beats_one_given_enough_budget():
    assert explore_witness(2, 3, 300, seed=0)[0] > 1


def test_explore_seeded_with_solver_witness(w3):
    assert explore_witness(3, 3, 4, seed_matrices=(w3,))[0] >= F(8, 7)
    w5 = build_witness_matrix((0, 1, 1, 0, 3), (0, 2, 3, 0, 0), 5)
    assert explore_witness(5, 5, 3, seed_matrices=(w5,))[0] >= F(60, 43)


def test_explore_witness_returns_certified_instance():
    ratio, x = explore_witness(2, 3, 120, seed=2)
    assert price_ratio(x).ratio == ratio


@pytest.mark.parametrize(
    "n, m, seed, ratio, grid, scale",
    [
        (2, 5, 1, F(1), ((2, 2, 2, 0, 0), (0, 0, 0, 3, 3)), 6),
        (2, 5, 2, F(869, 728), ((270, 27, 54, 54, 270), (175, 175, 100, 50, 175)), 675),
        (2, 5, 3, F(689, 633), ((85, 34, 170, 85, 153), (155, 93, 31, 62, 186)), 527),
        (3, 5, 0, F(119, 99), ((306, 0, 0, 340, 136), (170, 204, 170, 68, 170), (207, 115, 69, 230, 161)), 782),
        (3, 5, 1, F(335, 261), ((20, 15, 65, 50, 40), (76, 76, 0, 38, 0), (0, 19, 76, 38, 57)), 190),
        (3, 5, 2, F(1315, 1002), ((1008, 112, 112, 224, 1120), (460, 552, 460, 368, 736), (805, 161, 0, 805, 805)), 2576),
        (2, 6, 0, F(1), ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)), 3),
        (2, 6, 3, F(55, 51), ((96, 64, 176, 112, 128, 80), (164, 0, 0, 246, 205, 41)), 656),
        (2, 6, 5, F(521, 499), ((200, 200, 180, 0, 60, 120), (57, 152, 133, 190, 152, 76)), 760),
    ],
)
def test_explore_results_are_pinned(n, m, seed, ratio, grid, scale):
    # recorded with the branch and bound run on every off-square
    # certification, on the benchmark's shapes and budget; certifying ratio 1
    # from an envy-free welfare optimum must not move them
    got, x = explore_witness(n, m, 40, seed)
    assert (got, x.grid, x.scale) == (ratio, grid, scale)


def test_explore_monotone_in_m_when_reseeded():
    ratio, x = explore_witness(2, 2, 60, seed=1)
    values = [ratio]
    for m in (3, 4):
        seeded = pad_zero_rows(x, 1)
        ratio, x = explore_witness(2, m, 60, seed=1, seed_matrices=(seeded,))
        values.append(ratio)
    assert values == sorted(values)


def test_explore_guard():
    with pytest.raises(SearchSpaceTooLarge, match="131072 allocations exceed cap 65536"):
        explore_witness(2, 17, 5)
    with pytest.raises(SearchSpaceTooLarge):
        explore_witness(5, 7, 5)
    # 3^(10^7) alone takes seconds to build; the guard decides without it
    t0 = time.perf_counter()
    with pytest.raises(SearchSpaceTooLarge, match=r"3\^10000000 allocations exceed cap 65536"):
        explore_witness(3, 10**7, 5)
    assert time.perf_counter() - t0 < 1.0


def test_explore_validation():
    with pytest.raises(ValueError):
        explore_witness(2, 1, 5)
    with pytest.raises(ValueError):
        explore_witness(2, 3, 0)
    # a bool would pass as 0 or 1, a float as a fractional budget or size
    for args, name in [
        ((2.0, 3, 10), "n"),
        ((True, 2, 5), "n"),
        ((2, 3.0, 10), "m"),
        ((2, True, 5), "m"),
        ((2, 3, 2.5), "budget"),
        ((2, 3, True), "budget"),
        ((2, 3, 10, 1.5), "seed"),
        ((2, 3, 10, "1.5"), "seed"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            explore_witness(*args)
    # a seed of another shape would certify a ratio for the wrong instance
    # size: the 9 x 9 witness gives 9/5, but p(2) = 1
    w9 = solve_p_nn(9)
    x9 = build_witness_matrix(w9.s, w9.r, 9)
    with pytest.raises(ValueError, match="seed matrices must have 2 agents and 2 items"):
        explore_witness(2, 2, 3, seed_matrices=(x9,))
    with pytest.raises(ValueError, match="seed matrices must be UtilityMatrix objects"):
        explore_witness(2, 2, 3, seed_matrices=[[1, 2]])
