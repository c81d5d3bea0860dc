import doctest
import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import envyprice.core
import envyprice.oracle
from envyprice.bounds import lower_construction, with_worthless_items
from envyprice.core import (
    Allocation,
    ColumnNotNormalized,
    DimensionMismatch,
    NegativeUtility,
    SearchSpaceTooLarge,
    UtilityMatrix,
    WelfareReport,
    allocation_welfare,
    envy_free_matching,
    envy_free_optimal_exhaustive,
    envy_free_optimal_welfare,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    is_envy_free,
    optimal_welfare,
    parse_rational,
    price_ratio,
    read_instance,
    write_instance,
)
from envyprice.oracle import fuzz_instances
from envyprice.solver import solve_p_nn
from envyprice.structure import build_witness_matrix
from util import brute_ef_allocations, brute_ef_optimum, brute_optimum, random_columns


# --- rational parsing ------------------------------------------------------

def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(" 2/8 ") == Fraction(1, 4)
    assert parse_rational(5) == Fraction(5)


@pytest.mark.parametrize("bad", ["1.5", "", "a/b", "1/2/3", "1e3", "1/-2", "1/0", True])
def test_parse_rational_rejects_non_pq(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(8, 7)) == "8/7"
    assert format_rational(Fraction(3)) == "3"
    assert parse_rational(format_rational(Fraction(60, 43))) == Fraction(60, 43)


# --- matrix validation -----------------------------------------------------

def test_negative_entry_reports_one_based_position():
    with pytest.raises(NegativeUtility) as exc:
        UtilityMatrix.from_strings([["-1/2", "3/2"], ["1/2", "1/2"]])
    assert str(exc.value) == "NegativeUtility(1, 1)"
    assert (exc.value.item, exc.value.agent) == (1, 1)


def test_unnormalized_column_reports_total():
    with pytest.raises(ColumnNotNormalized) as exc:
        UtilityMatrix.from_strings([["1/2", "1/3"], ["1/2", "1/2"]])
    assert str(exc.value) == "ColumnNotNormalized(1, 5/6)"
    assert exc.value.column == 1
    assert exc.value.total == Fraction(5, 6)


def test_errors_report_positions_past_the_first_entry():
    # the first negative in column order is item 3 of agent 2; later ones
    # (item 4 of agent 2, item 1 of agent 3) must not be reported instead
    with pytest.raises(NegativeUtility) as exc:
        UtilityMatrix.from_strings([
            ["1/2", "1/2", "0", "0"],
            ["1/2", "1", "-1/4", "-1/4"],
            ["-1", "1", "1", "0"],
        ])
    assert str(exc.value) == "NegativeUtility(3, 2)"
    assert (exc.value.item, exc.value.agent) == (3, 2)
    assert exc.value.value == Fraction(-1, 4)
    # column 2 is the first bad column: its total is reported before the
    # negative entry and the wrong total of column 3
    with pytest.raises(ColumnNotNormalized) as exc:
        UtilityMatrix.from_strings([
            ["1/2", "1/4", "1/4"],
            ["1/3", "1/3", "1/4"],
            ["-1", "1", "1"],
        ])
    assert str(exc.value) == "ColumnNotNormalized(2, 11/12)"
    assert exc.value.column == 2
    assert exc.value.total == Fraction(11, 12)
    # a wrong total in column 1 comes before a negative entry in column 2
    with pytest.raises(ColumnNotNormalized) as exc:
        UtilityMatrix(((1, 1), (4, -1)), 3)
    assert str(exc.value) == "ColumnNotNormalized(1, 2/3)"


def test_non_fraction_entries_are_coerced():
    x = UtilityMatrix.from_columns((
        (1, 0, 0),
        (Fraction(1, 3), 0, Fraction(2, 3)),
        (Fraction(1, 4), Fraction(3, 4), 0),
    ))
    assert x.columns == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
        (Fraction(1, 4), Fraction(3, 4), Fraction(0)),
    )
    assert all(type(v) is Fraction for col in x.columns for v in col)
    assert x.scale == 12
    assert x.grid == ((12, 0, 0), (4, 0, 8), (3, 9, 0))
    assert x == UtilityMatrix.from_strings([["1", "0", "0"], ["1/3", "0", "2/3"],
                                            ["1/4", "3/4", "0"]])


def test_float_entries_rejected_with_their_position():
    # 0.5 is exact in binary, 0.1 is not: both are refused the same way
    with pytest.raises(ValueError, match=r"entry \(1, 1\) is a float"):
        UtilityMatrix.from_columns([[0.5, 0.5]])
    with pytest.raises(ValueError, match=r"entry \(1, 1\) is a float"):
        UtilityMatrix.from_columns([[0.1, 0.9]])
    with pytest.raises(ValueError, match=r"entry \(2, 2\) is a float"):
        UtilityMatrix.from_columns([[1, 0], [Fraction(1, 2), 0.5]])


def test_ragged_and_empty_matrices_rejected():
    with pytest.raises(ValueError):
        UtilityMatrix.from_strings([["1/2", "1/2"], ["1"]])
    with pytest.raises(ValueError):
        UtilityMatrix.from_columns(())


def test_integer_grid_is_exact():
    x = UtilityMatrix.from_strings([["1/2", "1/3", "1/6"], ["1/4", "1/4", "1/2"]])
    assert x.scale == 12
    assert x.grid == ((6, 4, 2), (3, 3, 6))
    assert x.entry(0, 0) == Fraction(1, 2)
    assert x.n == 2 and x.m == 3


def test_scale_is_reduced_to_the_least_denominator():
    x = UtilityMatrix(((2, 2), (4, 0)), 4)
    assert (x.grid, x.scale) == (((1, 1), (2, 0)), 2)
    assert x == UtilityMatrix.from_strings([["1/2", "1/2"], ["1", "0"]])


def test_from_weights_rejections():
    with pytest.raises(NegativeUtility) as exc:
        UtilityMatrix.from_weights([[1, 1], [2, -1]])
    assert (exc.value.item, exc.value.agent) == (2, 2)
    # a column whose total is not positive still reports its negative weight
    with pytest.raises(NegativeUtility) as exc:
        UtilityMatrix.from_weights([[1, 1], [-3, 1]])
    assert (exc.value.item, exc.value.agent) == (1, 2)
    with pytest.raises(ColumnNotNormalized) as exc:
        UtilityMatrix.from_weights([[1, 1], [0, 0]])
    assert (exc.value.column, exc.value.total) == (2, 0)
    with pytest.raises(ValueError):
        UtilityMatrix.from_weights([[0.5, 0.5]])


@pytest.mark.parametrize("bad", [0.5, True])
def test_grid_entries_must_be_ints(bad):
    # (bad, 1 - bad) sums to the scale, so only the entry type is wrong
    with pytest.raises(ValueError, match="integers"):
        UtilityMatrix(((1, 0), (bad, 1 - bad)), 1)


@pytest.mark.parametrize("scale", [0, -2, True, Fraction(2)])
def test_scale_must_be_a_positive_int(scale):
    with pytest.raises(ValueError, match="scale"):
        UtilityMatrix(((int(scale),),), scale)


def test_hot_paths_never_build_the_fraction_view():
    w = solve_p_nn(12)
    built = [
        lower_construction(50),
        build_witness_matrix(w.s, w.r, 12),
        next(fuzz_instances(5, 1, seed=0)),
    ]
    for x in built:
        assert price_ratio(x).ratio is not None
        assert "columns" not in vars(x)


# --- welfare on the frozen 3x3 worst case ----------------------------------

def test_w3_optimal_welfare(w3):
    opt, alloc = optimal_welfare(w3)
    assert opt == Fraction(4, 3)
    assert alloc == (0, 0, 1)  # lowest-index ties
    assert allocation_welfare(w3, alloc) == opt


def test_w3_envy_free_values(w3):
    match = envy_free_matching(w3)
    assert match == (0, 1, 2)
    assert is_envy_free(w3, match)
    assert envy_free_optimal_welfare(w3) == Fraction(7, 6)
    report = price_ratio(w3)
    assert report == WelfareReport(Fraction(4, 3), Fraction(7, 6), Fraction(8, 7))


def test_w3_envy_detection(w3):
    # giving both concentrated items to agent 1 leaves agents 2 and 3 envious
    assert not is_envy_free(w3, (0, 0, 1))
    assert is_envy_free(w3, (0, 1, 2))


# --- non-square instances --------------------------------------------------

def test_two_agents_three_items_exhaustive():
    x = UtilityMatrix.from_strings([["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"]])
    found = envy_free_optimal_exhaustive(x)
    assert found == (Fraction(7, 6), (0, 1, 1))  # lex-min among the two optima
    report = price_ratio(x)
    assert report.optimal == Fraction(4, 3)
    assert report.ratio == Fraction(8, 7)


def test_matching_requires_square():
    x = UtilityMatrix.from_strings([["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"]])
    with pytest.raises(DimensionMismatch):
        envy_free_matching(x)


def test_exhaustive_cap():
    # 2^24 allocations exceed the cap, so both calls raise before enumerating
    x = UtilityMatrix.from_weights([[1] * 24, [1] * 24])
    message = "SearchSpaceTooLarge: 16777216 allocations exceed cap 10000000"
    with pytest.raises(SearchSpaceTooLarge, match=message):
        envy_free_optimal_exhaustive(x)
    with pytest.raises(SearchSpaceTooLarge, match=message):
        price_ratio(x)


def test_no_envy_free_allocation():
    # both agents care only about item 1, so neither bijection is envy-free
    x = UtilityMatrix.from_strings([["1", "0"], ["1", "0"]])
    assert envy_free_matching(x) is None
    assert envy_free_optimal_welfare(x) is None
    report = price_ratio(x)
    assert report.optimal == Fraction(1)
    assert report.envy_free_optimal is None and report.ratio is None


def test_uniform_instance_has_ratio_one():
    x = UtilityMatrix.from_strings([["1/2", "1/2"], ["1/2", "1/2"]])
    assert price_ratio(x).ratio == Fraction(1)


def test_long_augmenting_paths_do_not_recurse():
    # Column j < n-1 puts 1/2 on items n-2-j and n-1-j, the last column puts
    # 1 on item 0: the matching needs augmenting paths about n steps long.
    # The column maxima sum to 1 + (n-1)/2, which is both the optimum and
    # the envy-free optimum, so the ratio is 1.
    n = 1200
    half, zero = Fraction(1, 2), Fraction(0)
    cols = []
    for j in range(n - 1):
        col = [zero] * n
        col[n - 2 - j] = col[n - 1 - j] = half
        cols.append(tuple(col))
    cols.append((Fraction(1),) + (zero,) * (n - 1))
    report = price_ratio(UtilityMatrix.from_columns(tuple(cols)))
    assert report.envy_free_optimal == 1 + Fraction(n - 1, 2)
    assert report.ratio == 1


def test_exhaustive_search_does_not_recurse():
    # one agent passes the n^m cap at any m, so the search path is m deep
    x = UtilityMatrix.from_weights([[1] * 5000])
    assert envy_free_optimal_exhaustive(x) == (1, (0,) * 5000)


def test_module_doctests_pass():
    for module in (envyprice.core, envyprice.oracle):
        result = doctest.testmod(module)
        assert result.attempted > 0, module.__name__
        assert result.failed == 0, module.__name__


# --- cross-checks against the literal enumeration oracle -------------------

def test_square_matching_agrees_with_enumeration():
    rng = random.Random("core:square:0")
    for _ in range(200):
        n = rng.randint(2, 4)
        cols = random_columns(rng, n, n)
        x = UtilityMatrix.from_columns(cols)
        expected = brute_ef_optimum(cols)
        got = envy_free_matching(x)
        if expected is None:
            assert got is None
            assert envy_free_optimal_welfare(x) is None
        else:
            assert got is not None and is_envy_free(x, got)
            assert envy_free_optimal_welfare(x) == expected[0]
            assert envy_free_optimal_exhaustive(x) == expected


def _tied_columns(rng, n):
    """Integer columns whose maxima tie on purpose: each is a whole-column
    tie, a single maximum or a maximum shared with other agents on items
    drawn from a small pool, so Hall's condition fails often."""
    pool = rng.sample(range(n), rng.randint(1, n))
    cols = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            cols.append([2] * n)
            continue
        col = [rng.randint(0, 3) for _ in range(n)]
        tops = [rng.choice(pool)] if kind == 1 else rng.sample(pool, rng.randint(1, len(pool)))
        for i in tops:
            col[i] = 4
        cols.append(col)
    return cols


def test_matching_agrees_with_brute_force_on_tied_maxima():
    rng = random.Random("core:ties:0")
    found = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        x = UtilityMatrix.from_weights(_tied_columns(rng, n))
        tops = [{i for i, v in enumerate(col) if v == max(col)} for col in x.grid]
        exists = any(all(p[j] in tops[j] for j in range(n)) for p in permutations(range(n)))
        got = envy_free_matching(x)
        assert (got is not None) == exists
        if got is not None:
            assert sorted(got) == list(range(n))
            assert all(i in tops[j] for i, j in enumerate(got))
        found[exists] += 1
    assert min(found.values()) > 50


@pytest.mark.parametrize(
    "cols",
    [
        [[1, 0, 0], [1, 0, 0], [0, 1, 1]],  # all n items compatible, no matching
        [[1, 0, 0], [1, 0, 0], [1, 0, 0]],  # Hall's condition fails on all agents
        [[1, 1, 1], [1, 0, 0], [1, 0, 0]],  # a whole-column tie skips that check
    ],
)
def test_matching_none_with_and_without_halls_check(cols):
    x = UtilityMatrix.from_weights(cols)
    assert envy_free_matching(x) is None
    assert price_ratio(x).ratio is None


def test_optimal_welfare_breaks_ties_toward_the_lowest_agent():
    # item 1 ties agents 2 and 3, item 2 ties everyone, item 4 has agent 3 alone
    x = UtilityMatrix.from_weights([[0, 1, 2, 1], [1, 1, 1, 1], [1, 1, 0, 2]])
    assert optimal_welfare(x) == (Fraction(3, 2), (1, 0, 0, 2))
    rng = random.Random("core:owners:0")
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        x = UtilityMatrix.from_weights(
            [[rng.choice([0, 1, 1]) for _ in range(m - 1)] + [1] for _ in range(n)]
        )
        owners = tuple(
            min(range(n), key=lambda j: (-x.grid[j][i], j)) for i in range(m)
        )
        total = sum(x.grid[j][i] for i, j in enumerate(owners))
        assert optimal_welfare(x) == (Fraction(total, x.scale), owners)


def test_all_envy_free_bijections_share_welfare():
    # every envy-free allocation of a square instance hands out column maxima,
    # so they all have the same welfare
    rng = random.Random("core:welfare:1")
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 3)
        cols = random_columns(rng, n, n)
        welfares = {w for _, w in brute_ef_allocations(cols)}
        assert len(welfares) <= 1
        if welfares:
            checked += 1
            x = UtilityMatrix.from_columns(cols)
            assert welfares == {envy_free_optimal_welfare(x)}
    assert checked > 50


def _enumerated_ef_optimum(x):
    """The envy-free optimum by scoring all n^m allocations from scratch,
    first strict maximum in lexicographic order: the reference for the
    branch and bound."""
    n, m, grid = x.n, x.m, x.grid
    best_welfare = -1
    best_alloc = None
    for owners in product(range(n), repeat=m):
        bundles = [[0] * n for _ in range(n)]
        for i, g in enumerate(owners):
            for j in range(n):
                bundles[j][g] += grid[j][i]
        envy = False
        for j in range(n):
            own = bundles[j][j]
            if any(bundles[j][g] > own for g in range(n)):
                envy = True
                break
        if envy:
            continue
        welfare = sum(bundles[j][j] for j in range(n))
        if welfare > best_welfare:
            best_welfare = welfare
            best_alloc = owners
    if best_alloc is None:
        return None
    return Fraction(best_welfare, x.scale), best_alloc


def test_branch_and_bound_matches_enumeration():
    # Weights in 0..1 make many optima tie, so the lexicographic tie-break
    # is exercised; weights in 0..10 often leave no envy-free allocation.
    rng = random.Random("core:branch-and-bound:0")
    shapes = [(n, m) for n in range(1, 5) for m in range(1, 9) if n**m <= 20_000]
    found = missing = 0
    for n, m in shapes:
        for top in (1, 3, 10):
            for _ in range(3):
                cols = []
                while len(cols) < n:
                    weights = [rng.randint(0, top) for _ in range(m)]
                    if any(weights):
                        cols.append(weights)
                x = UtilityMatrix.from_weights(cols)
                expected = _enumerated_ef_optimum(x)
                assert envy_free_optimal_exhaustive(x) == expected, cols
                if expected is None:
                    missing += 1
                else:
                    found += 1
    assert found > 100 and missing > 50


def test_exhaustive_matches_oracle_off_square():
    rng = random.Random("core:offsquare:2")
    for _ in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(n, n + 2)
        cols = random_columns(rng, n, m)
        x = UtilityMatrix.from_columns(cols)
        assert envy_free_optimal_exhaustive(x) == brute_ef_optimum(cols)
        assert optimal_welfare(x)[0] == brute_optimum(cols)


# --- property tests --------------------------------------------------------

@st.composite
def instances(draw, max_n=4, square=True):
    n = draw(st.integers(2, max_n))
    m = n if square else draw(st.integers(2, max_n + 1))
    cols = []
    for _ in range(n):
        w = draw(
            st.lists(st.integers(0, 8), min_size=m, max_size=m).filter(
                lambda ws: sum(ws) > 0
            )
        )
        s = sum(w)
        cols.append(tuple(Fraction(a, s) for a in w))
    return UtilityMatrix.from_columns(tuple(cols))


@settings(deadline=None, max_examples=120)
@given(instances(square=False))
def test_optimal_witness_dominates(x):
    opt, alloc = optimal_welfare(x)
    assert allocation_welfare(x, alloc) == opt
    rng = random.Random(x.scale)
    other = tuple(rng.randrange(x.n) for _ in range(x.m))
    assert allocation_welfare(x, other) <= opt


@settings(deadline=None, max_examples=120)
@given(instances())
def test_matching_allocations_are_envy_free(x):
    got = envy_free_matching(x)
    if got is not None:
        assert is_envy_free(x, got)
        assert sorted(got) == list(range(x.n))
        assert envy_free_matching(x) == got  # deterministic


@settings(deadline=None, max_examples=80)
@given(instances(square=False))
def test_instance_dict_round_trip(x):
    assert instance_from_dict(instance_to_dict(x)) == x


@settings(deadline=None, max_examples=80)
@given(instances(square=False), st.randoms(use_true_random=False))
def test_price_ratio_ignores_item_order(x, rng):
    order = list(range(x.m))
    rng.shuffle(order)
    permuted = UtilityMatrix.from_columns([[col[i] for i in order] for col in x.columns])
    assert price_ratio(permuted) == price_ratio(x)


@st.composite
def weight_columns(draw, max_n=4, max_m=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    column = st.lists(st.integers(0, 8), min_size=m, max_size=m).filter(any)
    return [draw(column) for _ in range(n)]


@settings(deadline=None, max_examples=150)
@given(weight_columns(), st.lists(st.integers(1, 6), min_size=4, max_size=4))
def test_constructors_agree(weights, factors):
    normalized = [[Fraction(w, sum(col)) for w in col] for col in weights]
    x = UtilityMatrix.from_weights(weights)
    others = [
        UtilityMatrix.from_weights([[w * f for w in col] for col, f in zip(weights, factors)]),
        UtilityMatrix.from_columns(normalized),
        UtilityMatrix.from_strings([[format_rational(v) for v in col] for col in normalized]),
    ]
    assert x.columns == tuple(map(tuple, normalized))
    for y in others:
        assert (y.grid, y.scale, y.columns) == (x.grid, x.scale, x.columns)
        assert y == x and hash(y) == hash(x)


@settings(deadline=None, max_examples=60)
@given(instances(max_n=3, square=False), st.integers(1, 2))
def test_price_ratio_ignores_worthless_items(x, extra):
    assert price_ratio(with_worthless_items(x, extra)) == price_ratio(x)


# --- instance files --------------------------------------------------------

def test_instance_file_round_trip(tmp_path, w3):
    path = tmp_path / "w3.json"
    write_instance(w3, str(path))
    assert read_instance(str(path)) == w3
    payload = json.loads(path.read_text())
    assert payload["n"] == 3 and payload["m"] == 3
    assert payload["columns"][0] == ["1/2", "1/2", "0"]


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "m": 2},
        {"n": 2, "m": 2, "columns": [["1/2", "1/2"]]},
        {"n": 2, "m": 2, "columns": [["1/2", "1/2"], ["1/2"]]},
        {"n": 2, "m": 2, "columns": [["1/2", "1/2"], [0.5, 0.5]]},
        {"n": 0, "m": 2, "columns": []},
        5,
        [2, 2, [["1/2", "1/2"], ["1/2", "1/2"]]],
        {"n": True, "m": True, "columns": [[True]]},
        {"n": 1, "m": 1, "columns": [[True]]},
        {"n": 1, "m": 1, "columns": 5},
    ],
)
def test_instance_dict_rejections(payload):
    with pytest.raises(ValueError):
        instance_from_dict(payload)


def test_read_instance_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        read_instance(str(path))


# --- report sanity ---------------------------------------------------------

def test_welfare_report_rejects_inconsistency():
    with pytest.raises(ValueError):
        WelfareReport(Fraction(1), Fraction(2), Fraction(1, 2))
    with pytest.raises(ValueError):
        WelfareReport(Fraction(2), Fraction(1), Fraction(3))
