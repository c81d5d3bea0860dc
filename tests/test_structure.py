import random
from fractions import Fraction

import pytest

from envyprice.core import (
    DimensionMismatch,
    UtilityMatrix,
    allocation_welfare,
    envy_free_optimal_welfare,
    is_envy_free,
    optimal_welfare,
    price_ratio,
)
from envyprice.structure import (
    AgentClass,
    FullSupport,
    InconsistentTau,
    InvalidWitness,
    NoEnvyFreeAllocation,
    NonRealizable,
    NotBig,
    NotLeveled,
    NotSmall,
    build_witness_matrix,
    canonicalize,
    classify_agents,
    extremize_offdiagonal,
    level_big_agent,
    reduce_to_square,
    smooth_small_agent,
    validate_assignment,
)
from util import (
    check_smoothing_monotonicity,
    random_canonical_leveled,
    random_columns,
)

F = Fraction


def mat(*cols):
    return UtilityMatrix.from_strings(cols)


# --- assignment validation and classification -------------------------------

def test_classify_w3(w3):
    labels = classify_agents(w3, (0, 0, 1))
    assert labels == (AgentClass.BIG, AgentClass.BIG, AgentClass.SMALL)


def test_classify_diagonal_all_big():
    x = mat(["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"])
    assert set(classify_agents(x, (0, 1, 2))) == {AgentClass.BIG}


def test_classify_uniform_single_big():
    x = mat(*[["1/3"] * 3] * 3)
    labels = classify_agents(x, (0, 0, 0))
    assert labels == (AgentClass.BIG, AgentClass.SMALL, AgentClass.SMALL)


def test_inconsistent_tau(w3):
    # item 1 is worth 1/3 to agent 3, below the row maximum 1/2
    with pytest.raises(InconsistentTau) as exc:
        validate_assignment(w3, (2, 0, 1))
    assert str(exc.value) == "InconsistentTau(1, 3)"


def test_tau_errors_come_in_item_order(w3):
    # item 1 fails the row maximum before item 3's owner is range-checked
    with pytest.raises(InconsistentTau) as exc:
        validate_assignment(w3, (2, 0, 5))
    assert (exc.value.item, exc.value.agent) == (1, 3)


def test_tau_shape_errors(w3):
    with pytest.raises(ValueError):
        validate_assignment(w3, (0, 0))
    with pytest.raises(ValueError):
        validate_assignment(w3, (0, 0, 5))


@pytest.mark.parametrize(
    "owners, allocation_message, tau_message",
    [
        ((0, 0), "allocation covers 2 items, matrix has 3", "tau covers 2 items, matrix has 3"),
        ((0, 0, 5), "allocation owner 5 out of range 0..2", "tau[2] = 5 out of range 0..2"),
        ((0, 0, 1.0), "allocation owners must be ints", "tau entries must be ints"),
        ((0, 0, True), "allocation owners must be ints", "tau entries must be ints"),
    ],
    ids=["length", "range", "float", "bool"],
)
def test_allocation_and_tau_errors(w3, owners, allocation_message, tau_message):
    for check in (allocation_welfare, is_envy_free):
        with pytest.raises(ValueError) as exc:
            check(w3, owners)
        assert str(exc.value) == allocation_message
    with pytest.raises(ValueError) as exc:
        validate_assignment(w3, owners)
    assert str(exc.value) == tau_message


# --- smoothing a small agent -------------------------------------------------

@pytest.fixture
def smooth_case():
    # agent 3 is small under tau = (0, 0, 1); its column is concentrated
    return mat(["1/2", "1/2", "0"], ["0", "0", "1"], ["1/2", "1/4", "1/4"])


def test_smooth_small_agent(smooth_case):
    out = smooth_small_agent(smooth_case, (0, 0, 1), 2)
    assert out.columns[2] == (F(1, 3), F(1, 3), F(1, 3))
    assert out.columns[:2] == smooth_case.columns[:2]
    # envy-free optimum drops by the column-max decrease, optimum unchanged
    assert envy_free_optimal_welfare(smooth_case) == F(2)
    assert envy_free_optimal_welfare(out) == F(11, 6)
    assert optimal_welfare(out)[0] == optimal_welfare(smooth_case)[0] == F(2)
    assert price_ratio(smooth_case).ratio == F(1)
    assert price_ratio(out).ratio == F(12, 11)


def test_smooth_creates_envy_free_allocation():
    x = mat(["1", "0"], ["1", "0"])
    assert envy_free_optimal_welfare(x) is None
    out = smooth_small_agent(x, (0, 0), 1)
    assert out.columns[1] == (F(1, 2), F(1, 2))
    assert envy_free_optimal_welfare(out) == F(3, 2)
    assert optimal_welfare(out)[0] == F(3, 2)


def test_smooth_rejects_big_agent(smooth_case):
    with pytest.raises(NotSmall) as exc:
        smooth_small_agent(smooth_case, (0, 0, 1), 0)
    assert exc.value.agent == 1


def test_smooth_fixed_point(smooth_case):
    once = smooth_small_agent(smooth_case, (0, 0, 1), 2)
    tau = optimal_welfare(once)[1]
    assert classify_agents(once, tau)[2] is AgentClass.SMALL
    assert smooth_small_agent(once, tau, 2) == once


# --- leveling a big agent ----------------------------------------------------

@pytest.fixture
def level_case():
    # tau = (0, 0, 1): agent 1 owns items {1, 2} with unequal values 1/2, 1/4
    return mat(["1/2", "1/4", "1/4"], ["0", "1/4", "3/4"], ["1/2", "1/4", "1/4"])


def test_level_big_agent(level_case):
    out = level_big_agent(level_case, (0, 0, 1), 0)
    assert out.columns[0] == (F(3, 8), F(3, 8), F(1, 4))
    assert out.columns[1:] == level_case.columns[1:]
    assert optimal_welfare(level_case)[0] == F(3, 2)
    assert optimal_welfare(out)[0] == F(13, 8)
    identity = (0, 1, 2)
    assert allocation_welfare(level_case, identity) == F(1)
    assert allocation_welfare(out, identity) == F(7, 8)
    # here leveling actually creates an envy-free allocation
    assert envy_free_optimal_welfare(level_case) is None
    assert envy_free_optimal_welfare(out) == F(13, 8)


def test_level_single_item_block_unchanged(w3):
    assert level_big_agent(w3, (0, 0, 1), 1) == w3


def test_level_rejects_small_agent(level_case):
    with pytest.raises(NotBig) as exc:
        level_big_agent(level_case, (0, 0, 1), 2)
    assert exc.value.agent == 3


def test_level_fixed_point_under_same_tau():
    # after leveling, tau = (0, 0, 1) is still consistent, so releveling
    # the same block is a no-op
    x = mat(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"])
    tau = (0, 0, 1)
    once = level_big_agent(x, tau, 0)
    assert once.columns[0] == (F(3, 8), F(3, 8), F(1, 4))
    validate_assignment(once, tau)
    assert level_big_agent(once, tau, 0) == once


# --- extremizing a leveled big column ---------------------------------------

def test_extremize_concentrates_when_f_drops(w3):
    # leveled interior instance; pushing mass onto the block recovers w3
    x = mat(["3/8", "3/8", "1/4"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"])
    assert price_ratio(x).ratio == F(26, 25)
    out = extremize_offdiagonal(x, (0, 0, 1), 0)
    assert out == w3
    assert price_ratio(out).ratio == F(8, 7)


def test_extremize_goes_uniform_when_f_rises():
    x = mat(["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"], ["1/3", "1/3", "1/3"])
    assert price_ratio(x).ratio == F(9, 8)
    out = extremize_offdiagonal(x, (0, 1, 1), 0)
    assert out.columns[0] == (F(1, 3), F(1, 3), F(1, 3))
    assert price_ratio(out).ratio == F(8, 7)


def test_extremize_tie_keeps_support():
    # f is constant here (a = bk), so the tie rule picks the support boundary
    x = mat(["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"], ["1/4", "1/4", "1/2"])
    assert price_ratio(x).ratio == F(1)
    out = extremize_offdiagonal(x, (0, 1, 1), 0)
    assert out.columns[0] == (F(1), F(0), F(0))
    assert price_ratio(out).ratio == F(1)


def test_extremize_fixed_point_at_support_boundary(w3):
    assert extremize_offdiagonal(w3, (0, 0, 1), 0) == w3


def test_extremize_fixed_point_at_uniform_boundary():
    x = mat(["1/3", "1/3", "1/3"], ["0", "1/2", "1/2"], ["1/3", "1/3", "1/3"])
    tau = optimal_welfare(x)[1]
    assert tau == (0, 1, 1)
    assert extremize_offdiagonal(x, tau, 0) == x


def test_extremize_errors(w3):
    with pytest.raises(NotBig):
        extremize_offdiagonal(w3, (0, 0, 1), 2)
    uniform = mat(*[["1/3"] * 3] * 3)
    with pytest.raises(FullSupport):
        extremize_offdiagonal(uniform, (0, 0, 0), 0)
    # agent 2 is big through item 3 only: its own item is outside the block
    with pytest.raises(NotLeveled):
        extremize_offdiagonal(w3, (0, 0, 1), 1)
    unleveled = mat(["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"], ["1/4", "1/4", "1/2"])
    with pytest.raises(NotLeveled):
        extremize_offdiagonal(unleveled, (0, 0, 1), 0)
    no_ef = mat(["1", "0", "0"], ["1", "0", "0"], ["0", "1/2", "1/2"])
    with pytest.raises(NoEnvyFreeAllocation):
        extremize_offdiagonal(no_ef, (0, 2, 2), 0)


# --- canonical relabeling ----------------------------------------------------

def test_canonicalize_puts_column_maxima_on_diagonal(smooth_case):
    out = canonicalize(smooth_case)
    for j in range(out.n):
        assert out.columns[j][j] == max(out.columns[j])
    assert is_envy_free(out, (0, 1, 2))
    before, after = price_ratio(smooth_case), price_ratio(out)
    assert (before.optimal, before.ratio) == (after.optimal, after.ratio)


def test_canonicalize_requires_envy_free(level_case):
    with pytest.raises(NoEnvyFreeAllocation):
        canonicalize(level_case)


def test_canonicalize_random_instances():
    rng = random.Random("structure:canon:0")
    done = 0
    while done < 80:
        n = rng.randint(2, 5)
        x = UtilityMatrix.from_columns(random_columns(rng, n, n))
        if envy_free_optimal_welfare(x) is None:
            continue
        out = canonicalize(x)
        assert sorted(zip(*out.columns)) == sorted(zip(*x.columns))
        assert is_envy_free(out, tuple(range(n)))
        assert price_ratio(out) == price_ratio(x)
        done += 1


# --- witness reconstruction --------------------------------------------------

def test_witness_matrix_uniform():
    x = build_witness_matrix([0, 0, 3], [0, 0, 3], 3)
    assert x.columns == ((F(1, 3),) * 3,) * 3
    assert price_ratio(x).ratio == F(1)


def test_witness_matrix_n5():
    s, r = [0, 1, 1, 0, 3], [0, 2, 3, 0, 0]
    x = build_witness_matrix(s, r, 5)
    assert x.columns[0] == (F(1, 2), F(0), F(1, 2), F(0), F(0))
    assert x.columns[1] == (F(0), F(1, 3), F(0), F(1, 3), F(1, 3))
    assert is_envy_free(x, (0, 1, 2, 3, 4))
    assert envy_free_optimal_welfare(x) == F(43, 30)
    report = price_ratio(x)
    assert report.optimal == F(2)
    assert report.ratio == F(60, 43)


def test_witness_matrix_n7():
    x = build_witness_matrix([0, 2, 1, 0, 0, 0, 4], [0, 4, 3, 0, 0, 0, 0], 7)
    assert price_ratio(x).ratio == F(63, 40)
    assert envy_free_optimal_welfare(x) == F(40, 21)


def test_witness_matrix_single_agent():
    x = build_witness_matrix([1], [1], 1)
    assert x.columns == ((F(1),),)
    assert price_ratio(x).ratio == F(1)


def test_witness_matrix_unit_blocks():
    x = build_witness_matrix([1, 0, 2], [1, 0, 2], 3)
    assert x.columns[0] == (F(1), F(0), F(0))
    assert price_ratio(x).ratio == F(1)
    # optimum meets the witness numerator exactly when r saturates below n
    assert optimal_welfare(x)[0] == F(5, 3)


@pytest.mark.parametrize(
    "s,r,n",
    [
        ([0, 1, 1], [0, 2, 1], 3),       # sum(s) != n
        ([0, 0, 3], [0, 1, 1], 3),       # sum(r) != n
        ([1, 1, 1], [2, 1, 0], 3),       # r_1 > 1*s_1
        ([0, 3], [0, 2, 1], 3),          # wrong length
        ([0, -1, 4], [0, 0, 3], 3),      # negative entry
    ],
)
def test_witness_vector_rejections(s, r, n):
    with pytest.raises(InvalidWitness):
        build_witness_matrix(s, r, n)


@pytest.mark.parametrize(
    "s, r, message",
    [
        ([0, True, 2], [0, 0, 3], "nonnegative integers"),
        ([0, 1.0, 2], [0, 0, 3], "nonnegative integers"),
        (["0", 1, 2], [0, 0, 3], "nonnegative integers"),
        ([0, 1, 2], [0, 0, -3], "nonnegative integers"),
        ([0, -1, 4], [4, 0, 0], "nonnegative integers"),  # before the sums
        ([0, 1, 1], [3, 1, 0], r"sum\(s\) = 2"),  # before sum(r) and r_1
        ([1, 1, 1], [2, 2, 0], r"sum\(r\) = 4"),
        ([1, 1, 1], [2, 0, 1], r"r_1 = 2 exceeds i\*s_i = 1"),
        ([0, 0, 3], [1, 2, 0], r"r_1 = 1 exceeds i\*s_i = 0"),  # the first index
    ],
)
def test_witness_vector_errors_keep_message_and_order(s, r, message):
    with pytest.raises(InvalidWitness, match=message):
        build_witness_matrix(s, r, 3)


def test_witness_vectors_take_int_subclasses():
    class Count(int):
        pass

    s, r = [Count(0), Count(1), Count(2)], [0, Count(2), 1]
    assert build_witness_matrix(s, r, 3) == build_witness_matrix([0, 1, 2], [0, 2, 1], 3)


def test_witness_realizability_guard():
    with pytest.raises(NonRealizable):
        build_witness_matrix([0, 3, 0], [0, 3, 0], 3)


def test_random_witnesses_certify_their_ratio():
    # whenever the realizability guard passes, the built matrix certifies
    # at least the witness ratio
    rng = random.Random("structure:witness:1")
    built = 0
    while built < 60:
        n = rng.randint(2, 8)
        s = [0] * n
        for _ in range(n):
            s[rng.randrange(n)] += 1
        budget = n
        r = [0] * n
        for i in range(n):
            take = min(budget, (i + 1) * s[i])
            r[i] = take
            budget -= take
        if budget > 0:
            continue
        if sum((i + 1) * si for i, si in enumerate(s[: n - 1])) > n:
            continue
        x = build_witness_matrix(s, r, n)
        claimed = sum(F(ri, i + 1) for i, ri in enumerate(r)) / sum(
            F(si, i + 1) for i, si in enumerate(s)
        )
        assert is_envy_free(x, tuple(range(n)))
        assert envy_free_optimal_welfare(x) == sum(
            F(si, i + 1) for i, si in enumerate(s)
        )
        assert price_ratio(x).ratio >= claimed
        # the first columns are uniform on pairwise-disjoint supports of the
        # ascending block sizes, each holding its own item; the rest are
        # uniform on all n items
        sizes = [i + 1 for i, si in enumerate(s[: n - 1]) for _ in range(si)]
        seen = set()
        for j, col in enumerate(x.grid):
            support = {i for i, v in enumerate(col) if v}
            assert len({col[i] for i in support}) == 1
            if j < len(sizes):
                assert len(support) == sizes[j] and j in support
                assert not seen & support
                seen |= support
            else:
                assert len(support) == n
        built += 1


# --- reduction to square instances ------------------------------------------

def test_reduce_identity_on_single_item_optimum(w3):
    assert reduce_to_square(w3) == w3


def test_reduce_two_agents_three_items(w3):
    x = mat(["1/2", "1/2", "0"], ["1/3", "1/3", "1/3"])
    out = reduce_to_square(x)
    assert out == w3  # agent 1 keeps its column, two uniform columns appear
    s_size = 1
    fair_x = F(7, 6)
    fair_out = envy_free_optimal_welfare(out)
    assert fair_x >= fair_out - F(x.m - s_size, x.m)
    assert optimal_welfare(x)[0] <= optimal_welfare(out)[0] + (x.n - s_size)


def test_reduce_uniform_empty_s():
    x = mat(*[["1/4"] * 4] * 2)
    out = reduce_to_square(x)
    assert out.n == out.m == 4
    assert all(col == (F(1, 4),) * 4 for col in out.columns)


def test_reduce_errors():
    tall = mat(["1/2", "1/2"], ["1/2", "1/2"], ["1/2", "1/2"])
    with pytest.raises(DimensionMismatch):
        reduce_to_square(tall)
    no_ef = mat(["1", "0"], ["1", "0"])
    with pytest.raises(NoEnvyFreeAllocation):
        reduce_to_square(no_ef)


def test_reduce_contracts_random():
    rng = random.Random("structure:reduce:2")
    done = 0
    while done < 60:
        n = rng.randint(2, 3)
        m = rng.randint(n, n + 2)
        x = UtilityMatrix.from_columns(random_columns(rng, n, m))
        from envyprice.core import envy_free_optimal_exhaustive

        found = envy_free_optimal_exhaustive(x)
        if found is None:
            continue
        fair_x, owners = found
        s_size = sum(1 for j in range(n) if owners.count(j) == 1)
        out = reduce_to_square(x)
        assert out.n == out.m == m
        fair_out = envy_free_optimal_welfare(out)
        assert fair_out is not None  # the reduced instance always admits one
        assert fair_x >= fair_out - F(m - s_size, m)
        assert optimal_welfare(x)[0] <= optimal_welfare(out)[0] + (n - s_size)
        done += 1


# --- ratio monotonicity of the whole toolkit --------------------------------

def test_smoothing_never_decreases_ratio():
    # 500 envy-free instances per n, canonicalized, every applicable
    # operation applied once
    totals = {"smooth": 0, "level": 0, "level_lost_ef": 0, "extremize": 0}
    for n in range(2, 7):
        rng = random.Random(f"structure:monotone:{n}")
        done = 0
        while done < 500:
            x = UtilityMatrix.from_columns(random_columns(rng, n, n))
            if envy_free_optimal_welfare(x) is None:
                continue
            counts = check_smoothing_monotonicity(x)
            for key, val in counts.items():
                totals[key] += val
            done += 1
    assert totals["smooth"] > 500
    assert totals["level"] > 500
    assert totals["extremize"] > 200


def test_extremize_monotone_on_leveled_family():
    rng = random.Random("structure:extremize:3")
    applied = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        x, block = random_canonical_leveled(rng, n)
        tau = optimal_welfare(x)[1]
        actual_block = [i for i in range(n) if tau[i] == 0]
        if actual_block != block:
            continue  # an off item tied into the block; family shape lost
        if len({x.columns[0][i] for i in block}) != 1 or len(block) == n:
            continue
        before = price_ratio(x)
        assert before.ratio is not None
        out = extremize_offdiagonal(x, tau, 0)
        after = price_ratio(out)
        assert after.ratio >= before.ratio
        # idempotence: a second application with a fresh assignment stays put
        tau2 = optimal_welfare(out)[1]
        block2 = [i for i in range(n) if tau2[i] == 0]
        if (
            0 in block2
            and 0 < len(block2) < n
            and len({out.columns[0][i] for i in block2}) == 1
        ):
            assert extremize_offdiagonal(out, tau2, 0) == out
        applied += 1
    assert applied >= 200
