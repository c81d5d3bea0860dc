import ast
import hashlib
import random
import time
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from pathlib import Path

import pytest

import envyprice.oracle
from envyprice.core import (
    ColumnNotNormalized,
    UtilityMatrix,
    _start_ratio,
    envy_free_matching,
    price_ratio,
)
from envyprice.oracle import (
    FuzzCheckFailed,
    LayoutInfeasible,
    RejectionCapExceeded,
    VertexConfig,
    _block_words,
    _first_matched_draw,
    _hall_windows,
    _oracle_dp,
    _randrange17_block,
    fuzz_instances,
    oracle_p_nn,
    realize_config,
)
from envyprice.solver import KNOWN_RATIOS, solve_p_nn
from envyprice.structure import build_witness_matrix
import util
from util import _compat_adjacency, reference_draw, reference_fuzz_instances

F = Fraction

# 3.8-4.6 s measured on a 2-core x86 box (Python 3.11.7), alone and inside a
# full tier-1 run, about 2.8 s of it for the rebuilds; the budget leaves room
# for a host that runs 2x slower in spells
CERTIFY_300_BUDGET_S = 15.0

# 0.8 s measured for the seeded sample to n = 1000 plus n = 2000, 6000 and
# 10000 on the same box (3.2-4.3 s to n = 2000 while the oracle tried every
# weight); the budget leaves the same room
CERTIFY_SAMPLE_BUDGET_S = 15.0

# 0.10-0.12 s measured for rebuilding and certifying the oracle's optima to
# n = 2000 on the same box; a column per full-support agent took 2.3 s there
REALIZE_BUDGET_S = 1.0

# 0.12-0.14 s measured for the live knapsack steps of the seeded sample to
# n = 1500 on the same box; the knapsack over every weight takes 1.5-1.6 s
LIVE_SAMPLE_BUDGET_S = 0.6

# independently certified optimal configs, one per n
OPTIMAL_CONFIGS = {
    1: ((1, 1),),
    2: ((2, 0), (2, 2)),
    3: ((2, 2), (3, 0), (3, 1)),
    4: ((2, 2), (2, 2), (4, 0), (4, 0)),
    5: ((2, 2), (3, 3), (5, 0), (5, 0), (5, 0)),
    6: ((3, 3), (3, 3), (6, 0), (6, 0), (6, 0), (6, 0)),
    7: ((2, 2), (2, 2), (3, 3), (7, 0), (7, 0), (7, 0), (7, 0)),
    8: ((2, 2), (3, 3), (3, 3), (8, 0), (8, 0), (8, 0), (8, 0), (8, 0)),
    9: ((3, 3), (3, 3), (3, 3)) + tuple((9, 0) for _ in range(6)),
}


# --- configs ---------------------------------------------------------------

def test_config_normalizes_pair_order():
    cfg = VertexConfig(((3, 1), (2, 2), (3, 0)))
    assert cfg.pairs == ((2, 2), (3, 0), (3, 1))
    assert cfg == VertexConfig(((2, 2), (3, 0), (3, 1)))
    assert cfg.n == 3


def test_config_ratio():
    cfg = VertexConfig(((2, 2), (3, 0), (3, 1)))
    assert cfg.ratio == F(8, 7)
    assert VertexConfig(((4, 1),) * 4).ratio == 1


@pytest.mark.parametrize(
    "pairs",
    [
        (),
        ((0, 0), (2, 0)),  # support size below 1
        ((3, 1), (2, 0)),  # support size above n
        ((2, 3), (2, 0)),  # hit count above support size
        ((2, 2), (2, 2), (2, 2)),  # hits exceed the item count
        ((2.9, 1.5), (3, 1), (3.0, 0)),  # floats, which int() would truncate
        ((3, True), (2, 2), (3, 0)),  # a bool hit count
        (("3", 1), (2, 2), (3, 0)),  # a string support size
    ],
)
def test_config_validation(pairs):
    with pytest.raises(ValueError):
        VertexConfig(pairs)


# --- the parametric oracle ---------------------------------------------------

def test_alpha_one_attainable():
    # the all-uniform config (s_j = n, t_j = 1) scores exactly zero
    for n in (1, 2, 5, 9):
        assert _oracle_dp(n, F(1))[0] >= 0


def test_alpha_n3():
    assert _oracle_dp(3, F(8, 7))[0] == 0
    assert _oracle_dp(3, F(2))[0] < 0


def _literal_best(n: int, alphas: list[Fraction]) -> list[Fraction]:
    """Independent reference: try every per-agent (s, t) tuple outright."""
    per_agent = [(s, t) for s in range(1, n + 1) for t in range(s + 1)]
    sums = []
    for combo in combinations_with_replacement(per_agent, n):
        if sum(t for _, t in combo) > n:
            continue
        num = sum(F(t, s) for s, t in combo)
        den = sum(F(1, s) for s, _ in combo)
        sums.append((num, den))
    return [max(num - a * den for num, den in sums) for a in alphas]


def test_dp_matches_literal_enumeration():
    grid = [F(0), F(1), F(8, 7), F(4, 3), F(3, 2), F(2), F(3)]
    for n in range(1, 5):
        expected = _literal_best(n, grid)
        got = [_oracle_dp(n, a)[0] for a in grid]
        assert got == expected


def test_dp_matches_literal_enumeration_n5():
    grid = [F(1), F(60, 43), F(2)]
    assert [_oracle_dp(5, a)[0] for a in grid] == _literal_best(5, grid)


def test_dp_matches_literal_enumeration_on_seeded_alphas():
    rng = random.Random("oracle:alpha-grid")
    for n in range(1, 6):
        grid = [F(0), F(n), F(n + 1), F(5 * n, 2)]
        grid += [F(rng.randint(0, 3 * n * 7), rng.randint(1, 7)) for _ in range(5)]
        assert [_oracle_dp(n, a)[0] for a in grid] == _literal_best(n, grid), n


# --- the ratio ----------------------------------------------------------------

def test_oracle_reference_values_and_configs():
    for n, pairs in OPTIMAL_CONFIGS.items():
        value, config = oracle_p_nn(n)
        assert value == KNOWN_RATIOS[n]
        assert config.pairs == pairs
        assert config.ratio == value


def test_oracle_agrees_with_solver():
    # two independent search spaces, one answer, and every solver witness to
    # n = 300 rebuilds into a matrix that certifies it (criterion 7 stops at 30)
    t0 = time.perf_counter()
    for n in range(1, 301):
        w = solve_p_nn(n)
        assert price_ratio(build_witness_matrix(w.s, w.r, n)).ratio == w.ratio, n
        assert oracle_p_nn(n)[0] == w.ratio, n
    elapsed = time.perf_counter() - t0
    assert elapsed < CERTIFY_300_BUDGET_S, f"{elapsed:.2f}s"


def test_oracle_agrees_with_solver_on_a_sample_to_10000():
    # one seeded n per width-100 stratum of 301..1000, then n = 2000, 6000
    # and 10000: the solver, the rebuilt matrix and the oracle agree far past
    # n = 300
    rng = random.Random("oracle:certify-sample")
    sample = [rng.randrange(lo, lo + 100) for lo in range(301, 1001, 100)]
    sample += [2000, 6000, 10000]
    t0 = time.perf_counter()
    for n in sample:
        w = solve_p_nn(n)
        assert price_ratio(build_witness_matrix(w.s, w.r, n)).ratio == w.ratio, n
        assert oracle_p_nn(n)[0] == w.ratio, n
    elapsed = time.perf_counter() - t0
    assert elapsed < CERTIFY_SAMPLE_BUDGET_S, f"{elapsed:.2f}s"


def _knapsack_alphas(n, rng):
    """The steps a search takes (1, the start, p(n)), one just below p(n), the
    edges 0 and 2n + 1 (above every t), n/3, and two seeded alphas."""
    p = solve_p_nn(n).ratio
    alphas = [F(0), F(1), _start_ratio(n), p, p - F(1, n), F(n, 3), F(2 * n + 1)]
    return alphas + [F(rng.randint(0, 21 * n), rng.randint(1, 7)) for _ in range(2)]


def test_dp_matches_the_full_knapsack():
    # the knapsack over the live weights returns what the knapsack over every
    # weight does: the same objective and the same tie-broken config
    rng = random.Random("oracle:live-weights")
    for n in range(1, 201):
        for alpha in _knapsack_alphas(n, rng):
            assert _oracle_dp(n, alpha) == util.reference_oracle_dp(n, alpha), (n, alpha)


def test_dp_matches_the_full_knapsack_on_a_sample_to_1500():
    # one seeded n per width-100 stratum of 201..1500, then n = 1500, at the
    # start and one seeded alpha; only the live knapsack is timed
    rng = random.Random("oracle:live-weights-sample")
    sample = [rng.randrange(lo, lo + 100) for lo in range(201, 1501, 100)] + [1500]
    spent = 0.0
    for n in sample:
        for alpha in (_start_ratio(n), F(rng.randint(0, 21 * n), rng.randint(1, 7))):
            t0 = time.perf_counter()
            got = _oracle_dp(n, alpha)
            spent += time.perf_counter() - t0
            assert got == util.reference_oracle_dp(n, alpha), (n, alpha)
    assert spent < LIVE_SAMPLE_BUDGET_S, f"{spent:.2f}s"


@pytest.mark.parametrize("k", [3, 4, 5])
def test_oracle_tie_points_keep_fewest_hit_agents(k):
    # at n = k(k+1), k agents at (k+1, k+1) tie with k+1 agents at (k, k);
    # the oracle returns the config with fewer agents holding items
    n = k * (k + 1)
    value, cfg = oracle_p_nn(n)
    assert cfg.pairs == ((k + 1, k + 1),) * k + ((n, 0),) * (n - k)
    assert VertexConfig(((k, k),) * (k + 1) + ((n, 0),) * (n - k - 1)).ratio == value


def test_oracle_imports_only_core():
    # the oracle is an independent search: it must not reuse the solver's
    # program, the structural lemmas or the bounds
    tree = ast.parse(Path(envyprice.oracle.__file__).read_text())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("envyprice"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("envyprice") for a in node.names)
    assert relative == {"core"}


def test_no_guard_is_an_assert():
    # `python -O` strips assert statements, so a guard must raise instead
    for path in sorted(Path(envyprice.oracle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        oracle_p_nn(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_p_nn(2.5),
        lambda: oracle_p_nn(2.0),
        lambda: oracle_p_nn(True),
    ],
    ids=["search-n-float", "search-n-whole-float", "search-n-bool"],
)
def test_floats_and_non_int_n_are_rejected(call):
    with pytest.raises(ValueError, match="must be an int"):
        call()


def test_warm_start_matches_a_start_at_one(monkeypatch):
    # from any start the last step runs at the optimum, so the result is
    # what a zero-objective step there returns, and what a search started
    # at alpha = 1, in more steps, returns
    want = {}
    for n in range(1, 151):
        want[n] = value, config = oracle_p_nn(n)
        assert envyprice.oracle._oracle_dp(n, value) == (0, config), n
    monkeypatch.setattr(envyprice.core, "_start_ratio", lambda n: F(1))
    assert {n: oracle_p_nn(n) for n in range(1, 61)} == {n: want[n] for n in range(1, 61)}


# --- realization ---------------------------------------------------------------

def test_realize_n3_optimum_is_w3(w3):
    _, cfg = oracle_p_nn(3)
    assert realize_config(cfg, 3) == w3


def test_realize_uniform_config():
    cfg = VertexConfig(((4, 1),) * 4)
    x = realize_config(cfg, 4)
    assert all(v == F(1, 4) for col in x.columns for v in col)
    assert price_ratio(x).ratio == 1


def test_realize_certifies_every_small_optimum():
    # the rebuilt optimum certifies the oracle's value, which is the solver's;
    # only the rebuilds and their certification are timed
    spent = 0.0
    for n in [*range(1, 151), 200, 300, 500, 1000, 2000]:
        value, cfg = oracle_p_nn(n)
        t0 = time.perf_counter()
        report = price_ratio(realize_config(cfg, n))
        spent += time.perf_counter() - t0
        assert report.ratio == value == solve_p_nn(n).ratio, n
    assert spent < REALIZE_BUDGET_S, f"{spent:.2f}s"


def _random_config(rng):
    n = rng.randint(1, 8)
    budget, pairs = n, []
    for _ in range(n):
        s = rng.randint(1, n)
        t = rng.randint(0, min(s, budget))
        budget -= t
        pairs.append((s, t))
    return VertexConfig(pairs)


def test_realize_layout_is_pinned():
    # recorded while every full-support column was built item by item: the
    # shared all-ones column leaves the matrices and the refusals (1664 of
    # the 3000 configs) as they were
    rng = random.Random("oracle:realize-layout")
    out = []
    for _ in range(3000):
        cfg = _random_config(rng)
        try:
            x = realize_config(cfg, cfg.n)
            out.append((x.grid, x.scale))
        except LayoutInfeasible as err:
            out.append((err.agent, str(err)))
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "2a6f5328d792b0dfa4fd2396dcdef1fc1b772f5455d62063d103d154501e7c3b"
    )
    optima = hashlib.sha256()
    for n in range(1, 200):
        x = realize_config(oracle_p_nn(n)[1], n)
        optima.update(repr((x.grid, x.scale)).encode())
    assert optima.hexdigest() == (
        "b6ab058f29eb5a0e4fa32c26650b69d3bab83968b7467002e6a77a09f62a02cb"
    )


def test_realize_identity_envy_free():
    for n in range(2, 8):
        _, cfg = oracle_p_nn(n)
        x = realize_config(cfg, n)
        assert envy_free_matching(x) is not None


def test_realize_unsaturated_config_only_bounds_below():
    # two items go unassigned, so the optimum exceeds the config's claim
    cfg = VertexConfig(((3, 0), (3, 0), (3, 2)))
    x = realize_config(cfg, 3)
    assert price_ratio(x).ratio == 1 >= cfg.ratio == F(2, 3)


def test_realize_rejects_small_donor():
    # the s=3 taker must draw the s=2 idle agent's item, whose own column
    # would then push the row maximum above the claim
    cfg = VertexConfig(((1, 1), (2, 0), (3, 2)))
    with pytest.raises(LayoutInfeasible):
        realize_config(cfg, 3)


def test_realize_rejects_unfillable_support():
    # every item's floor is its own support size, so the s=2 column has a
    # single eligible item
    cfg = VertexConfig(((2, 1), (3, 1), (3, 1)))
    with pytest.raises(LayoutInfeasible) as err:
        realize_config(cfg, 3)
    assert err.value.agent == 1


def test_realize_dimension_check():
    with pytest.raises(ValueError):
        realize_config(VertexConfig(((1, 1),)), 2)


@pytest.mark.parametrize(
    "n, message",
    [
        (True, "n must be an int, got True"),
        (1.0, "n must be an int, got 1.0"),
        ("1", "n must be an int, got '1'"),
        (0, "n must be positive"),
    ],
)
def test_realize_checks_n(n, message):
    with pytest.raises(ValueError, match=message):
        realize_config(VertexConfig(((1, 1),)), n)


@pytest.mark.parametrize("cfg", [((1, 1),), [(1, 1)], None], ids=["tuple", "list", "none"])
def test_realize_checks_the_config_type(cfg):
    with pytest.raises(ValueError, match="cfg must be a VertexConfig"):
        realize_config(cfg, 1)


# --- fuzzer --------------------------------------------------------------------

def test_fuzz_is_deterministic():
    a = list(fuzz_instances(4, 30, seed=7))
    b = list(fuzz_instances(4, 30, seed=7))
    assert a == b
    assert a != list(fuzz_instances(4, 30, seed=8))


def test_fuzz_emits_valid_envy_free_admitting_instances():
    for x in fuzz_instances(3, 40, seed=1):
        assert x.n == x.m == 3
        assert envy_free_matching(x) is not None


def test_fuzz_soundness_n4():
    worst = max(price_ratio(x).ratio for x in fuzz_instances(4, 200, seed=0))
    assert worst <= F(4, 3)


def test_fuzz_single_agent():
    assert all(
        x.columns == ((F(1),),) for x in fuzz_instances(1, 10, seed=3)
    )


def test_fuzz_rejection_cap():
    # the budget is aggregate, 100 draws per instance: 3 instances share
    # 300 draws, and at n = 9 under seed 0 instance 2 finds them spent
    with pytest.raises(RejectionCapExceeded) as err:
        list(fuzz_instances(9, 3, seed=0))
    assert err.value.instance == 2
    assert err.value.budget == 300
    assert "aggregate attempt budget 300" in str(err.value)


def test_fuzz_budget_does_not_change_stream():
    # instances each draw from their own generator, so a stream with half
    # the count, and half the budget, is a prefix of the longer one
    assert list(fuzz_instances(3, 12, seed=5))[:6] == list(fuzz_instances(3, 6, seed=5))


def test_fuzz_draw_equals_randrange_17():
    # fuzz_instances draws randrange(17) a block of words at a time; the
    # blocks, concatenated, must give the same values in the same order. The
    # generator's state is not compared: a block reads past the last value a
    # draw uses, and each instance's generator is discarded after its draw.
    # The sizes are 32 n^2 words for small n, the 2^16 cap, and 2 n^2 above it.
    sizes = [_block_words(n) for n in (*range(1, 10), 45, 46, 181, 200)]
    assert sizes[-4:] == [64800, 1 << 16, 1 << 16, 80000]
    for seed in ("fuzz:0:0", "fuzz:3:41", 7, 2**70 + 1):
        ref, rng = random.Random(seed), random.Random(seed)
        drawn = b"".join(_randrange17_block(rng.getrandbits, words) for words in sizes)
        assert list(drawn) == [ref.randrange(17) for _ in range(len(drawn))]


def _emitted(fuzz, n, count, seed):
    """The emitted (grid, scale) pairs, and the instance and budget at which
    the stream ran out of draws, or None."""
    out = []
    try:
        for x in fuzz(n, count, seed):
            out.append((x.grid, x.scale))
    except RejectionCapExceeded as err:
        return out, (err.instance, err.budget)
    return out, None


@pytest.mark.parametrize("n", range(1, 10))
def test_fuzz_stream_equals_the_reference(n):
    # the reference draws one weight per call and builds a matrix for every
    # draw; at n = 1 and 2 draws often end at a zero column, and at n = 9
    # most seeds run out of budget
    for seed in (0, 1, 4, 13, 21, 34):
        assert _emitted(fuzz_instances, n, 12, seed) == _emitted(reference_fuzz_instances, n, 12, seed)


@pytest.mark.parametrize("attempts", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fuzz_runs_out_where_the_reference_does_on_small_budgets(monkeypatch, n, attempts):
    # a budget of a few draws per instance runs out inside a refill block
    monkeypatch.setattr(envyprice.oracle, "_ATTEMPTS", attempts)
    monkeypatch.setattr(util, "_ATTEMPTS", attempts)
    want = [_emitted(reference_fuzz_instances, n, 30, seed) for seed in range(8)]
    assert [_emitted(fuzz_instances, n, 30, seed) for seed in range(8)] == want
    if attempts == 1 or n > 2:
        assert any(stop is not None for _, stop in want)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_first_matched_draw_stops_at_every_limit(n):
    # the limit can fall on any draw of a block, a zero-column draw included
    # (common at n = 1 and 2 only); a limit short of the accepted draw spends
    # exactly the limit
    zero_draws = 0
    for idx in range(300 if n == 2 else 40):
        key = f"fuzz:5:{idx}"
        rng, accepted = random.Random(key), 0
        while True:
            accepted += 1
            cols = reference_draw(rng.getrandbits, n)
            if cols is None:
                zero_draws += 1
            elif envy_free_matching(UtilityMatrix.from_weights(cols)) is not None:
                break
        for limit in range(accepted + 2):
            got = _first_matched_draw(random.Random(key).getrandbits, n, limit)
            if limit < accepted:
                assert got == (None, limit)
            else:
                assert got == (list(map(bytes, cols)), accepted)
    assert zero_draws >= 2 or n > 2


def test_fuzz_stream_equals_the_reference_at_n_300():
    # one draw of 90 000 weights, from a block of 180 000 words
    assert _emitted(fuzz_instances, 300, 1, 0) == _emitted(reference_fuzz_instances, 300, 1, 0)


@pytest.mark.parametrize("args, where", [((8, 10, 1), (8, 1000)), ((9, 3, 0), (2, 300))])
def test_fuzz_runs_out_where_the_reference_does(args, where):
    # draws rejected on their raw weights count against the budget too
    ref = _emitted(reference_fuzz_instances, *args)
    assert ref[1] == where
    assert _emitted(fuzz_instances, *args) == ref


def _grid_columns(rng, n, count, odds=16):
    """count seeded weight columns of n values: one in `odds` is all zero,
    and five in `odds` have forced ties at the column maximum."""
    cols = []
    for _ in range(count):
        col = [rng.randrange(17) for _ in range(n)]
        kind = rng.randrange(odds)
        if kind == 0:
            col = [0] * n
        elif kind <= 5:
            top = max(col)
            for i in rng.sample(range(n), rng.randint(1, n)):
                col[i] = top
        cols.append(col)
    return cols


def test_fuzz_precheck_rejects_only_grids_without_an_envy_free_matching():
    # the raw-weight check must be Hall's condition on the set of all agents
    # in the normalized matrix, and a grid it rejects has no envy-free
    # matching; a zero column reads as a zero maximum
    rng = random.Random(24)
    rejected = 0
    for n in range(1, 9):
        for _ in range(300):
            cols = _grid_columns(rng, n, n)
            tops, covered = _hall_windows(bytes(chain.from_iterable(cols)), n)
            assert tops == bytes(map(max, cols))
            if [0] * n in cols:
                with pytest.raises(ColumnNotNormalized):
                    UtilityMatrix.from_weights(cols)
                continue
            x = UtilityMatrix.from_weights(cols)
            passes = covered[0] == 1
            assert passes == (len(set(chain.from_iterable(_compat_adjacency(x)))) == n)
            if not passes:
                rejected += 1
                assert envy_free_matching(x) is None
    assert rejected > 400  # 467 of the 2 400 grids


@pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 33])
def test_hall_windows_hold_at_every_column_of_a_block(n):
    # a block holds many draws, and a draw may start at any column: every
    # window of n columns is tested at once, and a partial column is dropped.
    # The first window has a distinct strict maximum per column, so it passes;
    # past n = 9, forced ties and zero columns grow rarer so that some fail.
    rng = random.Random(n)
    first = [[16 if i == j else rng.randrange(16) for i in range(n)] for j in range(n)]
    cols = first + _grid_columns(rng, n, 4 * n + 8, 16 if n < 10 else 8 * n)
    tail = bytes(rng.randrange(17) for _ in range(n - 1))
    tops, covered = _hall_windows(bytes(chain.from_iterable(cols)) + tail, n)
    assert tops == bytes(map(max, cols))
    assert len(covered) == len(cols)
    flags = []
    for start in range(len(cols) - n + 1):
        window = cols[start : start + n]
        hit = {i for col in window for i, v in enumerate(col) if v == max(col)}
        flags.append(len(hit) == n)
        assert covered[start] == flags[-1]
    assert flags[0] and (not all(flags) or n == 1)


def test_fuzz_builds_one_matrix_per_emitted_instance(monkeypatch):
    built = []
    from_weights = UtilityMatrix.from_weights.__func__

    def counted(cls, weights):
        built.append(len(weights))
        return from_weights(cls, weights)

    monkeypatch.setattr(UtilityMatrix, "from_weights", classmethod(counted))
    for n in (5, 6, 7):
        built.clear()
        assert len(list(fuzz_instances(n, 40, seed=2))) == 40
        assert built == [n] * 40


def test_fuzz_raises_a_typed_error_when_the_matchings_disagree(monkeypatch):
    monkeypatch.setattr(envyprice.oracle, "envy_free_matching", lambda x: None)
    with pytest.raises(FuzzCheckFailed, match="fuzz instance 0: the raw-weight matching"):
        next(fuzz_instances(3, 2, seed=0))


@pytest.mark.parametrize(
    "n, digest",
    [
        (5, "99c8dd0cf1d38f7cf6c3b34a148ac10fcce8733cc70aa356008152b948450ef9"),
        (6, "8bdc8e6423cac97e5e6cad604d9dd1d1e08c01a4e51f9c85489749f49492c711"),
        (7, "6d9b9c05ca88eb694137693640557329ae6556ae83a4a516ee2eaa97850e57d9"),
    ],
)
def test_fuzz_stream_is_pinned(n, digest):
    # recorded from the fuzzer's randrange(17) form; the stream must not move
    grids = [(x.grid, x.scale) for x in fuzz_instances(n, 50, seed=0)]
    assert hashlib.sha256(repr(grids).encode()).hexdigest() == digest


def test_fuzz_input_validation():
    with pytest.raises(ValueError):
        list(fuzz_instances(0, 1, seed=0))


@pytest.mark.parametrize(
    "count, seed, message",
    [
        (2.0, 100, "count must be an int"),
        (True, 100, "count must be an int"),
        ("3", 100, "count must be an int"),
        (-1, 100, "count must be nonnegative"),
    ],
)
def test_fuzz_rejects_bad_count_and_attempts(count, seed, message):
    with pytest.raises(ValueError, match=message):
        list(fuzz_instances(3, count, seed=seed))


@pytest.mark.parametrize("seed", [1.5, "1.5", True, None])
def test_fuzz_seed_must_be_an_int(seed):
    # 1.5 and "1.5" would format into the same stream key
    with pytest.raises(ValueError, match="seed must be an int"):
        list(fuzz_instances(3, 2, seed=seed))
