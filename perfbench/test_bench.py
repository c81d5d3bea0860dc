"""Self-tests of the benchmark: its checks bite and its tracer sees every
binding. Run with `python3 -m pytest -q perfbench` from the repository root.
"""

import dataclasses
import json
import math
from fractions import Fraction

import run

run.use_checkout_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from envyprice import bounds, core, oracle, solver, structure  # noqa: E402


def test_wrong_reference_is_caught(monkeypatch):
    ok = run.Phase()
    ok.run([("solve", 5, None)], {})
    assert ok.failures == []

    monkeypatch.setitem(workloads.P_TABLE, 5, Fraction(60, 44))
    caught = run.Phase()
    caught.run([("solve", 5, None)], {})
    assert len(caught.failures) == 1
    assert "table says 15/11" in caught.failures[0]


def test_raising_operation_counts_as_failed():
    phase = run.Phase()
    phase.run([("explore", 3, (2, 0))], {})  # m < n is rejected by the explorer
    assert len(phase.failures) == 1
    assert "ValueError" in phase.failures[0]
    assert len(phase.latencies_ns) == 1


def test_reference_time_scales_by_the_probes_around_each_operation():
    phase = run.Phase(probe=True)
    phase.run([("solve", 1, None), ("explore", 3, (2, 0)), ("solve", 2, None)], {})
    assert len(phase.probes_ns) == len(phase.latencies_ns) == 3  # a raising op is probed too

    phase.latencies_ns = [1000] * 10
    slow, fast = 2 * run.REF_PROBE_NS, run.REF_PROBE_NS // 2
    phase.probes_ns = [slow] * 5 + [fast] * 5
    ref = phase.reference_latencies_ns()
    assert ref[0] == 500 and ref[-1] == 2000
    # the window of 7 probes centred on each op decides its scale
    assert ref[3] == 500 and ref[6] == 2000


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.P_TABLE, 5, Fraction(1))  # every fuzz ratio above 1 fails
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "sample_small", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_tracer_replaces_and_restores_every_binding():
    originals = [
        core.envy_free_matching,
        core.price_ratio,
        core.optimal_welfare,
        core.envy_free_optimal_exhaustive,
        structure.build_witness_matrix,
        solver.solve_alpha,
        oracle.fuzz_instances,
        bounds.explore_witness,
    ]
    post_init = core.UtilityMatrix.__post_init__
    with spans.installed(spans.Tracer()):
        for fn in originals:
            assert list(spans._bindings(fn)) == [], fn.__name__
        assert core.UtilityMatrix.__post_init__ is not post_init
    for fn in originals:
        assert list(spans._bindings(fn)), fn.__name__
    assert core.UtilityMatrix.__post_init__ is post_init
    # the bindings the tracer must not miss
    assert bounds.price_ratio is core.price_ratio
    assert oracle.envy_free_matching is core.envy_free_matching
    assert structure.envy_free_matching is core.envy_free_matching


def test_traced_run_agrees_and_counts_nested_calls():
    workload = dataclasses.replace(workloads.WORKLOADS["sample_small"], trace_rounds=1)
    metrics, details, attempted, failed, problems = run.traced(workload, workload.prepare(3))
    assert problems == []
    assert metrics["bounds.explore_witness.evals"][0] == len(workloads.EXPLORE_SHAPES) * workloads.EXPLORE_BUDGET
    per_round = len(workloads.FUZZ_SIZES) * workloads.FUZZ_DRAWS_PER_SIZE
    assert metrics["oracle.fuzz_instances.emitted"][0] == per_round
    # one rejection test per draw, plus price_ratio's own matching per kept draw
    assert metrics["core.envy_free_matching.calls"][0] == metrics["oracle.fuzz_instances.draws"][0] + per_round


def test_dp_cells_and_candidates_match_the_scans():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        solver.solve_p_nn(8, solver.SolveOptions(search=solver.Search.FULL_ENUMERATION))
        oracle.oracle_p_nn(8)
    steps = tracer.calls["oracle.dp_step"]
    assert steps > 0
    # _oracle_dp: n - 1 layers, each over budgets b = 0..n and t = 0..b
    assert tracer.counts["oracle.dp_cells"] == steps * 7 * sum(b + 1 for b in range(9))
    # _scan_full: for each s_1 = v, compositions of 8 - v into 7 parts
    per_scan = sum(math.comb(8 - v + 6, 6) for v in range(9))
    iters = tracer.calls["solver.solve_alpha"]
    assert iters > 0
    assert tracer.counts["solver.candidates"] == iters * per_scan
