"""Benchmark of envyprice: a closed loop with one caller in one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its `src/` directory and
nowhere else. The next operation starts when the previous one returns.

--trace 0 reports the end-to-end metrics. It times whole rounds of
operations until S seconds have passed, and it times set-up in fresh
interpreters spread over the run. Operation times are reported in
reference time: see `reference_probe`.

--trace 1 reports the per-layer metrics. It replays the workload's fixed
trace rounds twice, untraced and then with spans around every layer entry
point, and it checks that both passes return identical outputs.

Every output is checked (see workloads.py). The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; the line before it
holds provenance and run details. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 9
# What a user pays once per CLI call: the import, then the inputs.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import envyprice.cli, workloads; "
    "w = workloads.WORKLOADS[sys.argv[3]]; w.round(w.prepare(int(sys.argv[4])), 0)"
)
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20
# The reference probe's typical time on the reference machine (see
# README.md). Fixed: changing it rescales every timing metric but setup_s.
REF_PROBE_NS = 500_000
# Probes around an operation whose median rescales its latency.
PROBE_WINDOW = 7


def reference_probe() -> int:
    """Fixed pure-Python work that runs no envyprice code: Fraction sums,
    integer arithmetic and small tuples, the mix the package itself runs.

    The speed of the host drifts by up to 40% over seconds to minutes, as
    other guests come and go. Each operation is followed by one probe, and
    its latency is scaled by REF_PROBE_NS over the median of the probes
    around it. A change to envyprice moves the operations but not the
    probes, so it shows in full; a change of machine speed moves both and
    mostly cancels.
    """
    acc = Fraction(0)
    rows = []
    for i in range(1, 61):
        acc += Fraction(i % 7 + 1, i)
        rows.append(tuple(j * i % 11 for j in range(16)))
    return acc.numerator + len(rows)


def use_checkout_package() -> None:
    """Import envyprice from this checkout's src/, or stop."""
    init = SRC / "envyprice" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no envyprice sources at {init}")
    sys.path.insert(0, str(SRC))
    import envyprice

    if Path(envyprice.__file__).resolve() != init.resolve():
        raise SystemExit(f"envyprice imported from {envyprice.__file__}, not {init}")


class Phase:
    """Latencies, failures and (optionally) outputs of a list of operations."""

    def __init__(self, keep_results: bool = False, probe: bool = False) -> None:
        self.latencies_ns: list[int] = []
        self.probes_ns: list[int] = []
        self.results: list = []
        self.failures: list[str] = []
        self.sizes: Counter = Counter()
        self.keep_results = keep_results
        self.probe = probe

    def run(self, ops, state: dict) -> None:
        import workloads

        for op in ops:
            self.sizes[workloads.size(op)] += 1
            start = time.perf_counter_ns()
            try:
                result = workloads.execute(op, state)
            except Exception as exc:  # a raising operation is a failed one
                self.latencies_ns.append(time.perf_counter_ns() - start)
                self._probe()
                self.failures.append(f"{workloads.size(op)}: {type(exc).__name__}: {exc}")
                if len(self.failures) <= 3:
                    traceback.print_exc()
                if self.keep_results:
                    self.results.append(None)
                continue
            self.latencies_ns.append(time.perf_counter_ns() - start)
            self._probe()
            if self.keep_results:
                self.results.append(result)
            try:
                workloads.check(op, result)
            except workloads.CheckFailed as exc:
                self.failures.append(f"{workloads.size(op)}: {exc}")

    def _probe(self) -> None:
        if self.probe:
            start = time.perf_counter_ns()
            reference_probe()
            self.probes_ns.append(time.perf_counter_ns() - start)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def reference_latencies_ns(self) -> list[float]:
        """Each latency scaled by REF_PROBE_NS over the median of the
        PROBE_WINDOW probes centred on it."""
        half = PROBE_WINDOW // 2
        return [
            lat * REF_PROBE_NS / statistics.median(self.probes_ns[max(0, i - half) : i + half + 1])
            for i, lat in enumerate(self.latencies_ns)
        ]


def warm_up(workload, inputs) -> Phase:
    """One operation with its own state and a few probes, so the measured
    phase starts warm."""
    phase = Phase()
    phase.run(workload.round(inputs, 0)[:1], {})
    for _ in range(PROBE_WINDOW):
        reference_probe()
    return phase


def setup_probe(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter running SETUP_PROBE.

    It waits in a blocking wait: `subprocess.run(timeout=...)` polls with
    sleeps of up to 50 ms, which would round the time up to that step. A
    timer kills a child that hangs.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed)],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    killer.start()
    try:
        code = child.wait()
    finally:
        killer.cancel()
        killer.join()
    elapsed = time.perf_counter() - start
    if code:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def tail_index(count: int) -> int:
    """Index in sorted order of the highest percentile that still has at
    least 10 samples beyond it."""
    return max(0, count - 11)


def end_to_end(workload, inputs, seed: int, seconds: float):
    """Whole rounds until `seconds` have passed. Each round draws fresh
    seeded sizes, so a run averages over many inputs of the workload's size
    profile. Latencies are in reference time (`reference_probe`), and p50
    and tail are taken over every operation of the run. The set-up probes
    are spread over the run, so that they meet the same machine speeds as
    the operations."""
    warm = warm_up(workload, inputs)
    phase = Phase(probe=True)
    state: dict = {}
    setup: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        phase.run(workload.round(inputs, rounds), state)
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(workload.name, seed))
        if elapsed >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.name, seed))
    count = len(phase.latencies_ns)
    ref = sorted(phase.reference_latencies_ns())
    raw = sorted(phase.latencies_ns)
    tail = tail_index(count)
    metrics = {
        "ops_per_s": (count / (sum(ref) / 1e9), "1/ref_s"),
        "op_p50_ms": (statistics.median(ref) / 1e6, "ref_ms"),
        "op_tail_ms": (ref[tail] / 1e6, "ref_ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "wall_clock": {
            "ops_per_s": count / phase.busy_s,
            "op_p50_ms": statistics.median(raw) / 1e6,
            "op_tail_ms": raw[tail] / 1e6,
        },
        "probe_ms": {
            "median": statistics.median(phase.probes_ns) / 1e6,
            "quartiles": [q / 1e6 for q in statistics.quantiles(phase.probes_ns, n=4)],
            "nominal": REF_PROBE_NS / 1e6,
        },
        "setup_probes_s": setup,
        "tail": {"percentile": 100 * (tail + 1) / count, "samples": count, "beyond": 10},
        "input_sizes": dict(phase.sizes),
    }
    failures = warm.failures + phase.failures
    return metrics, details, count + len(warm.latencies_ns), failures, failures


def traced(workload, inputs):
    """Each operation of the trace rounds runs untraced and traced back to
    back, the order alternating, so that drift in machine speed and the
    warm-up the first pass leaves for the second fall on both alike."""
    import spans
    import workloads

    ops = [op for r in range(workload.trace_rounds) for op in workload.round(inputs, r)]
    warm = warm_up(workload, inputs)
    tracer = spans.Tracer()
    for op in ops:
        for n, search in workloads.solver_calls(op):
            tracer.candidates(n, search)
    plain, seen = Phase(keep_results=True), Phase(keep_results=True)
    plain_state: dict = {}
    seen_state: dict = {}
    for i, op in enumerate(ops):
        if i % 2:
            plain.run([op], plain_state)
        with spans.installed(tracer):
            seen.run([op], seen_state)
        if not i % 2:
            plain.run([op], plain_state)

    metrics = spans.layer_metrics(tracer)
    metrics["trace_overhead_frac"] = (seen.busy_s / plain.busy_s - 1, "ratio")
    mismatched = [
        f"{workloads.size(op)}: traced output differs from untraced"
        for op, a, b in zip(ops, plain.results, seen.results)
        if a != b
    ]
    unmeasured = [f"{name} is zero on {workload.name}" for name in workload.claims if not metrics[name][0]]
    details = {
        "rounds": workload.trace_rounds,
        "untraced_s": plain.busy_s,
        "traced_s": seen.busy_s,
        "input_sizes": dict(plain.sizes),
    }
    failed_ops = warm.failures + plain.failures + seen.failures + mismatched
    return metrics, details, 2 * len(ops), failed_ops, failed_ops + unmeasured


def provenance(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain"],
                capture_output=True, text=True, check=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    if args.trace:
        metrics, details, attempted, failed_ops, problems = traced(workload, inputs)
    else:
        metrics, details, attempted, failed_ops, problems = end_to_end(
            workload, inputs, args.seed, args.seconds
        )

    for line in problems[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    details.update(
        workload=workload.name,
        trace=args.trace,
        provenance=provenance(args.seed),
        failures=problems[:MAX_REPORTED_FAILURES],
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
