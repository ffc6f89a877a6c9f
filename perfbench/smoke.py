"""Tiny-scale smoke test of the benchmark.

Runs every workload for a few hundred arrivals, untraced and traced, and
checks that every metric named in ``BENCHMARK.json`` is reported with its
unit and that every correctness check passes.  Also checks that the leak
probe does see a payload left behind in a container that has not been
restored yet, so a passing probe means something.  Run from the repository root::

    python3 perfbench/smoke.py

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

from perfbench import run  # noqa: E402

#: Arrivals per replay at smoke scale.
SMOKE_ARRIVALS = 300


def check_probe() -> list:
    """The leak probe must flag a payload left in an unrestored buffer."""
    from repro import ActionSpec, FaaSCluster, SimulationConfig, find_benchmark
    from perfbench.replay import leak_probe
    from perfbench.scenarios import LEAK_MARKER

    cluster = FaaSCluster(SimulationConfig())
    # Groundhog with rollback deferred to the next caller's request: after
    # one request the buffer still holds that request's payload.
    spec = ActionSpec.for_profile(
        find_benchmark("get-time", "p").profile, "gh",
        skip_rollback_for_same_caller=True,
    )
    cluster.deploy(spec)
    cluster.invoke_sync(spec.name, b"alice" + LEAK_MARKER + b"x" * 64, caller="alice")
    found = leak_probe(cluster, [spec.name])
    if found != {"probed": 1, "leaked": 1}:
        return [f"leak probe missed an unrestored payload: {found}"]
    return []


def main() -> int:
    from perfbench.scenarios import WORKLOADS

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = check_probe()
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from scenarios.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, lines = run.run_benchmark(
                workload, 1, 0.0, bool(trace), arrivals=SMOKE_ARRIVALS
            )
            label = f"{workload} trace={trace}"
            reported = {name: m["unit"] for name, m in record["metrics"].items()}
            if reported != expected[trace]:
                problems.append(f"{label}: metrics {sorted(reported)} != BENCHMARK.json")
            if not record["correct"]:
                problems.append(f"{label}: correctness checks failed: {lines}")
            if record["attempted"] < 1 or record["failed"] != 0:
                problems.append(f"{label}: attempted {record['attempted']}, failed {record['failed']}")
            print(f"{label}: {len(reported)} metrics, correct={record['correct']}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
