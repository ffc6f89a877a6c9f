"""The cluster-scale routing trace — indexed vs scan, bit-identical.

:func:`_cluster_scale_run` replays the same warm-aware + work-stealing
diurnal trace once per routing implementation.  The two implementations
make exactly the same decisions (same invoker per invocation, same
steals, same cold starts — the scan is the correctness oracle for the
:class:`~repro.faas.index.ClusterIndex`), so the wall-clock gap is
purely the cost of the per-request O(invokers × actions) scans the index
replaces with O(log N) queries.  Both routings run in this process, back
to back, each timed around the whole call; the indexed run also checks
its index against a from-scratch recompute.

By default this benchmark runs 16 invokers x 128 actions at reduced
arrivals.  Set ``REPRO_BENCH_FULL=1`` to run the 32 x 256 acceptance
point, whose indexed speedup must clear 3x.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import _cluster_scale_run
from repro.analysis.tables import render_table

#: Full-scale acceptance point on request only; see the module docstring.
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "").strip().lower() in (
    "1", "true", "yes", "on",
)

ROUTINGS = ("scan", "indexed")


def _render(runs, key, invocations, speedup):
    rows = [
        [
            key,
            routing,
            f"{run['arrivals']:,}",
            f"{run['wall_seconds']:.1f}",
            f"{run['arrivals'] / run['wall_seconds']:,.0f}",
            str(run["steals"]),
            str(run["cold_starts"]),
            f"{run['goodput_fraction'] * 100:.1f}%",
        ]
        for routing, run in runs.items()
    ]
    print()
    print(render_table(
        ["point", "routing", "arrivals", "wall (s)", "inv/s",
         "steals", "cold starts", "goodput"],
        rows,
        title=(
            f"Cluster-scale routing — {invocations:,} requested "
            f"invocations, indexed speedup {speedup:.2f}x"
        ),
    ))


def test_indexed_routing_is_faster_and_bit_identical(
    benchmark, bench_once, bench_scale, timed
):
    invokers, actions = (32, 256) if BENCH_FULL else (16, 128)
    invocations = 30_000 if BENCH_FULL else bench_scale(10_000, 5_000)

    def compare():
        runs = {}
        for routing in ROUTINGS:
            run, wall = timed(lambda: _cluster_scale_run(
                routing,
                invokers=invokers,
                actions=actions,
                invocations=invocations,
            ))
            run["wall_seconds"] = wall
            runs[routing] = run
        return runs

    runs = bench_once(benchmark, compare)
    scan, indexed = runs["scan"], runs["indexed"]
    speedup = scan["wall_seconds"] / indexed["wall_seconds"]
    key = f"{invokers}x{actions}"
    _render(runs, key, invocations, speedup)

    # Bit-identity first: both routings simulated the *same* cluster
    # doing the same work.  A fast router that routes differently is a
    # correctness bug, not a speedup.
    assert scan["goodput_fraction"] == indexed["goodput_fraction"]
    assert scan["cold_starts"] == indexed["cold_starts"]
    assert scan["steals"] == indexed["steals"]
    assert scan["routed_per_invoker"] == indexed["routed_per_invoker"]
    assert scan["p99_ms"] == indexed["p99_ms"]
    assert indexed["arrivals"] == scan["arrivals"] >= invocations
    # The shape genuinely exercises the steal machinery.
    assert indexed["steals"] > 0

    # The perf claim.  The 32x256 acceptance point clears 3x; smaller
    # quick points have proportionally less scan work to remove, so
    # their floor is deliberately conservative.
    floor = 3.0 if BENCH_FULL else 1.2
    assert speedup >= floor, speedup

    benchmark.extra_info.update(
        point=key,
        speedup=speedup,
        indexed_inv_per_s=indexed["arrivals"] / indexed["wall_seconds"],
        scan_inv_per_s=scan["arrivals"] / scan["wall_seconds"],
        steals=indexed["steals"],
    )
