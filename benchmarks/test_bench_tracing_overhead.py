"""The flight recorder's price — tracing sampled vs off.

:func:`_perf_trace_run` replays the same sketch-mode diurnal trace with
the recorder off and with 1-in-16 deterministic sampling.  Tracing is
observe-only, so both runs simulate exactly the same thing (the wider
identity check, over ``full`` tracing too, lives in
``tests/unit/test_obs.py``); the only difference is host cost, which
sampled tracing keeps within 10 % of the untraced run.

A run at this scale takes about two seconds of wall clock, so a single
pair is noisy.  The modes are interleaved (off, sampled, off, ...) so a
drift in host speed hits both alike, and each mode's best of three runs
is compared.  The simulation is deterministic: repeats differ in timing
only.
"""

from __future__ import annotations

from repro.analysis.experiments import _perf_trace_run
from repro.analysis.tables import render_table

INVOCATIONS = 20_000
REPEATS = 3
TRACING_MODES = ("off", "sampled")

#: Throughput sampled tracing may cost, relative to tracing off.
SAMPLED_COST_CEILING = 0.10


def test_sampled_tracing_costs_at_most_ten_percent(benchmark, bench_once, timed):
    def compare():
        best = {}
        for _ in range(REPEATS):
            for tracing in TRACING_MODES:
                run, wall = timed(lambda: _perf_trace_run(
                    "sketch", invocations=INVOCATIONS, tracing=tracing
                ))
                if tracing not in best or wall < best[tracing][1]:
                    best[tracing] = (run, wall)
        return best

    best = bench_once(benchmark, compare)
    (off, off_wall), (sampled, sampled_wall) = best["off"], best["sampled"]
    cost = 1.0 - off_wall / sampled_wall
    print()
    print(render_table(
        ["tracing", "arrivals", "best wall (s)", "inv/s", "traces kept"],
        [
            [
                tracing,
                f"{run['arrivals']:,}",
                f"{wall:.2f}",
                f"{run['arrivals'] / wall:,.0f}",
                str(run.get("traces_recorded", 0)),
            ]
            for tracing, (run, wall) in best.items()
        ],
        title=(
            f"Tracing overhead — best of {REPEATS}, sampled costs "
            f"{cost * 100:+.1f}% throughput"
        ),
    ))

    # Tracing changed nothing simulated.
    assert off["arrivals"] == sampled["arrivals"]
    assert off["goodput_fraction"] == sampled["goodput_fraction"]
    assert off["cold_starts"] == sampled["cold_starts"]
    assert off["p99_ms"] == sampled["p99_ms"]
    assert sampled["traces_recorded"] > 0

    assert cost <= SAMPLED_COST_CEILING, cost

    benchmark.extra_info.update(
        sampled_cost_fraction=cost,
        off_inv_per_s=off["arrivals"] / off_wall,
        sampled_inv_per_s=sampled["arrivals"] / sampled_wall,
    )
