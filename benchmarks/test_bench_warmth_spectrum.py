"""The warmth spectrum — restore vs boot on the diurnal rising edge.

:func:`_warmth_spectrum_run` replays the same diurnal trace twice at an
equal live-container budget.  With the spectrum ``"off"``, keep-alive
eviction destroys idle containers, so every post-trough warm-up is a
full cold boot.  With it ``"on"``, eviction demotes them to restorable
Groundhog snapshots, and the rising edge pays priced restores instead.

The claim has four legs, all simulated and therefore exact: equal
goodput, a majority of the rising-edge cold boots converted, restores
outnumbering the boots that remain, and a lower p99.  The trace runs at
2x10^4 arrivals: at 10^4 (two diurnal cycles, one of them warm-up) too
few rising-edge events remain for the restore-vs-boot count to separate.
"""

from __future__ import annotations

from repro.analysis.experiments import WARMTH_SPECTRUM_REGIMES, _warmth_spectrum_run
from repro.analysis.tables import render_table

INVOCATIONS = 20_000


def _render(runs):
    rows = [
        [
            regime,
            f"{run['arrivals']:,}",
            f"{run['goodput_fraction'] * 100:.1f}%",
            str(run["rising_cold_starts"]),
            str(run["rising_restores"]),
            str(run["demotes"]),
            str(run["snapshot_discards"]),
            f"{run['p99_ms']:.1f}",
        ]
        for regime, run in runs.items()
    ]
    print()
    print(render_table(
        ["spectrum", "arrivals", "goodput", "rising boots",
         "rising restores", "demotes", "discards", "p99 (ms)"],
        rows,
        title=f"Warmth spectrum — {INVOCATIONS:,} requested invocations",
    ))


def test_spectrum_converts_rising_edge_boots_into_restores(benchmark, bench_once):
    runs = bench_once(benchmark, lambda: {
        regime: _warmth_spectrum_run(regime, invocations=INVOCATIONS)
        for regime in WARMTH_SPECTRUM_REGIMES
    })
    _render(runs)
    off, on = runs["off"], runs["on"]

    assert off["goodput_fraction"] == on["goodput_fraction"]
    assert off["rising_cold_starts"] > 0
    assert on["rising_cold_starts"] < off["rising_cold_starts"] / 2
    assert on["rising_restores"] > on["rising_cold_starts"]
    assert on["p99_ms"] < off["p99_ms"]

    benchmark.extra_info.update(
        rising_cold_conversion=(
            1.0 - on["rising_cold_starts"] / off["rising_cold_starts"]
        ),
        p99_cut_fraction=1.0 - on["p99_ms"] / off["p99_ms"],
    )
