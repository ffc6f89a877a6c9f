"""Integration tests for the perf trace drivers (sketch mode + fan-out).

End-to-end claims from the bounded-metrics and indexed-routing work are
pinned here:

* **Control-plane parity** — swapping the metrics collector into sketch
  mode must not change what the simulation *does*.  Metrics are
  observe-only unless a tenant SLO is declared, so the PR 5 forecast
  comparison (reactive vs predictive pre-warming) must reproduce the
  same verdict with bit-identical cold-start counts under either mode.
* **Fan-out determinism** — ``run_replicated`` returns bit-identical
  results whether the per-seed runs execute serially in-process or
  fanned out across spawn-started worker processes, and the per-seed
  sketches pool losslessly.
* **Cluster-scale routing parity** — the cluster-scale trace runs
  bit-identical simulations under indexed and scan routing (the
  acceptance contract of the cluster index).

All use reduced scales; the larger runs, with their wall-clock speedup
floors, live in ``benchmarks/test_bench_perf_trace.py`` and
``benchmarks/test_bench_cluster_index.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    _cluster_scale_run,
    _perf_trace_run,
    pooled_sketch_stats,
    run_replicated,
    run_slo_control,
)
from repro.faas.sketch import LatencySketch
from repro.workloads import find_benchmark


def _small_trace_worker(seed: int):
    """Module-level (picklable) reduced perf trace run for fan-out tests."""
    return _perf_trace_run("sketch", invocations=2_500, seed=seed)


class TestForecastVerdictParity:
    def test_sketch_mode_reproduces_the_predictive_prewarm_verdict(self):
        # The PR 5 experiment, once per metrics mode, same seed and trace.
        spec = find_benchmark("md2html", "p")
        runs = {
            mode: run_slo_control(
                spec,
                parts=("forecast",),
                forecast_duration_seconds=9.0,
                metrics_mode=mode,
            ).forecast
            for mode in ("exact", "sketch")
        }
        for forecast in runs.values():
            assert set(forecast) == {"reactive", "predictive"}

        # The verdict: predictive wins the rising edges in both modes.
        for mode, forecast in runs.items():
            assert (
                forecast["predictive"].rising_cold_starts
                < forecast["reactive"].rising_cold_starts
            ), mode

        # Metrics are observe-only here (no tenant SLOs declared), so the
        # two modes run bit-identical simulations: every behavioural
        # counter matches exactly, not approximately.
        for regime in ("reactive", "predictive"):
            exact = runs["exact"][regime]
            sketch = runs["sketch"][regime]
            assert sketch.cold_starts == exact.cold_starts, regime
            assert sketch.rising_cold_starts == exact.rising_cold_starts
            assert sketch.cold_dispatches == exact.cold_dispatches
            assert sketch.rising_cold_dispatches == exact.rising_cold_dispatches
            assert sketch.prewarms == exact.prewarms
            assert sketch.drains == exact.drains
            assert sketch.budget == exact.budget
            assert sketch.achieved_rps == exact.achieved_rps
            assert sketch.goodput_fraction == exact.goodput_fraction
            # The reported p99 comes from the client's own exact samples,
            # so it is inside the sketch error bound trivially: bit-equal.
            assert sketch.p99_ms == exact.p99_ms


class TestReplicatedFanOut:
    SEEDS = (101, 202, 303)

    def test_parallel_fan_out_is_bit_identical_to_serial(self):
        serial = run_replicated(_small_trace_worker, seeds=self.SEEDS)
        fanned = run_replicated(
            _small_trace_worker, seeds=self.SEEDS, processes=2
        )
        assert len(serial) == len(fanned) == len(self.SEEDS)
        for mine, theirs in zip(serial, fanned):
            # Everything — including the e2e sketch (integer bucket
            # counts, exact __eq__) — matches bit-for-bit across the
            # process boundary.
            assert mine == theirs

    def test_seeds_actually_differentiate_runs(self):
        a, b = run_replicated(_small_trace_worker, seeds=(101, 202))
        assert a["seed"] != b["seed"]
        assert a["e2e_sketch"] != b["e2e_sketch"]

    def test_pooled_sketch_stats_is_a_lossless_reduction(self):
        results = run_replicated(_small_trace_worker, seeds=(101, 202))
        pooled = pooled_sketch_stats(results)
        assert pooled.count == sum(r["recorded"] for r in results)
        # Pooling by merge equals one sketch fed both runs' streams.
        manual = LatencySketch(
            relative_accuracy=results[0]["e2e_sketch"].relative_accuracy
        )
        for result in results:
            manual.merge(result["e2e_sketch"])
        assert pooled == manual.stats()
        assert pooled.minimum == min(r["e2e_sketch"].moments.minimum for r in results)
        assert pooled.maximum == max(r["e2e_sketch"].moments.maximum for r in results)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            pooled_sketch_stats([])

    def test_empty_seed_list_raises(self):
        with pytest.raises(ValueError):
            run_replicated(_small_trace_worker, seeds=())


class TestClusterScaleParity:
    def test_indexed_and_scan_runs_are_bit_identical(self):
        # The acceptance contract at integration scale: the full harness
        # (diurnal trace, warm-aware routing, work stealing) behaves
        # identically under both routing implementations.
        kwargs = dict(invokers=8, actions=32, invocations=2_500, seed=13)
        indexed = _cluster_scale_run("indexed", **kwargs)
        scan = _cluster_scale_run("scan", **kwargs)
        assert indexed["arrivals"] == scan["arrivals"] > 0
        assert indexed["goodput_fraction"] == scan["goodput_fraction"]
        assert indexed["cold_starts"] == scan["cold_starts"]
        assert indexed["steals"] == scan["steals"] > 0
        assert indexed["routed_per_invoker"] == scan["routed_per_invoker"]
        assert indexed["p99_ms"] == scan["p99_ms"]

    def test_unknown_routing_is_rejected(self):
        from repro.errors import PlatformError
        with pytest.raises(PlatformError):
            _cluster_scale_run(
                "magic", invokers=2, actions=4, invocations=100, seed=1
            )
