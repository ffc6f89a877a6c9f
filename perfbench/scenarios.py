"""The benchmark's workloads: cluster shape, deployment and arrival trace.

Every workload is open loop.  Its arrival trace (offsets, target actions,
callers and payloads) is generated here from the benchmark seed; the
simulator receives only that trace.  The simulator's own RNG seed stays
fixed at :data:`SIM_SEED`, so the benchmark seed changes the inputs and
nothing else.

Offered rates are fixed numbers rather than estimates computed by the
program, so a change to the program's sizing heuristics cannot silently
change a workload.  They were derived once from the cluster capacity
estimate (cores / estimated service time) at the stated load factor.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import (
    ActionSpec,
    FaaSCluster,
    FunctionProfile,
    SimulationConfig,
    TenantMix,
    TenantSLO,
    azure_diurnal_arrivals,
    find_benchmark,
    microbenchmark_profile,
)
from repro.faas.scheduler import home_index

#: Seed of the simulator's internal RNG streams (jitter, routing ties).
SIM_SEED = 20230501

#: Bytes every generated payload starts with after its caller name.  The
#: leak probe looks for it in live containers' request buffers.
LEAK_MARKER = b"-secret:"


@dataclass(frozen=True)
class Trace:
    """One generated arrival trace."""

    offsets: List[float]
    actions: List[str]
    callers: List[str]
    #: One payload per (action, caller), shared by all its arrivals.
    payloads: Mapping[Tuple[str, str], bytes]


@dataclass(frozen=True)
class Scenario:
    """Everything needed to build and drive one workload at one size."""

    config: SimulationConfig
    deploy: Callable[[FaaSCluster], List[str]]
    synth: Callable[[random.Random, Sequence[str]], Trace]
    #: Arrivals before this simulated instant are warm-up: excluded from
    #: the latency percentiles and the SLO attainment.
    warmup_s: float
    #: The workload's fixed simulated end-to-end latency limit.
    slo_ms: float
    tenant_slos: Optional[Dict[str, TenantSLO]] = None


@dataclass(frozen=True)
class Workload:
    """A named workload: why it is in the benchmark and how to build it."""

    name: str
    why: str
    #: Nominal arrivals of one replay at full scale.
    arrivals: int
    make: Callable[[int], Scenario]
    #: Arrival traces generated per seed.  The simulated metrics pool all
    #: of them, so they rest on more samples than one replay the host can
    #: finish quickly.
    parts: int = 3


def _balanced_names(prefix: str, count: int, invokers: int) -> List[str]:
    """Action names whose hash homes spread round-robin over the invokers."""
    names: List[str] = []
    index = 0
    while len(names) < count:
        name = f"{prefix}-{index}"
        if home_index(name, invokers) == len(names) % invokers:
            names.append(name)
        index += 1
    return names


def _payloads(
    profiles: Mapping[str, FunctionProfile], callers: Sequence[str]
) -> Dict[Tuple[str, str], bytes]:
    """A caller-tagged payload of the profile's input size per pair."""
    table = {}
    for action, profile in profiles.items():
        for caller in callers:
            head = caller.encode() + LEAK_MARKER
            table[(action, caller)] = head + b"." * max(0, profile.input_bytes - len(head))
    return table


def _deployer(
    profiles: Mapping[str, FunctionProfile],
    mechanism: str,
    prewarm: Optional[Mapping[str, int]] = None,
) -> Callable[[FaaSCluster], List[str]]:
    """Deploy every profile; ``prewarm`` overrides per-action warm counts."""
    prewarm = prewarm or {}

    def deploy(cluster: FaaSCluster) -> List[str]:
        for name, profile in profiles.items():
            cluster.deploy(
                ActionSpec.for_profile(profile, mechanism, name=name),
                containers=prewarm.get(name),
            )
        return list(profiles)

    return deploy


def _diurnal(
    profiles: Mapping[str, FunctionProfile],
    callers: Callable[[random.Random, int], List[str]],
    caller_names: Sequence[str],
    *,
    duration_s: float,
    mean_rps: float,
    cycles: int,
    amplitude: float,
    burst_fraction: float,
    skew: float = 1.5,
) -> Callable[[random.Random, Sequence[str]], Trace]:
    """An Azure-shaped diurnal trace with correlated bursts.

    Bursts dwell for 1/2000 of the run on average, so a run holds dozens
    of them and the tail does not hinge on how long the longest one was.
    """
    payloads = _payloads(profiles, caller_names)

    def synth(rng: random.Random, actions: Sequence[str]) -> Trace:
        offsets, sequence = azure_diurnal_arrivals(
            actions,
            duration_seconds=duration_s,
            mean_rps=mean_rps,
            rng=rng,
            skew=skew,
            period_seconds=duration_s / cycles,
            amplitude=amplitude,
            burst_fraction=burst_fraction,
            burst_dwell_seconds=duration_s / 2000,
        )
        return Trace(offsets, sequence, callers(rng, len(offsets)), payloads)

    return synth


def _alternating(names: Sequence[str]) -> Callable[[random.Random, int], List[str]]:
    return lambda rng, count: [names[i % len(names)] for i in range(count)]


def _random_callers(names: Sequence[str]) -> Callable[[random.Random, int], List[str]]:
    return lambda rng, count: [names[rng.randrange(len(names))] for _ in range(count)]


# ---------------------------------------------------------------------------
# steady-hash: the per-invocation bookkeeping floor
# ---------------------------------------------------------------------------

#: 4 invokers x 4 cores of the 16-page/2-dirty microbenchmark: about
#: 1900 invocations/s of capacity; offered at 0.7 of it.
STEADY_RPS = 1332.0


def steady_hash(arrivals: int) -> Scenario:
    invokers = 4
    profile = microbenchmark_profile(16, 2)
    profiles = {name: profile for name in _balanced_names("day", 8, invokers)}
    duration = arrivals / STEADY_RPS
    tenants = ("tenant-0", "tenant-1")
    return Scenario(
        config=SimulationConfig(
            cores=4,
            invokers=invokers,
            # Pre-warmed to the ceiling: no cold start ever lands in the
            # tail, which then measures queueing alone.
            containers_per_action=4,
            scheduler_policy="hash-affinity",
            work_stealing=False,
            max_containers_per_action=4,
            keep_alive_seconds=600.0,
            control_plane=True,
            slo_window_seconds=300.0,
            metrics_mode="sketch",
            metrics_bucket_seconds=1.0,
            seed=SIM_SEED,
        ),
        deploy=_deployer(profiles, "base"),
        synth=_diurnal(
            profiles, _alternating(tenants), tenants,
            duration_s=duration, mean_rps=STEADY_RPS, cycles=3,
            amplitude=0.6, burst_fraction=0.05,
        ),
        warmup_s=0.1 * duration,
        slo_ms=40.0,
    )


# ---------------------------------------------------------------------------
# restore-heavy: real page-level restores after every invocation
# ---------------------------------------------------------------------------

#: FaaSProfiler Python functions, cheapest first: the trace's Zipf skew
#: sends most arrivals to the short functions.  They cover scan-heavy
#: restores (sentiment: 16.9 K mapped pages) and write-heavy ones (base64:
#: 1.66 K dirty pages).  primes is left out: its 1.8 s of compute makes the
#: simulated tail hinge on how a few dozen arrivals happen to cluster.
RESTORE_FUNCTIONS = ("get-time", "json", "sentiment", "md2html", "base64")

#: Zipf skew of the function mix: 68% of arrivals go to get-time and 2.7%
#: to base64, so the median and the p99 each fall inside one function's
#: latency distribution instead of on the step between two.
RESTORE_SKEW = 2.0

#: 16 cores over the mix's mean estimated service time (~0.045 s) is
#: about 360 invocations/s; offered at 1/6 of it, so even diurnal peaks
#: (1.9x the mean) rarely queue base64 (0.74 s per call) and the tail
#: stays a property of the function mix.
RESTORE_RPS = 60.0

#: Arrivals per diurnal cycle: fixes the virtual-time length of a cycle
#: (and so the keep-alive, a fraction of it) at every run size.
RESTORE_ARRIVALS_PER_CYCLE = 300


def restore_heavy(arrivals: int) -> Scenario:
    cycles = max(2, arrivals // RESTORE_ARRIVALS_PER_CYCLE)
    duration = arrivals / RESTORE_RPS
    period = duration / cycles
    profiles = {name: find_benchmark(name, "p").profile for name in RESTORE_FUNCTIONS}
    callers = ("alice", "bob", "carol", "dave")
    return Scenario(
        config=SimulationConfig(
            cores=4,
            invokers=4,
            containers_per_action=1,
            scheduler_policy="warm-aware",
            work_stealing=True,
            max_containers_per_action=4,
            # Shorter than the trough, so warm capacity built at each peak
            # is demoted to snapshots and restored on the next rising edge.
            keep_alive_seconds=period / 8,
            metrics_mode="sketch",
            metrics_bucket_seconds=1.0,
            restorable_snapshots=True,
            snapshot_budget=8,
            isolation_mechanism="gh",
            seed=SIM_SEED,
        ),
        # base64 boots for over a second (its warm-up runs the function
        # once), so it is pre-warmed to its peak concurrency: otherwise
        # whether a boot lands on a p99 request decides the p99.  The short
        # functions still scale out, demote and restore every cycle.
        deploy=_deployer(profiles, "gh", {"base64": 4}),
        synth=_diurnal(
            profiles, _random_callers(callers), callers,
            duration_s=duration, mean_rps=RESTORE_RPS, cycles=cycles,
            amplitude=0.9, burst_fraction=0.0, skew=RESTORE_SKEW,
        ),
        warmup_s=period,
        slo_ms=900.0,
    )


# ---------------------------------------------------------------------------
# routing-wide: cluster-scale routing, stealing and queue drains
# ---------------------------------------------------------------------------

#: The microbenchmark's 16-page footprint (cheap containers, so 256
#: actions deploy quickly) with 100 ms of compute, so a replay the host
#: finishes in seconds still spans seconds of simulated time: long
#: enough for the cluster to warm past its first cold-start storm.
ROUTING_EXEC_S = 0.1

#: 32 invokers x 4 cores over its estimated 0.147 s service time: about
#: 870 invocations/s of capacity; offered at 0.85 of it.
ROUTING_RPS = 740.0


def routing_wide(arrivals: int) -> Scenario:
    invokers = 32
    profile = dataclasses.replace(
        microbenchmark_profile(16, 2, name="route"), exec_seconds=ROUTING_EXEC_S
    )
    profiles = {name: profile for name in _balanced_names("cs", 256, invokers)}
    duration = arrivals / ROUTING_RPS
    tenants = ("tenant-0", "tenant-1")
    return Scenario(
        config=SimulationConfig(
            cores=4,
            invokers=invokers,
            containers_per_action=1,
            scheduler_policy="warm-aware",
            work_stealing=True,
            cluster_index=True,
            max_containers_per_action=4,
            keep_alive_seconds=600.0,
            metrics_mode="sketch",
            metrics_bucket_seconds=1.0,
            seed=SIM_SEED,
        ),
        deploy=_deployer(profiles, "base"),
        synth=_diurnal(
            profiles, _alternating(tenants), tenants,
            duration_s=duration, mean_rps=ROUTING_RPS, cycles=3,
            amplitude=0.6, burst_fraction=0.05,
        ),
        warmup_s=0.1 * duration,
        slo_ms=500.0,
    )


# ---------------------------------------------------------------------------
# tenant-slo: admission sheds and throttles under the control plane
# ---------------------------------------------------------------------------

#: 2 invokers x 2 cores of md2html: about 76 invocations/s of capacity.
TENANT_CAPACITY_RPS = 75.6
POLITE_RPS = 0.25 * TENANT_CAPACITY_RPS
AGGRESSIVE_RPS = 3.0 * TENANT_CAPACITY_RPS

#: The polite tenant's declared p99 target, also the workload's latency
#: limit: 1.5 x its uncontended p99.
TENANT_SLO_MS = 150.0


def tenant_slo(arrivals: int) -> Scenario:
    rate = POLITE_RPS + AGGRESSIVE_RPS
    duration = arrivals / rate
    invokers = 2
    profile = find_benchmark("md2html", "p").profile
    profiles = {name: profile for name in _balanced_names("tenant", 4, invokers)}
    mix = TenantMix({"aggressive": AGGRESSIVE_RPS, "polite": POLITE_RPS})
    payloads = _payloads(profiles, mix.tenants)

    def synth(rng: random.Random, actions: Sequence[str]) -> Trace:
        offsets: List[float] = []
        at = rng.expovariate(rate)
        while at <= duration:
            offsets.append(at)
            at += rng.expovariate(rate)
        targets = [actions[rng.randrange(len(actions))] for _ in offsets]
        return Trace(offsets, targets, [mix(i) for i in range(len(offsets))], payloads)

    return Scenario(
        config=SimulationConfig(
            cores=2,
            invokers=invokers,
            containers_per_action=1,
            scheduler_policy="warm-aware",
            max_containers_per_action=2,
            # Short queues bound the wait of an admitted request, so the
            # tail does not swing with each AIMD overshoot.
            max_queue_per_action=2,
            admission_policy="wfq",
            control_plane=True,
            seed=SIM_SEED,
        ),
        deploy=_deployer(profiles, "base"),
        synth=synth,
        # The first AIMD cuts land within a few seconds of the overload.
        warmup_s=0.2 * duration,
        slo_ms=TENANT_SLO_MS,
        tenant_slos={"polite": TenantSLO(p99_ms=TENANT_SLO_MS, min_goodput=0.7)},
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "steady-hash",
            "per-invocation bookkeeping floor: event loop, metric sketches and "
            "hash dispatch; restore, index queries and stealing bypassed",
            15_000,
            steady_hash,
        ),
        Workload(
            "restore-heavy",
            "Groundhog page-level restore after every invocation of five "
            "FaaSProfiler functions, plus the demote-restore warmth spectrum",
            9_000,
            restore_heavy,
            # One long replay per child.  The RSS the program builds up over
            # a replay (address spaces of the containers it boots as it
            # scales out, and the snapshots it keeps) grows with its length;
            # at this size it is about half of host_peak_rss_mb, the
            # interpreter and the deployment the other half.
            parts=1,
        ),
        Workload(
            "routing-wide",
            "32 invokers x 256 actions: warm-aware routing, work stealing, "
            "cluster index and queue drains dominate; restore bypassed",
            10_000,
            routing_wide,
        ),
        Workload(
            "tenant-slo",
            "aggressive tenant at 3x capacity: WFQ sheds, quotas throttle, and "
            "the SLO monitor, AIMD tuner and planner act every tick",
            12_000,
            tenant_slo,
        ),
    )
}
