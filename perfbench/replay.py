"""One benchmark child: set a workload up, replay its trace once, check it.

:func:`child_main` runs in a fresh child interpreter per replay, so
the host numbers it reports (set-up and replay time, peak RSS) belong to
that replay alone.  Everything it returns under ``"sim"`` is a pure
function of the workload, its size and the seed; ``"digest"`` hashes all
of it, so two children of the same seed must report the same digest
whether or not they were traced.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import pickle
import random
import heapq
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import FaaSCluster, OpenLoopClient
from repro.errors import RestoreError
from repro.faas.container import ContainerState
from repro.faas.metrics import percentile
from repro.faas.request import Invocation, InvocationStatus

from perfbench.scenarios import LEAK_MARKER, WORKLOADS, Scenario, Trace

#: Arrivals of the short ``verify_isolation=True`` pass.
VERIFY_ARRIVALS = 150

#: Events of one reference sample: 20-40 ms on the 2-vCPU Xeon VM the
#: benchmark was built on.
REFERENCE_EVENTS = 10_000

#: The duration of one reference sample that host seconds are scaled to.
#: Fixed for good: changing it rescales every host number.
REFERENCE_NOMINAL_S = 0.03

#: Host seconds of replay between two reference samples.
REFERENCE_EVERY_S = 0.5

#: Simulated events the replay runs between two looks at the host clock.
SLICE_EVENTS = 2_000


@dataclass(frozen=True)
class Job:
    """One replay for a child process to run."""

    workload: str
    seed: int
    arrivals: int
    #: Which of the seed's traces to replay (each part is its own trace).
    part: int = 0
    #: Set-ups to time; the replay uses the last one.
    setups: int = 3
    traced: bool = False
    #: Also run the short isolation-verifying pass (after the RSS reading).
    verify_isolation: bool = False
    #: Where a traced child writes its spans.
    span_path: Optional[str] = None


class _Task:
    """One pending item of the reference loop."""

    __slots__ = ("name", "due", "load")

    def __init__(self, name: str, due: float, load: int) -> None:
        self.name = name
        self.due = due
        self.load = load


def reference_s() -> float:
    """Seconds this process takes to run a fixed plain-Python event loop.

    The loop never calls the program, so its duration follows only how
    fast the host runs Python at that moment.  On a shared VM that speed
    moves by up to 2x within seconds and between minutes; scaling host
    seconds by reference samples taken among them (see :func:`run_job`)
    takes much of that out of the host numbers.  The garbage collector is
    off while it runs, so the program's heap size does not reach it.
    """
    rng = random.Random(7)
    heap: list = []
    loads: Dict[str, int] = {}
    waits: List[float] = []
    now = 0.0
    gc.disable()
    started = time.perf_counter()
    try:
        for sequence in range(REFERENCE_EVENTS):
            task = _Task(f"a{sequence & 63}", now, rng.randrange(1, 5))
            loads[task.name] = loads.get(task.name, 0) + task.load
            heapq.heappush(heap, (now + rng.expovariate(10.0), sequence, task))
            if len(heap) > 32:
                now, _, done = heapq.heappop(heap)
                loads[done.name] -= done.load
                waits.append(now - done.due)
                if len(waits) > 512:
                    waits.sort()
                    del waits[:256]
        return time.perf_counter() - started
    finally:
        gc.enable()


def rss_mb(field: str = "VmHWM") -> float:
    """This process's peak (``VmHWM``) or current (``VmRSS``) RSS in MiB.

    ``VmHWM`` belongs to the address space after ``exec``, so a
    freshly started child reports its own peak, not its parent's.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _PerCallerPayloads:
    """The cluster as :class:`OpenLoopClient` drives it, except that each
    arrival carries the trace's payload for its (action, caller).

    The client sends one payload to every action, but the simulator
    charges relay time by payload size and the functions' input sizes
    differ (json takes 200 KB, get-time 128 B).
    """

    def __init__(self, cluster: FaaSCluster, payloads, reference: Optional[List[float]]) -> None:
        self._cluster = cluster
        self._payloads = payloads
        self._reference = reference

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)

    def run(self) -> None:
        """Run the loop until it drains, in slices of :data:`SLICE_EVENTS`
        (the same events in the same order as one call), appending a
        reference sample to ``reference`` about every
        :data:`REFERENCE_EVERY_S` host seconds."""
        clock = time.perf_counter
        last = clock()
        while self._cluster.run(max_events=SLICE_EVENTS) == SLICE_EVENTS:
            if self._reference is not None and clock() - last >= REFERENCE_EVERY_S:
                self._reference.append(reference_s())
                last = clock()

    def invoke_async(self, action: str, payload, *, caller: str, on_complete):
        return self._cluster.invoke_async(
            action, self._payloads[(action, caller)], caller=caller, on_complete=on_complete
        )


def replay(
    cluster: FaaSCluster,
    trace: Trace,
    warmup_s: float,
    reference: Optional[List[float]] = None,
) -> OpenLoopClient:
    """Issue every arrival at its offset (open loop), then drain.

    With ``reference``, reference samples taken during the replay are
    appended to it.
    """
    client = OpenLoopClient(
        _PerCallerPayloads(cluster, trace.payloads, reference),
        sorted(set(trace.actions)),
        trace=trace.offsets,
        action_sequence=trace.actions,
        caller_for=trace.callers.__getitem__,
        warmup_seconds=warmup_s,
        # One arrival in the heap at a time, as a real client would.
        lazy_trace=True,
        # Keeps every finished invocation: exact latencies and per-status
        # counts come from them.  They add about 5 MiB to the peak RSS of
        # a 15 k-arrival steady-hash replay.
        keep_samples=True,
    )
    client.run()
    return client


def _count(client: OpenLoopClient) -> Dict[InvocationStatus, int]:
    """Finished invocations per status (``completed`` also holds FAILED)."""
    status = Counter(invocation.status for invocation in client.completed)
    status[InvocationStatus.REJECTED] = len(client.rejected)
    status[InvocationStatus.THROTTLED] = len(client.throttled)
    return status


def post_warmup(client: OpenLoopClient) -> List[Invocation]:
    """Completions of arrivals issued after the warm-up, in completion order."""
    return [
        invocation for invocation in client.completed
        if invocation.status is InvocationStatus.COMPLETED
        and invocation.submitted_at >= client.warmup_seconds
    ]


def sim_summary(
    cluster: FaaSCluster, trace: Trace, client: OpenLoopClient, slo_ms: float
) -> Tuple[Dict[str, object], array]:
    """Every simulated result of one replay (deterministic per seed), and
    the end-to-end seconds of its post-warm-up completions."""
    window = post_warmup(client)
    latencies = array("d", (invocation.e2e_seconds for invocation in window))
    status = _count(client)
    issued = len(trace.offsets)
    completed = status[InvocationStatus.COMPLETED]
    ordered = sorted(latencies)
    samples = len(ordered)
    attempted = issued - bisect.bisect_left(trace.offsets, client.warmup_seconds)
    within = bisect.bisect_right(ordered, slo_ms / 1000.0)
    invokers = cluster.invokers
    scheduler = cluster.scheduler
    return {
        "issued": issued,
        "completed": completed,
        "rejected": status[InvocationStatus.REJECTED],
        "throttled": status[InvocationStatus.THROTTLED],
        "failed": status[InvocationStatus.FAILED],
        "unfinished": issued - sum(status.values()),
        "post_warmup_attempted": attempted,
        "samples": samples,
        "p50_ms": percentile(ordered, 50) * 1000.0 if samples else None,
        "p99_ms": percentile(ordered, 99) * 1000.0 if samples else None,
        "slo_within": within,
        "slo_attainment": within / attempted if attempted else None,
        "completed_fraction": completed / issued,
        "queue_wait_mean_ms": (
            sum(invocation.queue_seconds for invocation in window) / samples * 1000.0
            if samples else 0.0
        ),
        "events": cluster.loop.executed_events,
        "warm_hit_ratio": cluster.warm_hit_rate,
        "cold_starts": sum(inv.cold_starts for inv in invokers),
        "restores": sum(inv.restores for inv in invokers),
        "demotes": sum(inv.demotes for inv in invokers),
        "snapshot_discards": sum(inv.snapshot_discards for inv in invokers),
        "admission_rejected": sum(inv.invocations_rejected for inv in invokers),
        "admission_throttled": sum(inv.invocations_throttled for inv in invokers),
        "steals": scheduler.steals,
        "routing_skew": cluster.routing_skew,
        "routed": list(scheduler.routed_per_invoker),
        "latency_sha256": hashlib.sha256(latencies.tobytes()).hexdigest(),
    }, latencies


def digest(sim: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(sim, sort_keys=True).encode()).hexdigest()


def _build(scenario: Scenario, *, verify_isolation: bool = False):
    cluster = FaaSCluster(
        scenario.config,
        verify_isolation=verify_isolation,
        tenant_slos=scenario.tenant_slos,
    )
    return cluster, scenario.deploy(cluster)


def leak_probe(cluster: FaaSCluster, actions: List[str]) -> Dict[str, int]:
    """Read every live Groundhog container's request buffer.

    Groundhog restores the container after each request, so no buffer may
    still hold a generated payload (they all carry :data:`LEAK_MARKER`).
    """
    probed = leaked = 0
    for action in actions:
        for container in cluster.containers(action):
            if container.spec.mechanism != "gh" or container.state is ContainerState.DEAD:
                continue
            probed += 1
            if LEAK_MARKER in container.read_request_buffer():
                leaked += 1
    return {"probed": probed, "leaked": leaked}


def isolation_pass(job: Job) -> Dict[str, object]:
    """A short replay with every restore verified page by page."""
    scenario = WORKLOADS[job.workload].make(VERIFY_ARRIVALS)
    cluster, actions = _build(scenario, verify_isolation=True)
    trace = scenario.synth(random.Random(f"verify:{job.workload}:{job.seed}"), actions)
    try:
        client = replay(cluster, trace, scenario.warmup_s)
    except RestoreError as error:
        return {"ok": False, "error": f"RestoreError: {error}"}
    status = _count(client)
    finished = sum(status[s] for s in (
        InvocationStatus.COMPLETED, InvocationStatus.REJECTED, InvocationStatus.THROTTLED,
    ))
    return {"ok": finished == len(trace.offsets), "issued": len(trace.offsets)}


def run_job(job: Job) -> Dict[str, object]:
    workload = WORKLOADS[job.workload]
    scenario = workload.make(job.arrivals)
    tracer = None
    if job.traced:
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    clock = time.perf_counter
    setup_s: List[float] = []
    synth_s: List[float] = []
    # Reference samples before each set-up and after the last one, and
    # before, during and after the replay.
    setup_reference: List[float] = []
    replay_reference: List[float] = []
    for _ in range(job.setups):
        cluster = trace = None
        gc.collect()
        if tracer is not None:
            tracer.reset()
        setup_reference.append(reference_s())
        started = clock()
        cluster, actions = _build(scenario)
        built = clock()
        trace = scenario.synth(
            random.Random(f"{job.workload}:{job.seed}:{job.part}"), actions
        )
        done = clock()
        setup_s.append(done - started)
        synth_s.append(done - built)
    setup_reference.append(reference_s())
    gc.collect()
    before_mb = rss_mb("VmRSS")
    replay_reference.append(reference_s())
    started = clock()
    client = replay(cluster, trace, scenario.warmup_s, replay_reference)
    # The samples taken during the replay are not replay time.
    replay_s = clock() - started - sum(replay_reference[1:])
    peak_mb = rss_mb()
    if tracer is not None:
        tracer.uninstall()
    replay_reference.append(reference_s())

    sim, latencies = sim_summary(cluster, trace, client, scenario.slo_ms)
    gates: Dict[str, object] = {
        "conservation": sim["issued"] == sim["completed"] + sim["rejected"] + sim["throttled"],
        "post_warmup_completions": sim["samples"] > 0,
    }
    index = cluster.scheduler.index
    if index is not None:
        # ClusterIndex.verify checks with assert statements.
        gates["index_verify_enabled"] = __debug__
        try:
            index.verify()
            gates["index_verify"] = True
        except AssertionError as error:
            gates["index_verify"] = f"AssertionError: {error}"
    probe = leak_probe(cluster, actions)
    gates["no_payload_in_restored_buffers"] = probe["leaked"] == 0
    result: Dict[str, object] = {
        "setup_s": setup_s,
        "synth_s": synth_s,
        "replay_s": replay_s,
        "reference_s": setup_reference + replay_reference,
        # Host seconds times these are seconds at the nominal reference speed.
        "setup_scale": REFERENCE_NOMINAL_S / statistics.mean(setup_reference),
        "replay_scale": REFERENCE_NOMINAL_S / statistics.mean(replay_reference),
        "rss_mb": peak_mb,
        "rss_before_replay_mb": before_mb,
        "sim": sim,
        "latencies": latencies,
        "digest": digest(sim),
        "leak_probe": probe,
        "gates": gates,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, sim, synth_s[-1])
        if job.span_path is not None:
            os.makedirs(os.path.dirname(job.span_path), exist_ok=True)
            tracer.write(job.span_path)
    if job.verify_isolation:
        cluster = trace = client = None
        result["isolation_pass"] = isolation_pass(job)
        gates["verify_isolation_pass"] = result["isolation_pass"]["ok"]
    return result


def layer_metrics(tracer, sim: Dict[str, object], synth_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced replay (and its last set-up)."""
    metrics: Dict[str, float] = {}

    def calls_self(name: str) -> None:
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)

    restore_s = tracer.inclusive_s("core.restore")
    scanned = tracer.restore_pages["pages_scanned"]
    metrics["core.restore.calls"] = tracer.calls("core.restore")
    metrics["core.restore.s"] = restore_s
    metrics["core.restore.self_s"] = tracer.self_s("core.restore")
    for key, value in tracer.restore_pages.items():
        metrics[f"core.restore.{key}"] = value
    metrics["core.restore.us_per_scanned_page"] = restore_s / scanned * 1e6 if scanned else 0.0
    calls_self("core.invoke")
    metrics["mem.address_space.self_s"] = tracer.self_s("mem.address_space")
    metrics["mem.address_space.page_ops"] = tracer.counts["mem.address_space.page_ops"]
    metrics["mem.faults"] = tracer.counts["mem.faults"]
    calls_self("proc.ptrace")
    calls_self("runtime.invoke")
    calls_self("faas.invoker.submit")
    metrics["faas.admission.push.calls"] = tracer.calls("faas.admission.push")
    metrics["faas.admission.pop.calls"] = tracer.calls("faas.admission.pop")
    metrics["faas.admission.len.calls"] = tracer.counts["faas.admission.len"]
    metrics["faas.admission.self_s"] = (
        tracer.self_s("faas.admission.push") + tracer.self_s("faas.admission.pop")
    )
    calls_self("faas.scheduler.submit")
    calls_self("faas.index.query")
    calls_self("faas.index.delta")
    events = sim["events"]
    metrics["sim.events.executed"] = events
    metrics["sim.events.self_s"] = tracer.self_s("sim.events")
    metrics["sim.events.us_per_event"] = tracer.self_s("sim.events") / events * 1e6 if events else 0.0
    calls_self("faas.controller.submit")
    calls_self("faas.metrics.record")
    metrics["faas.sketch.add.calls"] = tracer.counts["faas.sketch.add"]
    for part in ("assess", "plan", "apply"):
        calls_self(f"faas.controlplane.{part}")
    metrics["faas.admission.throttled"] = sim["admission_throttled"]
    metrics["faas.admission.rejected"] = sim["admission_rejected"]
    metrics["faas.container.initialize.calls"] = tracer.calls("faas.container.initialize")
    metrics["faas.container.initialize.s"] = tracer.inclusive_s("faas.container.initialize")
    metrics["core.snapshot.calls"] = tracer.calls("core.snapshot")
    metrics["core.snapshot.s"] = tracer.inclusive_s("core.snapshot")
    metrics["faas.loadgen.synth_s"] = synth_s
    for key in ("warm_hit_ratio", "cold_starts", "restores", "demotes",
                "snapshot_discards", "queue_wait_mean_ms"):
        metrics[f"faas.invoker.{key}"] = sim[key]
    metrics["faas.scheduler.steals"] = sim["steals"]
    metrics["faas.scheduler.routing_skew"] = sim["routing_skew"]
    metrics["faas.restorecost.calls"] = tracer.counts["faas.restorecost"]
    metrics["trace.spans"] = len(tracer.records) + tracer.dropped
    return metrics


def child_main() -> None:
    """Child-interpreter entry: run the pickled :class:`Job` read from stdin.

    The pickled ``(status, result)`` pair goes to stdout; anything else the
    child prints goes to stderr, so it cannot corrupt the result.
    """
    job = pickle.load(sys.stdin.buffer)
    result_stream = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    try:
        outcome = ("ok", run_job(job))
    except Exception:  # report any failure to the parent, which fails the run
        outcome = ("error", traceback.format_exc())
    with result_stream:
        pickle.dump(outcome, result_stream)
