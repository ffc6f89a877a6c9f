"""Unit tests for the incrementally-maintained cluster index.

Covers the index structures directly (lazy heap, warm sets, queue-depth
maps, compaction), the invoker surfaces that feed them (O(1) load,
dirty-flag snapshot caching, Counter-based tenant aggregation), and the
scheduler's indexed query paths against their scan references
(least-loaded argmin, warm-aware scoring, steal-victim search), and the
``verify`` self-check that compares the index with a recompute.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List

import pytest

import repro
from repro.faas.action import ActionSpec
from repro.faas.index import ClusterIndex, _HEAP_SLACK_FACTOR
from repro.faas.invoker import Invoker
from repro.faas.request import Invocation
from repro.faas.scheduler import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    Scheduler,
    WarmAwarePolicy,
)
from repro.runtime.profiles import FunctionProfile, Language
from repro.sim.events import EventLoop


def _profile(name: str, exec_seconds: float = 0.01) -> FunctionProfile:
    return FunctionProfile(
        name=name,
        language=Language.PYTHON,
        suite="unit",
        exec_seconds=exec_seconds,
        exec_jitter=0.0,
        total_kpages=1.0,
        dirtied_kpages=0.1,
        regions_mapped_per_invocation=1,
        regions_unmapped_per_invocation=1,
        heap_growth_pages=2,
        input_bytes=64,
        output_bytes=64,
    )


def _spec(name: str) -> ActionSpec:
    return ActionSpec.for_profile(_profile(name), "base", name=name)


def _cluster(num_invokers: int, cores: int = 1):
    loop = EventLoop()
    invokers = [
        Invoker(loop, cores=cores, invoker_id=f"invoker-{i}")
        for i in range(num_invokers)
    ]
    return loop, invokers


def _scan_least_loaded(invokers: List[Invoker]) -> int:
    return min(range(len(invokers)), key=lambda i: (invokers[i].load, i))


class TestClusterIndexStructures:
    def test_attach_backfills_existing_state(self):
        # Deployments that happened before the index existed must be
        # visible the moment it attaches.
        loop, invokers = _cluster(3)
        invokers[1].deploy(_spec("act-a"), containers=1, max_containers=2)
        invokers[2].register(_spec("act-a"), max_containers=1)
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        index = ClusterIndex(invokers)
        index.verify()
        assert index.load_of(1) == invokers[1].load
        assert index.least_loaded() == _scan_least_loaded(invokers)

    def test_least_loaded_tracks_transitions(self):
        loop, invokers = _cluster(3)
        index = ClusterIndex(invokers)
        for invoker in invokers:
            invoker.deploy(_spec("act-a"), containers=1, max_containers=1)
        assert index.least_loaded() == 0  # all equal: lowest position wins
        invokers[0].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        assert index.least_loaded() == 1
        invokers[1].submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        assert index.least_loaded() == 2
        loop.run(until=10.0)  # everything drains
        index.verify()
        assert index.least_loaded() == 0

    def test_heap_compaction_keeps_size_bounded_and_argmin_exact(self):
        loop, invokers = _cluster(2)
        index = ClusterIndex(invokers)
        for invoker in invokers:
            invoker.deploy(_spec("act-a"), containers=1, max_containers=1)
        # Thousands of load transitions on two invokers force many stale
        # heap entries; compaction must keep the heap near-live.
        for round_number in range(400):
            target = invokers[round_number % 2]
            target.submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
            loop.run(until=loop.now + 1.0)
        assert index.compactions > 0
        assert len(index._heap) <= _HEAP_SLACK_FACTOR * len(invokers) + 8 + 1
        index.verify()
        assert index.least_loaded() == _scan_least_loaded(invokers)

    def test_depth_and_warmth_maps_stay_sparse(self):
        loop, invokers = _cluster(2)
        index = ClusterIndex(invokers)
        invokers[0].deploy(_spec("act-a"), containers=1, max_containers=1)
        assert not index.any_queued()
        assert index.depths_for("act-a") == {}
        # One running + two queued on a 1-core invoker.
        for _ in range(3):
            invokers[0].submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
        assert index.any_queued()
        assert index.depths_for("act-a") == {0: 2}
        assert list(index.queued_actions()) == ["act-a"]
        loop.run(until=10.0)
        # Drained queues leave no empty inner maps behind.
        assert not index.any_queued()
        assert index._depths == {}
        assert index._warm == {"act-a": {0}}
        index.verify()

    def test_warm_aware_choose_matches_reference_scan(self):
        # Drive the cluster into a mixed warm/cold, mixed-load state and
        # compare the indexed argmin against the snapshot-based reference
        # (`WarmAwarePolicy.choose`) for every action and penalty.
        loop, invokers = _cluster(4)
        index = ClusterIndex(invokers)
        specs = [_spec(f"act-{i}") for i in range(3)]
        invokers[0].deploy(specs[0], containers=1, max_containers=1)
        invokers[1].deploy(specs[0], containers=1, max_containers=1)
        invokers[1].deploy(specs[1], containers=1, max_containers=1)
        invokers[3].deploy(specs[2], containers=1, max_containers=1)
        for invoker in invokers:
            for spec in specs:
                if not invoker.hosts(spec.name):
                    invoker.register(spec, max_containers=1)
        for _ in range(2):
            invokers[1].submit(
                Invocation(action="act-0", payload=b"x"), lambda inv: None
            )
        invokers[3].submit(
            Invocation(action="act-2", payload=b"x"), lambda inv: None
        )
        index.verify()
        policy = WarmAwarePolicy()
        snapshots = [invoker.snapshot() for invoker in invokers]
        for action in ("act-0", "act-1", "act-2"):
            for penalty in (0.0, 0.5, 2.0, 32.0):
                expected = policy.choose(
                    snapshots, Invocation(action=action, payload=b"")
                ) if penalty == policy.penalty_for(action) else min(
                    range(len(snapshots)),
                    key=lambda i: (
                        snapshots[i].load
                        + (0.0 if snapshots[i].warmth(action) > 0 else penalty),
                        snapshots[i].load,
                        i,
                    ),
                )
                assert index.warm_aware_choose(action, penalty) == expected

    def test_warm_aware_choose_with_no_warm_invoker_is_least_loaded(self):
        loop, invokers = _cluster(3)
        index = ClusterIndex(invokers)
        # "act-x" deployed nowhere: everyone pays the same penalty.
        assert index.warm_aware_choose("act-x", 32.0) == index.least_loaded()


class TestSchedulerIndexWiring:
    def test_index_built_only_when_a_consumer_exists(self):
        loop, invokers = _cluster(3)
        assert Scheduler(invokers, WarmAwarePolicy()).index is not None
        assert Scheduler(invokers, LeastLoadedPolicy()).index is not None
        assert Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True
        ).index is not None
        # No index consumer: round-robin without stealing.
        assert Scheduler(invokers, RoundRobinPolicy()).index is None
        # Disabled by config flag.
        assert Scheduler(
            invokers, WarmAwarePolicy(), cluster_index=False
        ).index is None
        # Single invoker: no routing decision to index.
        loop2, solo = _cluster(1)
        assert Scheduler(solo, WarmAwarePolicy()).index is None

    def test_indexed_find_steal_matches_scan(self):
        # One saturated growth-exhausted victim, one idle warm thief: the
        # indexed and scan steal searches must agree at every point of
        # the drain, including "no steal possible".
        loop, invokers = _cluster(2)
        scheduler = Scheduler(
            invokers, RoundRobinPolicy(), work_stealing=True,
            boot_steal_min_queue=2,
        )
        assert scheduler.index is not None
        spec = _spec("act-a")
        invokers[0].deploy(spec, containers=1, max_containers=1)
        invokers[1].deploy(spec, containers=1, max_containers=1)
        for _ in range(6):
            invokers[0].submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
            # The scheduler's own rebalance is what normally runs; here
            # the two search implementations are compared directly.
            for thief in invokers:
                assert (
                    scheduler._find_steal_indexed(thief)
                    == scheduler._find_steal(thief)
                )
        while loop.step():
            for thief in invokers:
                assert (
                    scheduler._find_steal_indexed(thief)
                    == scheduler._find_steal(thief)
                )
        scheduler.index.verify()


class TestInvokerSurfaces:
    def test_snapshot_cached_until_state_changes(self):
        loop, invokers = _cluster(1)
        invoker = invokers[0]
        invoker.deploy(_spec("act-a"), containers=1, max_containers=2)
        first = invoker.snapshot()
        assert invoker.snapshot() is first  # no mutation: same object
        invoker.submit(Invocation(action="act-a", payload=b"x"), lambda inv: None)
        second = invoker.snapshot()
        assert second is not first
        assert second.load != first.load
        assert invoker.snapshot() is second
        loop.run(until=10.0)
        assert invoker.snapshot() is not second  # completion invalidated it

    def test_load_matches_snapshot_load(self):
        loop, invokers = _cluster(2, cores=2)
        invoker = invokers[0]
        invoker.deploy(_spec("act-a"), containers=1, max_containers=2)
        for _ in range(4):
            invoker.submit(
                Invocation(action="act-a", payload=b"x"), lambda inv: None
            )
            assert invoker.load == invoker.snapshot().load
            assert invoker.queued_uncovered() >= 0
        loop.run(until=10.0)
        assert invoker.load == invoker.snapshot().load == 0

    def test_queued_by_tenant_aggregates_with_counter(self):
        loop, invokers = _cluster(2)
        scheduler = Scheduler(invokers, RoundRobinPolicy())
        spec_a, spec_b = _spec("act-a"), _spec("act-b")
        for invoker in invokers:
            invoker.deploy(spec_a, containers=1, max_containers=1)
            invoker.deploy(spec_b, containers=1, max_containers=1)
        # Fill both invokers' queues from two tenants across two actions.
        for tenant, action, count in (
            ("alice", "act-a", 3),
            ("bob", "act-a", 2),
            ("bob", "act-b", 4),
        ):
            for _ in range(count):
                scheduler.submit(
                    Invocation(action=action, payload=b"x", caller=tenant),
                    lambda inv: None,
                )
        totals = scheduler.queued_by_tenant()
        assert totals == {
            tenant: sum(
                invoker.queued_by_tenant().get(tenant, 0)
                for invoker in invokers
            )
            for tenant in ("alice", "bob")
        }
        # Cluster-wide totals equal submissions minus whatever already
        # occupies a core (one per invoker per action at most here).
        running = sum(inv.cores_in_use for inv in invokers)
        assert sum(totals.values()) == 9 - running


#: Corrupts one invoker's load entry and calls ``verify``; exits 0 only
#: when the corruption is reported.  Run under ``python -O`` below.
_CORRUPT_AND_VERIFY = """
from repro.faas.index import ClusterIndex
from repro.faas.invoker import Invoker
from repro.sim.events import EventLoop

loop = EventLoop()
index = ClusterIndex([Invoker(loop, cores=1, invoker_id="invoker-0")])
index.verify()
index._loads[0] += 1
try:
    index.verify()
except AssertionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


class TestVerify:
    def test_stale_load_entry_raises(self):
        loop, invokers = _cluster(2)
        index = ClusterIndex(invokers)
        invokers[0].deploy(_spec("act-a"), containers=1, max_containers=1)
        index.verify()
        index._loads[0] += 1
        with pytest.raises(AssertionError, match="load index stale at 0"):
            index.verify()

    def test_verify_still_raises_under_python_O(self):
        # ``assert`` statements vanish under -O; verify's checks must not.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        completed = subprocess.run(
            [sys.executable, "-O", "-c", _CORRUPT_AND_VERIFY],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
