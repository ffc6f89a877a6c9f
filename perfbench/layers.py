"""Per-layer tracing by wrapping each layer's public entry points.

The wrappers are installed on the program's classes from outside (the
program itself carries no benchmark code).  A *timed* wrapper records a
span — name, start, end, the span that was open when it began, and the
invocation id when the call receives an :class:`Invocation` — and keeps
per-name calls, inclusive seconds and self seconds (duration minus the
time covered by child spans).  Calls made millions of times get a
*counted* wrapper instead, which only counts: its time lands in the
self time of the enclosing span.

A call into a layer from inside the same layer (a method calling a
sibling, or ``super()``) is not a new span, so ``calls`` counts entries
into the layer.  Spans are kept in memory, up to :data:`SPAN_CAP`, and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.policy import IsolationMechanism
from repro.core.restore import Restorer
from repro.core.snapshot import Snapshotter
from repro.faas.admission import AdmissionQueue
from repro.faas.container import Container
from repro.faas.controller import Controller
from repro.faas.controlplane.planner import CapacityPlanner
from repro.faas.controlplane.slo import SLOMonitor
from repro.faas.controlplane.tuner import QuotaTuner
from repro.faas.index import ClusterIndex
from repro.faas.invoker import Invoker
from repro.faas.metrics import MetricsCollector
from repro.faas.request import Invocation
from repro.faas.restorecost import restore_seconds_for
from repro.faas.scheduler import Scheduler
from repro.faas.sketch import QuantileSketch
from repro.mem.address_space import AddressSpace, MemoryMeter
from repro.proc.ptrace import Ptrace
from repro.runtime.base import FunctionRuntime
from repro.sim.events import EventLoop

#: Most spans kept for the written trace; aggregates cover every call.
SPAN_CAP = 200_000

#: Per-page address-space operations: counted, not timed.
PAGE_OPS = (
    "write", "write_page", "read", "read_page",
    "kernel_read_page", "kernel_write_page", "kernel_drop_page",
)

INDEX_QUERIES = (
    "least_loaded", "warm_aware_choose", "any_queued", "queued_actions",
    "depths_for", "load_of",
)
INDEX_DELTAS = ("load_changed", "depth_changed", "warmth_changed", "snapshot_changed")


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _own_methods(cls: type, names: Optional[Iterable[str]] = None) -> List[str]:
    """Plain functions ``cls`` itself defines (public ones by default)."""
    if names is None:
        names = [name for name in vars(cls) if not name.startswith("_")]
    return [
        name for name in names
        if callable(vars(cls).get(name))
        and not isinstance(vars(cls)[name], (staticmethod, classmethod, type))
    ]


class LayerTracer:
    """Installs the wrappers and aggregates what they record."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: counter name -> value
        self.counts: Dict[str, int] = {}
        self.restore_pages = {"pages_scanned": 0, "dirty_pages": 0, "pages_restored": 0}
        #: (span id, parent id, name, start, end, invocation id)
        self.records: List[Tuple[int, int, str, float, float, str]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        records = self.records
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                parent = 0
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                if len(records) < SPAN_CAP:
                    inv = args[1] if len(args) > 1 else None
                    records.append((
                        span_id, parent, name, start, end,
                        inv.invocation_id if isinstance(inv, Invocation) else "",
                    ))
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _time_methods(self, classes: Iterable[type], name: str,
                      methods: Optional[Iterable[str]] = None, on_result=None) -> None:
        for cls in classes:
            for attr in _own_methods(cls, methods):
                self._patch(cls, attr, self._timed(name, vars(cls)[attr], on_result))

    def _count_methods(self, classes: Iterable[type], name: str, methods: Iterable[str]) -> None:
        for cls in classes:
            for attr in _own_methods(cls, methods):
                self._patch(cls, attr, self._counted(name, vars(cls)[attr]))

    def _on_restore(self, result) -> None:
        pages = self.restore_pages
        pages["pages_scanned"] += result.pages_scanned
        pages["dirty_pages"] += result.dirty_pages
        pages["pages_restored"] += result.pages_restored

    def _count_faults(self, fn: Callable) -> Callable:
        counts = self.counts
        counts["mem.faults"] = 0
        kinds = ("minor_faults", "soft_dirty_faults", "cow_faults", "uffd_faults", "first_touch_faults")

        def wrapper(self_, cost_seconds=0.0, **kwargs):
            counts["mem.faults"] += sum(kwargs.get(kind, 0) for kind in kinds)
            return fn(self_, cost_seconds, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`uninstall`)."""
        self._time_methods([Restorer], "core.restore", ["restore"], self._on_restore)
        self._time_methods(_subclasses(IsolationMechanism), "core.invoke", ["invoke"])
        self._time_methods([Snapshotter], "core.snapshot", ["take"])
        self._time_methods(_subclasses(FunctionRuntime), "runtime.invoke", ["invoke"])
        self._time_methods([Ptrace], "proc.ptrace")
        self._time_methods(
            [AddressSpace], "mem.address_space",
            [m for m in _own_methods(AddressSpace) if m not in PAGE_OPS],
        )
        self._count_methods([AddressSpace], "mem.address_space.page_ops", PAGE_OPS)
        self._patch(MemoryMeter, "charge", self._count_faults(vars(MemoryMeter)["charge"]))
        self._time_methods([Container], "faas.container.initialize", ["initialize"])
        self._time_methods([Controller], "faas.controller.submit", ["submit"])
        self._time_methods([Scheduler], "faas.scheduler.submit", ["submit"])
        self._time_methods([Invoker], "faas.invoker.submit", ["submit"])
        queues = _subclasses(AdmissionQueue)
        self._time_methods(queues, "faas.admission.push", ["push"])
        self._time_methods(queues, "faas.admission.pop", ["pop_next", "pop_newest", "displace"])
        self._count_methods(queues, "faas.admission.len", ["__len__"])
        self._time_methods([ClusterIndex], "faas.index.query", INDEX_QUERIES)
        self._time_methods([ClusterIndex], "faas.index.delta", INDEX_DELTAS)
        self._time_methods([MetricsCollector], "faas.metrics.record", ["record"])
        self._count_methods([QuantileSketch], "faas.sketch.add", ["add"])
        self._time_methods([SLOMonitor], "faas.controlplane.assess", ["assess"])
        self._time_methods(_subclasses(CapacityPlanner), "faas.controlplane.plan", ["plan"])
        self._time_methods([QuotaTuner], "faas.controlplane.apply", ["apply"])
        self._time_methods([EventLoop], "sim.events", ["run"])
        counted = self._counted("faas.restorecost", restore_seconds_for)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                vars(module).get("restore_seconds_for") is restore_seconds_for
            ):
                self._patch(module, "restore_seconds_for", counted)

    def uninstall(self) -> None:
        """Put the original methods back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for stat in self.spans.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0
        for name in self.restore_pages:
            self.restore_pages[name] = 0
        self.records.clear()
        self.dropped = 0

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def write(self, path: str) -> None:
        """Write the kept spans as JSON: one list per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["id", "parent", "name", "start_s", "end_s", "invocation"],
                "dropped": self.dropped,
                "spans": self.records,
            }, handle, separators=(",", ":"))
