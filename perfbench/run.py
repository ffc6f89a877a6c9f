"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-hash --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run generates the workload's ``parts`` arrival
traces from the seed and replays them in turn, each in a freshly
started child interpreter, until every trace has run once and another
replay would not end within ``--seconds``.  It reports the end-to-end
metrics: host numbers from the median replay of each trace (set-up: the
median of all set-ups), simulated numbers pooled over the traces
(replays of one trace must agree exactly).

Host seconds (``host_invocations_per_s``, ``setup_s`` and the traced
run's ``trace.*`` rates) are *reference-scaled*: each child times a fixed
plain-Python event loop (``replay.reference_s``) before each set-up and
after the last, and before, about every half second during, and after
its replay, and multiplies set-up and replay seconds by
``REFERENCE_NOMINAL_S`` over the mean of the samples taken among them.
They read as seconds on a host that runs the reference loop in
``REFERENCE_NOMINAL_S``, so a change of the host's speed during or
between runs largely cancels, while a change of the program's speed
does not.  The raw wall-clock figures are printed above the JSON line.

With ``--trace 1`` it replays once untraced and once with every layer's
entry points wrapped (see ``layers.py``), checks that both simulated the
same thing, and reports the per-layer metrics.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the simulated invocations issued by all replays of
the run.  ``failed`` counts those that ended in the FAILED status or
never finished; admission refusals (rejected, throttled) are simulated
outcomes, reported by ``sim_completed_fraction``, not failures.  The
process exits 1 when any correctness check fails, and 2 when the
program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: End-to-end metrics, reported with ``--trace 0``: (name, unit).
END_TO_END: List[Tuple[str, str]] = [
    ("host_invocations_per_s", "1/s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MiB"),
    ("sim_e2e_p50_ms", "ms"),
    ("sim_e2e_p99_ms", "ms"),
    ("sim_slo_attainment", "fraction"),
    ("sim_completed_fraction", "fraction"),
]

#: Per-layer metrics, reported with ``--trace 1``: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("core.restore.calls", "count"),
    ("core.restore.s", "s"),
    ("core.restore.self_s", "s"),
    ("core.restore.pages_scanned", "count"),
    ("core.restore.dirty_pages", "count"),
    ("core.restore.pages_restored", "count"),
    ("core.restore.us_per_scanned_page", "us"),
    ("core.invoke.calls", "count"),
    ("core.invoke.self_s", "s"),
    ("mem.address_space.self_s", "s"),
    ("mem.address_space.page_ops", "count"),
    ("mem.faults", "count"),
    ("proc.ptrace.calls", "count"),
    ("proc.ptrace.self_s", "s"),
    ("runtime.invoke.calls", "count"),
    ("runtime.invoke.self_s", "s"),
    ("faas.invoker.submit.calls", "count"),
    ("faas.invoker.submit.self_s", "s"),
    ("faas.admission.push.calls", "count"),
    ("faas.admission.pop.calls", "count"),
    ("faas.admission.len.calls", "count"),
    ("faas.admission.self_s", "s"),
    ("faas.scheduler.submit.calls", "count"),
    ("faas.scheduler.submit.self_s", "s"),
    ("faas.index.query.calls", "count"),
    ("faas.index.query.self_s", "s"),
    ("faas.index.delta.calls", "count"),
    ("faas.index.delta.self_s", "s"),
    ("sim.events.executed", "count"),
    ("sim.events.self_s", "s"),
    ("sim.events.us_per_event", "us"),
    ("faas.controller.submit.calls", "count"),
    ("faas.controller.submit.self_s", "s"),
    ("faas.metrics.record.calls", "count"),
    ("faas.metrics.record.self_s", "s"),
    ("faas.sketch.add.calls", "count"),
    ("faas.controlplane.assess.calls", "count"),
    ("faas.controlplane.assess.self_s", "s"),
    ("faas.controlplane.plan.calls", "count"),
    ("faas.controlplane.plan.self_s", "s"),
    ("faas.controlplane.apply.calls", "count"),
    ("faas.controlplane.apply.self_s", "s"),
    ("faas.admission.throttled", "count"),
    ("faas.admission.rejected", "count"),
    ("faas.container.initialize.calls", "count"),
    ("faas.container.initialize.s", "s"),
    ("core.snapshot.calls", "count"),
    ("core.snapshot.s", "s"),
    ("faas.loadgen.synth_s", "s"),
    ("faas.invoker.warm_hit_ratio", "fraction"),
    ("faas.invoker.cold_starts", "count"),
    ("faas.invoker.restores", "count"),
    ("faas.invoker.demotes", "count"),
    ("faas.invoker.snapshot_discards", "count"),
    ("faas.invoker.queue_wait_mean_ms", "ms"),
    ("faas.scheduler.steals", "count"),
    ("faas.scheduler.routing_skew", "ratio"),
    ("faas.restorecost.calls", "count"),
    ("trace.host_invocations_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("host.replay_rss_growth_kib_per_invocation", "KiB"),
]

#: Fewest pooled latency samples at full scale: the p99 then has at least
#: ten samples beyond it.
MIN_SAMPLES = 1000

#: Set-ups timed by one replay of each trace together: a workload with
#: fewer, longer replays times more set-ups in each, so its setup_s is
#: still a median of at least this many.
SETUPS_PER_RUN = 9

#: Longest one child may take before the run fails.
CHILD_TIMEOUT_S = 120.0


class ChildFailed(RuntimeError):
    """A replay child crashed, timed out or raised."""


#: What a child interpreter runs: the job arrives pickled on stdin.
CHILD_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:]; "
    "from perfbench.replay import child_main; child_main()"
)


def spawn(job) -> Dict[str, object]:
    """Run ``job`` in a fresh child interpreter and return its result.

    The child is a plain subprocess, not a ``multiprocessing`` one, so no
    helper process (such as the resource tracker) outlives the run; it is
    killed if it overruns and waited for on every path out.
    """
    with subprocess.Popen(
        [sys.executable, "-c", CHILD_CODE, os.path.join(ROOT, "src"), ROOT],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    ) as child:
        try:
            out, _ = child.communicate(pickle.dumps(job), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{job.workload}: replay child timed out") from None
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()
    try:
        status, payload = pickle.loads(out)
    except Exception:  # the child died before it could send a result
        status, payload = "error", f"replay child exited {child.returncode} without a result"
    if status != "ok":
        raise ChildFailed(f"{job.workload}: {payload}")
    return payload


def _failed_gates(result: Dict[str, object]) -> List[str]:
    return [f"{name}={value}" for name, value in result["gates"].items() if value is not True]


def scaled(result: Dict[str, object]) -> float:
    """A child's replay time in reference-scaled seconds."""
    return result["replay_s"] * result["replay_scale"]


def _unfinished(result: Dict[str, object]) -> int:
    sim = result["sim"]
    return sim["failed"] + sim["unfinished"]


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    arrivals: Optional[int] = None,
) -> Tuple[Dict[str, object], List[str]]:
    """Run one workload; return the result record and report lines."""
    from repro.faas.metrics import percentile
    from perfbench.replay import REFERENCE_NOMINAL_S, Job
    from perfbench.scenarios import WORKLOADS

    size = arrivals if arrivals is not None else WORKLOADS[workload].arrivals
    parts = WORKLOADS[workload].parts
    problems: List[str] = []
    lines: List[str] = []
    if trace:
        # One file per workload (the latest traced run), so disk use stays bounded.
        span_path = os.path.join(HERE, "out", f"spans-{workload}.json")
        results = [
            spawn(Job(workload, seed, size)),
            spawn(Job(workload, seed, size, traced=True, span_path=span_path)),
        ]
        plain, traced = results
        if plain["digest"] != traced["digest"]:
            problems.append("traced and untraced replays of one seed simulated different results")
        layers = dict(traced["layers"])
        layers["trace.host_invocations_per_s"] = traced["sim"]["issued"] / scaled(traced)
        layers["trace.overhead_ratio"] = scaled(traced) / scaled(plain)
        # From the untraced child: the kept spans would add to the traced one's.
        layers["host.replay_rss_growth_kib_per_invocation"] = (
            (plain["rss_mb"] - plain["rss_before_replay_mb"]) * 1024.0 / plain["sim"]["issued"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        lines.append(f"spans written to {os.path.relpath(span_path, ROOT)}")
    else:
        results = []
        child_s: List[float] = []
        started = time.perf_counter()
        # Start another replay only while it is expected to end in time.
        while len(results) < parts or (
            time.perf_counter() - started + statistics.median(child_s) < seconds
        ):
            part = len(results) % parts
            spawned = time.perf_counter()
            results.append(spawn(Job(
                workload, seed, size, part,
                setups=SETUPS_PER_RUN // parts, verify_isolation=not results,
            )))
            child_s.append(time.perf_counter() - spawned)
            if results[-1]["digest"] != results[part]["digest"]:
                problems.append(f"two replays of trace part {part} simulated different results")
        sims = [result["sim"] for result in results[:parts]]
        latencies = sorted(x for result in results[:parts] for x in result["latencies"])
        if arrivals is None and len(latencies) < MIN_SAMPLES:
            problems.append(f"only {len(latencies)} post-warm-up completions")
        issued = sum(sim["issued"] for sim in sims)
        completed = sum(sim["completed"] for sim in sims)
        attempted = sum(sim["post_warmup_attempted"] for sim in sims)
        values = {
            # Each part's replay time is the median over its replays; the
            # parts then add up, so every trace of the seed weighs in.
            "host_invocations_per_s": issued / sum(
                statistics.median(scaled(r) for r in results[part::parts])
                for part in range(parts)
            ),
            "setup_s": statistics.median(
                s * r["setup_scale"] for r in results for s in r["setup_s"]
            ),
            "host_peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
            "sim_e2e_p50_ms": percentile(latencies, 50) * 1000.0,
            "sim_e2e_p99_ms": percentile(latencies, 99) * 1000.0,
            "sim_slo_attainment": sum(sim["slo_within"] for sim in sims) / attempted,
            "sim_completed_fraction": completed / issued,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.append(
            f"{len(results)} replays of {parts} seed-{seed} traces "
            f"({', '.join(str(sim['issued']) for sim in sims)} arrivals); "
            f"{sum(len(r['setup_s']) for r in results)} set-ups"
        )
        lines.append(
            f"sim_e2e percentiles over {len(latencies)} post-warm-up completions; "
            f"SLO attainment over {attempted} post-warm-up arrivals"
        )
        lines.append(
            f"sim_failed_fraction {(issued - completed) / issued:.6f} "
            f"(issued {issued}, completed {completed}, "
            f"rejected {sum(sim['rejected'] for sim in sims)}, "
            f"throttled {sum(sim['throttled'] for sim in sims)})"
        )
        wall_replay_s = sum(
            statistics.median(r["replay_s"] for r in results[part::parts])
            for part in range(parts)
        )
        wall_setup_s = statistics.median(s for r in results for s in r["setup_s"])
        reference_s = statistics.median(x for r in results for x in r["reference_s"])
        lines.append(
            f"wall clock: host_invocations_per_s {issued / wall_replay_s:.1f}, "
            f"setup_s {wall_setup_s:.4f}; reference sample median {reference_s:.4f} s "
            f"(nominal {REFERENCE_NOMINAL_S} s)"
        )
        lines.append(f"leak probe: {results[0]['leak_probe']}")
    for result in results:
        problems.extend(_failed_gates(result))
    record = {
        "correct": not problems,
        "attempted": sum(r["sim"]["issued"] for r in results),
        "failed": sum(_unfinished(r) for r in results),
        "metrics": metrics,
    }
    lines.append(f"sim digest {results[0]['digest'][:16]}")
    lines.extend(f"CHECK FAILED: {problem}" for problem in problems)
    return record, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so spawn() still
    # kills and waits for the child it is running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        from perfbench.scenarios import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program from src/: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        record, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']!r:>24} {metric['unit']}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
