"""Check the benchmark's run-to-run spread and record its provenance.

For every workload in ``BENCHMARK.json`` it runs ``run.py`` untraced in
two passes of :data:`RUNS` runs each:

* *across seeds*: once on each of :data:`SEEDS`.  Quartiles over these
  runs mix differences between the seeds' traces with host noise.
* *same seed*: :data:`RUNS` times on :data:`DEFAULT_SEED`.  Here the
  simulated metrics must repeat exactly, and the spread of the host
  metrics is host noise alone.

For every end-to-end metric of each pass it reports the median and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound.  It then runs the traced run on the default
and the held-out seed and checks that their simulated results differ.
The record goes to ``perfbench/provenance.json``.  Run from the
repository root::

    python3 perfbench/spread.py

Exits 1 when a spread exceeds its bound, a simulated metric changes
between runs of one seed, or a traced run fails.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The seed the workloads were built and tuned with.
DEFAULT_SEED = 1
#: A seed never used while building the benchmark.
HELD_OUT_SEED = 7919
#: Runs per pass.
RUNS = 10
SEEDS = list(range(DEFAULT_SEED, DEFAULT_SEED + RUNS))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    digest = [line for line in done.stdout.splitlines() if "sim digest" in line]
    record["digest"] = digest[0].split()[-1] if digest else None
    return record


def summarise(
    label: str, records: List[Dict[str, object]], bounds: Dict[str, float], problems: List[str]
) -> Dict[str, object]:
    """Median and quartile spread of every metric over ``records``."""
    metrics = {}
    for name, bound in bounds.items():
        values = [record["metrics"][name]["value"] for record in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        metrics[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values,
        }
        flag = ""
        if spread > bound:
            flag = "  ABOVE BOUND"
            problems.append(f"{label} {name}: spread {spread:.4f} > bound {bound}")
        elif spread > bound / 3:
            flag = "  above a third of its bound"
        print(f"{label:28} {name:24} median {median:12.6g} spread {spread:.4f} bound {bound}{flag}")
    return metrics


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    report: Dict[str, object] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": SEEDS,
        "workloads": {},
    }
    problems: List[str] = []
    for entry in declared["workloads"]:
        workload = entry["name"]
        across = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        same = [run_once(workload, DEFAULT_SEED, seconds, 0) for _ in range(RUNS)]
        for name in bounds:
            if name.startswith("sim_") and len({r["metrics"][name]["value"] for r in same}) != 1:
                problems.append(f"{workload} {name}: differs between runs of seed {DEFAULT_SEED}")
        traced = {seed: run_once(workload, seed, seconds, 1) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        distinct = traced[DEFAULT_SEED]["digest"] != traced[HELD_OUT_SEED]["digest"]
        print(f"{workload:28} traced: correct {all(t['correct'] for t in traced.values())}, "
              f"default and held-out seeds simulate differently: {distinct}")
        if not distinct or not all(t["correct"] for t in traced.values()):
            problems.append(f"{workload} traced runs")
        report["workloads"][workload] = {
            "why": entry["why"],
            "all_correct": all(record["correct"] for record in across + same),
            "across_seeds": summarise(f"{workload} across seeds", across, bounds, problems),
            "same_seed": summarise(f"{workload} seed {DEFAULT_SEED} x{RUNS}", same, bounds, problems),
            "traced_digests": {str(seed): t["digest"] for seed, t in traced.items()},
        }
    with open(os.path.join(HERE, "provenance.json"), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for problem in problems:
        print(f"SPREAD CHECK FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
