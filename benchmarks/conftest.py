"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
reduced-but-representative scale, prints the reproduced rows/series (run
pytest with ``-s`` to see them) and attaches the headline values to
``benchmark.extra_info`` so they appear in pytest-benchmark's JSON output.

The heavy lifting happens once per benchmark (``pedantic`` with one round);
the numbers of interest are simulated durations, not wall-clock timings, so
repeating the run would only repeat identical work.

A few benchmarks do assert host wall-clock *ratios* (sketch vs exact
metrics, indexed vs scan routing, tracing sampled vs off): they time the
compared runs themselves with :func:`timed_call`, in this process, so
the simulation drivers stay free of wall-clock reads.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the heavy cluster benchmarks to
smoke-test scale (fewer rounds, shorter virtual durations) via the
``bench_scale`` fixture — the CI smoke job uses this so the perf drivers
stay exercised on every push without paying full benchmark wall-clock time.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Tuple, TypeVar

import pytest

T = TypeVar("T")

#: True when the harness should run at reduced smoke scale.
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() in (
    "1", "true", "yes", "on",
)


def run_once(benchmark, func: Callable[[], object]):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def timed_call(func: Callable[[], T]) -> Tuple[T, float]:
    """Run ``func`` once after a full collection; return (result, seconds)."""
    gc.collect()
    started = time.perf_counter()
    result = func()
    return result, time.perf_counter() - started


@pytest.fixture
def timed():
    """Fixture wrapping :func:`timed_call`."""
    return timed_call


@pytest.fixture
def bench_once():
    """Fixture wrapping :func:`run_once` for terser benchmark bodies."""
    return run_once


@pytest.fixture
def bench_scale() -> Callable[[T, T], T]:
    """Pick between the full-scale and smoke-scale value of a knob.

    Usage: ``rounds = bench_scale(4, 2)`` — 4 normally, 2 under
    ``REPRO_BENCH_QUICK=1``.
    """

    def scale(full: T, quick: T) -> T:
        return quick if BENCH_QUICK else full

    return scale
