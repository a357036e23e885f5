"""Opt-in ``cProfile`` hook for the simulator.

Profiling is never on by default -- the instrumented run is 2-4x
slower and would poison throughput numbers -- but when a regression
shows up in ``BENCH_kernel.json`` this is the first tool to reach
for: ``python -m repro.reproduce perf --profile`` prints the hot
functions of the canonical throughput workload.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Tuple

__all__ = ["profile_call"]


def stats_text(profile: cProfile.Profile, sort: str = "cumulative", limit: int = 25) -> str:
    """Render a profile's top functions as text."""
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(limit)
    return buffer.getvalue()


def profile_call(
    fn: Callable,
    *args,
    sort: str = "cumulative",
    limit: int = 25,
    **kwargs,
) -> Tuple[object, str]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, stats_text)`` where the text lists the top
    ``limit`` functions by ``sort`` order.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, stats_text(profile, sort=sort, limit=limit)
