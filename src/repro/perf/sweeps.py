"""Deterministic parallel sweep runner.

Workload sweeps (Figures 3-5, the fault sweeps, seed batteries) are
embarrassingly parallel: every point is a pure function of its own
parameters, including its own seed.  :func:`parallel_map` fans such
points out over a ``multiprocessing`` pool while keeping the results
**bit-identical to the serial run**:

* results come back in submission order (``Pool.map`` preserves it);
* every item carries its own seed in its arguments, so the outcome
  never depends on which worker computed it or in what order;
* the serial path runs the very same function, so ``workers=1`` is
  the reference implementation.

The pool uses the ``fork`` start method (cheap, and lets benchmark
scripts pass module-level functions defined in ``__main__``).  Where
``fork`` is unavailable (non-POSIX platforms) the runner silently
degrades to the serial path -- a gate, not a new dependency.

:func:`prefix_map` is the shared-prefix planner on top of
:mod:`repro.perf.snapshot`: sweep points that share a warm-up prefix
are grouped by a :class:`PrefixSpec`, each group's prefix is simulated
**once**, and the per-point continuations run from checkpoint/restore
snapshots of it -- with results byte-identical to the cold path in
every mode (fork / deepcopy / cold).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.perf import snapshot as _snapshot

__all__ = [
    "resolve_workers",
    "parallel_map",
    "PrefixSpec",
    "prefix_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment knob: default worker count for benchmark sweeps
#: (0 = one per CPU).
WORKERS_ENV = "REPRO_BENCH_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Turn a worker request into a concrete count.

    ``None`` falls back to the ``REPRO_BENCH_WORKERS`` environment
    variable, then to 1 (serial).  ``0`` means one worker per CPU.
    Negative values are an error.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "")
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={raw!r}: expected a non-negative integer"
            ) from None
    if workers < 0:
        raise ValueError(f"workers must be non-negative (got {workers})")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return None


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    The result list is in item order regardless of worker scheduling.
    ``fn`` must be a module-level (picklable) function and must be a
    pure function of its item -- in particular any randomness must be
    seeded from the item itself, never from global state.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = _fork_context()
    if context is None:
        return [fn(item) for item in items]
    count = min(count, len(items))
    if chunksize is None:
        # A few chunks per worker balances load without drowning the
        # pool in tiny tasks.
        chunksize = max(1, len(items) // (count * 4))
    with context.Pool(processes=count) as pool:
        return pool.map(fn, items, chunksize)


# ----------------------------------------------------------------------
# shared-prefix sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixSpec:
    """Identity and builder of one shared sweep prefix.

    ``key`` must fingerprint everything that shapes the prefix (it is
    the grouping key: points whose ``(key, t_split)`` match share one
    simulated prefix).  ``build()`` returns the state paused exactly at
    ``t_split`` -- typically a kernel or cluster advanced through the
    fault-free warm-up.
    """

    key: Tuple
    t_split: int
    build: Callable[[], Any] = field(compare=False)

    def __post_init__(self) -> None:
        if self.t_split < 0:
            raise ValueError(
                f"t_split must be non-negative (got {self.t_split})"
            )


def prefix_map(
    plan: Callable[[T], Tuple[PrefixSpec, Callable[[Any], R]]],
    cases: Sequence[T],
    *,
    mode: Optional[str] = None,
    children: Optional[int] = None,
) -> List[R]:
    """Run a sweep through a shared-prefix plan.

    ``plan(case)`` maps each sweep point to ``(spec, continuation)``:
    the prefix it shares and the function finishing the run from a
    restored prefix state.  Points are grouped by ``(spec.key,
    spec.t_split)``; each group's prefix is simulated once and its
    continuations run from snapshots of it.  Results come back in case
    order and are byte-identical to cold-starting every point
    (``continuation(spec.build())``) -- the fallback this degrades to
    under ``REPRO_SNAPSHOT=0``, on platforms without ``fork``, and for
    groups where sharing cannot pay (a single member, or ``t_split``
    0).

    ``mode`` overrides the ``REPRO_SNAPSHOT`` mechanism; ``children``
    bounds concurrent fork-mode continuations per group (default: the
    ``REPRO_BENCH_WORKERS`` worker count).  In fork mode all group
    servers are created up front and each forks its continuations as
    soon as its own prefix is built, so distinct groups overlap end to
    end even with ``children=1`` (up to ``children`` continuations per
    group at once); the parent only collects, in case order.  If any
    group fails, every server is closed, taking its in-flight
    continuations down with it, and the failure surfaces as
    :class:`~repro.perf.snapshot.SnapshotError`.
    """
    cases = list(cases)
    mechanism = _snapshot.resolve_snapshot_mode(mode)
    groups: Dict[Tuple, Tuple[PrefixSpec, List[Tuple[int, Callable]]]] = {}
    order: List[Tuple] = []
    for index, case in enumerate(cases):
        spec, continuation = plan(case)
        group_key = (spec.key, spec.t_split)
        bucket = groups.get(group_key)
        if bucket is None:
            bucket = groups[group_key] = (spec, [])
            order.append(group_key)
        bucket[1].append((index, continuation))
    results: List[Any] = [None] * len(cases)

    def run_cold(spec: PrefixSpec, members) -> None:
        for index, continuation in members:
            results[index] = continuation(spec.build())

    def shareable(spec: PrefixSpec, members) -> bool:
        return spec.t_split > 0 and len(members) > 1

    if mechanism == "fork":
        servers: Dict[Tuple, _snapshot.SnapshotServer] = {}
        try:
            for group_key in order:
                spec, members = groups[group_key]
                if shareable(spec, members):
                    servers[group_key] = _snapshot.SnapshotServer(
                        spec.build,
                        [continuation for _, continuation in members],
                        children=resolve_workers(children),
                        name=f"prefix{spec.key!r}@{spec.t_split}",
                    )
            for group_key in order:
                spec, members = groups[group_key]
                server = servers.get(group_key)
                if server is None:
                    run_cold(spec, members)
                    continue
                for (index, _), outcome in zip(members, server.results()):
                    results[index] = outcome
        finally:
            for server in servers.values():
                server.close()
    elif mechanism == "deepcopy":
        cache = _snapshot.SnapshotCache(capacity=max(1, len(groups)))
        for group_key in order:
            spec, members = groups[group_key]
            if shareable(spec, members):
                for index, continuation in members:
                    results[index] = continuation(
                        cache.restore(repr(spec.key), spec.t_split, spec.build)
                    )
            else:
                run_cold(spec, members)
    else:
        for group_key in order:
            spec, members = groups[group_key]
            run_cold(spec, members)
    return results
