"""Deterministic parallel sweep runner.

Workload sweeps (Figures 3-5, the fault sweeps, seed batteries) are
embarrassingly parallel: every point is a pure function of its own
parameters, including its own seed.  :func:`parallel_map` fans such
points out over forked processes while keeping the results
**bit-identical to the serial run**:

* results come back in submission order;
* every item carries its own seed in its arguments, so the outcome
  never depends on which process computed it or in what order;
* the serial path runs the very same function, so ``workers=1`` is
  the reference implementation.

Forking goes through :class:`~repro.perf.snapshot.SnapshotServer`, the
one fork mechanism: :func:`parallel_map` is a server with an empty
prefix, so ``fn`` may be any callable (a closure too; only its results
cross a pipe) and a child that dies raises
:class:`~repro.perf.snapshot.SnapshotError` instead of hanging the
sweep.  Where ``fork`` is unavailable (non-POSIX platforms) the runner
silently degrades to the serial path -- a gate, not a new dependency.

:func:`prefix_map` is the shared-prefix planner on top of it: sweep
points that share a warm-up prefix are grouped by a
:class:`PrefixSpec`, each group's prefix is simulated **once**, and
the per-point continuations run from fork copy-on-write snapshots of
it; every other point runs cold through :func:`parallel_map`.  Results
are byte-identical to cold-starting every point, which is what it does
where ``fork`` is unavailable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
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


def _call(fn: Callable[[T], R], item: T, _state: Any) -> R:
    """A :func:`parallel_map` point as a continuation of the empty
    prefix."""
    return fn(item)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across forked processes.

    The result list is in item order regardless of scheduling; at most
    ``workers`` items run at once.  ``fn`` must be a pure function of
    its item -- in particular any randomness must be seeded from the
    item itself, never from global state -- and its results must be
    picklable.  A failed or dead child raises
    :class:`~repro.perf.snapshot.SnapshotError`.
    """
    items = list(items)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1 or not _snapshot.fork_available():
        return [fn(item) for item in items]
    with _snapshot.SnapshotServer(
        tuple,
        [partial(_call, fn, item) for item in items],
        children=min(count, len(items)),
        name="parallel_map",
    ) as server:
        return server.results()


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


def _cold(point: Tuple[PrefixSpec, Callable[[Any], R]]) -> R:
    """Run one sweep point from scratch: build its prefix, finish it."""
    spec, continuation = point
    return continuation(spec.build())


def prefix_map(
    plan: Callable[[T], Tuple[PrefixSpec, Callable[[Any], R]]],
    cases: Sequence[T],
    *,
    children: Optional[int] = None,
) -> List[R]:
    """Run a sweep through a shared-prefix plan.

    ``plan(case)`` maps each sweep point to ``(spec, continuation)``:
    the prefix it shares and the function finishing the run from a
    restored prefix state.  Points are grouped by ``(spec.key,
    spec.t_split)``; each group's prefix is simulated once and its
    continuations run from fork snapshots of it.  Results come back in
    case order and are byte-identical to cold-starting every point
    (``continuation(spec.build())``) -- the fallback this degrades to
    on platforms without ``fork`` and for groups where sharing cannot
    pay (a single member, or ``t_split`` 0).  Those cold points fan
    out through :func:`parallel_map`.

    ``children`` bounds the concurrent continuations per group and the
    concurrent cold points (default: the ``REPRO_BENCH_WORKERS`` worker
    count).  All group servers are created up front and each forks its
    continuations as soon as its own prefix is built, so groups overlap
    end to end, with each other and with the cold points, even with
    ``children=1``; the parent only collects, in case order.  If any
    group fails, every server is closed, taking its in-flight
    continuations down with it, and the failure surfaces as
    :class:`~repro.perf.snapshot.SnapshotError`.
    """
    cases = list(cases)
    groups: Dict[Tuple, Tuple[PrefixSpec, List[Tuple[int, Callable]]]] = {}
    for index, case in enumerate(cases):
        spec, continuation = plan(case)
        _, members = groups.setdefault((spec.key, spec.t_split), (spec, []))
        members.append((index, continuation))
    results: List[Any] = [None] * len(cases)
    servers: Dict[Tuple, _snapshot.SnapshotServer] = {}
    try:
        if _snapshot.fork_available():
            for group_key, (spec, members) in groups.items():
                if spec.t_split > 0 and len(members) > 1:
                    servers[group_key] = _snapshot.SnapshotServer(
                        spec.build,
                        [continuation for _, continuation in members],
                        children=resolve_workers(children),
                        name=f"prefix{spec.key!r}@{spec.t_split}",
                    )
        cold = [
            (index, (spec, continuation))
            for group_key, (spec, members) in groups.items()
            if group_key not in servers
            for index, continuation in members
        ]
        outcomes = parallel_map(_cold, [point for _, point in cold], children)
        for (index, _), outcome in zip(cold, outcomes):
            results[index] = outcome
        for group_key, server in servers.items():
            _, members = groups[group_key]
            for (index, _), outcome in zip(members, server.results()):
                results[index] = outcome
    finally:
        for server in servers.values():
            server.close()
    return results
