"""The kernel-side observability collector.

An :class:`ObsCollector` attaches to a kernel (``collector.attach(k)``)
and receives callbacks from the kernel's existing hook points -- the
dispatcher, the block/unblock paths, and the semaphore
priority-inheritance code.  It records only what the trace does not:

* per task: preemptions and dispatches;
* per semaphore: number and total virtual duration of blocking
  episodes, the deepest waiter queue seen, and priority-inheritance
  donations (in full mode, the individual donation/restore events the
  PI-chain analyzer reconstructs);
* per queue: the engine event-queue depth sampled at every context
  switch.

Context switches themselves are counted once, by the trace
(:attr:`~repro.sim.trace.Trace.context_switches`): the collector notes
the count when it attaches and exports the switches made since.

A job's outcome has one record, the trace's
:class:`~repro.sim.trace.JobRecord`: there is no job hook, and
:meth:`ObsCollector.as_registry` derives every per-task job metric --
completed and aborted jobs, deadline misses, response-time
min/sum/max/jitter and, in full mode, a fixed-bucket histogram --
from ``kernel.trace.jobs`` in one pass at export time.

Hot-path discipline (the PR-3 rule): observation is **off by default**
(``kernel.obs is None`` costs one attribute read and an ``is`` check
at each hook point); when enabled in ``"counters"`` mode every
callback performs plain integer adds only, and the hottest update --
the per-context-switch counters -- has no hook at all: the kernel's
``_dispatch`` bumps them inline, the per-task ones on the TCB (a
Python call per switch costs measurable throughput).  Job completion
and abort cost the collector nothing: their metrics come from the job
records.  ``"full"`` mode additionally appends event records and feeds
the response histograms -- it is meant for analysis runs, not
throughput measurements.

Determinism: every recorded value derives from virtual time or event
counts, so the exports are byte-identical across repeated runs.  The
collector never charges virtual time and never writes to the
:class:`~repro.sim.trace.Trace`, so full-mode trace signatures are
unchanged by attaching it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import DEFAULT_RESPONSE_BUCKETS_NS, MetricsRegistry

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

__all__ = ["ObsCollector", "PiEvent", "OBS_MODES"]

#: Valid collector modes, least to most detailed.
OBS_MODES = ("counters", "full")


class PiEvent(NamedTuple):
    """One priority-inheritance step (full mode only).

    ``kind`` is ``"raise"`` (standard queue reposition), ``"swap"``
    (the EMERALDS O(1) place-holder swap), or ``"restore"`` (the
    holder's inherited priority was undone; ``sem``/``donor`` empty).
    ``transitive`` marks steps propagated down a holder chain.
    """

    time: int
    sem: str
    donor: str
    holder: str
    kind: str
    transitive: bool


class _SemStats:
    __slots__ = ("blocks", "blocked_ns", "max_waiters", "donations")

    def __init__(self) -> None:
        self.blocks = 0
        self.blocked_ns = 0
        self.max_waiters = 0
        self.donations = 0


class ObsCollector:
    """Deterministic run observer (see module docstring).

    Args:
        mode: ``"counters"`` (scalar adds only; the <10%-overhead
            mode) or ``"full"`` (also histograms and PI events for the
            analyzers).
        response_buckets: Histogram bucket bounds (ns) for per-task
            response times (full mode).
    """

    __slots__ = (
        "mode", "full", "response_buckets", "kernel", "sems",
        "_block_since", "switches_at_attach", "queue_depth_max",
        "queue_depth_sum", "pi_events",
    )

    def __init__(
        self,
        mode: str = "counters",
        response_buckets: Tuple[int, ...] = DEFAULT_RESPONSE_BUCKETS_NS,
    ):
        if mode not in OBS_MODES:
            raise ValueError(
                f"unknown obs mode {mode!r} (expected one of {OBS_MODES})"
            )
        self.mode = mode
        self.full = mode == "full"
        self.response_buckets = tuple(response_buckets)
        self.kernel: Optional["Kernel"] = None
        self.sems: Dict[str, _SemStats] = {}
        #: Open blocking episodes: thread -> (sem, start).
        self._block_since: Dict[str, Tuple[str, int]] = {}
        #: The trace's context-switch count when :meth:`attach` ran.
        self.switches_at_attach = 0
        #: Per-switch counters, updated inline by the kernel's
        #: ``_dispatch`` (plain integer adds, no method call -- a call
        #: per context switch measurably costs throughput).  Per-task
        #: dispatch and preemption counts live on the TCBs.  Queue
        #: depth is sampled once per switch, so the switches since
        #: attach are the sample count.
        self.queue_depth_max = 0
        self.queue_depth_sum = 0
        # full-mode event records
        self.pi_events: List[PiEvent] = []

    def attach(self, kernel: "Kernel") -> "ObsCollector":
        """Install this collector on ``kernel`` and return it."""
        if kernel.obs is not None and kernel.obs is not self:
            raise ValueError("kernel already has an observer attached")
        kernel.obs = self
        self.kernel = kernel
        self.switches_at_attach = kernel.trace.context_switches
        return self

    # ------------------------------------------------------------------
    # internal get-or-create (kept tiny; runs on enabled hot paths)
    # ------------------------------------------------------------------
    def _sem(self, name: str) -> _SemStats:
        stats = self.sems.get(name)
        if stats is None:
            stats = self.sems[name] = _SemStats()
        return stats

    # ------------------------------------------------------------------
    # hooks (called by the kernel and the semaphores)
    # ------------------------------------------------------------------
    def on_block(self, thread: str, sem: Optional[str], now: int) -> None:
        """A thread blocked; track it when it waits for semaphore
        ``sem`` (``None`` for every other wait)."""
        if sem is not None:
            self._sem(sem).blocks += 1
            self._block_since[thread] = (sem, now)

    def on_unblock(self, thread: str, now: int) -> None:
        """A thread woke; close its open blocking episode, if any."""
        open_block = self._block_since.pop(thread, None)
        if open_block is None:
            return
        sem, start = open_block
        self._sem(sem).blocked_ns += now - start

    def on_sem_wait(self, sem: str, depth: int) -> None:
        """The waiter/parked population of a semaphore grew to ``depth``."""
        stats = self._sem(sem)
        if depth > stats.max_waiters:
            stats.max_waiters = depth

    def on_pi_donation(
        self,
        now: int,
        sem: str,
        donor: str,
        holder: str,
        kind: str,
        transitive: bool = False,
    ) -> None:
        """``donor``'s priority was donated to ``holder`` through ``sem``."""
        self._sem(sem).donations += 1
        if self.full:
            self.pi_events.append(
                PiEvent(now, sem, donor, holder, kind, transitive)
            )

    def on_pi_restore(self, now: int, thread: str) -> None:
        """``thread``'s inherited priority was undone."""
        if self.full:
            self.pi_events.append(PiEvent(now, "", "", thread, "restore", False))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_registry(self) -> MetricsRegistry:
        """Materialize everything observed into a metrics registry.

        The per-task job series come from one pass over the attached
        kernel's ``trace.jobs``; the export also carries the kernel's
        own counters and per-category kernel time, so one export holds
        the whole picture.
        """
        reg = MetricsRegistry()
        kernel = self.kernel
        # The kernel dispatcher tallies per-task switches on the TCB
        # (cheapest inline form).
        dispatches: Dict[str, int] = {}
        preempts: Dict[str, int] = {}
        responses: Dict[str, List[int]] = {}
        aborts: Dict[str, int] = {}
        misses: Dict[str, int] = {}
        if kernel is not None:
            for name, thread in kernel.threads.items():
                if thread.obs_dispatches:
                    dispatches[name] = thread.obs_dispatches
                if thread.obs_preemptions:
                    preempts[name] = thread.obs_preemptions
            for job in kernel.trace.jobs:
                name = job.thread
                if job.aborted:
                    aborts[name] = aborts.get(name, 0) + 1
                elif job.completion is not None:
                    responses.setdefault(name, []).append(
                        job.completion - job.release
                    )
                    if job.missed:
                        misses[name] = misses.get(name, 0) + 1
        names = set(responses) | set(aborts) | set(dispatches) | set(preempts)
        for name in sorted(names):
            reg.counter("task_preemptions_total", task=name).inc(
                preempts.get(name, 0)
            )
            reg.counter("task_dispatches_total", task=name).inc(
                dispatches.get(name, 0)
            )
            done = responses.get(name, ())
            reg.counter("task_jobs_completed_total", task=name).inc(len(done))
            reg.counter("task_jobs_aborted_total", task=name).inc(
                aborts.get(name, 0)
            )
            reg.counter("task_deadline_misses_total", task=name).inc(
                misses.get(name, 0)
            )
            if done:
                low, high = min(done), max(done)
                reg.gauge("task_response_ns_min", task=name).set(low)
                reg.gauge("task_response_ns_max", task=name).set(high)
                reg.counter("task_response_ns_sum", task=name).inc(sum(done))
                reg.gauge("task_response_jitter_ns", task=name).set(high - low)
                if self.full:
                    hist = reg.histogram(
                        "task_response_ns",
                        buckets=self.response_buckets,
                        task=name,
                    )
                    for response in done:
                        hist.observe(response)
        for name in sorted(self.sems):
            s = self.sems[name]
            reg.counter("sem_blocks_total", sem=name).inc(s.blocks)
            reg.counter("sem_blocked_ns_total", sem=name).inc(s.blocked_ns)
            reg.gauge("sem_waiters_max", sem=name).set(s.max_waiters)
            reg.counter("sem_pi_donations_total", sem=name).inc(s.donations)
        switches = 0
        if kernel is not None:
            switches = kernel.trace.context_switches - self.switches_at_attach
        reg.counter("sched_context_switches_total").inc(switches)
        depth = reg.gauge("engine_event_queue_depth")
        depth.set(0)
        depth.max_seen = self.queue_depth_max
        reg.counter("engine_event_queue_depth_sum").inc(self.queue_depth_sum)
        # Depth is sampled once per switch, so switches is the count.
        reg.counter("engine_event_queue_depth_samples").inc(switches)
        if kernel is not None:
            trace = kernel.trace
            for category in sorted(trace.kernel_time):
                reg.counter("kernel_time_ns_total", category=category).inc(
                    trace.kernel_time[category]
                )
            reg.counter("kernel_idle_ns_total").inc(trace.idle_time)
            reg.counter("kernel_syscalls_total").inc(kernel.syscall_count)
            reg.counter("kernel_dispatches_total").inc(
                kernel.scheduler.stats.selects
            )
            reg.counter("kernel_events_popped_total").inc(kernel.events_popped)
            reg.gauge("kernel_virtual_time_ns").set(kernel.now)
        return reg

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON export of the metrics registry."""
        return self.as_registry().to_json(indent=indent)

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition export of the metrics registry."""
        return self.as_registry().to_prometheus()
