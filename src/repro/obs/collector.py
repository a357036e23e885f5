"""The kernel-side observability collector.

An :class:`ObsCollector` attaches to a kernel (``collector.attach(k)``)
and receives callbacks from the kernel's existing hook points -- the
dispatcher, the block/unblock paths, job completion, and the semaphore
priority-inheritance code.  It records what the flat event log cannot
answer cheaply:

* per task: preemptions, dispatches, completed/aborted jobs, deadline
  misses, response-time min/sum/max (and, in full mode, a fixed-bucket
  histogram);
* per semaphore: number and total virtual duration of blocking
  episodes, the deepest waiter queue seen, and priority-inheritance
  donations (in full mode, the individual donation/restore events the
  PI-chain analyzer reconstructs);
* per queue: the engine event-queue depth sampled at every context
  switch.

Hot-path discipline (the PR-3 rule): observation is **off by default**
(``kernel.obs is None`` costs one attribute read and an ``is`` check
at each hook point); when enabled in ``"counters"`` mode every
callback performs plain integer adds only, and the hottest hook --
the per-context-switch counters -- is *inlined* in the kernel's
``_dispatch`` rather than called (a Python call per switch costs
measurable throughput; :meth:`ObsCollector.on_switch` stays as the
reference implementation).  Job completions are only counted live
when the trace kept no record (``record="off"``); on recorded runs
:meth:`ObsCollector.as_registry` folds the trace's job records in
post-hoc and the completion hot path is a two-comparison no-op.
``"full"`` mode additionally appends event records and feeds
histograms -- it is meant for analysis runs, not throughput
measurements.

Determinism: every recorded value derives from virtual time or event
counts, so the exports are byte-identical across repeated runs and
across ``parallel_map`` worker counts.  The collector never charges
virtual time and never writes to the :class:`~repro.sim.trace.Trace`,
so full-mode trace signatures are unchanged by attaching it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.metrics import (
    DEFAULT_RESPONSE_BUCKETS_NS,
    Histogram,
    MetricsRegistry,
)

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

__all__ = ["ObsCollector", "PiEvent", "BlockingInterval", "OBS_MODES"]

#: Valid collector modes, least to most detailed.
OBS_MODES = ("counters", "full")

#: ``blocked_on`` prefixes that mean "waiting because of a semaphore".
#: The part after the first colon is the semaphore name.
_SEM_REASONS = ("sem:", "sem-parked:", "sem-registry:")


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


class BlockingInterval(NamedTuple):
    """One closed semaphore-induced blocking episode (full mode)."""

    sem: str
    thread: str
    start: int
    end: int
    reason: str


class _TaskStats:
    __slots__ = (
        "completions", "misses", "aborts",
        "resp_sum", "resp_min", "resp_max",
    )

    def __init__(self) -> None:
        self.completions = 0
        self.misses = 0
        self.aborts = 0
        self.resp_sum = 0
        self.resp_min = -1  # -1 = nothing observed yet
        self.resp_max = 0


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
            mode) or ``"full"`` (also histograms, blocking intervals,
            and PI events for the analyzers).
        response_buckets: Histogram bucket bounds (ns) for per-task
            response times (full mode).
    """

    __slots__ = (
        "mode", "full", "response_buckets", "kernel", "tasks", "sems",
        "_block_since", "switches", "dispatch_counts", "preempt_counts",
        "queue_depth_max", "queue_depth_sum",
        "pi_events", "blocking_intervals", "response_hists",
        "_registry_sources",
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
        self.tasks: Dict[str, _TaskStats] = {}
        self.sems: Dict[str, _SemStats] = {}
        #: Open blocking episodes: thread -> (sem, start, reason).
        self._block_since: Dict[str, Tuple[str, int, str]] = {}
        #: Per-switch counters.  The kernel's ``_dispatch`` updates
        #: these *inline* (plain dict/integer adds, no method call --
        #: a call per context switch measurably costs throughput);
        #: :meth:`on_switch` applies the identical updates for callers
        #: outside that hot path.  Keep the two in sync.
        self.switches = 0
        self.dispatch_counts: Dict[str, int] = {}
        self.preempt_counts: Dict[str, int] = {}
        #: Queue depth is sampled once per switch, so ``switches`` is
        #: the sample count -- no separate samples counter to bump.
        self.queue_depth_max = 0
        self.queue_depth_sum = 0
        # full-mode event records
        self.pi_events: List[PiEvent] = []
        self.blocking_intervals: List[BlockingInterval] = []
        self.response_hists: Dict[str, Histogram] = {}
        #: Extra exporters: ``fn(registry)`` called at the end of
        #: :meth:`as_registry` (e.g. fieldbus dependability metrics).
        self._registry_sources: List = []

    def attach(self, kernel: "Kernel") -> "ObsCollector":
        """Install this collector on ``kernel`` and return it."""
        if kernel.obs is not None and kernel.obs is not self:
            raise ValueError("kernel already has an observer attached")
        kernel.obs = self
        self.kernel = kernel
        return self

    # ------------------------------------------------------------------
    # internal get-or-create (kept tiny; runs on enabled hot paths)
    # ------------------------------------------------------------------
    def _task(self, name: str) -> _TaskStats:
        stats = self.tasks.get(name)
        if stats is None:
            stats = self.tasks[name] = _TaskStats()
        return stats

    def _sem(self, name: str) -> _SemStats:
        stats = self.sems.get(name)
        if stats is None:
            stats = self.sems[name] = _SemStats()
        return stats

    # ------------------------------------------------------------------
    # hooks (called by the kernel and the semaphores)
    # ------------------------------------------------------------------
    def on_block(self, thread: str, reason: str, now: int) -> None:
        """A thread blocked; track it when a semaphore is the cause."""
        for prefix in _SEM_REASONS:
            if reason.startswith(prefix):
                sem = reason[len(prefix):]
                self._sem(sem).blocks += 1
                self._block_since[thread] = (sem, now, prefix[:-1])
                return

    def on_unblock(self, thread: str, now: int) -> None:
        """A thread woke; close its open blocking episode, if any."""
        open_block = self._block_since.pop(thread, None)
        if open_block is None:
            return
        sem, start, reason = open_block
        self._sem(sem).blocked_ns += now - start
        if self.full:
            self.blocking_intervals.append(
                BlockingInterval(sem, thread, start, now, reason)
            )

    def on_switch(
        self,
        now: int,
        old: Optional[str],
        new: Optional[str],
        preempted: bool,
        queue_depth: int,
    ) -> None:
        """A context switch happened; count it and sample queue depth.

        The kernel dispatcher inlines these updates instead of calling
        this (see ``Kernel._dispatch``); this method exists for other
        callers and as the reference for what the inlined block does.
        """
        self.switches += 1
        if new is not None:
            counts = self.dispatch_counts
            counts[new] = counts.get(new, 0) + 1
        if preempted and old is not None:
            counts = self.preempt_counts
            counts[old] = counts.get(old, 0) + 1
        self.queue_depth_sum += queue_depth
        if queue_depth > self.queue_depth_max:
            self.queue_depth_max = queue_depth

    def on_job_completed(
        self, thread: str, release: int, completion: int, deadline: Optional[int]
    ) -> None:
        """A job finished; record its response time (and a miss)."""
        stats = self._task(thread)
        stats.completions += 1
        response = completion - release
        stats.resp_sum += response
        if stats.resp_min < 0 or response < stats.resp_min:
            stats.resp_min = response
        if response > stats.resp_max:
            stats.resp_max = response
        if deadline is not None and completion > deadline:
            stats.misses += 1
        if self.full:
            hist = self.response_hists.get(thread)
            if hist is None:
                hist = self.response_hists[thread] = Histogram(
                    "task_response_ns",
                    (("task", thread),),
                    buckets=self.response_buckets,
                )
            hist.observe(response)

    def on_job_aborted(self, thread: str) -> None:
        """A job was abandoned (budget overrun, crash, restart)."""
        self._task(thread).aborts += 1

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

        Includes the kernel's own counters and per-category kernel time
        (snapshotted from the attached kernel's trace) so one export
        carries the whole picture.
        """
        reg = MetricsRegistry()
        # The kernel dispatcher tallies per-task switches on the TCB
        # (cheapest inline form); fold those into the name-keyed
        # dicts :meth:`on_switch` maintains for other callers.
        dispatches = dict(self.dispatch_counts)
        preempts = dict(self.preempt_counts)
        if self.kernel is not None:
            for name, thread in self.kernel.threads.items():
                if thread.obs_dispatches:
                    dispatches[name] = (
                        dispatches.get(name, 0) + thread.obs_dispatches
                    )
                if thread.obs_preemptions:
                    preempts[name] = (
                        preempts.get(name, 0) + thread.obs_preemptions
                    )
        # Completion stats: jobs counted live by on_job_completed plus
        # jobs the attached kernel's trace recorded -- the kernel only
        # calls the hook when the trace kept no record, so the two
        # sources never overlap (keeps the completion hot path a
        # two-comparison no-op on recorded runs).
        merged: Dict[str, _TaskStats] = {}
        for name, t in self.tasks.items():
            m = merged[name] = _TaskStats()
            m.completions, m.misses, m.aborts = t.completions, t.misses, t.aborts
            m.resp_sum, m.resp_min, m.resp_max = (
                t.resp_sum, t.resp_min, t.resp_max
            )
        traced: Dict[str, List[int]] = {}
        if self.kernel is not None:
            for job in self.kernel.trace.jobs:
                response = job.response_time
                if response is None:
                    continue
                m = merged.get(job.thread)
                if m is None:
                    m = merged[job.thread] = _TaskStats()
                m.completions += 1
                m.resp_sum += response
                if m.resp_min < 0 or response < m.resp_min:
                    m.resp_min = response
                if response > m.resp_max:
                    m.resp_max = response
                if job.missed:
                    m.misses += 1
                if self.full:
                    traced.setdefault(job.thread, []).append(response)
        names = set(merged) | set(dispatches) | set(preempts)
        blank = _TaskStats()
        for name in sorted(names):
            t = merged.get(name, blank)
            reg.counter("task_preemptions_total", task=name).inc(
                preempts.get(name, 0)
            )
            reg.counter("task_dispatches_total", task=name).inc(
                dispatches.get(name, 0)
            )
            reg.counter("task_jobs_completed_total", task=name).inc(t.completions)
            reg.counter("task_jobs_aborted_total", task=name).inc(t.aborts)
            reg.counter("task_deadline_misses_total", task=name).inc(t.misses)
            if t.completions:
                reg.gauge("task_response_ns_min", task=name).set(max(t.resp_min, 0))
                reg.gauge("task_response_ns_max", task=name).set(t.resp_max)
                reg.counter("task_response_ns_sum", task=name).inc(t.resp_sum)
                reg.gauge("task_response_jitter_ns", task=name).set(
                    t.resp_max - max(t.resp_min, 0)
                )
        for name in sorted(self.sems):
            s = self.sems[name]
            reg.counter("sem_blocks_total", sem=name).inc(s.blocks)
            reg.counter("sem_blocked_ns_total", sem=name).inc(s.blocked_ns)
            reg.gauge("sem_waiters_max", sem=name).set(s.max_waiters)
            reg.counter("sem_pi_donations_total", sem=name).inc(s.donations)
        reg.counter("sched_context_switches_total").inc(self.switches)
        depth = reg.gauge("engine_event_queue_depth")
        depth.set(0)
        depth.max_seen = self.queue_depth_max
        reg.counter("engine_event_queue_depth_sum").inc(self.queue_depth_sum)
        # Depth is sampled once per switch, so switches is the count.
        reg.counter("engine_event_queue_depth_samples").inc(self.switches)
        if self.full:
            for name in sorted(set(self.response_hists) | set(traced)):
                hist = reg.histogram(
                    "task_response_ns", buckets=self.response_buckets, task=name
                )
                src = self.response_hists.get(name)
                if src is not None:
                    hist.counts = list(src.counts)
                    hist.total = src.total
                    hist.count = src.count
                for response in traced.get(name, ()):
                    hist.observe(response)
        kernel = self.kernel
        if kernel is not None:
            trace = kernel.trace
            for category in sorted(trace.kernel_time):
                reg.counter("kernel_time_ns_total", category=category).inc(
                    trace.kernel_time[category]
                )
            reg.counter("kernel_idle_ns_total").inc(trace.idle_time)
            reg.counter("kernel_syscalls_total").inc(kernel.syscall_count)
            reg.counter("kernel_dispatches_total").inc(kernel.dispatch_count)
            reg.counter("kernel_events_popped_total").inc(kernel.events_popped)
            reg.gauge("kernel_virtual_time_ns").set(kernel.now)
        for source in self._registry_sources:
            source(reg)
        return reg

    def add_registry_source(self, fn) -> "ObsCollector":
        """Register ``fn(registry)`` to run at the end of every
        :meth:`as_registry` export (subsystems outside the kernel --
        the fieldbus, membership -- contribute their metrics here)."""
        self._registry_sources.append(fn)
        return self

    def metrics_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON export of the metrics registry."""
        return self.as_registry().to_json(indent=indent)

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition export of the metrics registry."""
        return self.as_registry().to_prometheus()
