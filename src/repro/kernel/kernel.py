"""The EMERALDS kernel: dispatcher, op interpreter, and service registry.

This is the heart of the substrate: a uniprocessor microkernel running
over the discrete-event engine.  It owns

* the scheduler (any :class:`~repro.core.scheduler.Scheduler`:
  EDF, RM, RM-heap, or CSD-x),
* the service registries (semaphores, events, condition variables,
  mailboxes, state channels, shared memory, processes, timers),
* the interrupt controller, and
* the dispatcher, which charges every kernel primitive the cost the
  paper measured (Table 1 plus the Section 6.4 calibration) and
  accounts context switches.

Execution model: the kernel repeatedly (1) fires all due events
(releases, interrupts, timer expiries) -- each unblock invokes the
scheduler, exactly the ``t_u + t_s`` accounting of Section 5.1; (2)
dispatches the selected thread, charging a context switch if it
changed; (3) lets the running thread execute its current operation --
``Compute`` ops run preemptibly until the next event, kernel ops run
through the op interpreter, charging syscall entry and the service's
own costs.  Kernel charges advance virtual time with interrupts
effectively masked; events that come due meanwhile are delivered at
the next dispatch point.

The Section 6 semaphore scheme hooks in at one place:
:meth:`Kernel.deliver_unblock` performs the hint check of Figure 8
before making a thread ready, parking it on the semaphore when the
hint says its next lock attempt would block anyway.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.core.scheduler import Scheduler
from repro.core.task import TaskSpec
from repro.ipc.mailbox import Mailbox
from repro.ipc.shared_memory import SharedMemory
from repro.ipc.state_message import StateChannel, TornRead
from repro.kernel import program as ops
from repro.kernel.clock import Timer
from repro.kernel.interrupts import InterruptController
from repro.kernel.kevent import KernelEvent
from repro.kernel.memory import ProtectionFault
from repro.kernel.process import AddressSpaceAllocator, Process
from repro.kernel.program import Program
from repro.kernel.thread import Thread
from repro.sim.engine import EventQueue, ScheduledEvent, VirtualClock
from repro.sim.trace import IDLE, KERNEL, Trace
from repro.sync.condvar import ConditionVariable
from repro.sync.emeralds_sem import EmeraldsSemaphore
from repro.sync.parser import held_across_blocking, insert_hints
from repro.sync.semaphore import LOCK_WAITS, StandardSemaphore

__all__ = ["Kernel", "KernelError"]

#: Per wait kind, the queue attribute of the object waited on and how to
#: take a thread off it (condvar waiters map to the mutex they re-take).
#: A registry freeze queues its thread nowhere but on the registry.
_WAIT_QUEUES = {
    "sem": ("waiters", list.remove),
    "sem-parked": ("parked", list.remove),
    "event": ("waiters", list.remove),
    "mbox-recv": ("receivers", list.remove),
    "mbox-send": ("senders", list.remove),
    "cv": ("waiters", dict.pop),
}


class KernelError(Exception):
    """Kernel misuse or internal inconsistency."""


class Kernel:
    """A simulated EMERALDS node.

    Args:
        scheduler: Scheduling policy; defaults to EDF with the paper's
            MC68040 overhead model.
        sem_scheme: ``"emeralds"`` (default) or ``"standard"`` --
            which semaphore implementation :meth:`create_semaphore`
            builds and whether the unblock-path hint check runs.
        record: Trace recording mode (``"full"``, the default, or
            ``"jobs-only"`` to save memory on long runs; see
            :mod:`repro.sim.trace`).
        stop_on_deadline_miss: Abort the run at the first deadline
            violation (used by breakdown-by-simulation experiments).
        fault_policy: ``"kill"`` (default) terminates a thread that
            violates memory protection and keeps running -- the
            microkernel survives its applications; ``"raise"``
            propagates the fault to the caller (strict debugging).
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        sem_scheme: str = "emeralds",
        stop_on_deadline_miss: bool = False,
        fault_policy: str = "kill",
        record: str = "full",
    ):
        if sem_scheme not in ("emeralds", "standard"):
            raise ValueError(f"unknown semaphore scheme {sem_scheme!r}")
        if fault_policy not in ("kill", "raise"):
            raise ValueError(f"unknown fault policy {fault_policy!r}")
        self.scheduler = scheduler if scheduler is not None else EDFScheduler()
        # True when this scheduler instance keeps the base
        # admit-everything policy; lets the per-release hot path skip
        # the call.
        self._admits_all = (
            getattr(self.scheduler.admit_release, "__func__", None)
            is Scheduler.admit_release
        )
        self.model: OverheadModel = self.scheduler.model
        self.sem_scheme = sem_scheme
        self.stop_on_deadline_miss = stop_on_deadline_miss
        self.fault_policy = fault_policy

        self.clock = VirtualClock()
        self.events = EventQueue()
        self.trace = Trace(record=record)
        self.interrupts = InterruptController(self)
        self.allocator = AddressSpaceAllocator()

        self.threads: Dict[str, Thread] = {}
        self.processes: Dict[str, Process] = {}
        self.semaphores: Dict[str, StandardSemaphore] = {}
        self.events_by_name: Dict[str, KernelEvent] = {}
        self.condvars: Dict[str, ConditionVariable] = {}
        self.mailboxes: Dict[str, Mailbox] = {}
        self.channels: Dict[str, StateChannel] = {}
        self.shared_memory: Dict[str, SharedMemory] = {}
        self.timers: Dict[str, Timer] = {}

        self.running: Optional[Thread] = None
        #: Attached observability collector (``ObsCollector.attach``);
        #: None by default, so every hook site costs one attribute read
        #: and an ``is`` check when observation is off.
        self.obs = None
        #: Armed fault injector (set by ``FaultInjector.install``);
        #: consulted when a Compute op starts, to stretch its duration.
        self.fault_injector = None
        #: Deadline-miss handlers by thread name, fired *at* miss time.
        self._miss_handlers: Dict[str, Callable] = {}
        #: Semaphore names some program may hold across a blocking
        #: call (fed by the code parser; arms the 6.3.1 registry).
        self._held_across_blocking: set = set()
        self._need_resched = False
        self._stop = False
        self.syscall_count = 0
        #: Engine events fired (releases, interrupts, timers, checks).
        self.events_popped = 0
        #: Exact-class dispatch table for the op interpreter (bound
        #: methods; built once per kernel, avoids the isinstance chain
        #: on every kernel op).
        self._op_handlers = {
            ops.Acquire: self._op_acquire,
            ops.Release: self._op_release,
            ops.Wait: self._op_wait,
            ops.Signal: self._op_signal,
            ops.Send: self._op_send,
            ops.Recv: self._op_recv,
            ops.CvWait: self._op_cv_wait,
            ops.CvSignal: self._op_cv_signal,
            ops.CvBroadcast: self._op_cv_broadcast,
            ops.StateWrite: self._op_state_write,
            ops.Sleep: self._op_sleep,
            ops.Call: self._op_call,
        }

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.clock.now

    def charge(self, cost_ns: int, category: str) -> None:
        """Consume ``cost_ns`` of CPU in kernel mode, booked under
        ``category`` in the trace's ``kernel_time``.

        The trace bookkeeping is inlined here: this is the single
        most-called kernel function, and a call into the trace showed
        up as several percent of a run.
        """
        if cost_ns <= 0:
            return
        clock = self.clock
        start = clock.now
        end = start + cost_ns
        clock.now = end
        trace = self.trace
        kernel_time = trace.kernel_time
        kernel_time[category] = kernel_time.get(category, 0) + cost_ns
        if trace.record_segments:
            trace.add_segment(start, end, KERNEL)

    def schedule_event(
        self, time: int, action: Callable[[], None], label: str = "event"
    ) -> ScheduledEvent:
        """Enqueue a raw engine event (releases, interrupts, timers)."""
        now = self.clock.now
        return self.events.schedule(time if time > now else now, action, label)

    def request_reschedule(self) -> None:
        """Ask the dispatcher to re-evaluate after the current step."""
        self._need_resched = True

    def priority_rank(self, thread: Thread) -> Tuple:
        """Urgency order used outside the scheduler queues (see
        :meth:`repro.core.scheduler.Scheduler.priority_rank`).

        Memoized per thread: every site that changes a thread's urgency
        (job start/retire, priority inheritance) invalidates the cached
        rank, so the semaphore/mailbox/condvar tie-break paths pay a
        dict-free attribute read instead of recomputing the tuple.
        """
        rank = thread.rank_cache
        if rank is None:
            rank = self.scheduler.priority_rank(thread)
            thread.rank_cache = rank
        return rank

    # ------------------------------------------------------------------
    # object creation
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> Process:
        """Create a protection domain backed by the node allocator."""
        if name in self.processes:
            raise KernelError(f"process {name} already exists")
        process = Process(name, allocator=self.allocator)
        self.processes[name] = process
        return process

    def create_thread(
        self,
        name: str,
        body: Program,
        period: Optional[int] = None,
        deadline: Optional[int] = None,
        phase: int = 0,
        process: Optional[Process] = None,
        priority: Optional[int] = None,
        csd_queue: Optional[int] = None,
        fp_policy: str = "rm",
        min_interarrival: Optional[int] = None,
        criticality: int = 0,
    ) -> Thread:
        """Create a thread and register it with the scheduler.

        Periodic threads (``period`` given) are released automatically
        every period starting at ``phase``; aperiodic threads need an
        explicit ``priority`` and are started via :meth:`activate`.
        ``criticality`` ranks the thread for overload shedding (higher
        = more critical; see ``CSDScheduler(shed_overload=True)``).
        """
        if name in self.threads:
            raise KernelError(f"thread {name} already exists")
        # The Section 6.2.1 code parser: the paper's compile-time pass.
        parsed = insert_hints(body)
        program = parsed.program
        risky = held_across_blocking(program)
        self._held_across_blocking.update(risky)
        for sem_name in risky:
            sem = self.semaphores.get(sem_name)
            if sem is not None and hasattr(sem, "registry_enabled"):
                sem.registry_enabled = True
        spec = None
        if period is not None:
            spec = TaskSpec(
                name=name,
                period=period,
                wcet=program.compute_total(),
                deadline=deadline,
                phase=phase,
            )
        thread = Thread(
            name,
            program,
            spec=spec,
            process=process,
            priority=priority,
            relative_deadline=deadline,
            fp_policy=fp_policy,
        )
        thread.period_hint = parsed.period_hint
        thread.csd_queue = csd_queue
        thread.criticality = criticality
        if min_interarrival is not None:
            if period is not None:
                raise KernelError(
                    f"{name}: min_interarrival applies to aperiodic threads"
                )
            if min_interarrival <= 0:
                raise KernelError(f"{name}: min_interarrival must be positive")
            thread.min_interarrival = min_interarrival
        self.threads[name] = thread
        self.scheduler.add_task(thread)
        if spec is not None:
            # The thread's one release action: every later release
            # event carries it forward (see _on_release).
            self._schedule_release(thread, phase, partial(self._on_release, thread))
        return thread

    def create_semaphore(
        self,
        name: str,
        capacity: int = 1,
        scheme: Optional[str] = None,
        use_swap_pi: bool = True,
        use_hint_parking: bool = True,
    ) -> StandardSemaphore:
        """Create a semaphore using the kernel's scheme (or override)."""
        if name in self.semaphores:
            raise KernelError(f"semaphore {name} already exists")
        chosen = scheme if scheme is not None else self.sem_scheme
        if chosen == "standard":
            sem: StandardSemaphore = StandardSemaphore(name, capacity)
        elif chosen == "emeralds":
            sem = EmeraldsSemaphore(
                name,
                capacity,
                use_swap_pi=use_swap_pi,
                use_hint_parking=use_hint_parking,
            )
        else:
            raise ValueError(f"unknown semaphore scheme {chosen!r}")
        if name in self._held_across_blocking and hasattr(sem, "registry_enabled"):
            sem.registry_enabled = True
        self.semaphores[name] = sem
        return sem

    def create_event(self, name: str) -> KernelEvent:
        """Create a latching broadcast event (the Wait/Signal target)."""
        if name in self.events_by_name:
            raise KernelError(f"event {name} already exists")
        event = KernelEvent(name)
        self.events_by_name[name] = event
        return event

    def create_condvar(self, name: str) -> ConditionVariable:
        """Create a condition variable (used with a mutex semaphore)."""
        if name in self.condvars:
            raise KernelError(f"condvar {name} already exists")
        cv = ConditionVariable(name)
        self.condvars[name] = cv
        return cv

    def create_mailbox(
        self, name: str, capacity: int = 8, max_message_size: int = 64
    ) -> Mailbox:
        """Create a bounded message-passing mailbox."""
        if name in self.mailboxes:
            raise KernelError(f"mailbox {name} already exists")
        mbox = Mailbox(name, capacity, max_message_size)
        self.mailboxes[name] = mbox
        return mbox

    def create_channel(self, name: str, slots: int = 4) -> StateChannel:
        """Create a lock-free state-message channel with N slots."""
        if name in self.channels:
            raise KernelError(f"channel {name} already exists")
        channel = StateChannel(name, slots)
        self.channels[name] = channel
        return channel

    def create_shared_memory(self, name: str, size: int) -> SharedMemory:
        """Allocate a shared-memory object mappable into processes."""
        if name in self.shared_memory:
            raise KernelError(f"shared memory {name} already exists")
        shm = SharedMemory(name, size, self.allocator)
        self.shared_memory[name] = shm
        return shm

    def create_timer(
        self,
        name: str,
        interval: int,
        callback: Callable[["Kernel"], None],
        periodic: bool = False,
    ) -> Timer:
        """Create a software timer (start it with ``timer.start()``)."""
        if name in self.timers:
            raise KernelError(f"timer {name} already exists")
        timer = Timer(self, name, interval, callback, periodic=periodic)
        self.timers[name] = timer
        return timer

    # ------------------------------------------------------------------
    # thread state transitions
    # ------------------------------------------------------------------
    def block_thread(self, thread: Thread, kind: str, on=None) -> None:
        """Block a thread in a ``kind`` wait on ``on``, charging ``t_b``
        (Section 5.1)."""
        if thread.wait_kind is not None:
            raise KernelError(f"{thread.name} is already blocked")
        thread.wait_kind = kind
        thread.wait_on = on
        cost = self.scheduler.on_block(thread)
        self.charge(cost, "sched")
        obs = self.obs
        if obs is not None:
            if kind == "sem":
                obs.on_sem_wait(on.name, len(on.donor_threads()))
            sem = on.name if kind in ("sem", "sem-registry") else None
            obs.on_block(thread.name, sem, self.clock.now)
        self._need_resched = True

    def requeue_thread(self, thread: Thread, kind: str, sem) -> None:
        """Move a waiting thread into a wait of ``kind`` on semaphore
        ``sem``: a hint park, or a condvar waiter moved onto its mutex."""
        thread.wait_kind = kind
        thread.wait_on = sem
        obs = self.obs
        if obs is not None:
            obs.on_sem_wait(sem.name, len(sem.donor_threads()))
            obs.on_block(thread.name, sem.name, self.clock.now)

    def unblock_thread(self, thread: Thread) -> None:
        """Make a waiting thread ready, charging ``t_u`` and ``t_s``."""
        kind = thread.wait_kind
        if kind == "dead":
            return
        if kind is None:
            raise KernelError(f"{thread.name} is not blocked")
        if thread.suspended:
            # Deferred wake-up: the thread becomes runnable at resume.
            thread.wait_kind = "suspended"
            thread.wait_on = None
            return
        thread.wait_kind = None
        thread.wait_on = None
        cost = self.scheduler.on_unblock(thread)
        self.charge(cost, "sched")
        obs = self.obs
        if obs is not None:
            obs.on_unblock(thread.name, self.clock.now)
        # The paper's model: the scheduler is invoked on every unblock.
        self._dispatch()

    def deliver_unblock(self, thread: Thread) -> None:
        """Unblock path with the Section 6.2 hint check.

        If the thread's suspended blocking call carried a semaphore
        hint and that semaphore is locked, the thread is parked on the
        semaphore instead of waking (context switch C2 eliminated).
        """
        hint = thread.pending_hint
        thread.pending_hint = None
        if hint is not None:
            sem = self.semaphores.get(hint)
            if sem is not None and hasattr(sem, "on_hint_unblock"):
                if sem.on_hint_unblock(self, thread):
                    self.requeue_thread(thread, "sem-parked", sem)
                    return
        self.unblock_thread(thread)

    def activate(self, thread_name: str, at: Optional[int] = None) -> bool:
        """Activate an aperiodic thread (from an ISR or another thread).

        Returns False when the activation was rejected by the sporadic
        admission guard (an arrival sooner than the thread's declared
        minimum inter-arrival time -- the assumption every response-time
        guarantee for sporadic work rests on).
        """
        thread = self.threads[thread_name]
        if thread.periodic:
            raise KernelError(f"{thread.name} is periodic; it releases itself")
        if at is not None and at > self.now:
            self.schedule_event(at, lambda: self.activate(thread_name))
            return True
        if thread.dead:
            return False
        if thread.restart_until is not None:
            if self.now < thread.restart_until:
                self.trace.note(self.now, "activation-skipped-backoff", thread.name)
                return False
            thread.restart_until = None
        if (
            thread.min_interarrival is not None
            and thread.last_activation is not None
            and self.now - thread.last_activation < thread.min_interarrival
        ):
            self.trace.note(self.now, "sporadic-rejected", thread.name)
            return False
        thread.last_activation = self.now
        if thread.wait_kind == "activation":
            self._start_job(thread, self.now)
            self.deliver_unblock(thread)
        else:
            thread.pending_releases += 1
            self.trace.note(self.now, "activation-queued", thread.name)
        return True

    # ------------------------------------------------------------------
    # thread management (suspend / resume / kill)
    # ------------------------------------------------------------------
    def suspend_thread(self, name: str) -> None:
        """Take a thread out of scheduling until :meth:`resume_thread`.

        A suspended thread keeps its program state; wake-ups (event
        signals, releases) that arrive meanwhile are deferred, not
        lost: the thread becomes runnable again at resume.
        """
        thread = self.threads[name]
        if thread.dead:
            raise KernelError(f"{name} is dead")
        if thread.suspended:
            raise KernelError(f"{name} is already suspended")
        thread.suspended = True
        if thread.wait_kind is None:
            self.block_thread(thread, "suspended")
            self.trace.note(self.now, "suspend", name)
            self._dispatch_if_needed()
        else:
            self.trace.note(self.now, "suspend", name)

    def resume_thread(self, name: str) -> None:
        """Make a suspended thread schedulable again."""
        thread = self.threads[name]
        if not thread.suspended:
            raise KernelError(f"{name} is not suspended")
        thread.suspended = False
        self.trace.note(self.now, "resume", name)
        if thread.wait_kind == "suspended":
            # It was runnable when suspended (or a wake-up arrived
            # while suspended): back onto the ready queue.
            self.unblock_thread(thread)
        # Otherwise it is still genuinely blocked (semaphore, event...)
        # and will wake through the normal path.

    def kill_thread(self, name: str) -> None:
        """Remove a thread permanently.

        Refused while the thread holds any semaphore (killing a lock
        holder would strand its critical section -- the kernel reports
        the error instead, like any self-respecting RTOS).
        """
        thread = self.threads[name]
        if thread.dead:
            raise KernelError(f"{name} is already dead")
        if thread.held_sems:
            raise KernelError(
                f"cannot kill {name}: it holds {sorted(thread.held_sems)}"
            )
        self._detach_from_waits(thread)
        if thread.release_event is not None:
            thread.release_event.cancel()
        if thread.ready:
            self.scheduler.on_block(thread)
        self.scheduler.remove_task(thread)
        thread.wait_kind = "dead"
        thread.wait_on = None
        self.trace.note(self.now, "kill", name)
        if self.running is thread:
            self.running = None
        self._need_resched = True
        self._dispatch_if_needed()

    def _detach_from_waits(self, thread: Thread) -> None:
        """Take a thread off the one queue its wait record names (a
        sleeper's wake event is cancelled), and off any Section 6.3.1
        registry (a woken thread can be on one without waiting).  A lock
        waiter no longer donates, so every holder down the chain from
        its semaphore re-derives its priority."""
        kind = thread.wait_kind
        on = thread.wait_on
        if kind == "sleep":
            on.cancel()
        queue = _WAIT_QUEUES.get(kind)
        if queue is not None:
            attr, unqueue = queue
            unqueue(getattr(on, attr), thread)
            if kind in LOCK_WAITS:
                on._disinherit_chain(self)
        for sem in self.semaphores.values():
            registry = getattr(sem, "registry", None)
            if registry is not None and thread in registry:
                registry.remove(thread)

    def _release_held(self, thread: Thread) -> None:
        """Release every semaphore a dying/aborting thread holds, so
        its demise cannot strand a critical section."""
        for sem_name in list(thread.held_sems):
            self.semaphores[sem_name].release(self, thread)

    # ------------------------------------------------------------------
    # overload protection: budgets, miss handlers, crash/restart
    # ------------------------------------------------------------------
    BUDGET_ACTIONS = ("warn", "suspend_job", "kill", "restart")

    def set_budget(
        self, name: str, budget_ns: int, action: str = "suspend_job"
    ) -> None:
        """Give a thread a per-job execution-time budget.

        The budget counts preemptible execution (``Compute`` and timed
        ``StateRead`` copies) of the current job.  When it exhausts,
        ``action`` runs *at the exhaustion instant*:

        * ``warn`` -- trace a ``budget-overrun`` note, keep running;
        * ``suspend_job`` -- abandon the rest of the job (held
          semaphores are released); the thread waits for its next
          release, so one runaway job cannot starve other tasks;
        * ``kill`` -- remove the thread permanently;
        * ``restart`` -- abandon the job and apply the thread's
          restart policy (see :meth:`set_restart_policy`).
        """
        thread = self.threads[name]
        if budget_ns <= 0:
            raise KernelError(f"{name}: budget must be positive (got {budget_ns})")
        if action not in self.BUDGET_ACTIONS:
            raise KernelError(
                f"{name}: unknown budget action {action!r} "
                f"(expected one of {self.BUDGET_ACTIONS})"
            )
        thread.budget_ns = budget_ns
        thread.budget_action = action

    def set_restart_policy(
        self, name: str, max_restarts: int, backoff_ns: int = 0
    ) -> None:
        """Allow a crashed (or budget-restarted) thread to come back.

        At most ``max_restarts`` restarts are granted; each applies an
        exponentially growing release back-off (``backoff_ns``,
        ``2*backoff_ns``, ``4*backoff_ns``...).  Once the bound is
        exhausted the next crash kills the thread for good.
        """
        thread = self.threads[name]
        if max_restarts < 0:
            raise KernelError(f"{name}: max_restarts must be non-negative")
        if backoff_ns < 0:
            raise KernelError(f"{name}: backoff must be non-negative")
        thread.max_restarts = max_restarts
        thread.restart_backoff_ns = backoff_ns

    def on_deadline_miss(
        self, name: str, handler: Callable[["Kernel", Thread, "object"], None]
    ) -> None:
        """Register ``handler(kernel, thread, job_record)`` to fire at
        the instant a job of ``name`` misses its deadline.

        Unlike post-hoc trace queries, the handler runs *at miss time*
        on the virtual timeline, so it can shed load, raise an alarm
        thread, or crash-and-restart the offender while the overload
        is still in progress.
        """
        thread = self.threads[name]
        if thread.relative_deadline is None:
            raise KernelError(f"{name} has no deadline to miss")
        self._miss_handlers[name] = handler

    def crash_thread(self, name: str, reason: str = "fault") -> None:
        """Simulate the thread dying mid-job (fault injection).

        Held semaphores are released (the kernel survives its
        applications).  With a restart policy the thread loses its
        current job and backlog, serves its back-off, and resumes on a
        later release; without one -- or once the restart bound is
        exhausted -- it is killed permanently.
        """
        thread = self.threads[name]
        if thread.dead:
            return
        self.trace.note(self.now, "crash", f"{name}: {reason}")
        self._release_held(thread)
        self._restart_or_kill(thread)

    def _restart_or_kill(self, thread: Thread) -> None:
        """Bounded restart of a crashed thread: drop the in-flight job
        and backlog, then rejoin the release stream after an exponential
        back-off; once no restart is left, kill it."""
        limit = thread.max_restarts
        if limit is None or thread.restart_count >= limit:
            if limit is not None:
                self.trace.note(self.now, "restart-exhausted", thread.name)
            self.kill_thread(thread.name)
            return
        thread.restart_count += 1
        backoff = thread.restart_backoff_ns * (2 ** (thread.restart_count - 1))
        self.trace.job_aborted(thread.name, thread.job_no, self.now)
        self._detach_from_waits(thread)
        if thread.ready:
            cost = self.scheduler.on_block(thread)
            self.charge(cost, "sched")
        thread.wait_kind = "period" if thread.spec is not None else "activation"
        thread.wait_on = None
        thread.pending_releases = 0
        thread.abs_deadline = None
        thread.rank_cache = None
        thread.op_started = False
        thread.read_token = None
        thread.pending_hint = thread.period_hint
        thread.restart_until = self.now + backoff
        self.trace.note(
            self.now,
            "restart",
            f"{thread.name} #{thread.restart_count} backoff={backoff}",
        )
        if self.running is thread:
            self.running = None
        self._need_resched = True
        self._dispatch_if_needed()

    def _budget_exhausted(self, thread: Thread) -> bool:
        return (
            thread.budget_ns is not None
            and not thread.budget_fired
            and thread.job_exec_ns >= thread.budget_ns
        )

    def _enforce_budget(self, thread: Thread) -> bool:
        """Run the thread's budget action; True when the current job is
        gone (the caller must stop stepping the thread)."""
        thread.budget_fired = True
        action = thread.budget_action
        self.trace.note(
            self.now,
            "budget-overrun",
            f"{thread.name} job {thread.job_no} action={action}",
        )
        if action == "warn":
            return False
        self._release_held(thread)
        if action == "kill":
            self.kill_thread(thread.name)
        elif action == "restart":
            self._restart_or_kill(thread)
        else:  # suspend_job
            self._abort_job(thread)
            self._dispatch_if_needed()
        return True

    def _abort_job(self, thread: Thread) -> None:
        """Abandon the current job: close its record (no completion),
        then retire the thread exactly like a completion would."""
        self.trace.job_aborted(thread.name, thread.job_no, self.now)
        thread.op_started = False
        thread.read_token = None
        self._retire_job(thread)

    # ------------------------------------------------------------------
    # periodic releases
    # ------------------------------------------------------------------
    def _schedule_release(
        self, thread: Thread, nominal: int, action: Callable[[], None]
    ) -> None:
        """Enqueue the release nominally due at ``nominal``.  The event
        and its nominal time live on the thread, so the action needs no
        per-job closure and ``kill_thread`` can cancel the event."""
        now = self.clock.now
        thread.release_nominal = nominal
        thread.release_event = self.events.schedule(
            nominal if nominal > now else now, action, thread.release_label
        )

    def _on_release(self, thread: Thread) -> None:
        assert thread.spec is not None
        if thread.wait_kind == "dead":
            return
        nominal = thread.release_nominal
        self._schedule_release(
            thread, nominal + thread.spec.period, thread.release_event.action
        )
        if thread.restart_until is not None:
            if self.now < thread.restart_until:
                self.trace.note(self.now, "release-skipped-backoff", thread.name)
                return
            thread.restart_until = None
        if not self._admits_all and not self.scheduler.admit_release(
            thread, self.clock.now
        ):
            self.trace.note(self.clock.now, "release-shed", thread.name)
            return
        if thread.wait_kind == "period":
            self._start_job(thread, nominal)
            hint = thread.period_hint
            if hint is not None or thread.suspended:
                thread.pending_hint = hint
                self.deliver_unblock(thread)
                return
            # Common case (no parser hint, not suspended) inlined:
            # deliver_unblock -> unblock_thread -> on_unblock -> charge
            # is four frames deep, and periodic releases pay it on
            # every job.  Must mirror those methods exactly (a thread
            # between jobs has a wait record that names no object).
            thread.pending_hint = None
            thread.wait_kind = None
            sched = self.scheduler
            cost = sched._unblock(thread)
            stats = sched.stats
            stats.unblocks += 1
            stats.charged_unblock_ns += cost
            if cost > 0:
                clock = self.clock
                start = clock.now
                clock.now = start + cost
                trace = self.trace
                kernel_time = trace.kernel_time
                kernel_time["sched"] = kernel_time.get("sched", 0) + cost
                if trace.record_segments:
                    trace.add_segment(start, start + cost, KERNEL)
            self._dispatch()
        else:
            thread.pending_releases += 1
            self.trace.note(self.now, "release-overrun", thread.name)
            if self.stop_on_deadline_miss:
                self._stop = True

    def _start_job(self, thread: Thread, release: int) -> None:
        """Start the thread's next job, released at ``release``: reset
        its program state, open the job's record and arm its deadline
        check.  Every job starts here; the TCB fields are reset inline,
        because this runs once per job."""
        thread.job_no += 1
        thread.release_time = release
        thread.pc = 0
        thread.remaining = 0
        thread.op_started = False
        thread.read_token = None
        thread.job_exec_ns = 0
        thread.budget_fired = False
        relative = thread.relative_deadline
        deadline = None if relative is None else release + relative
        thread.abs_deadline = deadline
        thread.rank_cache = None
        record = self.trace.job_released(thread.name, release, deadline, thread.job_no)
        if self._miss_handlers or self.stop_on_deadline_miss:
            self._arm_deadline_check(thread, record)

    def _arm_deadline_check(self, thread: Thread, record) -> None:
        """Schedule a check *at the deadline instant* of the job just
        released.  At that instant an incomplete job is a miss: the
        trace gets a ``deadline-miss-detected`` note, the registered
        handler (if any) fires, and ``stop_on_deadline_miss`` aborts
        the run -- detection happens on the timeline, not post-hoc."""
        handler = self._miss_handlers.get(thread.name)
        if record.deadline is None or (
            handler is None and not self.stop_on_deadline_miss
        ):
            return
        job = thread.job_no

        def check() -> None:
            if record.completion is not None:
                return
            thread.miss_count += 1
            self.trace.note(
                self.now, "deadline-miss-detected", f"{thread.name} job {job}"
            )
            if self.stop_on_deadline_miss:
                self.trace.note(self.now, "deadline-overrun", thread.name)
                self._stop = True
            if handler is not None:
                handler(self, thread, record)

        self.schedule_event(record.deadline, check, f"dl:{thread.name}")

    def _complete_job(self, thread: Thread) -> None:
        record = self.trace.job_completed(
            thread.name, thread.job_no, self.clock.now
        )
        if (
            self.stop_on_deadline_miss
            and record is not None
            and record.missed
        ):
            self._stop = True
        self._retire_job(thread)

    def _retire_job(self, thread: Thread) -> None:
        """Shared tail of job completion and abort: start a queued
        release immediately, or park the thread until the next one."""
        if thread.pending_releases > 0:
            thread.pending_releases -= 1
            if thread.spec is not None:
                nominal = thread.release_time + thread.spec.period
            else:
                nominal = self.now
            self._start_job(thread, nominal)
            return  # stays ready; next job starts immediately
        # The thread ran, so its record names no object.
        thread.wait_kind = "period" if thread.spec is not None else "activation"
        thread.abs_deadline = None
        thread.rank_cache = None
        # Inlined scheduler.on_block + charge (this runs once per job).
        sched = self.scheduler
        cost = sched._block(thread)
        stats = sched.stats
        stats.blocks += 1
        stats.charged_block_ns += cost
        if cost > 0:
            clock = self.clock
            start = clock.now
            clock.now = start + cost
            trace = self.trace
            kernel_time = trace.kernel_time
            kernel_time["sched"] = kernel_time.get("sched", 0) + cost
            if trace.record_segments:
                trace.add_segment(start, start + cost, KERNEL)
        thread.pending_hint = thread.period_hint
        self._need_resched = True

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Run the scheduler (charging ``t_s``) and switch if needed."""
        self._need_resched = False
        # Inlined scheduler.select() (the stats wrapper): one frame per
        # dispatch, and _dispatch runs twice per job.
        sched = self.scheduler
        selected, cost = sched._select()
        stats = sched.stats
        stats.selects += 1
        stats.charged_select_ns += cost
        if cost > 0:
            # Inlined self.charge(cost, "sched"): one call frame per
            # dispatch is real money at this call rate.
            clock = self.clock
            start = clock.now
            end = start + cost
            clock.now = end
            trace = self.trace
            kernel_time = trace.kernel_time
            kernel_time["sched"] = kernel_time.get("sched", 0) + cost
            if trace.record_segments:
                trace.add_segment(start, end, KERNEL)
        new = selected if isinstance(selected, Thread) else None
        if new is self.running:
            return
        old = self.running
        cs = self.model.context_switch_ns
        if cs > 0:
            clock = self.clock
            start = clock.now
            clock.now = start + cs
            trace = self.trace
            kernel_time = trace.kernel_time
            kernel_time["context-switch"] = (
                kernel_time.get("context-switch", 0) + cs
            )
            if trace.record_segments:
                trace.add_segment(start, start + cs, KERNEL)
        # The switched-out thread was preempted when it waits for nothing.
        preempted = old is not None and old.wait_kind is None
        self.running = new
        self.trace.context_switch(
            self.clock.now, old.name if old else None, new.name if new else None
        )
        obs = self.obs
        if obs is not None:
            # The collector's per-switch counters, bumped inline: a
            # method call per context switch costs several percent of
            # throughput, plain adds stay under the obs budget.  The
            # switch itself is counted once, by the trace.
            depth = self.events._live
            obs.queue_depth_sum += depth
            if depth > obs.queue_depth_max:
                obs.queue_depth_max = depth
            if new is not None:
                new.obs_dispatches += 1
            if preempted:
                old.obs_preemptions += 1

    def _dispatch_if_needed(self) -> None:
        if self._need_resched:
            self._dispatch()

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run_until(self, t_end: int) -> Trace:
        """Advance virtual time to ``t_end`` (ns), executing threads."""
        if t_end < self.now:
            raise ValueError("cannot run into the past")
        self._stop = False
        # The loop below is the simulator's hottest code: bind the
        # pieces it touches every iteration to locals once, and inline
        # the event drain (one pop_due call per iteration instead of a
        # drain call plus a pop_due call).
        clock = self.clock
        events = self.events
        trace = self.trace
        pop_due = events.pop_due
        step = self._step_running
        popped = 0
        try:
            while not self._stop:
                while True:
                    # Fast peek before paying the pop_due call: most
                    # rounds find nothing due.  Re-read _heap and the
                    # clock each round (compaction rebinds the heap;
                    # firing an action charges kernel time, making
                    # further events due).  A cancelled head passes the
                    # peek; pop_due trims it and settles the question.
                    heap = events._heap
                    if not heap or heap[0][0] > clock.now:
                        break
                    event = pop_due(clock.now)
                    if event is None:
                        break
                    popped += 1
                    event.action()
                if self._need_resched:
                    self._dispatch()
                if clock.now >= t_end:
                    break
                if self.running is None:
                    # Coalesce the whole idle gap into one clock jump:
                    # no thread can become runnable before the next
                    # event.
                    nxt = events.peek_time()
                    if nxt is None or nxt >= t_end:
                        trace.add_segment(clock.now, t_end, IDLE)
                        clock.now = t_end
                        break
                    trace.add_segment(clock.now, nxt, IDLE)
                    clock.now = nxt
                    continue
                step(t_end)
        finally:
            self.events_popped += popped
        return self.trace

    def run_for(self, duration: int) -> Trace:
        """Advance virtual time by ``duration`` ns."""
        return self.run_until(self.now + duration)

    def _step_running(self, t_end: int) -> None:
        thread = self.running
        assert thread is not None
        pc = thread.pc
        if pc >= thread._ops_len:
            self._complete_job(thread)
            if self._need_resched:
                self._dispatch()
            return
        op = thread._ops[pc]
        cls = op.__class__
        if cls is ops.Compute or cls is ops.StateRead:
            self._step_timed(thread, op, t_end)
            return
        try:
            self._execute_op(thread, op)
        except ProtectionFault as fault:
            self._handle_fault(thread, fault)
        if self._need_resched:
            self._dispatch()

    def _handle_fault(self, thread: Thread, fault: "ProtectionFault") -> None:
        """A memory-protection violation terminates the offending
        thread -- the kernel itself survives (the whole point of the
        protection boundary, Section 3).  With ``fault_policy="raise"``
        the fault propagates instead (strict mode for tests/debugging).
        """
        self.trace.note(self.now, "protection-fault", f"{thread.name}: {fault}")
        if self.fault_policy == "raise":
            raise fault
        # Release held locks so the fault cannot deadlock others.
        self._release_held(thread)
        self.kill_thread(thread.name)

    # ------------------------------------------------------------------
    # timed (preemptible) ops: Compute and slot-copying StateRead
    # ------------------------------------------------------------------
    def _step_timed(self, thread: Thread, op, t_end: int) -> None:
        is_state_read = op.__class__ is ops.StateRead
        if not thread.op_started:
            thread.op_started = True
            if is_state_read:
                channel = self._channel(op.channel)
                self.charge(self.model.state_msg_read_ns, "state-msg")
                if op.duration == 0:
                    thread.last_read = channel.read()
                    self._finish_op(thread)
                    return
                thread.read_token = channel.begin_read()
                thread.remaining = op.duration
            else:
                thread.remaining = op.duration
                if self.fault_injector is not None:
                    extra = self.fault_injector.compute_extra(thread)
                    if extra > 0:
                        thread.remaining += extra
                        self.trace.note(
                            self.now, "fault-wcet-overrun", f"{thread.name} +{extra}"
                        )
                if thread.remaining == 0:
                    self._finish_op(thread)
                    return
        if (
            thread.budget_ns is not None
            and self._budget_exhausted(thread)
            and self._enforce_budget(thread)
        ):
            return  # the job is gone; do not step the dead op
        clock = self.clock
        now = clock.now
        # Inlined self.events.peek_time() fast path; fall back to the
        # real method when the heap head is a cancelled entry (its time
        # could be earlier than the true next event's).
        heap = self.events._heap
        if heap:
            head = heap[0]
            horizon = head[0] if not head[2].cancelled else self.events.peek_time()
        else:
            horizon = None
        limit = t_end if horizon is None or horizon > t_end else horizon
        if thread.budget_ns is not None and not thread.budget_fired:
            # Stop exactly at budget exhaustion, even with no event due.
            budget_limit = now + thread.budget_ns - thread.job_exec_ns
            if budget_limit < limit:
                limit = budget_limit
        if limit <= now:
            return  # an event is due; the main loop drains it first
        run = limit - now
        remaining = thread.remaining
        if remaining < run:
            run = remaining
        end = now + run
        clock.now = end
        trace = self.trace
        if trace.record_segments:
            trace.add_segment(now, end, thread.name)
        thread.remaining = remaining - run
        thread.job_exec_ns += run
        if thread.remaining > 0:
            if thread.budget_ns is not None and self._budget_exhausted(thread):
                self._enforce_budget(thread)
            return
        if is_state_read:
            channel = self._channel(op.channel)
            try:
                thread.last_read = channel.end_read(thread.read_token)
            except TornRead:
                # Retry the copy from the (new) latest slot.
                self.trace.note(self.now, "torn-read", f"{thread.name}@{op.channel}")
                thread.read_token = channel.begin_read()
                thread.remaining = op.duration
                return
            thread.read_token = None
        # Inlined self._finish_op(thread); remaining is already 0 here.
        thread.pc += 1
        thread.op_started = False

    def _finish_op(self, thread: Thread) -> None:
        thread.pc += 1
        thread.op_started = False
        thread.remaining = 0

    # ------------------------------------------------------------------
    # kernel op interpreter
    # ------------------------------------------------------------------
    def _execute_op(self, thread: Thread, op) -> None:
        handler = self._op_handlers.get(op.__class__)
        if handler is None:
            raise KernelError(f"unknown op {op!r}")
        handler(thread, op)

    def _op_acquire(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._semaphore(op.sem).acquire(self, thread)
        self._finish_op(thread)

    def _op_release(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._semaphore(op.sem).release(self, thread)
        self._finish_op(thread)

    def _op_wait(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._event(op.event).wait(self, thread, hint=op.hint)
        self._finish_op(thread)

    def _op_signal(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._event(op.event).signal(self)
        self._finish_op(thread)

    def _op_send(self, thread: Thread, op) -> None:
        self._charge_syscall()
        done = self._mailbox(op.mailbox).send(
            self, thread, op.payload, op.size, buffer=op.buffer
        )
        if done:
            self._finish_op(thread)
        # else: the op re-executes when a slot frees up

    def _op_recv(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._mailbox(op.mailbox).recv(self, thread, buffer=op.buffer, hint=op.hint)
        self._finish_op(thread)

    def _op_cv_wait(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._condvar(op.condvar).wait(self, thread, op.mutex)
        self._finish_op(thread)

    def _op_cv_signal(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._condvar(op.condvar).signal(self, thread)
        self._finish_op(thread)

    def _op_cv_broadcast(self, thread: Thread, op) -> None:
        self._charge_syscall()
        self._condvar(op.condvar).broadcast(self, thread)
        self._finish_op(thread)

    def _op_state_write(self, thread: Thread, op) -> None:
        # User-level: no kernel trap, only the slot write cost.
        self.charge(self.model.state_msg_write_ns, "state-msg")
        self._channel(op.channel).write(op.value, writer_name=thread.name)
        self._finish_op(thread)

    def _op_sleep(self, thread: Thread, op) -> None:
        self._charge_syscall()
        thread.pending_hint = op.hint
        wake = self.schedule_event(
            self.now + op.duration,
            partial(self.deliver_unblock, thread),
            f"wake:{thread.name}",
        )
        self.block_thread(thread, "sleep", wake)
        self._finish_op(thread)

    def _op_call(self, thread: Thread, op) -> None:
        self._charge_syscall()
        op.fn(self, thread)
        self._finish_op(thread)

    def _charge_syscall(self) -> None:
        self.syscall_count += 1
        self.charge(self.model.syscall_ns, "syscall")

    # ------------------------------------------------------------------
    # registry lookups
    # ------------------------------------------------------------------
    def _semaphore(self, name: str) -> StandardSemaphore:
        if name not in self.semaphores:
            raise KernelError(f"unknown semaphore {name}")
        return self.semaphores[name]

    def _event(self, name: str) -> KernelEvent:
        if name not in self.events_by_name:
            raise KernelError(f"unknown event {name}")
        return self.events_by_name[name]

    def _mailbox(self, name: str) -> Mailbox:
        if name not in self.mailboxes:
            raise KernelError(f"unknown mailbox {name}")
        return self.mailboxes[name]

    def _condvar(self, name: str) -> ConditionVariable:
        if name not in self.condvars:
            raise KernelError(f"unknown condvar {name}")
        return self.condvars[name]

    def _channel(self, name: str) -> StateChannel:
        if name not in self.channels:
            raise KernelError(f"unknown channel {name}")
        return self.channels[name]
