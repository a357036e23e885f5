"""Kernel threads: TCBs binding a program to a schedulable entity.

A thread is the unit of scheduling (EMERALDS threads are
kernel-scheduled, Section 3).  Periodic threads re-execute their
program once per period and carry a deadline per job; aperiodic
threads are activated explicitly (by an interrupt handler or another
thread) and run their program once per activation.

The TCB inherits the scheduler-facing fields from
:class:`~repro.core.queues.Schedulable` (ready flag, priority keys,
deadlines) and adds program state, the wait record that is the
thread's whole lifecycle (DESIGN "Thread wait state"), and the
Section 6 semaphore bookkeeping (held semaphores, the parser-inserted
hint of the blocking call the thread is currently suspended in).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.queues import Schedulable
from repro.core.task import TaskSpec
from repro.kernel.program import Program

if TYPE_CHECKING:
    from repro.kernel.process import Process
    from repro.sim.engine import ScheduledEvent
    from repro.sim.trace import JobRecord

__all__ = ["Thread"]


class Thread(Schedulable):
    """A kernel thread executing a :class:`Program`.

    Args:
        name: Unique thread name.
        program: The body to execute each activation.
        spec: Periodic parameters; ``None`` makes the thread aperiodic
            (activated via :meth:`repro.kernel.kernel.Kernel.activate`).
        process: Owning protection domain (may be ``None`` for
            kernel-test threads that never touch memory).
        priority: Explicit fixed-priority value for aperiodic threads;
            periodic threads derive their RM key from the period.
        relative_deadline: Deadline for aperiodic activations (ns after
            activation); defaults to no deadline.
        fp_policy: Fixed-priority assignment for periodic threads:
            ``"rm"`` (rate-monotonic, the default) or ``"dm"``
            (deadline-monotonic) -- Section 5.3 allows either for the
            FP queue.
    """

    __slots__ = (
        "spec",
        "program",
        "_ops",
        "_ops_len",
        "release_label",
        "release_event",
        "release_nominal",
        "process",
        "pc",
        "remaining",
        "job_no",
        "job",
        "release_time",
        "pending_releases",
        "relative_deadline",
        "wait_kind",
        "wait_on",
        "pending_hint",
        "held_sems",
        "last_received",
        "last_read",
        "obs_dispatches",
        "obs_preemptions",
        "pi_donor_of",
        "op_started",
        "read_token",
        "period_hint",
        "suspended",
        "min_interarrival",
        "last_activation",
        "criticality",
        "budget_ns",
        "budget_action",
        "budget_fired",
        "job_exec_ns",
        "miss_count",
        "max_restarts",
        "restart_backoff_ns",
        "restart_count",
        "restart_until",
    )

    def __init__(
        self,
        name: str,
        program: Program,
        spec: Optional[TaskSpec] = None,
        process: Optional["Process"] = None,
        priority: Optional[int] = None,
        relative_deadline: Optional[int] = None,
        fp_policy: str = "rm",
    ):
        if fp_policy not in ("rm", "dm"):
            raise ValueError(f"thread {name}: unknown fp_policy {fp_policy!r}")
        if spec is not None:
            key_field = spec.period if fp_policy == "rm" else spec.deadline
            base_key = (key_field, name)
        elif priority is not None:
            base_key = (priority, name)
        else:
            raise ValueError(
                f"thread {name}: aperiodic threads need an explicit priority"
            )
        super().__init__(name, base_key)
        self.spec = spec
        self.program = program
        # Programs are immutable; cache the op tuple and its length so
        # the kernel's step finds the current op with two attribute
        # reads, not a __len__/__getitem__ protocol round-trip.
        self._ops = program.ops
        self._ops_len = len(self._ops)
        #: Event label for this thread's periodic releases (built once;
        #: releases are scheduled once per period per thread).
        self.release_label = f"release:{name}"
        #: The pending periodic release event (cancelled on kill); its
        #: action is built once and carried from event to event.
        self.release_event: Optional["ScheduledEvent"] = None
        #: Nominal time of that pending release.
        self.release_nominal = 0
        self.process = process
        if process is not None:
            process.threads.append(self)
        #: Program counter into ``program.ops``.
        self.pc = 0
        #: Remaining nanoseconds of the current Compute op.
        self.remaining = 0
        #: Number of the job currently executing (1-based).
        self.job_no = 0
        #: The current job's trace record while it is open; ``None``
        #: once the kernel has completed or aborted it.
        self.job: Optional["JobRecord"] = None
        #: Nominal release time of the current job.
        self.release_time = 0
        #: Releases that arrived while a previous job was still running.
        self.pending_releases = 0
        if relative_deadline is not None:
            self.relative_deadline: Optional[int] = relative_deadline
        elif spec is not None:
            self.relative_deadline = spec.deadline
        else:
            self.relative_deadline = None
        #: The wait record, the thread's whole lifecycle, written only
        #: by the kernel: the kind of wait and the object waited on, for
        #: the kinds that have one.  ``None`` is runnable; ``period`` or
        #: ``activation`` is between jobs (where a thread starts);
        #: ``dead`` is killed; any other kind is blocked inside a job.
        self.wait_kind: Optional[str] = "period" if spec is not None else "activation"
        self.wait_on: Optional[object] = None
        #: Semaphore hint carried by the blocking call the thread is
        #: suspended in (inserted by the code parser, Section 6.2.1).
        self.pending_hint: Optional[str] = None
        #: Semaphores currently held (acquisition order).
        self.held_sems: List[str] = []
        #: Payload of the last completed Recv.
        self.last_received: Optional[object] = None
        #: Value of the last completed StateRead.
        self.last_read: Optional[object] = None
        #: Dispatch/preemption tallies, bumped by the dispatcher only
        #: while an observability collector is attached (TCB integer
        #: adds are the cheapest place to count per-task switches).
        self.obs_dispatches = 0
        self.obs_preemptions = 0
        #: Name of the thread currently acting as this thread's PI
        #: place-holder, if any (EMERALDS O(1) PI, Section 6.2).
        self.pi_donor_of: Optional[str] = None
        #: True when the current op began executing (multi-phase ops
        #: such as timed StateReads).
        self.op_started = False
        #: In-progress state-message read token.
        self.read_token: Optional[object] = None
        #: Semaphore hint for the implicit period-boundary block (the
        #: parser sets this when the body's first blocking-relevant op
        #: is an Acquire).
        self.period_hint: Optional[str] = None
        #: Suspended by ``Kernel.suspend_thread``; wake-ups are
        #: deferred until resume.
        self.suspended = False
        #: Sporadic minimum inter-arrival time for aperiodic threads
        #: (ns); activations arriving sooner are rejected.
        self.min_interarrival: Optional[int] = None
        #: Time of the last accepted activation.
        self.last_activation: Optional[int] = None
        #: Overload-shedding rank (higher = more critical; releases of
        #: the least critical tasks go first when a CSD band overruns).
        self.criticality = 0
        #: Per-job execution-time budget (ns); ``None`` = unlimited.
        self.budget_ns: Optional[int] = None
        #: Enforcement action when the budget exhausts
        #: ("warn", "suspend_job", "kill", or "restart").
        self.budget_action = "warn"
        #: The budget already fired for the current job (warn once).
        self.budget_fired = False
        #: Execution time consumed by the current job (ns).
        self.job_exec_ns = 0
        #: Deadline misses detected at miss time (armed checks; the
        #: trace's job records cannot say when a miss was noticed).
        self.miss_count = 0
        #: Restart policy: ``None`` means a crash kills the thread for
        #: good; an integer bounds how many restarts are granted.
        self.max_restarts: Optional[int] = None
        #: Base back-off delay between restarts (doubles each time).
        self.restart_backoff_ns = 0
        #: Restarts consumed so far.
        self.restart_count = 0
        #: Releases before this time are skipped (restart back-off).
        self.restart_until: Optional[int] = None

    @property
    def blocked_on(self) -> Optional[str]:
        """The wait record as a label (``"sem:mtx"``, ``"period"``, ...);
        a sleep's object, its wake event, has no name in the label."""
        kind = self.wait_kind
        on = self.wait_on
        return kind if on is None or kind == "sleep" else f"{kind}:{on.name}"

    @property
    def dead(self) -> bool:
        """Killed by ``Kernel.kill_thread``; never scheduled again."""
        return self.wait_kind == "dead"

    @property
    def periodic(self) -> bool:
        return self.spec is not None

    @property
    def period(self) -> Optional[int]:
        return self.spec.period if self.spec is not None else None

    def __repr__(self) -> str:
        return (
            f"<Thread {self.name} {self.blocked_on or 'runnable'} pc={self.pc} "
            f"job={self.job_no}>"
        )
