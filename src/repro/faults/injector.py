"""Arming a :class:`~repro.faults.plan.FaultPlan` against a kernel.

The injector is the single point of coupling between the fault
subsystem and the rest of the simulator.  ``install()`` walks the plan
once and schedules each fault on the kernel's discrete-event timeline
(crashes, spurious interrupts, mask windows, jitter) or parks it on a
pending list consumed by the two in-line hooks:

* ``kernel.fault_injector.compute_extra(thread)`` -- consulted by the
  kernel when a ``Compute`` op starts, inflating its duration by any
  pending WCET-overrun faults for that thread;
* ``bus.fault_hook(start, frame)`` -- consulted by the fieldbus when a
  frame wins arbitration, returning ``"ok"``/``"drop"``/``"corrupt"``.

Everything is driven by the plan's virtual-time stamps, so the same
``(workload, plan)`` pair replays to byte-identical traces.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.faults.plan import Fault, FaultPlan

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread
    from repro.net.fieldbus import Fieldbus
    from repro.net.frame import Frame

__all__ = ["FaultInjector"]


class FaultInjector:
    """Replays a fault plan against one kernel (and optionally one bus)."""

    def __init__(
        self,
        kernel: "Kernel",
        plan: FaultPlan,
        bus: Optional["Fieldbus"] = None,
    ):
        self.kernel = kernel
        self.plan = plan
        self.bus = bus
        #: Faults actually injected, by kind (a planned fault may be
        #: moot: a crash for an already-dead thread, an overrun for a
        #: thread that never computes again, a frame fault after the
        #: last transmission).
        self.injected: Dict[str, int] = {}
        self._installed = False
        # wcet_overrun faults pending per thread, consumed by
        # compute_extra in time order.
        self._overruns: Dict[str, Deque[Fault]] = {}
        # frame faults pending, consumed by the bus hook in time order.
        self._frame_faults: List[Fault] = []

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Hook the plan into the kernel's timeline.  Idempotent-unsafe:
        call exactly once, before ``run_until``."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        self.kernel.fault_injector = self
        for fault in self.plan:
            self._arm(fault)
        if self._frame_faults:
            if self.bus is None:
                raise ValueError(
                    "plan contains frame faults but no bus was given"
                )
            self._frame_faults.sort(key=lambda f: f.time)
            self.bus.fault_hook = self._frame_verdict
        return self

    def _arm(self, fault: Fault) -> None:
        kernel = self.kernel
        if fault.kind == "wcet_overrun":
            self._overruns.setdefault(fault.target, deque()).append(fault)
        elif fault.kind == "clock_jitter":
            kernel.schedule_event(
                fault.time,
                lambda f=fault: self._inject_jitter(f),
                label="fault:jitter",
            )
        elif fault.kind == "spurious_irq":
            kernel.schedule_event(
                fault.time,
                lambda f=fault: self._inject_spurious(f),
                label="fault:spurious-irq",
            )
        elif fault.kind == "dropped_irq":
            kernel.schedule_event(
                fault.time,
                lambda f=fault: self._inject_mask(f),
                label="fault:dropped-irq",
            )
        elif fault.kind == "crash":
            kernel.schedule_event(
                fault.time,
                lambda f=fault: self._inject_crash(f),
                label="fault:crash",
            )
        elif fault.kind in ("frame_drop", "frame_corrupt"):
            self._frame_faults.append(fault)
        else:  # pragma: no cover - FaultPlan validates kinds
            raise ValueError(f"unknown fault kind {fault.kind!r}")

    # ------------------------------------------------------------------
    # timeline-driven injections
    # ------------------------------------------------------------------
    def _inject_jitter(self, fault: Fault) -> None:
        kernel = self.kernel
        timer = kernel.timers.get(fault.target) if fault.target else None
        if fault.target and timer is None:
            kernel.trace.note(
                kernel.now, "fault-jitter-moot", f"no timer {fault.target}"
            )
            return
        if timer is not None:
            if not timer.armed:
                kernel.trace.note(
                    kernel.now, "fault-jitter-moot", f"{fault.target} not armed"
                )
                return
            timer.delay(fault.magnitude)
            kernel.trace.note(
                kernel.now, "fault-jitter", f"{fault.target} +{fault.magnitude}"
            )
        else:
            # Tick jitter: the CPU loses the time in kernel context.
            kernel.trace.note(kernel.now, "fault-jitter", f"+{fault.magnitude}")
            kernel.charge(fault.magnitude, "fault")
            kernel.request_reschedule()
        self._count("clock_jitter")

    def _inject_spurious(self, fault: Fault) -> None:
        kernel = self.kernel
        kernel.trace.note(
            kernel.now, "fault-spurious-irq", f"vector {fault.target}"
        )
        self._count("spurious_irq")
        kernel.interrupts._dispatch(int(fault.target))

    def _inject_mask(self, fault: Fault) -> None:
        kernel = self.kernel
        vector = int(fault.target)
        kernel.trace.note(
            kernel.now,
            "fault-irq-masked",
            f"vector {vector} for {fault.magnitude}",
        )
        self._count("dropped_irq")
        kernel.interrupts.mask(vector)
        kernel.schedule_event(
            fault.time + fault.magnitude,
            lambda: kernel.interrupts.unmask(vector),
            label="fault:irq-unmask",
        )

    def _inject_crash(self, fault: Fault) -> None:
        kernel = self.kernel
        thread = kernel.threads.get(fault.target)
        if thread is None or thread.dead:
            kernel.trace.note(
                kernel.now, "fault-crash-moot", fault.target or "?"
            )
            return
        self._count("crash")
        kernel.crash_thread(fault.target, reason="injected")

    # ------------------------------------------------------------------
    # pull hooks (kernel / bus consult these)
    # ------------------------------------------------------------------
    def compute_extra(self, thread: "Thread") -> int:
        """Extra ns this thread's starting ``Compute`` op must run.

        Consumes every pending WCET-overrun fault for the thread whose
        stamp is at or before now; their magnitudes add up (two faults
        landing inside one long job both stretch it).
        """
        pending = self._overruns.get(thread.name)
        if not pending:
            return 0
        now = self.kernel.now
        extra = 0
        while pending and pending[0].time <= now:
            extra += pending.popleft().magnitude
            self._count("wcet_overrun")
        return extra

    def _frame_verdict(self, start: int, frame: "Frame") -> str:
        """Bus hook: fate of the frame whose wire time starts at
        ``start``.  The earliest pending frame fault at or before
        ``start`` fires (drop beats corrupt only by plan order)."""
        while self._frame_faults and self._frame_faults[0].time <= start:
            fault = self._frame_faults.pop(0)
            self._count(fault.kind)
            self.kernel.trace.note(
                start,
                f"fault-{fault.kind.replace('_', '-')}",
                f"id={frame.can_id:#x}",
            )
            return "drop" if fault.kind == "frame_drop" else "corrupt"
        return "ok"
