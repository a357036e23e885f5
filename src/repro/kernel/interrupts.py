"""Interrupt controller, ISRs, and user-level device driver support.

EMERALDS provides "highly optimized context switching and interrupt
handling" and "kernel support for user-level device drivers"
(Section 3).  The paper treats interrupt/timer overhead as dictated by
hardware, so our model charges a fixed entry cost per interrupt and
runs a short kernel-resident first-level handler; the bulk of driver
work happens in user threads that block on per-vector interrupt
events -- the user-level driver pattern of Figure 1.

Interrupts preempt application code but not kernel code: the
discrete-event engine delivers interrupts that arrive while the kernel
is charging time at the next dispatch point, which is exactly how a
kernel running with interrupts masked behaves.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

__all__ = ["InterruptController"]

#: First-level handler: runs in kernel context at interrupt time.
Handler = Callable[["Kernel", int], None]


class InterruptController:
    """Vector table plus dispatch statistics."""

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._handlers: Dict[int, Handler] = {}
        self._masked: Dict[int, bool] = {}
        # Per vector: ``(fire action, event label, note detail)``, built
        # on the vector's first interrupt instead of on every one.
        self._vectors: Dict[int, Tuple[Callable[[], None], str, str]] = {}
        self.dropped_masked = 0

    def register(self, vector: int, handler: Handler) -> None:
        """Install a first-level interrupt handler."""
        if vector < 0:
            raise ValueError("interrupt vector must be non-negative")
        self._handlers[vector] = handler
        self._masked.setdefault(vector, False)

    def register_event_handler(self, vector: int, event_name: str) -> None:
        """Install the user-level-driver pattern: the first-level
        handler just signals a kernel event that a driver thread waits
        on."""
        kernel = self._kernel
        if event_name not in kernel.events_by_name:
            kernel.create_event(event_name)

        def handler(k: "Kernel", _vector: int) -> None:
            k.events_by_name[event_name].signal(k)

        self.register(vector, handler)

    def mask(self, vector: int) -> None:
        """Disable delivery for a vector (interrupts are dropped)."""
        self._masked[vector] = True

    def unmask(self, vector: int) -> None:
        """Re-enable delivery for a vector."""
        self._masked[vector] = False

    def raise_interrupt(self, vector: int, at: Optional[int] = None) -> None:
        """Deliver (or schedule) an interrupt on ``vector``.

        With ``at=None`` the interrupt is queued for the current
        instant; otherwise it fires at the given virtual time.
        """
        kernel = self._kernel
        fire, label, _ = self._vectors.get(vector) or self._vector(vector)
        kernel.schedule_event(kernel.now if at is None else at, fire, label)

    def _vector(self, vector: int) -> Tuple[Callable[[], None], str, str]:
        """Build ``vector``'s fire action, event label and note detail."""
        entry = self._vectors[vector] = (
            partial(self._dispatch, vector), f"irq{vector}", f"vector {vector}"
        )
        return entry

    def _dispatch(self, vector: int) -> None:
        kernel = self._kernel
        detail = (self._vectors.get(vector) or self._vector(vector))[2]
        if self._masked.get(vector, False):
            self.dropped_masked += 1
            kernel.trace.note(kernel.now, "irq-masked", detail)
            return
        handler = self._handlers.get(vector)
        kernel.charge(kernel.model.interrupt_entry_ns, "interrupt")
        kernel.trace.note(kernel.now, "irq", detail)
        if handler is not None:
            handler(kernel, vector)
        kernel.request_reschedule()
