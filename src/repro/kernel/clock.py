"""Clock services and software timers (Section 3, Figure 1).

The on-chip timer of the paper's targets (e.g. the 68332's TPU) is
modelled by the virtual clock; this module provides the kernel-level
services built on it: one-shot and periodic software timers whose
callbacks run in kernel context, and the time-of-day syscall.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel
    from repro.sim.engine import ScheduledEvent

__all__ = ["Timer"]


class Timer:
    """A software timer: fires a callback after ``interval`` ns.

    Periodic timers re-arm themselves after each firing.  Callbacks run
    in kernel context (they may signal events, activate threads, or
    raise interrupts, but must not block).
    """

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        interval: int,
        callback: Callable[["Kernel"], None],
        periodic: bool = False,
    ):
        if interval <= 0:
            raise ValueError("timer interval must be positive")
        self._kernel = kernel
        self.name = name
        self.interval = interval
        self.callback = callback
        self.periodic = periodic
        self._armed: Optional["ScheduledEvent"] = None

    @property
    def armed(self) -> bool:
        return self._armed is not None and not self._armed.cancelled

    def start(self, delay: Optional[int] = None) -> None:
        """Arm the timer; first firing after ``delay`` (default: the
        interval)."""
        if self.armed:
            raise RuntimeError(f"timer {self.name} is already armed")
        first = self._kernel.now + (delay if delay is not None else self.interval)
        self._armed = self._kernel.schedule_event(
            first, self._fire, label=f"timer:{self.name}"
        )

    def cancel(self) -> None:
        """Disarm without firing."""
        if self._armed is not None:
            self._armed.cancel()
            self._armed = None

    def delay(self, extra_ns: int) -> None:
        """Push the next firing ``extra_ns`` later (timer-jitter fault).

        Models a disturbed hardware timer: the armed expiry slips by
        ``extra_ns`` without changing the nominal interval, so a
        periodic timer re-arms from the (late) firing instant.  No-op
        when the timer is not armed.
        """
        if extra_ns < 0:
            raise ValueError("timer delay must be non-negative")
        if not self.armed or extra_ns == 0:
            return
        when = self._armed.time + extra_ns
        self._armed.cancel()
        self._armed = self._kernel.schedule_event(
            when, self._fire, label=f"timer:{self.name}"
        )

    def _fire(self) -> None:
        self._armed = None
        self.callback(self._kernel)
        if self.periodic:
            self._armed = self._kernel.schedule_event(
                self._kernel.now + self.interval, self._fire, label=f"timer:{self.name}"
            )
        self._kernel.request_reschedule()
