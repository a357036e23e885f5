"""Device models: the simulated hardware side of user-level drivers.

The paper's targets talk to sensors, actuators, and fieldbus networks
(Figure 1).  These device models stand in for that hardware: they
inject interrupts into the virtual timeline.  Driver *logic* runs in
user threads blocked on the per-vector interrupt events registered via
:meth:`~repro.kernel.interrupts.InterruptController.register_event_handler`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, List, Optional

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

__all__ = ["PeriodicDevice", "AperiodicDevice"]


class PeriodicDevice:
    """A device interrupting at a fixed rate (e.g. an ADC sample clock).

    Optional bounded jitter perturbs each arrival, modelling sensor
    clock drift; arrivals remain monotone.
    """

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        vector: int,
        period: int,
        phase: int = 0,
        jitter: int = 0,
        seed: int = 0,
    ):
        if period <= 0:
            raise ValueError("device period must be positive")
        if jitter < 0 or jitter >= period:
            raise ValueError("jitter must be in [0, period)")
        self._kernel = kernel
        self.name = name
        self.vector = vector
        self.period = period
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._next_nominal = kernel.now + phase
        self._schedule_next()

    def _schedule_next(self) -> None:
        offset = self._rng.randint(0, self.jitter) if self.jitter else 0
        fire_at = self._next_nominal + offset

        def fire() -> None:
            self._kernel.interrupts._dispatch(self.vector)
            self._next_nominal += self.period
            self._schedule_next()

        self._kernel.schedule_event(fire_at, fire, label=f"dev:{self.name}")


class AperiodicDevice:
    """A device with sporadic arrivals (e.g. an operator button, a
    fieldbus frame).

    Arrivals come either from an explicit list of absolute times or
    from an exponential process with the given mean inter-arrival time
    and a minimum separation (the sporadic model real-time analysis
    assumes).
    """

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        vector: int,
        arrivals: Optional[Iterable[int]] = None,
        mean_interarrival: Optional[int] = None,
        min_interarrival: int = 0,
        seed: int = 0,
        horizon: Optional[int] = None,
    ):
        self._kernel = kernel
        self.name = name
        self.vector = vector
        if (arrivals is None) == (mean_interarrival is None):
            raise ValueError("pass exactly one of arrivals / mean_interarrival")
        if arrivals is not None:
            times: List[int] = sorted(arrivals)
            for t in times:
                self._schedule_at(t)
        else:
            assert mean_interarrival is not None
            if mean_interarrival <= 0:
                raise ValueError("mean inter-arrival must be positive")
            rng = random.Random(seed)
            t = kernel.now
            end = horizon if horizon is not None else kernel.now + 100 * mean_interarrival
            while True:
                gap = max(min_interarrival, round(rng.expovariate(1.0 / mean_interarrival)))
                t += max(1, gap)
                if t > end:
                    break
                self._schedule_at(t)

    def _schedule_at(self, time: int) -> None:
        def fire() -> None:
            self._kernel.interrupts._dispatch(self.vector)

        self._kernel.schedule_event(time, fire, label=f"dev:{self.name}")
