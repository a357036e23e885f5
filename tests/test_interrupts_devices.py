"""Tests for interrupts, device models, and timers."""

import pytest

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.kernel.devices import AperiodicDevice, PeriodicDevice
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program, StateWrite, Wait
from repro.timeunits import ms, us


def zero_kernel(**kw):
    return Kernel(EDFScheduler(ZERO_OVERHEAD), **kw)


class TestInterruptController:
    def test_isr_runs_on_interrupt(self):
        k = zero_kernel()
        fired = []
        k.interrupts.register(3, lambda kern, vec: fired.append((kern.now, vec)))
        k.interrupts.raise_interrupt(3, at=ms(2))
        k.run_until(ms(5))
        assert fired == [(ms(2), 3)]

    def test_interrupt_entry_cost_charged(self):
        model = OverheadModel()
        k = Kernel(EDFScheduler(model))
        k.interrupts.register(1, lambda kern, vec: None)
        k.interrupts.raise_interrupt(1, at=ms(1))
        trace = k.run_until(ms(2))
        assert trace.kernel_time["interrupt"] == model.interrupt_entry_ns

    def test_masked_interrupts_dropped(self):
        k = zero_kernel()
        fired = []
        k.interrupts.register(2, lambda kern, vec: fired.append(vec))
        k.interrupts.mask(2)
        k.interrupts.raise_interrupt(2, at=ms(1))
        k.run_until(ms(2))
        assert fired == []
        assert k.interrupts.dropped_masked == 1
        k.interrupts.unmask(2)
        k.interrupts.raise_interrupt(2, at=ms(3))
        k.run_until(ms(4))
        assert fired == [2]

    def test_user_level_driver_pattern(self):
        """The Figure 1 pattern: ISR signals an event, a user thread
        (the driver) does the real work."""
        k = zero_kernel()
        k.interrupts.register_event_handler(5, "irq5")
        k.create_thread(
            "driver",
            Program([Wait("irq5"), Compute(us(100))]),
            priority=1,
        )
        k.activate("driver")
        k.interrupts.raise_interrupt(5, at=ms(1))
        trace = k.run_until(ms(2))
        job = trace.jobs_of("driver")[0]
        assert job.completion == ms(1) + us(100)

    def test_interrupt_preempts_running_thread(self):
        k = zero_kernel()
        k.interrupts.register_event_handler(7, "irq7")
        k.create_thread("worker", Program([Compute(ms(10))]), period=ms(100))
        k.create_thread(
            "driver", Program([Wait("irq7"), Compute(us(50))]),
            period=ms(100), deadline=ms(2),
        )
        k.interrupts.raise_interrupt(7, at=ms(1))
        trace = k.run_until(ms(5))
        segs = [s for s in trace.segments if s.who == "driver" and s.start >= ms(1)]
        assert segs and segs[0].start == ms(1)


class TestDevices:
    def test_periodic_device_rate(self):
        k = zero_kernel()
        count = []
        k.interrupts.register(1, lambda kern, vec: count.append(kern.now))
        PeriodicDevice(k, "adc", vector=1, period=ms(2))
        k.run_until(ms(11))
        assert count == [0, ms(2), ms(4), ms(6), ms(8), ms(10)]

    def test_periodic_device_jitter_bounded(self):
        k = zero_kernel()
        times = []
        k.interrupts.register(1, lambda kern, vec: times.append(kern.now))
        PeriodicDevice(k, "adc", vector=1, period=ms(2), jitter=us(100), seed=1)
        k.run_until(ms(10))
        for i, t in enumerate(times):
            assert ms(2) * i <= t <= ms(2) * i + us(100)

    def test_periodic_device_validation(self):
        k = zero_kernel()
        with pytest.raises(ValueError):
            PeriodicDevice(k, "bad", vector=1, period=0)
        with pytest.raises(ValueError):
            PeriodicDevice(k, "bad", vector=1, period=10, jitter=10)

    def test_aperiodic_device_explicit_arrivals(self):
        k = zero_kernel()
        seen = []
        k.interrupts.register(4, lambda kern, vec: seen.append(kern.now))
        AperiodicDevice(k, "btn", vector=4, arrivals=[ms(1), ms(3)])
        k.run_until(ms(5))
        assert seen == [ms(1), ms(3)]

    def test_aperiodic_device_sporadic_separation(self):
        k = zero_kernel()
        seen = []
        k.interrupts.register(4, lambda kern, vec: seen.append(kern.now))
        AperiodicDevice(
            k, "net", vector=4, mean_interarrival=ms(1),
            min_interarrival=us(500), seed=3, horizon=ms(50),
        )
        k.run_until(ms(50))
        assert len(seen) > 5
        gaps = [b - a for a, b in zip(seen, seen[1:])]
        assert all(g >= us(500) for g in gaps)

    def test_aperiodic_device_argument_validation(self):
        k = zero_kernel()
        with pytest.raises(ValueError):
            AperiodicDevice(k, "bad", vector=1)
        with pytest.raises(ValueError):
            AperiodicDevice(k, "bad", vector=1, arrivals=[1], mean_interarrival=5)


class TestTimers:
    def test_one_shot_fires_once(self):
        k = zero_kernel()
        fired = []
        k.create_timer("t", ms(3), lambda kern: fired.append(kern.now))
        k.timers["t"].start()
        k.run_until(ms(10))
        assert fired == [ms(3)]

    def test_periodic_timer_rearms(self):
        k = zero_kernel()
        fired = []
        k.create_timer("t", ms(2), lambda kern: fired.append(kern.now), periodic=True)
        k.timers["t"].start()
        k.run_until(ms(9))
        assert fired == [ms(2), ms(4), ms(6), ms(8)]

    def test_cancel(self):
        k = zero_kernel()
        fired = []
        k.create_timer("t", ms(2), lambda kern: fired.append(kern.now))
        k.timers["t"].start()
        k.timers["t"].cancel()
        k.run_until(ms(5))
        assert fired == []
        assert not k.timers["t"].armed

    def test_double_start_rejected(self):
        k = zero_kernel()
        k.create_timer("t", ms(2), lambda kern: None)
        k.timers["t"].start()
        with pytest.raises(RuntimeError):
            k.timers["t"].start()

    def test_custom_first_delay(self):
        k = zero_kernel()
        fired = []
        k.create_timer("t", ms(5), lambda kern: fired.append(kern.now), periodic=True)
        k.timers["t"].start(delay=ms(1))
        k.run_until(ms(8))
        assert fired == [ms(1), ms(6)]


class TestSyscallsFacade:
    """There is no facade object: every system call enters through the
    kernel's op interpreter, which counts it and charges ``syscall_ns``."""

    def test_get_time_charges_and_counts(self):
        model = OverheadModel()
        k = Kernel(EDFScheduler(model))
        seen = []
        k.create_thread(
            "t", Program([Call(lambda kern, th: seen.append(kern.now))]),
            period=ms(10),
        )
        k.run_until(ms(5))
        assert len(seen) == 1
        assert 0 < seen[0] <= k.now
        assert k.syscall_count == 1
        assert k.trace.kernel_time["syscall"] == model.syscall_ns
