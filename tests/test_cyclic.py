"""Tests for the cyclic time-slice executive baseline (Section 5 intro)."""

import math

import pytest

from repro.core.cyclic import (
    CyclicScheduleError,
    TABLE_ENTRY_BYTES,
    _frame_candidates,
    build_cyclic_schedule,
)
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.timeunits import ms


def wl(*pairs_ms):
    return Workload(
        TaskSpec(name=f"t{i}", period=ms(p), wcet=ms(c))
        for i, (p, c) in enumerate(pairs_ms)
    )


class TestConstruction:
    def test_harmonic_workload_schedules(self):
        schedule = build_cyclic_schedule(wl((10, 2), (20, 5), (40, 10)))
        assert schedule.hyperperiod == ms(40)
        assert schedule.frame <= ms(10)
        assert schedule.hyperperiod % schedule.frame == 0

    def test_every_job_fully_scheduled(self):
        w = wl((10, 3), (20, 4))
        schedule = build_cyclic_schedule(w)
        total = {t.name: 0 for t in w}
        for s in schedule.slices:
            total[s.task] += s.duration
        assert total["t0"] == 2 * ms(3)  # two jobs per hyperperiod
        assert total["t1"] == ms(4)

    def test_frames_never_overflow(self):
        schedule = build_cyclic_schedule(wl((10, 4), (20, 6), (40, 4)))
        for busy in schedule.frame_utilizations():
            assert busy <= schedule.frame

    def test_slices_respect_release_and_deadline(self):
        w = wl((10, 2), (20, 5))
        schedule = build_cyclic_schedule(w)
        specs = {t.name: t for t in w}
        progress = {}
        for s in sorted(schedule.slices, key=lambda s: s.frame):
            spec = specs[s.task]
            job_index = progress.get(s.task, 0)
            start = s.frame * schedule.frame
            assert start + schedule.frame <= schedule.hyperperiod + schedule.frame

    def test_overutilized_rejected(self):
        with pytest.raises(CyclicScheduleError):
            build_cyclic_schedule(wl((10, 6), (20, 10)))

    def test_empty_rejected(self):
        with pytest.raises(CyclicScheduleError):
            build_cyclic_schedule(Workload([]))

    def test_explicit_frame_must_divide(self):
        with pytest.raises(CyclicScheduleError):
            build_cyclic_schedule(wl((10, 2), (20, 2)), frame=ms(3))

    def test_table_bytes(self):
        schedule = build_cyclic_schedule(wl((10, 2), (20, 5)))
        assert schedule.table_bytes == schedule.table_entries * TABLE_ENTRY_BYTES


class TestFrameCandidates:
    @pytest.mark.parametrize(
        "periods",
        [
            (60, 90, 100),  # H = 900: isqrt(H) = 30 < shortest period
            (97, 89, 83),  # H = 716,539: isqrt(H) = 846 > shortest period
        ],
    )
    def test_equals_brute_force_divisor_scan(self, periods):
        w = Workload(
            TaskSpec(name=f"t{i}", period=p, wcet=1) for i, p in enumerate(periods)
        )
        hyperperiod = math.lcm(*periods)
        brute = [
            f
            for f in range(min(periods), 0, -1)
            if hyperperiod % f == 0
            and all(2 * f - math.gcd(f, p) <= p for p in periods)
        ]
        assert brute
        assert _frame_candidates(w, hyperperiod) == brute


class TestPaperClaims:
    def test_relatively_prime_periods_blow_up_the_table(self):
        """Section 5: 'relatively prime periods result in very large
        time-slice schedules, wasting scarce memory resources'."""
        harmonic = build_cyclic_schedule(wl((10, 1), (20, 2), (40, 2)))
        prime = build_cyclic_schedule(wl((7, 1), (11, 1), (13, 1)))
        # Hyperperiod 7*11*13 = 1001 ms vs 40 ms.
        assert prime.hyperperiod == ms(1001)
        assert prime.table_entries > 20 * harmonic.table_entries

    def test_infeasible_tables_rejected_outright(self):
        """Long, relatively prime periods can push the table past any
        small-memory budget; the builder refuses."""
        w = wl((9.97, 0.5), (11.19, 0.5), (13.01, 0.5), (17.03, 0.5))
        with pytest.raises(CyclicScheduleError):
            build_cyclic_schedule(w)

    def test_aperiodic_response_worse_than_priority_scheduling(self):
        """Section 5: aperiodic tasks get poor response because their
        arrival cannot be anticipated offline.  Under a (high) priority
        scheduler the same job would be served almost immediately."""
        w = wl((10, 4), (20, 8))  # U = 0.8: frames are mostly busy
        schedule = build_cyclic_schedule(w)
        response = schedule.worst_case_aperiodic_response(ms(2))
        assert response is not None
        # A priority scheduler serves it in ~2 ms (plus preemption of
        # lower tasks); the cyclic executive needs several frames.
        assert response > ms(4)

    def test_aperiodic_response_unbounded_at_full_utilization(self):
        w = wl((10, 5), (20, 10))  # U = 1: zero slack
        schedule = build_cyclic_schedule(w)
        assert schedule.worst_case_aperiodic_response(ms(1)) is None

    def test_table2_workload_feasible_under_cyclic_but_huge(self):
        """The Table 2 workload is EDF-feasible, and its cyclic table
        (if one exists) is enormous compared to priority scheduling's
        O(n) task table."""
        try:
            schedule = build_cyclic_schedule(table2_workload())
        except CyclicScheduleError:
            return  # also an acceptable outcome: no legal frame
        assert schedule.table_entries > 10 * len(table2_workload())
