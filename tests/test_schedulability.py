"""Tests for the overhead-aware schedulability analysis (Section 5.2, [36])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.rm import RMScheduler
from repro.core.schedulability import (
    band_sizes_from_splits,
    csd_overhead_per_period,
    csd_schedulable,
    edf_overhead_per_period,
    edf_schedulable,
    rm_overhead_per_period,
    rm_response_times,
    rm_schedulable,
)
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program
from repro.timeunits import ms, us


def wl(*pairs_ms, deadline=None):
    tasks = []
    for i, (p, c) in enumerate(pairs_ms):
        tasks.append(
            TaskSpec(
                name=f"t{i}",
                period=ms(p),
                wcet=ms(c),
                deadline=ms(deadline[i]) if deadline else None,
            )
        )
    return Workload(tasks)


class TestEDF:
    def test_full_utilization_feasible_ideal(self):
        # U = 1 exactly: EDF's schedulability overhead is zero.
        assert edf_schedulable(wl((10, 5), (20, 10)))

    def test_over_utilization_infeasible(self):
        assert not edf_schedulable(wl((10, 6), (20, 10)))

    def test_empty_workload(self):
        assert edf_schedulable(Workload([]))

    def test_table2_feasible(self):
        assert edf_schedulable(table2_workload())

    def test_overheads_reduce_capacity(self):
        w = wl((1, 0.999))  # U = 0.999 with a 1 ms period
        assert edf_schedulable(w, ZERO_OVERHEAD)
        assert not edf_schedulable(w, OverheadModel())

    def test_constrained_deadlines_demand_analysis(self):
        # Two tasks, deadlines well below periods.
        feasible = wl((10, 2), (10, 2), deadline=[5, 9])
        assert edf_schedulable(feasible)
        infeasible = wl((10, 3), (10, 3), deadline=[3, 4])
        assert not edf_schedulable(infeasible)

    @given(st.lists(st.tuples(st.integers(2, 100), st.integers(1, 50)),
                    min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_ideal_edf_iff_u_at_most_one(self, raw):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert edf_schedulable(w, ZERO_OVERHEAD) == (w.utilization <= 1.0)


class TestRM:
    def test_liu_layland_bound_feasible(self):
        # Harmonic periods schedule to U = 1 under RM.
        assert rm_schedulable(wl((10, 5), (20, 10)))

    def test_table2_infeasible_with_tau5_first_miss(self):
        w = table2_workload()
        assert not rm_schedulable(w)
        responses = rm_response_times(w)
        # tau1..tau4 make their deadlines; tau5 is the troublesome one.
        for name in ("tau1", "tau2", "tau3", "tau4"):
            assert responses[name] is not None
        assert responses["tau5"] is None

    def test_response_time_values(self):
        w = wl((10, 2), (20, 5))
        responses = rm_response_times(w)
        assert responses["t0"] == ms(2)
        assert responses["t1"] == ms(7)  # 5 + ceil(7/10)*2

    def test_heap_variant_has_different_overheads(self):
        w = wl((1, 0.4), (1.5, 0.4), (2, 0.4))
        # Same workload, but heap constants are larger for small n.
        assert rm_overhead_per_period(OverheadModel(), 3) < \
            edf_overhead_per_period(OverheadModel(), 58)

    def test_rm_worse_than_edf_on_nonharmonic(self):
        # The classic 2-task example: U = 0.97 > 2(2^0.5 - 1) fails RM.
        w = wl((10, 5), (14, 6.5))
        assert edf_schedulable(w)
        assert not rm_schedulable(w)


class TestBandSizes:
    def test_basic(self):
        assert band_sizes_from_splits(10, (3, 7)) == [3, 4, 3]

    def test_empty_bands_allowed(self):
        assert band_sizes_from_splits(5, (0, 5)) == [0, 5, 0]

    def test_no_splits_means_all_fp(self):
        assert band_sizes_from_splits(4, ()) == [4]

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            band_sizes_from_splits(5, (7,))
        with pytest.raises(ValueError):
            band_sizes_from_splits(5, (3, 2))


class TestCSD:
    def test_all_tasks_in_dp_equals_edf_ideal(self):
        w = wl((10, 5), (20, 10))  # U = 1
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD)

    def test_all_tasks_in_fp_equals_rm_ideal(self):
        w = table2_workload()
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD)  # EDF band
        assert not csd_schedulable(w, (0,), ZERO_OVERHEAD)  # pure FP = RM

    def test_table2_csd2_with_r5(self):
        """The paper's prescription: tau1..tau5 in the DP queue."""
        assert csd_schedulable(table2_workload(), (5,), ZERO_OVERHEAD)

    def test_splitting_dp_band_adds_schedulability_overhead(self):
        """Two tasks that only EDF can schedule together: splitting them
        into two DP bands (strict priority between them) must fail."""
        w = wl((10, 5), (10, 5))  # U = 1, identical periods
        assert csd_schedulable(w, (2,), ZERO_OVERHEAD)
        # Split: t0 in DP1, t1 in DP2 -> t1 sees ceil-interference.
        assert csd_schedulable(w, (1, 2), ZERO_OVERHEAD)  # still exactly fits
        w2 = wl((2, 1), (3, 1.5))  # U = 1, non-harmonic
        assert csd_schedulable(w2, (2,), ZERO_OVERHEAD)
        assert not csd_schedulable(w2, (1, 2), ZERO_OVERHEAD)

    def test_overheads_grow_with_parse_cost(self):
        w = wl((1, 0.32), (1, 0.32), (1, 0.32))  # U = 0.96, 1 ms periods
        assert edf_schedulable(w, OverheadModel())
        # Same allocation under CSD pays the queue-parse overhead too.
        assert not csd_schedulable(w, (3,), OverheadModel())

    def test_empty_workload(self):
        assert csd_schedulable(Workload([]), (0,))


class TestCSDOverheadCases:
    """Structure of the Table 3 cost cases."""

    def setup_method(self):
        self.model = OverheadModel()

    def test_fp_band_cheaper_than_dp_bands(self):
        # With one huge DP queue, FP tasks still pay the DP scan on
        # unblock, but block selection is O(1).
        sizes = [20, 5]
        fp = csd_overhead_per_period(self.model, sizes, 1)
        dp = csd_overhead_per_period(self.model, sizes, 0)
        assert fp < dp

    def test_splitting_dp_reduces_dp1_overhead(self):
        """CSD-3's point: DP1 tasks scan shorter queues than CSD-2's."""
        csd2 = csd_overhead_per_period(self.model, [20, 5], 0)
        csd3_dp1 = csd_overhead_per_period(self.model, [10, 10, 5], 0)
        assert csd3_dp1 < csd2

    def test_invalid_band_index(self):
        with pytest.raises(ValueError):
            csd_overhead_per_period(self.model, [2, 2], 5)
        with pytest.raises(ValueError):
            csd_overhead_per_period(self.model, [], 0)

    def test_zero_model_zero_overhead(self):
        assert csd_overhead_per_period(ZERO_OVERHEAD, [5, 5, 5], 1) == 0


class TestConsistency:
    @given(
        st.lists(st.tuples(st.integers(5, 500), st.integers(1, 100)),
                 min_size=2, max_size=8),
        st.integers(0, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_csd_single_dp_band_matches_edf_ideal(self, raw, _):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD) == edf_schedulable(
            w, ZERO_OVERHEAD
        )

    @given(
        st.lists(st.tuples(st.integers(5, 500), st.integers(1, 100)),
                 min_size=2, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_csd_pure_fp_matches_rm_ideal(self, raw):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert csd_schedulable(w, (0,), ZERO_OVERHEAD) == rm_schedulable(
            w, ZERO_OVERHEAD
        )

    @given(
        st.lists(st.tuples(st.integers(5, 100), st.integers(1, 20)),
                 min_size=3, max_size=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_workload_stays_feasible_when_scaled_down(self, raw, data):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        r = data.draw(st.integers(0, len(w)))
        model = OverheadModel()
        if csd_schedulable(w, (r,), model):
            smaller = w.scaled(0.5)
            assert csd_schedulable(smaller, (r,), model)


class TestKernelChargesMatchAnalysis:
    """ROADMAP item 1's cheap invariant: for one periodic task, what the
    kernel charges per job against the analytic per-period charge
    ``t_b + t_u + 2 t_s`` (blocking factor 1)."""

    JOBS = 10
    PERIOD = ms(10)
    POLICIES = pytest.mark.parametrize(
        "scheduler_cls, per_period, per_job_ns",
        [
            (EDFScheduler, edf_overhead_per_period, 5_700),
            (RMScheduler, rm_overhead_per_period, 3_960),
        ],
        ids=["edf", "rm"],
    )

    def run(self, scheduler_cls):
        model = OverheadModel()
        kernel = Kernel(scheduler_cls(model))
        kernel.create_thread("t", Program([Compute(ms(1))]), period=self.PERIOD)
        # Stops before the release due at the horizon.
        trace = kernel.run_until(self.JOBS * self.PERIOD)
        assert [job.completion is not None for job in trace.jobs] == [True] * self.JOBS
        return model, trace

    @POLICIES
    def test_scheduler_and_switch_charges_per_job(
        self, scheduler_cls, per_period, per_job_ns
    ):
        model, trace = self.run(scheduler_cls)
        assert per_period(model, 1, 1.0) == per_job_ns
        assert trace.kernel_time["sched"] == self.JOBS * per_job_ns
        assert trace.kernel_time["context-switch"] == (
            self.JOBS * 2 * model.context_switch_ns
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1, cause 1")
    @POLICIES
    def test_total_kernel_time_per_job_is_the_analytic_charge(
        self, scheduler_cls, per_period, per_job_ns
    ):
        # Today the kernel charges two context switches (20,000 ns) per
        # job more than the analysis does.
        _, trace = self.run(scheduler_cls)
        assert trace.kernel_time_total == self.JOBS * per_job_ns
