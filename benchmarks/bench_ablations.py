"""Ablations of the design choices DESIGN.md calls out.

1. **Number of CSD queues** (Section 5.6): breakdown utilization for
   CSD-x, x = 2..6.  Expected: a peak around x = 3-4, with diminishing
   or negative returns beyond as inter-band schedulability overhead
   eats the run-time savings.
2. **Allocation search vs naive splits**: the paper's offline search
   against "all tasks DP" and "even split" heuristics.
3. **The two Section 6 semaphore optimizations independently**:
   context-switch elimination (hint parking) and O(1) PI (place-holder
   swap), measured separately in the Figure 6 scenario on a 30-deep FP
   queue (the O(1) swap only beats the O(n) reposition once the queue
   passes ~18 tasks under the calibrated cost model).
4. **Sorted queue vs heap** under RM (Table 1's third column).
5. **Budget enforcement actions** under an overrun storm, swept from
   one shared warm-up snapshot: every variant restores the same
   defended prefix and re-tunes only the budget action at the split
   (the :func:`repro.faults.chaos.chaos_continue` ``defense_override``
   hook), so the comparison isolates the action itself.
"""

from common import apply_bench_args, bench_arg_parser, bench_workloads, publish
from repro.analysis import format_table
from repro.core.overhead import OverheadModel
from repro.core.rm import RMScheduler
from repro.core.schedulability import csd_schedulable
from repro.kernel.kernel import Kernel
from repro.kernel.program import Acquire, Compute, Program, Release, Wait
from repro.sim.breakdown import breakdown_utilization
from repro.sim.workload import generate_base_workloads
from repro.timeunits import ms, to_us, us


def csd_queue_count_sweep():
    """CSD-x for x in 2..6 (plus EDF/RM as the endpoints' limits)."""
    model = OverheadModel()
    workloads = [
        w.with_periods_divided(2)
        for w in generate_base_workloads(30, min(bench_workloads(), 15), seed=5)
    ]
    averages = {}
    for policy in ("edf", "csd-2", "csd-3", "csd-4", "csd-5", "csd-6", "rm"):
        total = sum(
            breakdown_utilization(w, policy, model).utilization for w in workloads
        )
        averages[policy] = 100 * total / len(workloads)
    publish(
        "ablation_queue_count",
        format_table(
            ["policy", "avg breakdown (%)"],
            [[p, f"{v:.1f}"] for p, v in averages.items()],
            title="Ablation: number of CSD queues (n = 30, periods / 2)",
        ),
    )
    best = max(averages, key=averages.get)
    assert best in ("csd-3", "csd-4", "csd-5")
    # Extra queues beyond ~4 must not keep helping much (Section 5.6).
    assert averages["csd-6"] <= averages["csd-4"] + 1.0


def allocation_search_vs_naive():
    """The offline search beats fixed naive allocations."""
    model = OverheadModel()
    workloads = [
        w.with_periods_divided(3)
        for w in generate_base_workloads(30, min(bench_workloads(), 15), seed=9)
    ]
    searched = 0.0
    all_dp = 0.0
    half = 0.0
    for w in workloads:
        searched += breakdown_utilization(w, "csd-2", model).utilization

        def naive_breakdown(splits):
            lo, hi = 0.0, 1.0 / w.utilization
            while hi - lo > 1e-3:
                mid = (lo + hi) / 2
                if csd_schedulable(w.scaled(mid), splits, model):
                    lo = mid
                else:
                    hi = mid
            return lo * w.utilization

        all_dp += naive_breakdown((len(w),))
        half += naive_breakdown((len(w) // 2,))
    n = len(workloads)
    searched, all_dp, half = 100 * searched / n, 100 * all_dp / n, 100 * half / n
    publish(
        "ablation_allocation",
        format_table(
            ["allocation", "avg breakdown (%)"],
            [
                ["offline search (paper)", f"{searched:.1f}"],
                ["naive: all tasks in DP", f"{all_dp:.1f}"],
                ["naive: half the tasks in DP", f"{half:.1f}"],
            ],
            title="Ablation: CSD-2 allocation policy (n = 30, periods / 3)",
        ),
    )
    assert searched >= all_dp - 1e-9
    assert searched >= half - 1e-9


def _fig6_kernel(use_hint_parking: bool, use_swap_pi: bool) -> Kernel:
    """The Figure 6 scenario on the FP queue with selectable opts."""
    kernel = Kernel(RMScheduler(OverheadModel()), sem_scheme="emeralds")
    kernel.create_semaphore(
        "S", use_hint_parking=use_hint_parking, use_swap_pi=use_swap_pi
    )
    kernel.create_event("E")
    # RM priorities follow periods: T2 (50 ms) > Tx (80 ms) > T1 (100 ms).
    kernel.create_thread(
        "T2",
        Program([Wait("E"), Compute(us(5)), Acquire("S"), Compute(us(20)),
                 Release("S"), Compute(us(50))]),
        period=ms(50), deadline=ms(1),
    )
    kernel.create_thread(
        "T1",
        Program([Acquire("S"), Compute(us(200)), Release("S"), Compute(us(5))]),
        period=ms(100), deadline=ms(20),
    )
    kernel.create_thread(
        "Tx", Program([Compute(us(300))]), period=ms(80), deadline=ms(5),
        phase=us(50),
    )
    for i in range(27):
        kernel.create_thread(
            f"fill{i}", Program([Compute(us(1))]),
            period=ms(300) + i * 1000, phase=ms(5000),
        )
    kernel.create_timer(
        "fireE", us(100), lambda k: k.events_by_name["E"].signal(k)
    )
    kernel.timers["fireE"].start()
    return kernel


def sem_optimizations_independently():
    """Ablate hint parking and the O(1) PI swap independently."""
    results = {}
    for parking in (False, True):
        for swap in (False, True):
            kernel = _fig6_kernel(parking, swap)
            kernel.run_until(ms(2))
            results[(parking, swap)] = (
                kernel.trace.kernel_time_total,
                kernel.trace.context_switches,
            )
    rows = []
    for (parking, swap), (kernel_time, switches) in sorted(results.items()):
        rows.append(
            [
                "on" if parking else "off",
                "on" if swap else "off",
                f"{to_us(kernel_time):.1f}",
                switches,
            ]
        )
    publish(
        "ablation_sem_opts",
        format_table(
            ["hint parking", "O(1) PI swap", "kernel time (us)", "switches"],
            rows,
            title="Ablation: the two Section 6 optimizations (FP queue, 30 tasks)",
        ),
    )
    baseline = results[(False, False)]
    both = results[(True, True)]
    # Each optimization helps; together they help most.
    assert both[0] < baseline[0]
    assert both[1] < baseline[1]
    assert results[(True, False)][1] < baseline[1]  # parking saves a switch
    assert results[(False, True)][0] < baseline[0]  # swap saves PI time


def heap_vs_queue_rm():
    """Table 1's third column as a breakdown-utilization effect."""
    model = OverheadModel()
    workloads = [
        w.with_periods_divided(3)
        for w in generate_base_workloads(20, 10, seed=2)
    ]
    queue = sum(breakdown_utilization(w, "rm", model).utilization for w in workloads)
    heap = sum(
        breakdown_utilization(w, "rm-heap", model).utilization for w in workloads
    )
    queue, heap = 100 * queue / len(workloads), 100 * heap / len(workloads)
    publish(
        "ablation_heap",
        format_table(
            ["implementation", "avg breakdown (%)"],
            [["sorted queue + highestp", f"{queue:.1f}"], ["binary heap", f"{heap:.1f}"]],
            title="Ablation: RM queue implementation (n = 20, periods / 3)",
        ),
    )
    # Below the ~58-task crossover the queue implementation wins.
    assert queue >= heap


def defense_ablation_shared_prefix():
    """Budget actions ablated from one shared warm-up snapshot.

    All (action, seed) variants share the defended fault-free warm-up;
    the planner simulates it once and each continuation re-tunes only
    the budget action before the same overrun storm arms.  Every
    restored result is cross-checked against a cold run of the same
    configuration -- the ablation rides on the snapshot machinery and
    proves it exact at the same time.
    """
    from repro.faults.chaos import (
        BUDGET_FACTOR,
        WORKLOAD,
        chaos_continue,
        chaos_prefix,
        run_chaos,
    )
    from repro.perf.sweeps import PrefixSpec, prefix_map

    duration, warmup = ms(2000), ms(1500)
    rate = 100.0
    actions = ("suspend_job", "kill", "warn")
    seeds = (1, 2)
    cases = [(action, seed) for action in actions for seed in seeds]

    def override(action):
        def apply(kernel):
            for name, _period, wcet, _crit in WORKLOAD:
                kernel.set_budget(
                    name, round(BUDGET_FACTOR * wcet), action=action
                )
        return apply

    def plan(case):
        action, seed = case
        spec = PrefixSpec(
            key=("chaos-ablate", warmup),
            t_split=warmup,
            build=lambda: chaos_prefix(True, t_split=warmup),
        )

        def continuation(kernel):
            return chaos_continue(
                kernel,
                seed,
                duration,
                wcet_overrun_rate=rate,
                faults_from=warmup,
                defense_override=override(action),
            )

        return spec, continuation

    outcomes = prefix_map(plan, cases)
    by_action = {}
    rows = []
    for action in actions:
        results = [
            out for case, out in zip(cases, outcomes) if case[0] == action
        ]
        by_action[action] = results
        rows.append(
            [
                action,
                f"{sum(r.miss_ratio for r in results) / len(results):.3f}",
                f"{sum(r.service_ratio['ctrl'] for r in results) / len(results):.3f}",
                f"{sum(r.jobs_aborted for r in results) / len(results):.1f}",
            ]
        )
    publish(
        "ablation_defenses",
        format_table(
            ["budget action", "miss ratio", "ctrl svc", "aborted"],
            rows,
            title=(
                "Ablation: budget enforcement action "
                "(shared 1500 ms warm-up snapshot, 100 overruns/s)"
            ),
        ),
    )

    # Snapshot exactness: each restored variant equals its cold twin.
    for (action, seed), out in zip(cases, outcomes):
        cold = run_chaos(
            seed,
            duration,
            wcet_overrun_rate=rate,
            faults_from=warmup,
            defense_override=override(action),
        )
        assert out == cold, f"snapshot diverged for {(action, seed)}"

    # suspend_job aborts the overrunning job and keeps the thread;
    # kill takes the whole thread down (the restart policy decides its
    # fate), so it aborts no jobs but bleeds service; warn enforces
    # nothing and pays in missed deadlines.
    assert all(r.jobs_aborted > 0 for r in by_action["suspend_job"])
    assert all(r.jobs_aborted == 0 for r in by_action["kill"])
    assert all(r.jobs_aborted == 0 for r in by_action["warn"])
    mean = lambda rs, f: sum(f(r) for r in rs) / len(rs)  # noqa: E731
    assert mean(by_action["kill"], lambda r: r.service_ratio["ctrl"]) < mean(
        by_action["suspend_job"], lambda r: r.service_ratio["ctrl"]
    )
    assert mean(by_action["warn"], lambda r: r.miss_ratio) >= mean(
        by_action["suspend_job"], lambda r: r.miss_ratio
    )


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    csd_queue_count_sweep()
    allocation_search_vs_naive()
    sem_optimizations_independently()
    heap_vs_queue_rm()
    defense_ablation_shared_prefix()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
