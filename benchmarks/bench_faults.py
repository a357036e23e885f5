"""Fault-injection sweep: miss ratio vs fault rate, defended vs bare.

An extension beyond the paper (EMERALDS reports overheads, not fault
tolerance): the chaos harness of :mod:`repro.faults.chaos` runs the
reference control workload under seeded fault storms of increasing
intensity, once with the kernel's overload protection armed (per-job
budgets, bounded restart) and once bare.  The table reports the
deadline-miss ratio, the on-time service ratio of the critical control
task, aborted jobs, and permanently lost threads.

The headline is the high-rate rows: the bare kernel loses crashed
threads forever (service collapses), while the defended kernel aborts
runaway jobs at their budget and restarts crashed threads after a
bounded back-off -- no thread is ever lost.

Each (rate, defenses, seed) case is an independent seeded simulation,
so the sweep fans out over ``--workers`` processes (results identical
to the serial run).  ``--smoke`` shrinks the sweep for CI.

With ``--warmup-ms`` the fault storms arm only after a fault-free
warm-up; all cases with the same defenses then share that warm-up
prefix, which the sweep simulates **once** and restores per point
through :func:`repro.perf.sweeps.prefix_map` (fork snapshots where
available; results are byte-identical to cold-starting each point --
see ``bench_sweeps.py`` for the measured speedup).
"""

import statistics
from typing import Tuple

from common import apply_bench_args, bench_arg_parser, publish, sweep_map
from repro.analysis import format_table
from repro.faults.chaos import chaos_continue, chaos_prefix, run_chaos
from repro.perf.sweeps import PrefixSpec, prefix_map
from repro.timeunits import ms, to_ms


def make_cases(rates, seeds, duration_ns, warmup_ns=0):
    """The sweep grid: one case per (rate, defenses, seed)."""
    return [
        (rate, defended, seed, duration_ns, warmup_ns)
        for rate in rates
        for defended in (True, False)
        for seed in seeds
    ]


def _chaos_case(case: Tuple[float, bool, int, int, int]):
    """One seeded chaos run, cold-started; module-level so worker
    processes can import it.  Determinism rides on the seed inside
    the case."""
    rate, defended, seed, duration_ns, warmup_ns = case
    return run_chaos(
        seed,
        duration_ns,
        wcet_overrun_rate=rate,
        crash_rate=rate / 10,
        clock_jitter_rate=rate / 2,
        defenses=defended,
        faults_from=warmup_ns,
    )


def _chaos_plan(case: Tuple[float, bool, int, int, int]):
    """Shared-prefix plan for one case: every case with the same
    defenses shares the fault-free warm-up kernel (rates and seeds
    only matter to the continuation)."""
    rate, defended, seed, duration_ns, warmup_ns = case
    spec = PrefixSpec(
        key=("chaos", defended, warmup_ns),
        t_split=warmup_ns,
        build=lambda: chaos_prefix(defended, t_split=warmup_ns),
    )

    def continuation(kernel):
        return chaos_continue(
            kernel,
            seed,
            duration_ns,
            wcet_overrun_rate=rate,
            crash_rate=rate / 10,
            clock_jitter_rate=rate / 2,
            defenses=defended,
            faults_from=warmup_ns,
        )

    return spec, continuation


def run_cases(cases):
    """Execute the grid: shared-prefix planner when a warm-up makes
    prefixes shareable, the classic parallel cold sweep otherwise."""
    if any(case[4] > 0 for case in cases):
        return prefix_map(_chaos_plan, cases)
    return sweep_map(_chaos_case, cases)


def sweep(rates, seeds, duration_ns, warmup_ns=0):
    cases = make_cases(rates, seeds, duration_ns, warmup_ns)
    outcomes = run_cases(cases)
    rows = []
    per_seed = len(seeds)
    for index in range(0, len(cases), per_seed):
        rate, defended, _, _, _ = cases[index]
        results = outcomes[index:index + per_seed]
        rows.append(
            [
                f"{rate:g}",
                "yes" if defended else "no",
                f"{statistics.mean(r.miss_ratio for r in results):.3f}",
                f"{statistics.mean(r.service_ratio['ctrl'] for r in results):.3f}",
                f"{statistics.mean(min(r.service_ratio.values()) for r in results):.3f}",
                f"{statistics.mean(r.jobs_aborted for r in results):.1f}",
                f"{statistics.mean(len(r.threads_dead) for r in results):.1f}",
                f"{to_ms(round(statistics.mean(r.recovery_ns for r in results))):.1f}",
            ]
        )
    return rows


def main(argv=None) -> int:
    parser = bench_arg_parser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sweep for CI"
    )
    parser.add_argument(
        "--warmup-ms", type=int, default=0,
        help="fault-free warm-up before the storms arm; cases sharing "
             "a warm-up reuse one snapshotted prefix (default 0 = the "
             "classic cold sweep)",
    )
    args = apply_bench_args(parser.parse_args(argv))
    if args.warmup_ms < 0:
        raise SystemExit(f"--warmup-ms must be non-negative (got {args.warmup_ms})")
    if args.smoke:
        rates, seeds, duration = (5.0, 50.0), (1, 2), ms(300)
    else:
        rates, seeds, duration = (0.0, 5.0, 10.0, 20.0, 50.0), (1, 2, 3, 4, 5), ms(1000)
    warmup = ms(args.warmup_ms)
    if warmup >= duration:
        raise SystemExit(
            f"--warmup-ms {args.warmup_ms} leaves no room for faults "
            f"inside the {to_ms(duration):.0f} ms horizon"
        )
    rows = sweep(rates, seeds, duration, warmup)
    header = [
        "faults/s",
        "defenses",
        "miss ratio",
        "ctrl svc",
        "min svc",
        "aborted",
        "dead",
        "recovery ms",
    ]
    warmup_note = (
        f", faults armed after {to_ms(warmup):.0f} ms warm-up" if warmup else ""
    )
    text = (
        f"Fault sweep: {len(seeds)} seeds x {to_ms(duration):.0f} ms "
        f"(crash rate = rate/10, jitter rate = rate/2{warmup_note})\n"
        + format_table(header, rows)
    )
    publish("fault_sweep", text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
