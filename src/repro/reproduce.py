"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.reproduce            # everything (several minutes)
    python -m repro.reproduce --quick    # smaller sweeps (~30 s)
    python -m repro.reproduce figure3 figure11 table1   # selected targets

Targets: table1, table2, table3, figure2, figure3, figure4, figure5,
figure11, ipc, cyclic, footprint, validate.  Results print to stdout.

The ``faults`` subcommand (an extension beyond the paper) runs the
chaos harness instead::

    python -m repro.reproduce faults --seed 42 --wcet-overrun 0.1

The ``netfaults`` subcommand runs the dependable-fieldbus chaos
harness (CAN error confinement, bounded retransmission, heartbeat
membership, replica freshness)::

    python -m repro.reproduce netfaults --drop 0.1 --silence n2

The ``perf`` subcommand measures simulator throughput on the canonical
workload and maintains the persistent perf trajectory::

    python -m repro.reproduce perf --check --append

The ``bench`` subcommand runs the benchmark suite (or a selection)::

    python -m repro.reproduce bench all --workers 4

The ``trace`` and ``metrics`` subcommands run a workload with the
observability layer attached -- ``trace`` exports a Perfetto-loadable
Chrome trace JSON, ``metrics`` prints per-task latency percentiles and
per-semaphore blocking / priority-inheritance totals::

    python -m repro.reproduce trace --out trace.json
    python -m repro.reproduce metrics --demo pi --scheme emeralds

The ``cluster-trace`` subcommand runs the canonical ring cluster with
cluster-wide tracing armed and exports ONE merged Perfetto timeline
(one pid per node plus a bus pid, with causal flow arrows from each
transmit slice to its deliveries) plus the aggregated cross-node
metrics registry::

    python -m repro.reproduce cluster-trace --out cluster.trace.json
    python -m repro.reproduce cluster-trace --verify   # byte-identity

The ``snapshot`` subcommand demonstrates checkpoint/restore prefix
reuse: a small fault sweep whose points share one warm-up prefix is
run cold and through :func:`repro.perf.sweeps.prefix_map`, every
restored point is checked byte-identical to its cold twin, and the
wall-clock speedup is reported::

    python -m repro.reproduce snapshot --warmup-ms 1500
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from repro.analysis import ascii_series, format_table
from repro.core.cyclic import CyclicScheduleError, build_cyclic_schedule
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import csd_overhead_per_period
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.sim.breakdown import POLICIES, figure_series
from repro.sim.kernelsim import simulate_workload
from repro.sim.semexp import figure11_series
from repro.timeunits import ms, to_ms, to_us


def _banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def run_table1(quick: bool) -> None:
    """Print Table 1 (scheduler primitive overheads)."""
    _banner("Table 1: scheduler primitive overheads (us)")
    model = OverheadModel()
    rows = []
    for n in (5, 10, 15, 25, 40, 58):
        rows.append(
            [
                n,
                f"{to_us(model.edf_block(n)):.2f}/{to_us(model.edf_unblock(n)):.2f}/"
                f"{to_us(model.edf_select(n)):.2f}",
                f"{to_us(model.rm_block(n)):.2f}/{to_us(model.rm_unblock(n)):.2f}/"
                f"{to_us(model.rm_select(n)):.2f}",
                f"{to_us(model.heap_block(n)):.2f}/{to_us(model.heap_unblock(n)):.2f}/"
                f"{to_us(model.heap_select(n)):.2f}",
            ]
        )
    print(
        format_table(
            ["n", "EDF t_b/t_u/t_s", "RM t_b/t_u/t_s", "heap t_b/t_u/t_s"], rows
        )
    )


def run_table2(quick: bool) -> None:
    """Print the reconstructed Table 2 workload."""
    _banner("Table 2 (reconstructed) + breakdown per policy")
    workload = table2_workload()
    rows = [
        [t.name, f"{to_ms(t.period):g}", f"{to_ms(t.wcet):g}"] for t in workload
    ]
    print(format_table(["task", "P (ms)", "c (ms)"], rows))
    print(f"U = {workload.utilization:.3f}")


def run_figure2(quick: bool) -> None:
    """Regenerate Figure 2 traces (RM / EDF / CSD-2)."""
    _banner("Figure 2: the Table 2 workload under RM / EDF / CSD-2")
    workload = table2_workload()
    for policy, splits in (("rm", None), ("edf", None), ("csd-2", (5,))):
        kernel, trace = simulate_workload(
            workload, policy, duration=ms(40), model=ZERO_OVERHEAD, splits=splits
        )
        misses = sorted({j.thread for j in trace.deadline_violations(kernel.now)})
        print(f"\n--- {policy} ---  misses: {misses or 'none'}")
        print(
            trace.gantt_ascii(
                0, ms(10), columns=60, threads=[f"tau{i}" for i in range(1, 6)]
            )
        )


def run_table3(quick: bool) -> None:
    """Print Table 3 (CSD-3 per-band overheads)."""
    _banner("Table 3: CSD-3 per-band per-period overheads (q=8, r=20, n=40)")
    model = OverheadModel()
    sizes = [8, 12, 20]
    rows = []
    for band, idx, asymptotic in (
        ("DP1", 0, "O(r)"),
        ("DP2", 1, "O(2r - q)"),
        ("FP", 2, "O(n - q)"),
    ):
        rows.append(
            [band, asymptotic, f"{to_us(csd_overhead_per_period(model, sizes, idx)):.1f}"]
        )
    print(format_table(["band", "paper total", "per-period (us)"], rows))


def _run_breakdown_figure(divisor: int, quick: bool) -> None:
    policies = ("csd-4", "csd-3", "csd-2", "edf", "rm")
    counts = [5, 15, 30, 50] if quick else list(range(5, 51, 5))
    workloads = 8 if quick else 25
    series = figure_series(
        counts, policies, workloads_per_point=workloads, seed=1,
        period_divisor=divisor,
    )
    print(
        ascii_series(
            series.task_counts,
            {p: series.values[p] for p in policies},
            title=f"average breakdown utilization (%), periods / {divisor}, "
            f"{workloads} workloads/point",
            x_label="n",
        )
    )


def run_figure3(quick: bool) -> None:
    """Regenerate Figure 3 (breakdown, base periods)."""
    _banner("Figure 3: breakdown utilization, base periods")
    _run_breakdown_figure(1, quick)


def run_figure4(quick: bool) -> None:
    """Regenerate Figure 4 (breakdown, periods / 2)."""
    _banner("Figure 4: breakdown utilization, periods / 2")
    _run_breakdown_figure(2, quick)


def run_figure5(quick: bool) -> None:
    """Regenerate Figure 5 (breakdown, periods / 3)."""
    _banner("Figure 5: breakdown utilization, periods / 3")
    _run_breakdown_figure(3, quick)


def run_figure11(quick: bool) -> None:
    """Regenerate Figure 11 (semaphore overheads)."""
    _banner("Figure 11 + Sec 6.4: semaphore acquire/release overhead")
    lengths = (3, 9, 15, 21, 30) if quick else tuple(range(3, 31, 3))
    for queue in ("dp", "fp"):
        rows = figure11_series(queue, lengths)
        print(
            ascii_series(
                [r[0] for r in rows],
                {
                    "standard": [to_us(r[1]) for r in rows],
                    "emeralds": [to_us(r[2]) for r in rows],
                },
                title=f"{queue.upper()} queue (us per contended pair)",
                x_label="queue length",
            )
        )
        print()


def run_ipc(quick: bool) -> None:
    """Regenerate the reconstructed Section 7 IPC comparison."""
    _banner("Section 7 (reconstructed): mailbox vs state-message IPC")
    sys.path.insert(0, "benchmarks")
    from repro.core.edf import EDFScheduler
    from repro.kernel.kernel import Kernel
    from repro.kernel.program import Compute, Program, Recv, Send, StateRead, StateWrite
    from repro.timeunits import us

    def ipc_time(trace):
        return (
            trace.kernel_time.get("ipc", 0)
            + trace.kernel_time.get("syscall", 0)
            + trace.kernel_time.get("state-msg", 0)
        )

    rows = []
    for readers in (1, 2, 4, 8):
        kernel = Kernel(EDFScheduler(OverheadModel()))
        for i in range(readers):
            kernel.create_mailbox(f"m{i}")
        kernel.create_thread(
            "writer",
            Program([Send(f"m{i}", size=16) for i in range(readers)]),
            period=ms(10), deadline=ms(2),
        )
        for i in range(readers):
            kernel.create_thread(
                f"r{i}", Program([Recv(f"m{i}"), Compute(us(10))]),
                period=ms(10), deadline=ms(5 + i),
            )
        mailbox_cost = ipc_time(kernel.run_until(ms(500))) / 50

        kernel = Kernel(EDFScheduler(OverheadModel()))
        kernel.create_channel("c", slots=4)
        kernel.create_thread(
            "writer", Program([StateWrite("c", value=1)]), period=ms(10),
            deadline=ms(2),
        )
        for i in range(readers):
            kernel.create_thread(
                f"r{i}", Program([StateRead("c"), Compute(us(10))]),
                period=ms(10), deadline=ms(5 + i),
            )
        state_cost = ipc_time(kernel.run_until(ms(500))) / 50
        rows.append(
            [readers, f"{to_us(round(mailbox_cost)):.1f}", f"{to_us(round(state_cost)):.1f}"]
        )
    print(format_table(["readers", "mailbox us/period", "state msg us/period"], rows))


def run_cyclic(quick: bool) -> None:
    """Quantify the Section 5 cyclic-executive pathologies."""
    _banner("Section 5 motivation: cyclic executive pathologies")

    def wl(*pairs):
        return Workload(
            TaskSpec(name=f"t{i}", period=ms(p), wcet=ms(c))
            for i, (p, c) in enumerate(pairs)
        )

    for name, w in (
        ("harmonic 10/20/40", wl((10, 1), (20, 2), (40, 2))),
        ("prime 7/11/13/17", wl((7, 1), (11, 1), (13, 1), (17, 1))),
    ):
        try:
            schedule = build_cyclic_schedule(w)
            print(
                f"{name}: hyperperiod {to_ms(schedule.hyperperiod):.0f} ms, "
                f"{schedule.table_entries} table entries, "
                f"{schedule.table_bytes} bytes"
            )
        except CyclicScheduleError as exc:
            print(f"{name}: UNSCHEDULABLE ({exc})")


def run_footprint(quick: bool) -> None:
    """Report example-application memory footprints."""
    _banner("Small-memory footprint of the example applications")
    import importlib
    import sys as _sys
    from pathlib import Path

    from repro.kernel.footprint import kernel_footprint

    _sys.path.insert(0, str(Path(__file__).parent.parent.parent / "examples"))
    for name in ("quickstart", "engine_control", "voice_pipeline"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            print(f"{name}: examples/ not on path; skipped")
            continue
        kernel = (
            module.build_kernel("emeralds")
            if name == "engine_control"
            else module.build_kernel()
        )
        report = kernel_footprint(kernel)
        print(
            f"{name:>15}: {report.total_bytes:6d} B code+data "
            f"(fits 32 KB: {report.fits(32 * 1024)})"
        )


def run_validate(quick: bool) -> None:
    """Analytic-vs-kernel soundness spot checks."""
    _banner("Soundness: analytic breakdown vs the live kernel (2% inside)")
    from repro.sim.validate import validate_breakdown
    from repro.sim.workload import generate_workload

    policies = ("edf", "rm") if quick else ("edf", "rm", "csd-2", "csd-3")
    for policy in policies:
        for seed in (0, 1):
            w = generate_workload(6, seed=seed, utilization=0.5)
            result = validate_breakdown(w, policy)
            verdict = "clean" if result.sound else f"{result.violations} MISSES"
            print(
                f"{policy:>6} seed {seed}: breakdown "
                f"{100 * result.breakdown_utilization:.1f}% -> kernel {verdict}"
            )


def run_faults(argv: List[str]) -> int:
    """The ``faults`` subcommand: one seeded chaos run, reported."""
    from repro.faults.chaos import run_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce faults",
        description="Run the fault-injection chaos harness once.",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--duration-ms", type=int, default=1000, help="virtual run length"
    )
    parser.add_argument(
        "--wcet-overrun", type=float, default=0.0, metavar="RATE",
        help="WCET-overrun faults per virtual second",
    )
    parser.add_argument(
        "--crash", type=float, default=0.0, metavar="RATE",
        help="thread-crash faults per virtual second",
    )
    parser.add_argument(
        "--jitter", type=float, default=0.0, metavar="RATE",
        help="clock-jitter faults per virtual second",
    )
    parser.add_argument(
        "--no-defenses", action="store_true",
        help="disable budgets and restart policies",
    )
    args = parser.parse_args(argv)
    if args.duration_ms <= 0:
        parser.error(f"--duration-ms must be positive (got {args.duration_ms})")
    for flag, rate in (
        ("--wcet-overrun", args.wcet_overrun),
        ("--crash", args.crash),
        ("--jitter", args.jitter),
    ):
        if rate < 0:
            parser.error(f"{flag} must be non-negative (got {rate:g})")
    result = run_chaos(
        args.seed,
        ms(args.duration_ms),
        wcet_overrun_rate=args.wcet_overrun,
        crash_rate=args.crash,
        clock_jitter_rate=args.jitter,
        defenses=not args.no_defenses,
    )
    _banner(
        f"Chaos run: seed {result.seed}, {args.duration_ms} ms, "
        f"defenses {'on' if result.defenses else 'off'}"
    )
    injected = ", ".join(
        f"{k}={v}" for k, v in sorted(result.faults_injected.items())
    ) or "none"
    print(f"faults planned/injected: {result.faults_planned} / {injected}")
    print(f"deadline-miss ratio:     {result.miss_ratio:.3f}")
    rows = [
        [name, f"{ratio:.3f}"] for name, ratio in result.service_ratio.items()
    ]
    print(format_table(["task", "on-time service"], rows))
    print(f"jobs aborted:            {result.jobs_aborted}")
    print(f"threads lost:            {', '.join(result.threads_dead) or 'none'}")
    print(f"recovery after burst:    {to_ms(result.recovery_ns):.1f} ms")
    print(f"trace signature:         {result.trace_signature[:16]}")
    return 0


def run_netfaults(argv: List[str]) -> int:
    """The ``netfaults`` subcommand: one dependable-fieldbus chaos run."""
    from repro.faults.chaos import run_net_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce netfaults",
        description="Run the dependable-fieldbus chaos harness once.",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--duration-ms", type=int, default=1000, help="virtual run length"
    )
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="per-frame drop probability on the wire",
    )
    parser.add_argument(
        "--corrupt", type=float, default=0.0, metavar="P",
        help="per-frame corruption (CRC-failure) probability",
    )
    parser.add_argument(
        "--retransmits", type=int, default=8,
        help="retransmission bound per frame (0 = retries off)",
    )
    parser.add_argument(
        "--no-dependability", action="store_true",
        help="disarm error confinement, retries, and membership entirely",
    )
    parser.add_argument(
        "--stale-policy", choices=("hold", "invalidate"), default="hold",
        help="replica degradation once the freshness bound is exceeded",
    )
    parser.add_argument(
        "--silence", metavar="NODE", default=None,
        help="crash this node's heartbeat sender mid-run (e.g. n2)",
    )
    parser.add_argument(
        "--rejoin-ms", type=int, default=None, metavar="MS",
        help="restart the silenced sender after this back-off",
    )
    args = parser.parse_args(argv)
    if args.duration_ms <= 0:
        parser.error(f"--duration-ms must be positive (got {args.duration_ms})")
    if args.nodes < 2:
        parser.error(f"--nodes must be at least 2 (got {args.nodes})")
    for flag, p in (("--drop", args.drop), ("--corrupt", args.corrupt)):
        if not 0.0 <= p <= 1.0:
            parser.error(f"{flag} must be in [0, 1] (got {p:g})")
    if args.retransmits < 0:
        parser.error(f"--retransmits must be non-negative (got {args.retransmits})")
    result = run_net_chaos(
        args.seed,
        ms(args.duration_ms),
        nodes=args.nodes,
        drop_p=args.drop,
        corrupt_p=args.corrupt,
        dependability=not args.no_dependability,
        max_retransmits=args.retransmits,
        stale_policy=args.stale_policy,
        silence_node=args.silence,
        rejoin_backoff_ns=(
            ms(args.rejoin_ms) if args.rejoin_ms is not None else None
        ),
    )
    _banner(
        f"Network chaos: seed {result.seed}, {result.nodes} nodes, "
        f"{args.duration_ms} ms, drop {result.drop_p:g}, "
        f"corrupt {result.corrupt_p:g}, "
        f"retries {result.max_retransmits or 'off'}"
    )
    print(f"updates published:       {result.published}")
    broadcasts = max(1, result.published + result.rebroadcasts)
    rows = [
        [node, updates, f"{updates / broadcasts:.3f}"]
        for node, updates in sorted(result.per_node_updates.items())
    ]
    print(format_table(["replica", "updates", "ratio"], rows))
    print(f"worst delivery ratio:    {result.delivery_ratio:.3f}")
    print(
        f"retransmissions:         {result.frames_retransmitted} "
        f"({result.retransmits_exhausted} exhausted)"
    )
    print(f"error frames on wire:    {result.error_frames}")
    print(f"bus-off events:          {result.bus_off_events}")
    print(
        f"sequence gaps / dups:    {result.seq_gaps} / {result.duplicates}"
    )
    print(
        f"stale episodes/resyncs:  {result.stale_episodes} / {result.resyncs} "
        f"(+{result.rebroadcasts} rejoin re-broadcasts)"
    )
    print(f"worst replica age:       {to_ms(result.worst_staleness_ns):.1f} ms")
    print(f"worst update latency:    {to_us(result.worst_latency_ns):.0f} us")
    if result.membership_events:
        print("membership timeline:")
        for time, observer, peer, status in result.membership_events:
            print(
                f"  {to_ms(time):8.1f} ms  {observer} sees {peer} {status}"
            )
    else:
        print("membership timeline:     no transitions")
    print(f"signature:               {result.signature[:16]}")
    return 0


def run_perf(argv: List[str]) -> int:
    """The ``perf`` subcommand: the canonical throughput measurement.

    Measures the ``bench_kernel_overhead`` workload (EDF / RM / CSD-3,
    2 s of virtual time each), prints the counter report and the
    full-mode trace signatures, and optionally gates against / appends
    to the persistent perf trajectory (``BENCH_kernel.json``).
    """
    from repro.perf.profiler import profile_call
    from repro.perf.trajectory import add_gate_args, check_and_append, make_entry
    from repro.perf.workloads import (
        full_signatures,
        run_throughput,
        throughput_config,
    )
    from repro.sim.trace import RECORD_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce perf",
        description="Measure simulator throughput on the canonical workload.",
    )
    parser.add_argument(
        "--mode", choices=RECORD_MODES, default="jobs-only",
        help="trace recording mode for the timed runs",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="pooled repetitions of the three policy runs",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also cProfile the run and print the hottest functions",
    )
    parser.add_argument(
        "--no-signatures", action="store_true",
        help="skip the full-mode signature cross-check runs",
    )
    add_gate_args(parser, "BENCH_kernel.json", "perf-cli")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be positive (got {args.repeats})")
    if args.no_signatures and args.append is not None:
        parser.error("--append records signatures; drop --no-signatures")

    report = run_throughput(args.mode, repeats=args.repeats, label=args.label)
    print(report.render())

    signatures = None
    if not args.no_signatures:
        signatures = full_signatures()
        print("full-trace signatures (must not move across optimizations):")
        for policy, signature in signatures.items():
            print(f"  {policy:>6}: {signature}")

    if args.profile:
        _, text = profile_call(run_throughput, args.mode, limit=20)
        print()
        print(text)

    entry = make_entry(
        args.label, report.as_dict(), throughput_config(args.mode), signatures
    )
    return 0 if check_and_append(args, entry) else 1


def run_bench(argv: List[str]) -> int:
    """The ``bench`` subcommand: run the benchmark suite.

    ``bench all`` runs every benchmark; ``bench fig3 kernel_overhead``
    runs a selection (names map to ``benchmarks/bench_<name>.py``).
    The shared ``--out/--workers/--record/--obs/--smoke`` flags of
    ``benchmarks/common.py`` configure the runs; how each benchmark is
    invoked comes from the explicit ``BENCHMARKS`` registry there.
    """
    from pathlib import Path

    bench_dir = Path(__file__).parent.parent.parent / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    from common import BENCHMARKS, apply_bench_args, bench_arg_parser  # noqa: E402

    available = sorted(BENCHMARKS)
    parser = bench_arg_parser("Run the benchmark suite (or a selection).")
    parser.prog = "python -m repro.reproduce bench"
    parser.add_argument(
        "names", nargs="+",
        help=f"benchmarks to run, or 'all'; available: {', '.join(available)}",
    )
    args = parser.parse_args(argv)

    names = available if "all" in args.names else args.names
    unknown = [n for n in names if n not in available]
    if unknown:
        parser.error(f"unknown benchmarks: {', '.join(unknown)}")

    apply_bench_args(args)
    pytest_files: List[str] = []
    exit_code = 0
    for name in names:
        if BENCHMARKS[name] == "cli":
            # CLI-style benchmark: call its main() in-process.
            module = __import__(f"bench_{name}")
            cli_args = ["--smoke"] if args.smoke else []
            code = module.main(cli_args)
            exit_code = exit_code or code
        else:
            pytest_files.append(str(bench_dir / f"bench_{name}.py"))
    if pytest_files:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_files])
        exit_code = exit_code or int(code)
    return exit_code


def _obs_arg_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """Shared flags of the ``trace`` and ``metrics`` subcommands."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--policy", choices=POLICIES + ("dm",), default="edf",
        help="scheduling policy for the canonical workload (default edf)",
    )
    parser.add_argument(
        "--horizon-ms", type=int, default=200,
        help="virtual run length in ms (default 200)",
    )
    parser.add_argument(
        "--demo", choices=("pi",), default=None,
        help="run the transitive priority-inversion demo instead of "
        "the canonical workload",
    )
    parser.add_argument(
        "--scheme", choices=("standard", "emeralds"), default="standard",
        help="semaphore scheme for --demo pi (default standard)",
    )
    return parser


def _obs_run(args):
    """Run the selected workload with a full-mode collector attached.

    Returns ``(kernel, trace, collector)``.
    """
    from repro.obs.scenarios import run_pi_demo
    from repro.perf.workloads import min_overhead_splits, overhead_workload

    if args.demo == "pi":
        kernel, trace, collector = run_pi_demo(
            scheme=args.scheme, horizon=ms(max(20, args.horizon_ms))
        )
        return kernel, trace, collector
    workload = overhead_workload()
    splits = None
    if args.policy.startswith("csd-"):
        # CSD-x has x - 1 dynamic-priority queues ahead of the FP queue.
        dp_bands = int(args.policy.split("-", 1)[1]) - 1
        splits = min_overhead_splits(workload, dp_bands, OverheadModel())
    kernel, trace = simulate_workload(
        workload,
        args.policy,
        duration=ms(args.horizon_ms),
        splits=splits,
        record="full",
        obs="full",
    )
    return kernel, trace, kernel.obs


def run_trace(argv: List[str]) -> int:
    """The ``trace`` subcommand: export a Chrome/Perfetto trace."""
    from repro.obs.tracer import export_chrome_trace

    parser = _obs_arg_parser(
        "python -m repro.reproduce trace",
        "Run a workload and export a Perfetto-loadable Chrome trace.",
    )
    parser.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )
    args = parser.parse_args(argv)
    if args.horizon_ms <= 0:
        parser.error(f"--horizon-ms must be positive (got {args.horizon_ms})")
    kernel, trace, collector = _obs_run(args)
    count = export_chrome_trace(args.out, trace, collector)
    print(trace.summary(kernel.now))
    print(
        f"wrote {count} trace events to {args.out} "
        "(load at https://ui.perfetto.dev)"
    )
    return 0


def run_metrics(argv: List[str]) -> int:
    """The ``metrics`` subcommand: latency percentiles + blocking/PI."""
    from repro.obs.analyzers import (
        blocking_report,
        latency_report,
        pi_chain_report,
    )

    parser = _obs_arg_parser(
        "python -m repro.reproduce metrics",
        "Run a workload and report latency percentiles, semaphore "
        "blocking, and priority-inheritance chains.",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="output format (default: rendered text reports)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the output to this path"
    )
    args = parser.parse_args(argv)
    if args.horizon_ms <= 0:
        parser.error(f"--horizon-ms must be positive (got {args.horizon_ms})")
    kernel, trace, collector = _obs_run(args)
    if args.format == "json":
        output = collector.metrics_json()
    elif args.format == "prom":
        output = collector.metrics_prometheus()
    else:
        output = "\n\n".join(
            [
                latency_report(trace),
                blocking_report(collector),
                pi_chain_report(collector),
            ]
        )
    print(output)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(output if output.endswith("\n") else output + "\n")
        print(f"written to {args.out}")
    return 0


def _traced_ring_cluster(
    nodes: int, utilization: float, horizon_ns: int, sync: str
):
    """One fully-instrumented ring run; returns the cluster."""
    from repro.obs.cluster_trace import enable_cluster_tracing
    from repro.perf.clusterload import build_ring_cluster

    cluster = build_ring_cluster(nodes, utilization, sync, record="full")
    enable_cluster_tracing(cluster, obs="full")
    cluster.run_until(horizon_ns)
    return cluster


def _cluster_trace_text(payload: Dict) -> str:
    """The canonical on-disk serialization (what byte-identity compares)."""
    import json

    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def run_cluster_trace(argv: List[str]) -> int:
    """The ``cluster-trace`` subcommand: merged multi-node Perfetto export.

    Runs the canonical ring workload with cluster-wide tracing armed,
    exports the merged Chrome/Perfetto JSON (validated before writing),
    prints the bus-chain latency percentiles, and optionally writes the
    aggregated cross-node metrics registry.  ``--verify`` re-runs the
    same configuration under the other synchronization mode and asserts
    the merged trace and metrics are byte-identical -- the determinism
    contract of the exporter.
    """
    from repro.net.cluster import SYNC_MODES
    from repro.obs.analyzers import bus_chain_report
    from repro.obs.cluster_trace import (
        cluster_chrome_trace,
        cluster_metrics_registry,
    )
    from repro.obs.tracer import validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce cluster-trace",
        description="Export one merged multi-node Perfetto timeline "
        "from the canonical ring cluster.",
    )
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--utilization", type=float, default=0.5,
        help="offered bus load of the ring senders (default 0.5)",
    )
    parser.add_argument(
        "--horizon-ms", type=int, default=100,
        help="virtual run length in ms (default 100)",
    )
    parser.add_argument(
        "--sync", choices=SYNC_MODES,
        default="adaptive", help="cluster synchronization mode",
    )
    parser.add_argument(
        "--out", default="cluster.trace.json",
        help="merged trace output path (default cluster.trace.json)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="also write the aggregated metrics registry JSON here",
    )
    parser.add_argument(
        "--prom-out", default=None,
        help="also write the Prometheus text exposition here",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="20 ms virtual horizon instead of --horizon-ms",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="assert byte-identical output under the other sync mode "
        "before writing",
    )
    args = parser.parse_args(argv)
    if args.nodes < 2:
        parser.error(f"--nodes must be at least 2 (got {args.nodes})")
    if not 0.0 < args.utilization <= 1.0:
        parser.error(
            f"--utilization must be in (0, 1] (got {args.utilization:g})"
        )
    if args.horizon_ms <= 0:
        parser.error(f"--horizon-ms must be positive (got {args.horizon_ms})")
    horizon = ms(20 if args.quick else args.horizon_ms)

    _banner(
        f"Cluster trace: {args.nodes}-node ring, u={args.utilization:g}, "
        f"{to_ms(horizon):.0f} ms, sync={args.sync}"
    )
    cluster = _traced_ring_cluster(
        args.nodes, args.utilization, horizon, args.sync
    )
    payload = cluster_chrome_trace(cluster)
    count = validate_chrome_trace(payload)
    text = _cluster_trace_text(payload)
    bus_events = list(cluster.bus.bus_log or [])
    rx_logs = {
        name: iface.rx_log for name, iface in cluster.interfaces.items()
    }
    rx_timelines = cluster.rx_timelines()
    registry = cluster_metrics_registry(cluster)

    flow_pairs = sum(1 for e in payload["traceEvents"] if e.get("ph") == "s")
    print(
        f"merged events: {count} ({flow_pairs} flow pairs, "
        f"{len(payload['otherData']['nodes'])} node pids + bus pid)"
    )
    print()
    print(bus_chain_report(bus_events, rx_logs, rx_timelines))

    if args.verify:
        sync = "lockstep" if args.sync == "adaptive" else "adaptive"
        other = _traced_ring_cluster(
            args.nodes, args.utilization, horizon, sync
        )
        print()
        if _cluster_trace_text(cluster_chrome_trace(other)) != text:
            print(f"VERIFY FAILED: trace differs under {sync}")
            return 1
        if cluster_metrics_registry(other).to_json() != registry.to_json():
            print(f"VERIFY FAILED: metrics differ under {sync}")
            return 1
        print(f"verified byte-identical under {sync}")

    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"\nwrote {count} merged trace events to {args.out} "
          "(load at https://ui.perfetto.dev)")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json() + "\n")
        print(f"aggregated metrics JSON written to {args.metrics_out}")
    if args.prom_out is not None:
        with open(args.prom_out, "w") as fh:
            fh.write(registry.to_prometheus())
        print(f"Prometheus exposition written to {args.prom_out}")
    return 0


def run_snapshot(argv: List[str]) -> int:
    """The ``snapshot`` subcommand: prefix-reuse demo + self-check.

    Runs a small canonical fault sweep (every point shares the same
    fault-free warm-up) twice -- cold-starting each point, then
    restoring each point from a snapshot of the shared prefix -- and
    verifies the restored results byte-identical to the cold ones
    (the dataclasses carry full-record trace signatures).
    """
    import time as _time

    from repro.faults.chaos import chaos_continue, chaos_prefix, run_chaos
    from repro.perf.snapshot import fork_available
    from repro.perf.sweeps import PrefixSpec, prefix_map

    parser = argparse.ArgumentParser(
        prog="reproduce snapshot",
        description="Checkpoint/restore prefix reuse: identity + speedup.",
    )
    parser.add_argument(
        "--duration-ms", type=int, default=4000,
        help="virtual horizon per sweep point (ms)",
    )
    parser.add_argument(
        "--warmup-ms", type=int, default=3000,
        help="shared fault-free warm-up before the storms arm (ms)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2],
        help="seeds per fault rate",
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[5.0, 50.0],
        help="fault rates (faults per virtual second)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.warmup_ms < args.duration_ms:
        parser.error("--warmup-ms must lie inside the --duration-ms horizon")

    duration, warmup = ms(args.duration_ms), ms(args.warmup_ms)
    cases = [(rate, seed) for rate in args.rates for seed in args.seeds]

    def plan(case):
        rate, seed = case
        spec = PrefixSpec(
            key=("snapshot-demo", warmup),
            t_split=warmup,
            build=lambda: chaos_prefix(True, t_split=warmup),
        )

        def continuation(kernel):
            return chaos_continue(
                kernel,
                seed,
                duration,
                wcet_overrun_rate=rate,
                crash_rate=rate / 10,
                clock_jitter_rate=rate / 2,
                faults_from=warmup,
            )

        return spec, continuation

    def cold_case(case):
        rate, seed = case
        return run_chaos(
            seed,
            duration,
            wcet_overrun_rate=rate,
            crash_rate=rate / 10,
            clock_jitter_rate=rate / 2,
            faults_from=warmup,
        )

    print(
        f"Snapshot demo: {len(cases)} points x {args.duration_ms} ms, "
        f"shared {args.warmup_ms} ms warm-up, "
        f"{'fork snapshots' if fork_available() else 'cold (no fork)'}"
    )
    started = _time.perf_counter()
    cold = [cold_case(case) for case in cases]
    cold_wall = _time.perf_counter() - started
    started = _time.perf_counter()
    restored = prefix_map(plan, cases)
    snap_wall = _time.perf_counter() - started

    failed = False
    for case, a, b in zip(cases, cold, restored):
        verdict = "identical" if a == b else "MISMATCH"
        failed = failed or a != b
        print(
            f"  rate={case[0]:g} seed={case[1]}: {verdict} "
            f"(miss ratio {a.miss_ratio:.3f}, "
            f"signature {a.trace_signature[:12]})"
        )
    speedup = cold_wall / snap_wall if snap_wall else float("inf")
    print(
        f"cold {cold_wall:.2f} s, snapshot {snap_wall:.2f} s "
        f"-> {speedup:.2f}x"
    )
    if failed:
        print("FAIL: restored results diverged from cold runs")
        return 1
    print("every restored point is byte-identical to its cold run")
    return 0


TARGETS: Dict[str, Callable[[bool], None]] = {
    "table1": run_table1,
    "table2": run_table2,
    "figure2": run_figure2,
    "table3": run_table3,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure11": run_figure11,
    "ipc": run_ipc,
    "cyclic": run_cyclic,
    "footprint": run_footprint,
    "validate": run_validate,
}


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "faults":
        return run_faults(raw[1:])
    if raw and raw[0] == "netfaults":
        return run_netfaults(raw[1:])
    if raw and raw[0] == "perf":
        return run_perf(raw[1:])
    if raw and raw[0] == "bench":
        return run_bench(raw[1:])
    if raw and raw[0] == "trace":
        return run_trace(raw[1:])
    if raw and raw[0] == "metrics":
        return run_metrics(raw[1:])
    if raw and raw[0] == "cluster-trace":
        return run_cluster_trace(raw[1:])
    if raw and raw[0] == "snapshot":
        return run_snapshot(raw[1:])
    parser = argparse.ArgumentParser(
        description="Regenerate the EMERALDS paper's tables and figures."
    )
    parser.add_argument(
        "targets",
        nargs="*",
        choices=list(TARGETS) + [[]],
        help="artifacts to regenerate (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast pass"
    )
    args = parser.parse_args(raw)
    chosen = args.targets or list(TARGETS)
    started = time.time()
    for target in chosen:
        TARGETS[target](args.quick)
    print(f"\ndone in {time.time() - started:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
