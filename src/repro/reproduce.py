"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.reproduce            # everything (several minutes)
    python -m repro.reproduce --quick    # smaller sweeps (~40 s)
    python -m repro.reproduce figure3 figure11 table1   # selected artifacts

Artifacts: table1, table2, table3, figure2, figure3, figure4, figure5,
figure11, ipc, cyclic, footprint, validate.  Each is an alias of the
benchmark that regenerates it (:data:`ARTIFACTS`), and ``--quick`` is
spelled ``--smoke``: ``reproduce figure3 --quick`` runs ``reproduce
bench fig3 --smoke``, which asserts the paper's claims, prints the
figure and writes it into the gitignored ``benchmarks/results/smoke/``.

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

The ``bench`` subcommand runs the benchmark suite (or a selection),
calling each ``benchmarks/bench_<name>.py`` script's ``main``
in-process; the scripts need no test framework::

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
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List

from repro.analysis import format_table
from repro.core.overhead import OverheadModel
from repro.sim.breakdown import POLICIES, dp_bands
from repro.sim.kernelsim import simulate_workload
from repro.timeunits import ms, to_ms, to_us


def _banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


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


def run_bench(argv: List[str], artifacts: bool = False) -> int:
    """The ``bench`` subcommand: run the benchmark suite.

    ``bench all`` runs every ``benchmarks/bench_<name>.py``; ``bench
    fig3 kernel_overhead`` runs a selection.  With ``artifacts`` the
    names are paper artifacts instead (:data:`ARTIFACTS`; none named =
    all of them).  Each benchmark named runs once, in the order given:
    its ``main`` is called in-process, under the shared
    ``--out/--workers/--smoke`` flags of ``benchmarks/common.py``.  A
    benchmark that returns nonzero or raises (its traceback is
    printed) does not stop the ones after it, but the exit code
    becomes 1.  ``sys.path`` and ``os.environ`` are restored on return.
    """
    bench_dir = Path(__file__).parent.parent.parent / "benchmarks"
    available = sorted(p.stem[len("bench_"):] for p in bench_dir.glob("bench_*.py"))
    saved_path, saved_environ = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(bench_dir))
    try:
        from common import apply_bench_args, bench_arg_parser

        parser = bench_arg_parser("Run the benchmark suite (or a selection).")
        if artifacts:
            parser.prog = "python -m repro.reproduce"
            parser.add_argument(
                "names", nargs="*",
                help=f"artifacts to regenerate (default all): {', '.join(ARTIFACTS)}",
            )
        else:
            parser.prog = "python -m repro.reproduce bench"
            parser.add_argument(
                "names", nargs="+",
                help=f"benchmarks to run, or 'all'; available: {', '.join(available)}",
            )
        args = parser.parse_args(argv)
        known = ARTIFACTS if artifacts else [*available, "all"]
        unknown = [n for n in args.names if n not in known]
        if unknown:
            parser.error(f"unknown names: {', '.join(unknown)}")
        if artifacts:
            names = [ARTIFACTS[n] for n in args.names or ARTIFACTS]
        else:
            names = available if "all" in args.names else args.names

        apply_bench_args(args)
        exit_code = 0
        for name in dict.fromkeys(names):
            try:
                module = importlib.import_module(f"bench_{name}")
                code = module.main(["--smoke"] if args.smoke else [])
            except Exception:
                traceback.print_exc()
                code = 1
            if code:
                exit_code = 1
        return exit_code
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_environ)


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
        splits = min_overhead_splits(
            workload, dp_bands(args.policy), OverheadModel()
        )
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
    horizon = ms(args.horizon_ms)

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


#: The paper's artifacts, each an alias of the benchmark that
#: regenerates it (``benchmarks/bench_<name>.py``).
ARTIFACTS: Dict[str, str] = {
    "table1": "table1",
    "table2": "table2_fig2",
    "figure2": "table2_fig2",
    "table3": "table3",
    "figure3": "fig3",
    "figure4": "fig4",
    "figure5": "fig5",
    "figure11": "fig11",
    "ipc": "ipc",
    "cyclic": "cyclic",
    "footprint": "footprint",
    "validate": "validation",
}

SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "faults": run_faults,
    "netfaults": run_netfaults,
    "perf": run_perf,
    "bench": run_bench,
    "trace": run_trace,
    "metrics": run_metrics,
    "cluster-trace": run_cluster_trace,
}


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the process exit code.

    A first argument naming a subcommand dispatches to it.  Anything
    else runs ``bench`` on the named artifacts' benchmarks (default:
    every artifact's), with ``--quick`` spelled ``--smoke``.
    """
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] in SUBCOMMANDS:
        return SUBCOMMANDS[raw[0]](raw[1:])
    return run_bench(["--smoke" if a == "--quick" else a for a in raw], artifacts=True)


if __name__ == "__main__":
    raise SystemExit(main())
