"""Observability overhead bound + export determinism checks.

Enforces the observability layer's two contracts on the canonical
``bench_kernel_overhead`` workload (n = 20, EDF / RM / CSD-3):

1. **Cost**: attaching a counters-mode collector costs < 10% of
   throughput versus observation disabled.  Both sides are measured
   best-of-N (GC suspended inside the timed sections, same discipline
   as the perf trajectory) so scheduler noise cannot flip the verdict.

2. **Behavior**: the full-mode trace signatures of the three policy
   runs are byte-identical to the last committed baseline in
   ``BENCH_kernel.json`` -- observation must never change what the
   kernel *does* -- and the metrics export is byte-identical across
   two runs.

With ``--obs`` (or ``REPRO_BENCH_OBS``) set, the run also dumps the
metrics/trace artifacts via :func:`common.dump_obs_artifacts`.
``--smoke`` shrinks the repetitions for CI.

``--cluster`` switches to the *cluster* instrumentation bound: arming
cluster-wide tracing (bus event log, per-interface rx logs, and
counters-mode collectors on every node) on the canonical ring workload
must cost < 10% of throughput versus an uninstrumented run, measured
with the same interleaved best-of discipline.
"""

import json

from common import (
    apply_bench_args,
    bench_arg_parser,
    bench_obs_mode,
    dump_obs_artifacts,
    publish,
    trajectory_path,
)
from repro.analysis import format_table

#: The enforced counters-mode overhead bound (fraction of throughput).
MAX_OVERHEAD = 0.10


def measure_overhead(repeats: int):
    """Best-of-``repeats`` throughput with and without counters.

    The two configurations are measured in *interleaved* pairs (off,
    counters, off, counters, ...): measuring all of one side first
    lets CPU frequency drift during the run masquerade as overhead.

    Returns ``(base_ns_per_s, counters_ns_per_s, overhead_fraction)``;
    the overhead fraction is positive when counters cost throughput.
    """
    from repro.perf.workloads import run_throughput

    best = {None: 0.0, "counters": 0.0}
    for _ in range(max(1, repeats)):
        for obs in (None, "counters"):
            rate = run_throughput("jobs-only", obs=obs).throughput_sim_ns_per_s
            if rate > best[obs]:
                best[obs] = rate
    base, counters = best[None], best["counters"]
    return base, counters, (base - counters) / base


#: ``--cluster`` ring configuration (matches the CI smoke budget).
CLUSTER_NODES = 4
CLUSTER_UTILIZATION = 0.5


def _cluster_rate(instrument: bool, horizon_ns: int) -> float:
    """One timed ring run; sim-ns per wall-second.

    ``instrument=True`` arms the full cluster observability path --
    bus event log, per-interface rx logs, and a counters-mode
    collector per node -- exactly what ``reproduce cluster-trace``
    enables (full-mode collectors are the known-expensive debugging
    tier, same as the kernel-side bound).
    """
    import gc
    import time

    from repro.perf.clusterload import build_ring_cluster

    cluster = build_ring_cluster(
        CLUSTER_NODES, CLUSTER_UTILIZATION, "adaptive", record="jobs-only"
    )
    if instrument:
        from repro.obs.cluster_trace import enable_cluster_tracing

        enable_cluster_tracing(cluster, obs="counters")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cluster.run_until(horizon_ns)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return horizon_ns / wall if wall > 0 else 0.0


def measure_cluster_overhead(repeats: int, horizon_ns: int):
    """Best-of-``repeats`` ring throughput with and without tracing.

    Interleaved pairs, like :func:`measure_overhead`.  Returns
    ``(base_ns_per_s, traced_ns_per_s, overhead_fraction)``.
    """
    best = {False: 0.0, True: 0.0}
    for _ in range(max(1, repeats)):
        for instrument in (False, True):
            rate = _cluster_rate(instrument, horizon_ns)
            if rate > best[instrument]:
                best[instrument] = rate
    base, traced = best[False], best[True]
    return base, traced, (base - traced) / base


def run_cluster_bound(repeats: int, horizon_ns: int) -> int:
    """The ``--cluster`` entry: enforce the cluster tracing bound."""
    base, traced, overhead = measure_cluster_overhead(repeats, horizon_ns)
    lines = [
        f"Cluster tracing overhead (best of {repeats}, "
        f"{CLUSTER_NODES}-node ring, u={CLUSTER_UTILIZATION:g}):",
        format_table(
            ["config", "sim ns / wall s"],
            [
                ["tracing off", f"{base / 1e9:.2f}e9"],
                ["bus log + rx logs + counters", f"{traced / 1e9:.2f}e9"],
            ],
        ),
        f"cluster tracing overhead: {100 * overhead:+.1f}% "
        f"(bound: < {100 * MAX_OVERHEAD:.0f}%)",
    ]
    publish("obs_cluster_overhead", "\n".join(lines))
    if overhead >= MAX_OVERHEAD:
        print(
            f"FAILED: cluster tracing overhead {100 * overhead:.1f}% "
            f">= {100 * MAX_OVERHEAD:.0f}% bound"
        )
        return 1
    return 0


def check_signatures():
    """Full-mode signatures vs the last committed baseline.

    Returns ``(rows, mismatches)`` for the report table; silently
    passes (empty rows) when no baseline entry carries signatures.
    """
    from repro.perf.workloads import full_signatures

    path = trajectory_path()
    baseline = None
    if path.exists():
        entries = json.loads(path.read_text())
        baseline = next(
            (
                e["signatures_full"]
                for e in reversed(entries)
                if e.get("signatures_full")
            ),
            None,
        )
    if baseline is None:
        return [], 0
    current = full_signatures()
    rows, mismatches = [], 0
    for policy in sorted(current):
        match = baseline.get(policy) == current[policy]
        mismatches += 0 if match else 1
        rows.append([policy, current[policy][:16], "OK" if match else "MISMATCH"])
    return rows, mismatches


def check_export_determinism() -> bool:
    """Two demo runs must produce byte-identical exports."""
    from repro.obs.scenarios import demo_metrics_fingerprint

    return demo_metrics_fingerprint("standard") == demo_metrics_fingerprint(
        "standard"
    )


def main(argv=None) -> int:
    parser = bench_arg_parser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="fewer repetitions for CI"
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="throughput repetitions per side (default 10, smoke 6)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="enforce the cluster tracing overhead bound instead",
    )
    args = apply_bench_args(parser.parse_args(argv))
    repeats = args.repeats or (6 if args.smoke else 10)

    if args.cluster:
        from repro.timeunits import ms

        cluster_repeats = args.repeats or (3 if args.smoke else 5)
        return run_cluster_bound(
            cluster_repeats, ms(100 if args.smoke else 300)
        )

    base, counters, overhead = measure_overhead(repeats)
    sig_rows, mismatches = check_signatures()
    deterministic = check_export_determinism()

    lines = [
        f"Observability overhead (best of {repeats}, canonical workload):",
        format_table(
            ["config", "sim ns / wall s"],
            [
                ["observation off", f"{base / 1e9:.2f}e9"],
                ["counters mode", f"{counters / 1e9:.2f}e9"],
            ],
        ),
        f"counters-mode overhead: {100 * overhead:+.1f}% "
        f"(bound: < {100 * MAX_OVERHEAD:.0f}%)",
        f"export determinism (two identical demo runs): "
        f"{'OK' if deterministic else 'FAILED'}",
    ]
    if sig_rows:
        lines.append(
            format_table(
                ["policy", "signature", "vs baseline"],
                sig_rows,
                title="full-mode trace signatures",
            )
        )
    publish("obs_overhead", "\n".join(lines))

    if bench_obs_mode() is not None:
        from repro.sim.kernelsim import simulate_workload
        from repro.perf.workloads import overhead_workload
        from repro.timeunits import ms

        kernel, trace = simulate_workload(
            overhead_workload(), "edf", duration=ms(200),
            record="full", obs=bench_obs_mode(),
        )
        out = dump_obs_artifacts("obs_canonical", kernel, trace)
        print(f"observability artifacts written under {out}")

    failed = []
    if overhead >= MAX_OVERHEAD:
        failed.append(
            f"counters-mode overhead {100 * overhead:.1f}% "
            f">= {100 * MAX_OVERHEAD:.0f}% bound"
        )
    if mismatches:
        failed.append(f"{mismatches} trace signature(s) moved vs baseline")
    if not deterministic:
        failed.append("metrics export differed between identical runs")
    for reason in failed:
        print(f"FAILED: {reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
