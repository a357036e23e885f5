"""Snapshot-sweep speedup: cold-start vs shared-prefix restore.

The perf benchmark behind ``BENCH_sweeps.json``: the canonical
fault-injection and fieldbus-dependability sweeps are run twice over
the same grid -- once cold-starting every point (build + warm-up +
storm per point, the pre-snapshot behaviour) and once through the
shared-prefix planner (:func:`repro.perf.sweeps.prefix_map`), which
simulates each common warm-up prefix exactly once and restores every
sweep point from a snapshot of it (:mod:`repro.perf.snapshot`).

Correctness rides along with speed: every restored result is compared
against its cold twin -- the dataclasses carry the full-record trace
signatures, so equality here is byte-identity of the simulated
histories, not a summary check.  Any mismatch exits non-zero; an
optimization that moves a signature changed *behaviour*, not speed.

The headline measurement (both sections combined: useful simulated ns
delivered per wall-second through the snapshot path, and the speedup
over cold) appends to the persistent ``BENCH_sweeps.json`` trajectory
with the same config-hash regression gate as ``BENCH_kernel.json``.
``--quick`` shrinks the grid, keeps the gate, and optionally enforces
``--min-speedup`` -- the ``snapshot-smoke`` CI job runs exactly that
(the bound is only enforced on hosts with >= 2 CPUs: a starved
single-core runner measures scheduling noise, not the optimization).

Timing methodology: the GC is disabled around each timed region.  The
cold path runs every point serially in this process.  The snapshot
path forks one server per prefix group (two per section), and each
server forks its continuations as soon as its prefix is built, one at
a time at the default ``--workers`` of 1, so the two groups run side
by side.  The speedup therefore combines work reduction -- shared
prefixes simulated once instead of once per point -- with up to
two-way overlap between groups; on a single core only the work
reduction remains.
"""

import gc
import os
import time

import bench_faults
import bench_net_faults
from common import (
    apply_bench_args,
    bench_arg_parser,
    publish,
    sweeps_trajectory_path,
)
from repro.analysis import format_table
from repro.perf.snapshot import fork_available
from repro.perf.sweeps import prefix_map
from repro.timeunits import ms, to_ms

#: The canonical grids: (rates | drop_ps, seeds, duration, warm-up).
#: Horizons are long (tens of virtual seconds) on purpose: the
#: snapshot win is work reduction, so the shared 75% warm-up prefix
#: must dwarf the per-restore overhead (a fork costs ~1-2 ms).
FAULT_FULL = ((5.0, 20.0, 50.0), (1, 2, 3), ms(60_000), ms(45_000))
FAULT_QUICK = ((5.0, 50.0), (1, 2), ms(15_000), ms(11_250))
NET_FULL = ((0.05, 0.2), (1, 2), ms(20_000), ms(15_000))
NET_QUICK = ((0.1,), (1, 2, 3), ms(8_000), ms(6_000))


def _timed(fn):
    """Run ``fn`` with the GC parked; return (result, wall seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _section(name, plan, cases):
    """Time one sweep section cold and snapshotted; verify identity.

    Cold runs every point serially through the same plan, building its
    own prefix (what :func:`prefix_map` does for a group it cannot
    share), so the two timings differ only in prefix reuse.
    """
    cold, cold_wall = _timed(
        lambda: [cont(spec.build()) for spec, cont in map(plan, cases)]
    )
    snap, snap_wall = _timed(lambda: prefix_map(plan, cases))
    mismatches = [
        index for index, (a, b) in enumerate(zip(cold, snap)) if a != b
    ]
    return {
        "name": name,
        "points": len(cases),
        "sim_ns": sum(case[3] for case in cases),
        "cold_wall_s": cold_wall,
        "snapshot_wall_s": snap_wall,
        "speedup": cold_wall / snap_wall if snap_wall else float("inf"),
        "mismatches": mismatches,
        "cases": cases,
    }


def run_sections(quick):
    """Both canonical sections, cold and snapshotted."""
    f_rates, f_seeds, f_dur, f_warm = FAULT_QUICK if quick else FAULT_FULL
    n_drops, n_seeds, n_dur, n_warm = NET_QUICK if quick else NET_FULL
    fault_cases = bench_faults.make_cases(f_rates, f_seeds, f_dur, f_warm)
    net_cases = bench_net_faults.make_cases(n_drops, n_seeds, n_dur, n_warm)
    return [
        _section("fault storm", bench_faults._chaos_plan, fault_cases),
        _section("net faults", bench_net_faults._net_plan, net_cases),
    ]


def main(argv=None) -> int:
    parser = bench_arg_parser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunken grid: identity check, speedup, regression gate (CI)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="alias for --quick (the shared bench-runner flag)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="fail when the combined snapshot speedup falls below this "
             "bound (enforced only on hosts with >= 2 CPUs)",
    )
    parser.add_argument(
        "--label", default="bench-sweeps",
        help="label recorded on trajectory entries",
    )
    parser.add_argument(
        "--append", metavar="PATH", nargs="?", const="", default=None,
        help="append the headline measurement to this trajectory "
             "(default BENCH_sweeps.json)",
    )
    parser.add_argument(
        "--check", metavar="PATH", nargs="?", const="", default=None,
        help="fail on >30%% snapshot-throughput regression vs this "
             "trajectory's baseline (default BENCH_sweeps.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="allowed fractional throughput drop for --check",
    )
    args = apply_bench_args(parser.parse_args(argv))
    quick = args.quick or args.smoke
    # The trajectory config keeps its "mode" field so that committed
    # config hashes stay valid; without fork every point runs cold.
    mode = "fork" if fork_available() else "cold"

    sections = run_sections(quick)

    rows = []
    for sec in sections:
        rows.append(
            [
                sec["name"],
                str(sec["points"]),
                f"{to_ms(sec['sim_ns'] // sec['points']):.0f}",
                f"{sec['cold_wall_s']:.2f}",
                f"{sec['snapshot_wall_s']:.2f}",
                f"{sec['speedup']:.2f}x",
                "yes" if not sec["mismatches"] else "NO",
            ]
        )
    cold_wall = sum(s["cold_wall_s"] for s in sections)
    snap_wall = sum(s["snapshot_wall_s"] for s in sections)
    sim_ns = sum(s["sim_ns"] for s in sections)
    speedup = cold_wall / snap_wall if snap_wall else float("inf")
    rows.append(
        [
            "combined",
            str(sum(s["points"] for s in sections)),
            "-",
            f"{cold_wall:.2f}",
            f"{snap_wall:.2f}",
            f"{speedup:.2f}x",
            "yes" if not any(s["mismatches"] for s in sections) else "NO",
        ]
    )
    header = [
        "sweep", "points", "ms/point", "cold s", "snapshot s",
        "speedup", "identical",
    ]
    text = (
        f"Sweep snapshot speedup: mode={mode}, "
        f"{'quick' if quick else 'full'} grid "
        "(cold = build + warm-up + storm per point, serially; snapshot = "
        "shared warm-up simulated once per group, groups side by side, "
        "restored per point)\n"
        + format_table(header, rows)
    )
    publish("sweep_snapshot", text)

    failed = False
    for sec in sections:
        for index in sec["mismatches"]:
            print(
                f"FAIL: {sec['name']} point {sec['cases'][index]!r}: "
                "restored result differs from the cold run"
            )
            failed = True
    if not failed:
        print(
            "byte-identity: every restored point equals its cold twin "
            f"({sum(s['points'] for s in sections)} points, "
            "full-record signatures included)"
        )

    cores = os.cpu_count() or 1
    if args.min_speedup > 0:
        if mode == "cold":
            print(
                f"speedup bound skipped: no fork support, every point ran "
                f"cold; measured {speedup:.2f}x"
            )
        elif cores < 2:
            print(
                f"speedup bound skipped: {cores} CPU(s); "
                f"measured {speedup:.2f}x (informational)"
            )
        elif speedup < args.min_speedup:
            print(
                f"FAIL: combined snapshot speedup {speedup:.2f}x "
                f"< {args.min_speedup:.1f}x bound"
            )
            failed = True
        else:
            print(
                f"combined snapshot speedup: {speedup:.2f}x "
                f">= {args.min_speedup:.1f}x bound -- ok"
            )

    # Trajectory: one headline entry; the config hash fingerprints the
    # grids and mechanism, so baselines only gate like measurements.
    from repro.perf.trajectory import (
        RegressionError,
        append_entry,
        check_regression,
        config_hash,
        make_entry,
    )

    config = {
        "benchmark": "sweeps",
        "grid": "quick" if quick else "full",
        "mode": mode,
        "sections": [
            {"name": s["name"], "points": s["points"], "sim_ns": s["sim_ns"]}
            for s in sections
        ],
    }
    throughput = sim_ns / snap_wall if snap_wall else 0.0
    entry = make_entry(
        args.label,
        {
            "throughput_sim_ns_per_s": throughput,
            "wall_s": snap_wall,
        },
        config,
        cold_wall_s=cold_wall,
        snapshot_wall_s=snap_wall,
        speedup=speedup,
        sections={
            s["name"]: {
                "cold_wall_s": s["cold_wall_s"],
                "snapshot_wall_s": s["snapshot_wall_s"],
                "speedup": s["speedup"],
            }
            for s in sections
        },
    )

    check = args.check if args.check is not None else ("" if quick else None)
    if check is not None:
        path = check or sweeps_trajectory_path()
        try:
            baseline = check_regression(
                path, throughput, entry["config_hash"], args.max_regression
            )
        except RegressionError as err:
            print(f"FAIL: {err}")
            failed = True
        else:
            if baseline is None:
                print(f"no comparable baseline in {path}; gate skipped")
            else:
                base = baseline["throughput_sim_ns_per_s"]
                print(
                    f"regression gate: {throughput / 1e6:.1f} Mns/s vs "
                    f"committed {base / 1e6:.1f} Mns/s "
                    f"({baseline['label']!r}) -- ok"
                )

    if args.append is not None:
        path = args.append or sweeps_trajectory_path()
        append_entry(path, entry)
        print(f"appended headline entry to {path}")

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
