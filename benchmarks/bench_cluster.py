"""Cluster synchronization sweep: lockstep vs adaptive.

The multi-node analogue of the kernel perf harness: every swept
configuration of the canonical ring-cluster workload
(:mod:`repro.perf.clusterload`) is simulated two ways -- the lockstep
reference synchronization (every min-frame-time window, every node)
and the adaptive conservative synchronization that jumps over provably
silent windows -- and the table reports sim-ns per wall-second for
each, the speedup, the fraction of windows skipped, and the delivery
events suppressed by acceptance pre-filtering.

Correctness rides along with speed: for every configuration the
full-record traces of both modes are compared -- per-node sha256
signatures (events + jobs + segments), delivery timelines, bus and
interface counters must be **byte-identical**, or the benchmark exits
non-zero.  An optimization that moves these is not an optimization.

The headline configurations feed the persistent ``BENCH_cluster.json``
trajectory (same format and regression gate as ``BENCH_kernel.json``):
the idle-heavy 8-node point (where window skipping dominates) and the
saturated 8-node point (where delivery batching and per-node laziness
carry the win).  ``--quick`` runs just those two configurations,
checks the >= 3x idle-heavy speedup bound and the signature
cross-check, and gates against the committed trajectory -- the
``cluster-perf-smoke`` CI job runs exactly that.

Each (nodes, utilization) case is an independent deterministic
simulation, so the sweep fans out over ``--workers`` sweep processes
(``--workers 1``, the default, is recommended when the *timings*
matter: concurrent workers contend for cores).
"""

import hashlib
import json
from typing import Tuple

from common import (
    apply_bench_args,
    bench_arg_parser,
    cluster_trajectory_path,
    publish,
    sweep_map,
)
from repro.analysis import format_table
from repro.net.cluster import SYNC_MODES
from repro.perf.clusterload import (
    CLUSTER_HORIZON_NS,
    SIGNATURE_HORIZON_NS,
    cluster_config,
    cluster_signatures,
    run_cluster_throughput,
)
from repro.perf.trajectory import (
    RegressionError,
    append_entry,
    check_regression,
    config_hash,
    make_entry,
)

#: The full sweep grid.
SWEEP_NODES = (2, 4, 8)
SWEEP_UTILIZATIONS = (0.02, 0.3, 0.9)

#: The two trajectory headline configurations (nodes, utilization).
HEADLINE_IDLE = (8, 0.02)
HEADLINE_SATURATED = (8, 0.9)

#: The acceptance bound --quick enforces on the idle-heavy headline.
MIN_IDLE_SPEEDUP = 3.0


def _signature_digest(snapshot: dict) -> str:
    """One hash over everything that must match between sync modes."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cluster_case(case: Tuple[int, float]):
    """One sweep point: both sync modes, timed + behavior-fingerprinted.

    Module-level so sweep worker processes can import it; the workload
    is fully determined by (nodes, utilization).
    """
    nodes, utilization = case
    reports = {
        sync: run_cluster_throughput(nodes, utilization, sync)
        for sync in SYNC_MODES
    }
    digests = {
        sync: _signature_digest(cluster_signatures(nodes, utilization, sync))
        for sync in SYNC_MODES
    }
    return {
        "nodes": nodes,
        "utilization": utilization,
        **reports,
        "identical": len(set(digests.values())) == 1,
        "digest": digests["adaptive"],
        "digests": digests,
    }


def sweep(cases):
    outcomes = sweep_map(_cluster_case, list(cases))
    rows = []
    for out in outcomes:
        lock, adap = out["lockstep"], out["adaptive"]
        speedup = (
            adap["throughput_sim_ns_per_s"] / lock["throughput_sim_ns_per_s"]
            if lock["throughput_sim_ns_per_s"] else float("inf")
        )
        total_windows = adap["sync_rounds"] + adap["windows_skipped"]
        rows.append(
            [
                str(out["nodes"]),
                f"{out['utilization']:g}",
                f"{lock['throughput_sim_ns_per_s'] / 1e9:.2f}",
                f"{adap['throughput_sim_ns_per_s'] / 1e9:.2f}",
                f"{speedup:.2f}x",
                f"{100 * adap['windows_skipped'] / total_windows:.0f}%"
                if total_windows else "-",
                str(adap["deliveries_suppressed"]),
                "yes" if out["identical"] else "NO",
            ]
        )
    return rows, outcomes


def _trajectory_entries(outcomes, label: str):
    """Trajectory entries for the headline configurations."""
    entries = []
    for out in outcomes:
        if (out["nodes"], out["utilization"]) not in (
            HEADLINE_IDLE,
            HEADLINE_SATURATED,
        ):
            continue
        for sync in SYNC_MODES:
            config = cluster_config(
                out["nodes"], out["utilization"], sync,
                horizon_ns=CLUSTER_HORIZON_NS,
            )
            entries.append(
                make_entry(
                    f"{label}/{sync}",
                    dict(out[sync]),
                    config,
                    signatures={"cluster": out["digest"]},
                )
            )
    return entries


def main(argv=None) -> int:
    parser = bench_arg_parser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="headline configs only; assert the >=3x idle-heavy speedup, "
             "signature identity, and the trajectory regression gate (CI)",
    )
    parser.add_argument(
        "--label", default="bench-cluster",
        help="label recorded on trajectory entries",
    )
    parser.add_argument(
        "--append", metavar="PATH", nargs="?", const="", default=None,
        help="append headline measurements to this trajectory "
             "(default BENCH_cluster.json)",
    )
    parser.add_argument(
        "--check", metavar="PATH", nargs="?", const="", default=None,
        help="fail on >30%% adaptive-throughput regression vs this "
             "trajectory's baseline (default BENCH_cluster.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="allowed fractional throughput drop for --check",
    )
    args = apply_bench_args(parser.parse_args(argv))

    if args.quick:
        cases = [HEADLINE_IDLE, HEADLINE_SATURATED]
    else:
        cases = [(n, u) for n in SWEEP_NODES for u in SWEEP_UTILIZATIONS]

    rows, outcomes = sweep(cases)
    header = [
        "nodes", "util", "lockstep Gns/s", "adaptive Gns/s", "adapt x",
        "skipped", "suppressed", "identical",
    ]
    text = (
        "Cluster synchronization sweep: ring workload, "
        f"{CLUSTER_HORIZON_NS / 1e9:.0f} s virtual horizon "
        f"(signatures cross-checked at {SIGNATURE_HORIZON_NS / 1e6:.0f} ms, "
        "full recording)\n" + format_table(header, rows)
    )
    publish("cluster_sync_sweep", text)

    failed = False

    mismatched = [o for o in outcomes if not o["identical"]]
    for out in mismatched:
        print(
            f"FAIL: sync-mode traces differ at "
            f"nodes={out['nodes']} utilization={out['utilization']:g}: "
            f"{ {s: d[:12] for s, d in out['digests'].items()} }"
        )
        failed = True
    if not mismatched:
        print(
            f"signature cross-check: lockstep == adaptive on "
            f"all {len(outcomes)} swept configs"
        )

    idle = next(
        (o for o in outcomes
         if (o["nodes"], o["utilization"]) == HEADLINE_IDLE),
        None,
    )
    if idle is not None:
        speedup = (
            idle["adaptive"]["throughput_sim_ns_per_s"]
            / idle["lockstep"]["throughput_sim_ns_per_s"]
        )
        if args.quick and speedup < MIN_IDLE_SPEEDUP:
            print(
                f"FAIL: idle-heavy 8-node speedup {speedup:.2f}x "
                f"< {MIN_IDLE_SPEEDUP:.1f}x bound"
            )
            failed = True
        else:
            print(f"idle-heavy 8-node speedup: {speedup:.2f}x vs lockstep")

    check = args.check if args.check is not None else ("" if args.quick else None)
    if check is not None and idle is not None:
        path = check or cluster_trajectory_path()
        current = idle["adaptive"]["throughput_sim_ns_per_s"]
        fingerprint = config_hash(
            cluster_config(*HEADLINE_IDLE, "adaptive",
                           horizon_ns=CLUSTER_HORIZON_NS)
        )
        try:
            baseline = check_regression(
                path, current, fingerprint, args.max_regression
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
                    f"regression gate: {current / 1e9:.2f} Gns/s vs committed "
                    f"{base / 1e9:.2f} Gns/s ({baseline['label']!r}) -- ok"
                )

    if args.append is not None:
        path = args.append or cluster_trajectory_path()
        for entry in _trajectory_entries(outcomes, args.label):
            append_entry(path, entry)
        print(f"appended headline entries to {path}")

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
