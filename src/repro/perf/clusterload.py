"""The canonical multi-node cluster workload and its measurement harness.

The cluster analogue of :mod:`repro.perf.workloads`: one parameterized
configuration -- a ring of periodic senders over the 1 Mbit/s fieldbus
-- measured identically by ``benchmarks/bench_cluster.py`` and the CI
``perf-gates`` job, so every entry in ``BENCH_cluster.json`` is
comparable.

The ring topology is deliberately filter-heavy: node *i* broadcasts
CAN id ``0x100 + i`` but accepts only its predecessor's id, so on an
*n*-node cluster every delivered frame has exactly one interested
receiver and *n - 2* whose acceptance filters reject it -- the shape
that makes delivery pre-filtering (and its absence) visible.

``utilization`` sets the offered bus load: each node sends an 8-byte
frame (111 us of wire time at 1 Mbit/s) every
``n * frame_time / utilization`` nanoseconds.  ``u = 0.02`` gives the
idle-heavy regime (tens of milliseconds of silence between frames --
where adaptive synchronization's window skipping dominates);
``u = 0.9`` keeps the bus saturated (every quantum has traffic; the
win there comes from delivery pre-filtering and loop overhead).

``app_load`` models the *application* compute that real nodes run
alongside their bus traffic.  ``"none"`` is the bare driver workload
(kept for the idle-heavy regime, whose whole point is silence);
``"standard"`` adds :data:`APP_THREADS` periodic compute threads per
node, each job also burning real host CPU.  The default ``"auto"``
picks ``"standard"`` at ``utilization >= 0.3`` and ``"none"`` below;
the committed saturated ``BENCH_cluster.json`` headline is keyed on
``"standard"``.

Two measurements per configuration, as in the kernel harness:

* **speed** (:func:`run_cluster_throughput`): wall time and sim-ns
  per wall-second at ``jobs-only`` recording, timed by
  :func:`repro.perf.counters.timed`;
* **behavior** (:func:`cluster_signatures`): per-node sha256
  signatures of the *full* traces plus the delivery timelines and bus
  counters.  Adaptive synchronization is only correct if these are
  byte-identical to lockstep's.
"""

from __future__ import annotations

from typing import Dict

from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program, Wait
from repro.net.cluster import Cluster
from repro.net.fieldbus import Fieldbus
from repro.net.node import net_send
from repro.perf.counters import timed
from repro.timeunits import ms, us

__all__ = [
    "CLUSTER_HORIZON_NS",
    "SIGNATURE_HORIZON_NS",
    "FRAME_SIZE",
    "APP_LOADS",
    "build_ring_cluster",
    "cluster_config",
    "run_cluster_throughput",
    "cluster_signatures",
]

#: Virtual horizon of one throughput run.
CLUSTER_HORIZON_NS = ms(2000)

#: Virtual horizon of the full-record signature cross-check (full
#: recording of a saturated bus is memory-hungry; correctness at 300 ms
#: implies correctness at any horizon -- the loop has no state that
#: only appears later).
SIGNATURE_HORIZON_NS = ms(300)

#: Payload bytes per frame (111 us of wire time at 1 Mbit/s).
FRAME_SIZE = 8

#: Per-job compute cost of a sender (ns) -- small but nonzero so the
#: kernels actually run application code, not just drivers.
SENDER_COMPUTE_NS = us(10)

#: Application-load shapes (see module docstring).
APP_LOADS = ("none", "standard")

#: ``app_load="standard"``: per-node periodic compute threads
#: (count, per-job virtual compute, and staggered periods).
APP_THREADS = 3
APP_COMPUTE_NS = us(30)
APP_PERIODS_NS = (us(200), us(250), us(300))

#: Host-CPU iterations of the per-job checksum churn.  Virtual
#: ``Compute`` advances the clock for free, so on its own it cannot
#: model the *host* cost of application code.  Each app job therefore
#: also runs a deterministic integer spin (~90 us of real CPU at
#: ~0.09 us/iter), keeping trace volume unchanged while giving every
#: node a realistic per-window compute bill.
APP_SPIN_ITERS = 1000


def _app_spin(kern, t):
    """Deterministic pure-integer churn standing in for app compute."""
    acc = 0x12345678
    for _ in range(APP_SPIN_ITERS):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
    return acc


def sender_period_ns(nodes: int, utilization: float, bus: Fieldbus) -> int:
    """Period making ``nodes`` senders offer ``utilization`` bus load."""
    frame_ns = bus.frame_time_ns(FRAME_SIZE)
    return max(frame_ns + 1, int(nodes * frame_ns / utilization))


def resolve_app_load(app_load: str, utilization: float) -> str:
    """Resolve ``"auto"`` against the regime (see module docstring)."""
    if app_load == "auto":
        return "standard" if utilization >= 0.3 else "none"
    if app_load not in APP_LOADS:
        raise ValueError(
            f"app_load {app_load!r}; expected 'auto' or one of {APP_LOADS}"
        )
    return app_load


def build_ring_cluster(
    nodes: int,
    utilization: float,
    sync: str,
    record: str = "jobs-only",
    app_load: str = "auto",
) -> Cluster:
    """Build (but do not run) the canonical ring cluster.

    Per-node received-frame timelines accumulate on each interface's
    ``rx_timeline`` (``[(local_time, can_id), ...]``); collect them
    afterwards with ``cluster.rx_timelines()``.
    """
    if nodes < 2:
        raise ValueError(f"ring needs at least 2 nodes (got {nodes})")
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1] (got {utilization})")
    app_load = resolve_app_load(app_load, utilization)
    bus = Fieldbus(1_000_000)
    cluster = Cluster(bus=bus, sync=sync)
    period = sender_period_ns(nodes, utilization, bus)
    for i in range(nodes):
        name = f"n{i}"
        kernel = Kernel(EDFScheduler(ZERO_OVERHEAD), record=record)
        # Accept only the ring predecessor's identifier: one interested
        # receiver per frame, n-2 filter rejections.
        predecessor_id = 0x100 + (i - 1) % nodes
        iface = cluster.add_node(name, kernel, accept={predecessor_id})
        iface.rx_timeline = []

        kernel.create_thread(
            f"tx{i}",
            Program([
                Compute(SENDER_COMPUTE_NS),
                net_send(iface, can_id=0x100 + i, size=FRAME_SIZE),
            ]),
            period=period,
            deadline=period,
        )

        def drain(kern, t, iface=iface):
            while True:
                frame = iface.receive()
                if frame is None:
                    break
                iface.rx_timeline.append((kern.now, frame.can_id))

        kernel.create_thread(
            f"rx{i}",
            Program([Wait(iface.rx_event_name), Call(drain)]),
            period=period,
            deadline=period,
        )

        if app_load == "standard":
            for j in range(APP_THREADS):
                app_period = APP_PERIODS_NS[j % len(APP_PERIODS_NS)]
                kernel.create_thread(
                    f"app{j}-{i}",
                    Program([Compute(APP_COMPUTE_NS), Call(_app_spin)]),
                    period=app_period,
                    deadline=app_period,
                )
    return cluster


def cluster_config(
    nodes: int,
    utilization: float,
    sync: str,
    record: str = "jobs-only",
    horizon_ns: int = CLUSTER_HORIZON_NS,
    app_load: str = "auto",
) -> Dict:
    """The measurement configuration fingerprinted into the trajectory.

    ``app_load`` joins the fingerprint only when it actually shapes the
    run (keeps pre-existing config hashes -- and therefore regression
    baselines -- valid for the unchanged configurations).
    """
    config = {
        "workload": "ring-cluster/8-byte-frames",
        "nodes": nodes,
        "utilization": utilization,
        "sync": sync,
        "horizon_ns": horizon_ns,
        "record": record,
    }
    resolved = resolve_app_load(app_load, utilization)
    if resolved != "none":
        config["app_load"] = resolved
    return config


def run_cluster_throughput(
    nodes: int,
    utilization: float,
    sync: str,
    record: str = "jobs-only",
    horizon_ns: int = CLUSTER_HORIZON_NS,
    app_load: str = "auto",
) -> Dict:
    """One timed run; returns a trajectory-ready report dict."""
    cluster = build_ring_cluster(
        nodes, utilization, sync, record, app_load=app_load
    )
    _, wall = timed(lambda: cluster.run_until(horizon_ns))
    return {
        "sim_ns": horizon_ns,
        "wall_s": wall,
        "throughput_sim_ns_per_s": round(horizon_ns / wall) if wall > 0 else 0,
        "sync_rounds": cluster.sync_rounds,
        "windows_skipped": cluster.windows_skipped,
        "deliveries_suppressed": cluster.deliveries_suppressed,
        "frames_delivered": cluster.bus.frames_delivered,
        "events_popped": cluster.total_events_popped(),
    }


def cluster_signatures(
    nodes: int,
    utilization: float,
    sync: str,
    horizon_ns: int = SIGNATURE_HORIZON_NS,
    app_load: str = "auto",
) -> Dict:
    """Full-record behavior fingerprint of one configuration.

    Returns per-node full-trace signatures, the per-node delivery
    timelines, and the bus counters -- everything that must be
    byte-identical between sync modes.
    """
    cluster = build_ring_cluster(
        nodes, utilization, sync, "full", app_load=app_load
    )
    cluster.run_until(horizon_ns)
    bus = cluster.bus
    return {
        "traces": cluster.trace_signatures(include_segments=True),
        "timelines": {
            name: [list(entry) for entry in timeline]
            for name, timeline in cluster.rx_timelines().items()
        },
        "bus": {
            "frames_delivered": bus.frames_delivered,
            "frames_dropped": bus.frames_dropped,
            "frames_corrupted": bus.frames_corrupted,
            "bits_carried": bus.bits_carried,
            "total_arbitration_wait_ns": bus.total_arbitration_wait_ns,
        },
        "interfaces": cluster.interface_stats(),
    }
