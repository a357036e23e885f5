"""The traced run: layer coverage, tracer transparency, cProfile cross-check."""

import re

import pytest

import run
from conftest import small_workloads
from repro.perf.profiler import profile_call
from tracer import NullProbe, Tracer, calibrate, layer_metrics

NET = ("net.cluster", "net.fieldbus", "net.node")


def test_every_entry_point_is_wrapped(traced_rounds):
    for name, traced in traced_rounds.items():
        assert traced.missing == [], name


def test_traced_outputs_equal_untraced(traced_rounds):
    for name, traced in traced_rounds.items():
        assert traced.traced.ops == traced.plain.ops, name
        assert traced.traced.virtual == traced.plain.virtual, name


def test_net_layers_idle_on_kernel_workloads(traced_rounds):
    for name in ("kernel-lean", "kernel-traced"):
        metrics = traced_rounds[name].metrics
        assert traced_rounds[name].share(*NET) == 0.0, name
        assert metrics["net.cluster.rounds"] == 0
        assert metrics["net.fieldbus.frames"] == 0
        assert metrics["net.node.deliveries"] == 0


def test_obs_sync_ipc_only_on_kernel_traced(traced_rounds):
    lean = traced_rounds["kernel-lean"]
    full = traced_rounds["kernel-traced"]
    for layer in ("obs", "sync", "ipc"):
        assert lean.share(layer) == 0.0, layer
        assert full.share(layer) > 0.0, layer
    assert lean.metrics["obs.hook_calls"] == 0
    assert full.metrics["obs.hook_calls"] > 0
    assert full.metrics["obs.export_bytes"] > 0
    assert lean.metrics["sync.acquires"] == 0
    assert full.metrics["sync.acquires"] > 0
    assert full.metrics["sync.pi_ops"] > 0
    assert full.metrics["ipc.ops"] > 0


def test_snapshot_and_faults_only_on_fault_sweep(traced_rounds):
    for name, traced in traced_rounds.items():
        ran = name == "fault-sweep"
        assert (traced.share("faults") > 0) == ran, name
        assert (traced.metrics["perf.snapshot.forks"] > 0) == ran, name
        assert (traced.metrics["faults.injected"] > 0) == ran, name
    sweep = traced_rounds["fault-sweep"].metrics
    # 4 prefix servers, then one child per point (8 fault, 4 net).
    assert sweep["perf.snapshot.forks"] == 4 + 8 + 4
    assert 0 < sweep["perf.snapshot.reuse_ratio"] < 1
    assert sweep["perf.snapshot.result_bytes"] > 0


def test_trace_share_higher_when_fully_recorded(traced_rounds):
    lean = traced_rounds["kernel-lean"].share("sim.trace")
    full = traced_rounds["kernel-traced"].share("sim.trace")
    assert full > lean


def test_net_layers_substantial_on_ring(traced_rounds):
    ring = traced_rounds["ring-saturated"]
    assert ring.share(*NET) > 0.15
    assert ring.metrics["net.cluster.rounds"] > 0
    assert ring.metrics["net.cluster.suppressed_ratio"] > 0.5  # 14 of 15 receivers filter
    assert ring.metrics["core.edf.select.virt_ns"] == 0  # zero-overhead EDF


def test_scheduler_costs_match_scheduler_stats():
    """``core.*.virt_ns`` is the charge ``SchedulerStats`` accounts."""
    workload = small_workloads()["kernel-lean"]
    tracer = Tracer()
    kernels = {}

    def keep(prepared, probe):
        kernels.update(prepared)
        return original(prepared, probe)

    original = workload.run
    workload.run = keep
    _, _, rnd = run.one_round(workload, 3, tracer)
    tracer.end_run(1)
    metrics = layer_metrics([tracer.runs[1]], calibrate(1000, 1), 1.0, rnd.virtual)
    policy_label = {"edf": "edf", "rm": "rm", "csd-3": "csd"}
    for policy, kernel in kernels.items():
        stats = kernel.scheduler.stats
        label = policy_label[policy]
        for op, calls, charged in (
            ("select", stats.selects, stats.charged_select_ns),
            ("block", stats.blocks, stats.charged_block_ns),
            ("unblock", stats.unblocks, stats.charged_unblock_ns),
        ):
            assert metrics[f"core.{label}.{op}.calls"] == calls
            assert metrics[f"core.{label}.{op}.virt_ns"] == pytest.approx(charged / calls)


#: Module basename -> layer, for the cProfile roll-up.
MODULE_LAYER = {
    "engine.py": "sim.engine",
    "queues.py": "core", "edf.py": "core", "rm.py": "core", "csd.py": "core",
    "scheduler.py": "core", "overhead.py": "core", "task.py": "core",
    "kernel.py": "kernel", "thread.py": "kernel", "program.py": "kernel",
    "trace.py": "sim.trace",
}
_STATS_LINE = re.compile(r"^\s*\S+\s+([\d.]+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(\S.*)$")


def cprofile_shares(workload):
    prepared = workload.setup(1)
    _, text = profile_call(workload.run, prepared, NullProbe, sort="tottime", limit=10_000)
    layers = {}
    for line in text.splitlines():
        match = _STATS_LINE.match(line)
        if not match:
            continue
        tottime, where = float(match.group(1)), match.group(2)
        if "_heapq" in where:
            layer = "sim.engine"  # only the event queue uses heapq here
        else:
            layer = MODULE_LAYER.get(where.split(":", 1)[0])
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + tottime
    whole = sum(layers.values())
    return {layer: t / whole for layer, t in layers.items()}


def test_self_time_shares_agree_with_cprofile(traced_rounds):
    """The tracer's per-layer shares on kernel-lean match a per-module
    roll-up of ``repro.perf.profiler``'s cProfile hook."""
    traced = traced_rounds["kernel-lean"]
    layers = ("sim.engine", "core", "kernel", "sim.trace")
    whole = sum(traced.self_ns[layer] for layer in layers)
    ours = {layer: traced.self_ns[layer] / whole for layer in layers}
    theirs = cprofile_shares(small_workloads()["kernel-lean"])
    assert max(ours, key=ours.get) == max(theirs, key=theirs.get) == "kernel"
    for layer in layers:
        assert abs(ours[layer] - theirs.get(layer, 0.0)) < 0.15, (layer, ours, theirs)
