"""Span tracer for the benchmark's traced run.

The traced run is separate from the timed runs: :meth:`Tracer.install`
replaces each layer's entry points *at class level* with a wrapper
that records a span, and :meth:`Tracer.uninstall` puts the originals
back.  The program itself is never edited.

A span has a name (``"<layer>:<Class.method>"``), a start, an end, a
parent (the innermost enclosing span) and a run id (the traced round
it belongs to).  Spans are not stored one by one -- a traced round of
the kernel workloads opens millions of them -- but folded on close
into in-memory aggregates per name: calls, total ns, ns covered by
child spans, and child-span count, plus a (parent, child) call count.
Self time is the total minus the child-covered part, minus the
calibrated cost of the tracer's own wrappers (:func:`calibrate`).
Each round's aggregates are kept under its run id and written out
when the run ends.

An entry point is the public method, or -- where the caller's hot path
bypasses it -- the method the caller actually invokes (the kernel
calls the scheduler's ``_select/_block/_unblock`` hooks inline, so
those are wrapped, not ``select/on_block/on_unblock``).  Work a caller
inlines (the scheduler stats updates, ``obs.on_switch``, the heap
peeks in ``Kernel.run_until``) lands in the caller's self time.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Layers in report order; a span's layer is its name up to the colon.
LAYERS = (
    "sim.engine", "core", "kernel", "sim.trace", "obs", "sync", "ipc",
    "net.cluster", "net.fieldbus", "net.node", "faults", "perf.snapshot",
    "bench",
)

#: Scheduler class -> policy label of the ``core.<policy>.*`` metrics.
POLICY_OF_CLASS = {"EDFScheduler": "edf", "RMScheduler": "rm", "CSDScheduler": "csd"}

#: Scheduler hook -> Table 1 primitive of the ``core.<policy>.<op>.*``
#: metrics (``t_s``, ``t_b``, ``t_u``).
PRIMITIVE_OF_HOOK = {"_select": "select", "_block": "block", "_unblock": "unblock"}


class Tracer:
    """Class-level entry-point wrapper with in-memory span aggregates."""

    def __init__(self) -> None:
        #: name -> [calls, total_ns, child_ns, child_calls]
        self.spans: Dict[str, List[int]] = {}
        #: (parent name or None, child name) -> calls
        self.edges: Dict[Tuple[Optional[str], str], int] = {}
        #: metric name -> value, bumped by entry-point hooks
        self.counters: Dict[str, float] = {}
        #: Completed rounds' aggregates, by run id.
        self.runs: Dict[int, Dict] = {}
        #: Aggregates the shared prefix build added in this process
        #: (set in a snapshot server; forked continuations inherit it).
        self.prefix_delta: Optional[Tuple[int, Dict]] = None
        #: Entry points :meth:`install` found missing from the program.
        self.missing: List[str] = []
        self._stack: List[list] = [[0, 0, None]]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _agg(self, name: str) -> List[int]:
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0, 0, 0]
        return agg

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``before(args)`` runs inside the span before the call and its
        return value is handed to ``after(token, result, args)``, which
        runs after a normal return -- how counts are taken at the same
        boundary as the span.
        """
        agg = self._agg(name)
        stack = self._stack
        edges = self.edges
        clock = _clock

        def span(*args, **kwargs):
            frame = [0, 0, name]
            stack.append(frame)
            start = clock()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(token, result, args)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                agg[0] += 1
                agg[1] += duration
                agg[2] += frame[0]
                agg[3] += frame[1]
                parent = stack[-1]
                parent[0] += duration
                parent[1] += 1
                key = (parent[2], name)
                edges[key] = edges.get(key, 0) + 1

        span.__wrapped__ = fn
        return span

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One span around ``fn(*args, **kwargs)`` (benchmark-side spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, entries) -> None:
        """Wrap every ``(owner, attr, name, before, after)`` entry point.

        An entry point the program no longer defines is skipped and
        listed in :attr:`missing`, so a refactor of the program costs
        coverage visibly instead of breaking the traced run.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name, before, after in entries:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": dict(self.edges),
            "counters": dict(self.counters),
        }

    def reset(self) -> None:
        """Zero the aggregates in place (wrappers hold the span lists)."""
        for agg in self.spans.values():
            agg[:] = [0, 0, 0, 0]
        self.edges.clear()
        self.counters.clear()

    def merge(self, delta: Dict) -> None:
        for name, values in delta["spans"].items():
            agg = self._agg(name)
            for i, value in enumerate(values):
                agg[i] += value
        for key, value in delta["edges"].items():
            self.edges[key] = self.edges.get(key, 0) + value
        for key, value in delta["counters"].items():
            self.count(key, value)

    def end_run(self, run_id: int) -> None:
        """File the current aggregates under ``run_id`` and reset."""
        self.runs[run_id] = self.snapshot()
        self.reset()

    # ------------------------------------------------------------------
    # sweeps: child-side totals ride back with each point's result
    # ------------------------------------------------------------------
    def plan(self, plan: Callable) -> Callable:
        """Wrap a ``prefix_map`` plan so that fork-side aggregates come
        back with every point's result (see :meth:`unwrap`)."""

        def traced_plan(case):
            spec, continuation = plan(case)

            def build():
                before = self.snapshot()
                state = spec.build()
                self.prefix_delta = (os.getpid(), diff(self.snapshot(), before))
                return state

            def traced_continuation(state):
                before = self.snapshot()
                result = continuation(state)
                delta = diff(self.snapshot(), before)
                return (
                    result, os.getpid(), delta, spec.key, self.prefix_delta,
                    len(pickle.dumps(result)),
                )

            return replace(spec, build=build), traced_continuation

        return traced_plan

    def unwrap(self, outcomes: List) -> List:
        """Plain results from :meth:`plan` outcomes; merges the totals
        that forked processes recorded (each prefix once per group)."""
        me = os.getpid()
        seen = set()
        results = []
        for result, pid, delta, key, prefix, size in outcomes:
            results.append(result)
            if pid == me:
                continue  # ran in this process: already recorded
            self.merge(delta)
            self.count("perf.snapshot.forks")
            self.count("perf.snapshot.result_bytes", size)
            if prefix is not None and prefix[0] != me and key not in seen:
                seen.add(key)
                self.merge(prefix[1])
        return results


def diff(after: Dict, before: Dict) -> Dict:
    """Aggregates recorded between two :meth:`Tracer.snapshot` calls."""
    zero = [0, 0, 0, 0]
    spans = {}
    for name, values in after["spans"].items():
        base = before["spans"].get(name, zero)
        delta = [a - b for a, b in zip(values, base)]
        if any(delta):
            spans[name] = delta
    edges = {
        k: v - before["edges"].get(k, 0)
        for k, v in after["edges"].items()
        if v != before["edges"].get(k, 0)
    }
    counters = {
        k: v - before["counters"].get(k, 0)
        for k, v in after["counters"].items()
        if v != before["counters"].get(k, 0)
    }
    return {"spans": spans, "edges": edges, "counters": counters}


class NullProbe:
    """What the timed (untraced) rounds get in place of a tracer."""

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name: str, amount: float = 1) -> None:
        pass

    @staticmethod
    def plan(plan: Callable) -> Callable:
        return plan

    @staticmethod
    def unwrap(outcomes: List) -> List:
        return outcomes


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

def calibrate(samples: int = 20_000, repeats: int = 5) -> Tuple[float, float]:
    """Cost of an empty span: ``(inside_ns, outside_ns)``.

    ``inside_ns`` is what an empty span records as its own duration;
    ``outside_ns`` is what one child span adds to its parent's self
    time beyond the child's recorded duration (the wrapper's entry and
    exit work).  Medians over ``repeats`` batches of ``samples`` calls.
    """

    def noop():
        return None

    inside, outside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        child = tracer.wrap("cal:empty", noop)
        start = _clock()
        for _ in range(samples):
            noop()
        plain_ns = _clock() - start

        def loop():
            for _ in range(samples):
                child()

        tracer.call("cal:parent", loop)
        empty = tracer.spans["cal:empty"]
        parent = tracer.spans["cal:parent"]
        inside.append(empty[1] / samples)
        outside.append(max(0.0, (parent[1] - parent[2] - plain_ns) / samples))
    inside.sort()
    outside.sort()
    return inside[len(inside) // 2], outside[len(outside) // 2]


def self_ns(agg: List[int], calibration: Tuple[float, float]) -> float:
    """Calibrated self time of one span aggregate."""
    calls, total, child, child_calls = agg
    inside, outside = calibration
    return max(0.0, total - child - calls * inside - child_calls * outside)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _core_metrics():
    for policy in ("edf", "rm", "csd"):
        for op in ("select", "block", "unblock"):
            yield f"core.{policy}.{op}.calls", "count"
            yield f"core.{policy}.{op}.host_ns", "ns"
            yield f"core.{policy}.{op}.virt_ns", "ns"


#: ``(name, unit)`` of every per-layer metric, in report order.  Counts
#: and seconds are per traced round; ``*_ns`` of a primitive are per
#: call; ``virt``/``arb_wait``/``_pct`` metrics are virtual time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.engine.scheduled", "count"),
    ("sim.engine.popped", "count"),
    ("sim.engine.cancelled_ratio", "ratio"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.ns_per_op", "ns"),
    *_core_metrics(),
    ("core.pi.calls", "count"),
    ("core.pi.host_ns", "ns"),
    ("core.noop_dispatch_ratio", "ratio"),
    ("core.self_s", "s"),
    ("core.csd_sched_saving_pct", "%"),
    ("kernel.dispatches", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.host_ns_per_event", "ns"),
    ("sim.trace.records", "count"),
    ("sim.trace.self_s", "s"),
    ("sim.trace.signature_s", "s"),
    ("obs.hook_calls", "count"),
    ("obs.self_s", "s"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "B"),
    ("sync.acquires", "count"),
    ("sync.contended_ratio", "ratio"),
    ("sync.pi_ops", "count"),
    ("sync.self_s", "s"),
    ("sync.sem_kernel_saving_pct", "%"),
    ("ipc.ops", "count"),
    ("ipc.self_s", "s"),
    ("net.cluster.rounds", "count"),
    ("net.cluster.skip_ratio", "ratio"),
    ("net.cluster.suppressed_ratio", "ratio"),
    ("net.cluster.merge_s", "s"),
    ("net.cluster.self_s", "s"),
    ("net.fieldbus.frames", "count"),
    ("net.fieldbus.self_s", "s"),
    ("net.fieldbus.arb_wait_us", "us"),
    ("net.node.deliveries", "count"),
    ("net.node.self_s", "s"),
    ("faults.injected", "count"),
    ("faults.self_s", "s"),
    ("perf.snapshot.forks", "count"),
    ("perf.snapshot.prefix_s", "s"),
    ("perf.snapshot.wait_s", "s"),
    ("perf.snapshot.result_bytes", "B"),
    ("perf.snapshot.reuse_ratio", "ratio"),
    ("tracer.empty_span_ns", "ns"),
    ("tracer.overhead_ratio", "ratio"),
)

_PI_HOOKS = ("_raise_priority", "_restore_priority", "_swap_with_placeholder")
_TRACE_RECORDS = (
    "add_segment", "note", "job_released", "job_completed", "job_aborted",
    "context_switch",
)


def total(runs: List[Dict]) -> Dict:
    """Sum of several rounds' aggregates."""
    tracer = Tracer()
    for run in runs:
        tracer.merge(run)
    return tracer.snapshot()


#: Spans in which the sweep parent only waits for forked processes whose
#: own spans are merged in; reported as ``perf.snapshot.wait_s``, not
#: as self time.
WAIT_SPANS = ("perf.snapshot:SnapshotServer.ready", "perf.snapshot:SnapshotServer.results")


def layer_self_ns(agg: Dict, calibration) -> Dict[str, float]:
    """Calibrated self ns per layer (waits on forked work excluded)."""
    layers: Dict[str, float] = {}
    for name, values in agg["spans"].items():
        if name in WAIT_SPANS:
            continue
        layer = name.split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_ns(values, calibration)
    return layers


def layer_metrics(
    runs: List[Dict],
    calibration: Tuple[float, float],
    overhead_ratio: float,
    virtual: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced rounds' aggregates."""
    n = len(runs)
    agg = total(runs)
    spans, edges, counters = agg["spans"], agg["edges"], agg["counters"]
    layers = layer_self_ns(agg, calibration)

    def calls(*names):
        return sum(spans.get(name, (0,))[0] for name in names)

    def span_s(*names):
        return sum(spans.get(name, (0, 0))[1] for name in names) / 1e9 / n

    def per_call(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def layer_calls(layer):
        return sum(v[0] for k, v in spans.items() if k.startswith(layer + ":"))

    m: Dict[str, float] = {}
    engine = ("EventQueue.schedule", "EventQueue.pop_due", "EventQueue.peek_time",
              "ScheduledEvent.cancel")
    scheduled = calls("sim.engine:EventQueue.schedule")
    m["sim.engine.scheduled"] = scheduled / n
    m["sim.engine.popped"] = counters.get("sim.engine.popped", 0) / n
    m["sim.engine.cancelled_ratio"] = per_call(
        calls("sim.engine:ScheduledEvent.cancel"), scheduled)
    m["sim.engine.self_s"] = layers.get("sim.engine", 0.0) / 1e9 / n
    m["sim.engine.ns_per_op"] = per_call(
        layers.get("sim.engine", 0.0), calls(*(f"sim.engine:{e}" for e in engine)))

    pi_names = []
    for cls, policy in POLICY_OF_CLASS.items():
        for hook, op in PRIMITIVE_OF_HOOK.items():
            name = f"core:{cls}.{hook}"
            count = calls(name)
            m[f"core.{policy}.{op}.calls"] = count / n
            m[f"core.{policy}.{op}.host_ns"] = per_call(
                self_ns(spans.get(name, [0, 0, 0, 0]), calibration), count)
            m[f"core.{policy}.{op}.virt_ns"] = per_call(
                counters.get(f"core.{policy}.{op}.virt_ns", 0), count)
        pi_names += [f"core:{cls}.{hook}" for hook in _PI_HOOKS]
    pi_names.append("core:Scheduler._swap_with_placeholder")
    pi_calls = calls(*pi_names)
    m["core.pi.calls"] = pi_calls / n
    m["core.pi.host_ns"] = per_call(
        sum(self_ns(spans[name], calibration) for name in pi_names if name in spans),
        pi_calls)
    dispatches = calls("kernel:Kernel._dispatch")
    m["core.noop_dispatch_ratio"] = per_call(counters.get("core.noop_dispatches", 0), dispatches)
    m["core.self_s"] = layers.get("core", 0.0) / 1e9 / n
    m["core.csd_sched_saving_pct"] = virtual.get("core.csd_sched_saving_pct", 0.0)

    m["kernel.dispatches"] = dispatches / n
    m["kernel.syscalls"] = calls("kernel:Kernel._charge_syscall") / n
    m["kernel.self_s"] = layers.get("kernel", 0.0) / 1e9 / n
    m["kernel.host_ns_per_event"] = per_call(
        layers.get("kernel", 0.0), counters.get("sim.engine.popped", 0))

    m["sim.trace.records"] = calls(*(f"sim.trace:Trace.{r}" for r in _TRACE_RECORDS)) / n
    m["sim.trace.self_s"] = layers.get("sim.trace", 0.0) / 1e9 / n
    m["sim.trace.signature_s"] = span_s("sim.trace:Trace.signature")

    m["obs.hook_calls"] = sum(
        v[0] for k, v in spans.items() if k.startswith("obs:ObsCollector.on_")) / n
    m["obs.self_s"] = layers.get("obs", 0.0) / 1e9 / n
    m["obs.export_s"] = span_s("obs:ObsCollector.metrics_json", "obs:export_chrome")
    m["obs.export_bytes"] = counters.get("obs.export_bytes", 0) / n

    acquires = calls("sync:StandardSemaphore.acquire", "sync:EmeraldsSemaphore.acquire")
    m["sync.acquires"] = acquires / n
    m["sync.contended_ratio"] = per_call(counters.get("sync.contended", 0), acquires)
    pi_set = set(pi_names)
    m["sync.pi_ops"] = sum(
        count for (parent, child), count in edges.items()
        if parent is not None and parent.startswith("sync:") and child in pi_set) / n
    m["sync.self_s"] = layers.get("sync", 0.0) / 1e9 / n
    m["sync.sem_kernel_saving_pct"] = virtual.get("sync.sem_kernel_saving_pct", 0.0)
    m["ipc.ops"] = layer_calls("ipc") / n
    m["ipc.self_s"] = layers.get("ipc", 0.0) / 1e9 / n

    rounds = counters.get("net.cluster.rounds", 0)
    skipped = counters.get("net.cluster.skipped", 0)
    suppressed = counters.get("net.cluster.suppressed", 0)
    deliveries = calls("net.node:NetInterface.deliver")
    m["net.cluster.rounds"] = rounds / n
    m["net.cluster.skip_ratio"] = per_call(skipped, rounds + skipped)
    m["net.cluster.suppressed_ratio"] = per_call(suppressed, suppressed + deliveries)
    m["net.cluster.merge_s"] = span_s("net.cluster:Cluster._flush_effects")
    m["net.cluster.self_s"] = layers.get("net.cluster", 0.0) / 1e9 / n
    m["net.fieldbus.frames"] = counters.get("net.fieldbus.frames", 0) / n
    m["net.fieldbus.self_s"] = layers.get("net.fieldbus", 0.0) / 1e9 / n
    m["net.fieldbus.arb_wait_us"] = counters.get("net.fieldbus.arb_wait_ns", 0) / 1e3 / n
    m["net.node.deliveries"] = deliveries / n
    m["net.node.self_s"] = layers.get("net.node", 0.0) / 1e9 / n

    m["faults.injected"] = calls("faults:FaultInjector._count") / n
    m["faults.self_s"] = layers.get("faults", 0.0) / 1e9 / n

    m["perf.snapshot.forks"] = counters.get("perf.snapshot.forks", 0) / n
    m["perf.snapshot.prefix_s"] = counters.get("perf.snapshot.prefix_s", 0) / n
    m["perf.snapshot.wait_s"] = span_s(*WAIT_SPANS)
    m["perf.snapshot.result_bytes"] = counters.get("perf.snapshot.result_bytes", 0) / n
    m["perf.snapshot.reuse_ratio"] = per_call(
        counters.get("perf.snapshot.reused_ns", 0), counters.get("perf.snapshot.points_ns", 0))

    m["tracer.empty_span_ns"] = calibration[0] + calibration[1]
    m["tracer.overhead_ratio"] = overhead_ratio
    return m


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def entry_points(tracer: Tracer) -> List[Tuple]:
    """Every wrapped entry point: ``(owner, attr, span name, before, after)``."""
    from repro.core.csd import CSDScheduler
    from repro.core.edf import EDFScheduler
    from repro.core.rm import RMScheduler
    from repro.core.scheduler import Scheduler
    from repro.faults.injector import FaultInjector
    from repro.ipc.mailbox import Mailbox
    from repro.ipc.state_message import StateChannel
    from repro.kernel.kernel import Kernel
    from repro.net.cluster import Cluster
    from repro.net.fieldbus import Fieldbus
    from repro.net.node import NetInterface
    from repro.obs.collector import ObsCollector
    from repro.perf import snapshot, sweeps
    from repro.sim.engine import EventQueue, ScheduledEvent
    from repro.sim.trace import Trace
    from repro.sync.emeralds_sem import EmeraldsSemaphore
    from repro.sync.semaphore import StandardSemaphore

    count = tracer.count
    entries: List[Tuple] = []

    def add(layer, owner, attrs, before=None, after=None):
        for attr in attrs:
            entries.append(
                (owner, attr, f"{layer}:{owner.__name__}.{attr}", before, after)
            )

    # sim.engine
    def popped(_token, event, _args):
        if event is not None:
            count("sim.engine.popped")

    add("sim.engine", EventQueue, ["schedule", "peek_time"])
    add("sim.engine", EventQueue, ["pop_due"], after=popped)
    add("sim.engine", ScheduledEvent, ["cancel"])

    # core: the hooks Kernel calls inline; virtual cost = returned charge
    for cls in (EDFScheduler, RMScheduler, CSDScheduler):
        policy = POLICY_OF_CLASS[cls.__name__]
        for hook, op in PRIMITIVE_OF_HOOK.items():
            key = f"core.{policy}.{op}.virt_ns"
            if hook == "_select":
                def charged(_token, result, _args, key=key):
                    count(key, result[1])
            else:
                def charged(_token, result, _args, key=key):
                    count(key, result)
            add("core", cls, [hook], after=charged)
        pi_hooks = [h for h in ("_raise_priority", "_restore_priority",
                                "_swap_with_placeholder") if h in vars(cls)]
        add("core", cls, pi_hooks)
    add("core", Scheduler, ["_swap_with_placeholder"])

    # kernel
    def running_before(args):
        return args[0].running

    def noop_dispatch(previous, _result, args):
        if args[0].running is previous:
            count("core.noop_dispatches")

    add("kernel", Kernel, ["run_until", "_execute_op", "_charge_syscall"])
    add("kernel", Kernel, ["_dispatch"], before=running_before, after=noop_dispatch)

    # sim.trace
    add("sim.trace", Trace, [
        "add_segment", "note", "job_released", "job_completed",
        "job_aborted", "context_switch", "signature",
    ])

    # obs
    hooks = sorted(a for a in vars(ObsCollector) if a.startswith("on_"))
    add("obs", ObsCollector, hooks + ["metrics_json"])

    # sync, ipc
    def contended(_token, acquired, _args):
        if acquired is False:
            count("sync.contended")

    for cls in (StandardSemaphore, EmeraldsSemaphore):
        add("sync", cls, ["acquire"], after=contended)
        add("sync", cls, ["release"])
    add("sync", EmeraldsSemaphore, ["on_hint_unblock"])
    add("ipc", Mailbox, ["send", "recv"])
    add("ipc", StateChannel, ["write", "read", "begin_read", "end_read"])

    # net
    def cluster_counts(args):
        c = args[0]
        return c.sync_rounds, c.windows_skipped, c.deliveries_suppressed

    def cluster_deltas(start, _result, args):
        c = args[0]
        count("net.cluster.rounds", c.sync_rounds - start[0])
        count("net.cluster.skipped", c.windows_skipped - start[1])
        count("net.cluster.suppressed", c.deliveries_suppressed - start[2])

    def bus_counts(args):
        bus = args[0]
        return bus.frames_delivered, bus.total_arbitration_wait_ns

    def bus_deltas(start, _result, args):
        bus = args[0]
        count("net.fieldbus.frames", bus.frames_delivered - start[0])
        count("net.fieldbus.arb_wait_ns", bus.total_arbitration_wait_ns - start[1])

    add("net.cluster", Cluster, ["run_until"], before=cluster_counts, after=cluster_deltas)
    add("net.cluster", Cluster, ["_flush_effects", "_dispatch_deliveries"])
    add("net.fieldbus", Fieldbus, ["queue", "next_event_time"])
    add("net.fieldbus", Fieldbus, ["process"], before=bus_counts, after=bus_deltas)
    add("net.node", NetInterface, ["transmit", "deliver", "receive"])

    # faults
    add("faults", FaultInjector, [
        "install", "_inject_jitter", "_inject_spurious", "_inject_mask",
        "_inject_crash", "compute_extra", "_frame_verdict", "_count",
    ])

    # perf.snapshot
    def prefix_pending(args):
        return args[0].prefix_wall_s is None

    def prefix_done(pending, wall_s, _args):
        if pending:
            count("perf.snapshot.prefix_s", wall_s)

    def snapshot_server(_token, _result, _args):
        count("perf.snapshot.forks")

    add("perf.snapshot", snapshot.SnapshotServer, ["__init__"], after=snapshot_server)
    add("perf.snapshot", snapshot.SnapshotServer, ["ready"],
        before=prefix_pending, after=prefix_done)
    add("perf.snapshot", snapshot.SnapshotServer, ["results"])
    entries.append((sweeps, "prefix_map", "perf.snapshot:prefix_map", None, None))
    return entries
