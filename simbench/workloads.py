"""The benchmark's four workloads.

Each workload is a closed batch: one process builds its inputs from
``--seed``, then runs *rounds*.  A round runs every operation of the
workload to a fixed virtual horizon; ``run.py`` repeats rounds until
the measuring time is used up.  Per round a workload

* ``setup(seed)`` builds the inputs and the kernels or cluster (timed
  as one set-up sample);
* ``run(prepared, probe)`` is the timed section;
* ``check(outcome)`` digests every operation's output (untimed) and
  returns the virtual outcomes.

``probe`` is a :class:`tracer.NullProbe` in timed rounds and the
:class:`tracer.Tracer` in traced rounds; the workloads only use it for
the benchmark-side spans (the Chrome export) and for sweep plans.

``--seed`` reaches only the input generators -- the task-set generator,
the device RNGs and the fault plans.  The ring workload has no random
input, so every seed gives the same ring.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Tuple

from repro.core.csd import CSDScheduler
from repro.core.overhead import OverheadModel
from repro.faults.chaos import (
    chaos_continue,
    chaos_prefix,
    net_chaos_continue,
    net_chaos_prefix,
)
from repro.kernel.devices import AperiodicDevice, PeriodicDevice
from repro.kernel.kernel import Kernel
from repro.kernel.program import (
    Acquire,
    Compute,
    Program,
    Recv,
    Release,
    Send,
    StateRead,
    StateWrite,
    Wait,
)
from repro.obs import tracer as obs_tracer
from repro.obs.collector import ObsCollector
from repro.perf import sweeps
from repro.perf.clusterload import (
    CLUSTER_HORIZON_NS,
    build_ring_cluster,
    cluster_signatures,
)
from repro.perf.sweeps import PrefixSpec
from repro.perf.workloads import (
    POLICIES,
    full_signatures,
    min_overhead_splits,
    overhead_workload,
)
from repro.sim.kernelsim import build_kernel
from repro.sim.workload import generate_workload
from repro.timeunits import ms, us


class BenchError(Exception):
    """An input the benchmark cannot measure (reported, exit non-zero)."""


@dataclass
class Round:
    """Outputs of one round, reduced to what the benchmark checks."""

    #: Virtual ns simulated by the round's operations (summed).
    virtual_ns: int
    #: Operation name -> digest of its output.
    ops: Dict[str, str]
    #: Deadline violations / jobs (virtual).
    miss_ratio: float
    #: Virtual per-layer outcomes (the paper's savings).
    virtual: Dict[str, float] = field(default_factory=dict)


def digest(value) -> str:
    """Short stable digest of a value's ``repr``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _violations(kernel: Kernel) -> Tuple[int, int]:
    trace = kernel.trace
    return len(trace.deadline_violations(kernel.now)), len(trace.jobs)


# ----------------------------------------------------------------------
# kernel-lean: the paper's scheduler comparison
# ----------------------------------------------------------------------

def job_rate(workload) -> float:
    """Jobs released per virtual second."""
    return sum(1e9 / task.period for task in workload)


#: Accepted deviation of a generated set's job rate from the canonical
#: set's.  Host cost per virtual second is proportional to the job
#: rate, which varies about 2x across raw generator seeds; keeping it
#: within 2% makes ``sim_ns_per_s`` comparable from seed to seed.
RATE_TOLERANCE = 0.02

#: Generator draws before giving up on a rate-matched set (about one in
#: twenty draws matches).
MAX_DRAWS = 2000


def lean_inputs(seed: int, utilization: float = 0.45):
    """``(generator seed, task set, CSD-3 splits)`` for ``--seed``.

    The set is ``generate_workload(20, g, utilization).with_periods_
    divided(3)`` for the first generator seed ``g`` drawn from the
    ``--seed`` stream whose job rate matches the canonical set's
    (:func:`repro.perf.workloads.overhead_workload`).  A set without a
    feasible CSD-3 split is an error, not a silent redraw.
    """
    target = job_rate(overhead_workload())
    rng = random.Random(f"kernel-lean:{seed}")
    for _ in range(MAX_DRAWS):
        generator_seed = rng.getrandbits(32)
        workload = generate_workload(
            20, seed=generator_seed, utilization=utilization
        ).with_periods_divided(3)
        if abs(job_rate(workload) / target - 1) <= RATE_TOLERANCE:
            break
    else:
        raise BenchError(f"--seed {seed}: no rate-matched task set in {MAX_DRAWS} draws")
    splits = min_overhead_splits(workload, 2, OverheadModel())
    if splits is None:
        raise BenchError(
            f"--seed {seed}: the generated task set (generator seed "
            f"{generator_seed}, n=20, u={utilization}) has no feasible CSD-3 "
            "split; choose another --seed"
        )
    return generator_seed, workload, splits


class KernelLean:
    """EDF, RM and CSD-3 back to back on one generated n = 20 set.

    Jobs-only recording, no collector: the work is the event queue, the
    scheduler queues and dispatch.
    """

    name = "kernel-lean"
    seeded = True

    def __init__(self, horizon_ns: int = ms(3_000)):
        self.horizon_ns = horizon_ns

    def config(self) -> Dict:
        return {"horizon_ns": self.horizon_ns, "policies": list(POLICIES)}

    def inputs(self, seed: int):
        return lean_inputs(seed)

    def setup(self, seed: int):
        _, workload, splits = lean_inputs(seed)
        model = OverheadModel()
        return {
            policy: build_kernel(
                workload, policy, model,
                splits if policy.startswith("csd-") else None,
                record="jobs-only",
            )
            for policy in POLICIES
        }

    def run(self, kernels, probe):
        for kernel in kernels.values():
            kernel.run_until(self.horizon_ns)
        return kernels

    def check(self, kernels) -> Round:
        misses = jobs = 0
        sched = {}
        for policy, kernel in kernels.items():
            m, j = _violations(kernel)
            misses += m
            jobs += j
            spent = kernel.trace.kernel_time
            sched[policy] = spent.get("sched", 0) + spent.get("context-switch", 0)
        return Round(
            virtual_ns=self.horizon_ns * len(kernels),
            ops={p: k.trace.signature()[:16] for p, k in kernels.items()},
            miss_ratio=misses / jobs if jobs else 0.0,
            virtual={
                "core.csd_sched_saving_pct":
                    100.0 * (sched["edf"] - sched["csd-3"]) / sched["edf"],
            },
        )

    def canaries(self):
        """Seed-independent check: the canonical set's full signatures."""
        return {"full_signatures": full_signatures}


# ----------------------------------------------------------------------
# kernel-traced: an engine controller, everything recorded and exported
# ----------------------------------------------------------------------

CRANK_VECTOR = 1
BUTTON_VECTOR = 2
SEM_SCHEMES = ("standard", "emeralds")


def traced_inputs(seed: int) -> Tuple[int, int]:
    """``(crank jitter seed, button arrival seed)`` for ``--seed``."""
    rng = random.Random(f"kernel-traced:{seed}")
    return rng.getrandbits(32), rng.getrandbits(32)


def build_engine_kernel(
    sem_scheme: str, crank_seed: int, button_seed: int, horizon_ns: int
) -> Kernel:
    """The engine-control application on a CSD-3 kernel.

    A thread woken by the crank interrupt publishes engine speed on a state
    channel; injection, ignition and lambda control share one
    calibration semaphore; a thermal monitor reports through a mailbox
    to a diagnostics logger; a seeded sporadic button activates an
    aperiodic thread.  Full recording and a full-mode collector.
    """
    kernel = Kernel(
        CSDScheduler(OverheadModel(), dp_queue_count=2),
        sem_scheme=sem_scheme,
        record="full",
    )
    ObsCollector(mode="full").attach(kernel)
    kernel.create_semaphore("calibration")
    kernel.create_mailbox("faults", capacity=16)
    kernel.create_channel("engine_speed", slots=4)
    kernel.create_channel("coolant_temp", slots=4)

    kernel.interrupts.register_event_handler(CRANK_VECTOR, "crank_pulse")
    PeriodicDevice(
        kernel, "crank", vector=CRANK_VECTOR, period=ms(10), jitter=us(50),
        seed=crank_seed,
    )
    AperiodicDevice(
        kernel, "button", vector=BUTTON_VECTOR, mean_interarrival=ms(400),
        min_interarrival=ms(50), seed=button_seed, horizon=horizon_ns,
    )
    kernel.create_thread(
        "crank_driver",
        Program([Wait("crank_pulse"), Compute(us(80)),
                 StateWrite("engine_speed", value=6000)]),
        period=ms(10), deadline=ms(2), csd_queue=0,
    )
    kernel.create_thread(
        "injection",
        Program([StateRead("engine_speed"), Acquire("calibration"),
                 Compute(us(600)), Release("calibration"), Compute(us(200))]),
        period=ms(5), csd_queue=0,
    )
    kernel.create_thread(
        "ignition",
        Program([StateRead("engine_speed"), Acquire("calibration"),
                 Compute(us(900)), Release("calibration")]),
        period=ms(10), csd_queue=1,
    )
    kernel.create_thread(
        "lambda_ctrl",
        Program([Compute(us(400)), Acquire("calibration"), Compute(ms(3)),
                 Release("calibration")]),
        period=ms(50), csd_queue=1,
    )
    kernel.create_thread(
        "thermal",
        Program([Compute(us(300)), StateWrite("coolant_temp", value=92),
                 Send("faults", size=8, payload="temp-ok")]),
        period=ms(125), csd_queue=2,
    )
    kernel.create_thread(
        "diagnostics",
        Program([Recv("faults"), Recv("faults"), StateRead("coolant_temp"),
                 Compute(ms(3))]),
        period=ms(250), csd_queue=2,
    )
    kernel.create_thread(
        "button_task", Program([Compute(ms(1))]),
        priority=1_000, deadline=ms(100), csd_queue=2,
    )
    kernel.interrupts.register(
        BUTTON_VECTOR, lambda kern, vec: kern.activate("button_task")
    )
    return kernel


def export_chrome(trace, collector) -> str:
    """The Chrome/Perfetto trace JSON, as ``export_chrome_trace`` writes it."""
    payload = obs_tracer.chrome_trace_events(trace, collector, label="engine-control")
    return json.dumps(payload, indent=1, sort_keys=True)


class KernelTraced:
    """The engine controller once per semaphore scheme, fully recorded.

    The timed section covers the run, the full signature, the metrics
    JSON and the Chrome export, so work moved out of the run into the
    export still shows.
    """

    name = "kernel-traced"
    seeded = True

    def __init__(self, horizon_ns: int = ms(10_000)):
        self.horizon_ns = horizon_ns

    def config(self) -> Dict:
        return {"horizon_ns": self.horizon_ns, "schemes": list(SEM_SCHEMES)}

    def inputs(self, seed: int):
        return traced_inputs(seed)

    def setup(self, seed: int):
        crank_seed, button_seed = traced_inputs(seed)
        return {
            scheme: build_engine_kernel(scheme, crank_seed, button_seed, self.horizon_ns)
            for scheme in SEM_SCHEMES
        }

    def run(self, kernels, probe):
        outputs = {}
        for scheme, kernel in kernels.items():
            trace = kernel.run_until(self.horizon_ns)
            signature = trace.signature(include_segments=True)
            metrics = kernel.obs.metrics_json()
            chrome = probe.call("obs:export_chrome", export_chrome, trace, kernel.obs)
            probe.count("obs.export_bytes", len(metrics) + len(chrome))
            outputs[scheme] = (kernel, signature, metrics, chrome)
        return outputs

    def check(self, outputs) -> Round:
        ops = {}
        misses = jobs = 0
        for scheme, (kernel, signature, metrics, chrome) in outputs.items():
            ops[scheme] = digest((signature, digest(metrics), digest(chrome)))
            m, j = _violations(kernel)
            misses += m
            jobs += j
        standard = outputs["standard"][0].trace.kernel_time_total
        emeralds = outputs["emeralds"][0].trace.kernel_time_total
        return Round(
            virtual_ns=self.horizon_ns * len(outputs),
            ops=ops,
            miss_ratio=misses / jobs if jobs else 0.0,
            virtual={
                "sync.sem_kernel_saving_pct": 100.0 * (standard - emeralds) / standard,
            },
        )

    def canaries(self):
        return {}


# ----------------------------------------------------------------------
# ring-saturated: the canonical 16-node ring cluster
# ----------------------------------------------------------------------

RING = dict(nodes=16, utilization=0.9, sync="adaptive", app_load="none")


def ring_canary() -> str:
    """Digest of the full-record ring fingerprint."""
    return digest(cluster_signatures(
        RING["nodes"], RING["utilization"], RING["sync"], app_load=RING["app_load"]
    ))


class RingSaturated:
    """16 EDF nodes on a saturated 1 Mbit/s bus, adaptive sync."""

    name = "ring-saturated"
    seeded = False

    def __init__(self, horizon_ns: int = CLUSTER_HORIZON_NS // 2):
        self.horizon_ns = horizon_ns

    def config(self) -> Dict:
        return {"horizon_ns": self.horizon_ns, **RING}

    def inputs(self, seed: int):
        return None  # the canonical ring has no random input

    def setup(self, seed: int):
        return build_ring_cluster(
            RING["nodes"], RING["utilization"], RING["sync"],
            record="jobs-only", app_load=RING["app_load"],
        )

    def run(self, cluster, probe):
        cluster.run_until(self.horizon_ns)
        return cluster

    def check(self, cluster) -> Round:
        bus = cluster.bus
        fingerprint = (
            cluster.trace_signatures(include_segments=False),
            cluster.rx_timelines(),
            (bus.frames_delivered, bus.frames_dropped, bus.frames_corrupted,
             bus.bits_carried, bus.total_arbitration_wait_ns),
            cluster.interface_stats(),
        )
        jobs = sum(len(trace.jobs) for trace in cluster.node_traces().values())
        misses = cluster.total_deadline_violations()
        cluster.close()
        return Round(
            virtual_ns=self.horizon_ns,
            ops={"ring": digest(fingerprint)},
            miss_ratio=misses / jobs if jobs else 0.0,
        )

    def canaries(self):
        return {"cluster_signatures": ring_canary}


# ----------------------------------------------------------------------
# fault-sweep: the fault-storm and network-fault grids via prefix_map
# ----------------------------------------------------------------------

#: (rates, seeds per cell, horizon, warm-up): the ``bench_sweeps.py``
#: full grids.
FAULT_GRID = ((5.0, 20.0, 50.0), 3, ms(60_000), ms(45_000))
NET_GRID = ((0.05, 0.2), 2, ms(20_000), ms(15_000))
RETRY_BOUND = 8


def _chaos_point(kernel, *, rate, defended, seed, duration_ns, warmup_ns):
    return chaos_continue(
        kernel, seed, duration_ns,
        wcet_overrun_rate=rate, crash_rate=rate / 10,
        clock_jitter_rate=rate / 2, defenses=defended, faults_from=warmup_ns,
    )


def chaos_plan(case):
    """Shared prefix per (defenses, warm-up); rates and seeds only
    shape the continuation."""
    rate, defended, seed, duration_ns, warmup_ns = case
    spec = PrefixSpec(
        key=("chaos", defended, warmup_ns),
        t_split=warmup_ns,
        build=partial(chaos_prefix, defended, t_split=warmup_ns),
    )
    return spec, partial(
        _chaos_point, rate=rate, defended=defended, seed=seed,
        duration_ns=duration_ns, warmup_ns=warmup_ns,
    )


def _net_point(state, *, drop_p, seed, warmup_ns):
    return net_chaos_continue(state, seed, drop_p=drop_p, faults_from=warmup_ns)


def net_plan(case):
    """Shared loss-free prefix per (retry bound, horizon, warm-up)."""
    drop_p, retries, seed, duration_ns, warmup_ns = case
    spec = PrefixSpec(
        key=("netchaos", retries, duration_ns, warmup_ns),
        t_split=warmup_ns,
        build=partial(
            net_chaos_prefix, duration_ns, dependability=True,
            max_retransmits=retries, t_split=warmup_ns,
        ),
    )
    return spec, partial(_net_point, drop_p=drop_p, seed=seed, warmup_ns=warmup_ns)


def sweep_inputs(seed: int, fault_grid=FAULT_GRID, net_grid=NET_GRID):
    """``(fault cases, net cases)``: the grids with fault-plan seeds
    taken from ``--seed`` (``--seed 0`` is the ``bench_sweeps`` grid)."""
    rates, per_cell, duration, warmup = fault_grid
    fault_seeds = [per_cell * seed + i + 1 for i in range(per_cell)]
    fault_cases = [
        (rate, defended, s, duration, warmup)
        for rate in rates for defended in (True, False) for s in fault_seeds
    ]
    drops, per_cell, duration, warmup = net_grid
    net_seeds = [per_cell * seed + i + 1 for i in range(per_cell)]
    net_cases = [
        (drop, retries, s, duration, warmup)
        for drop in drops for retries in (RETRY_BOUND, 0) for s in net_seeds
    ]
    return fault_cases, net_cases


def reused_ns(cases) -> int:
    """Virtual prefix time the planner does not re-simulate: every
    group of ``m`` points sharing a ``t_split`` prefix saves ``(m - 1)
    * t_split``."""
    groups: Dict[Tuple, int] = {}
    for case in cases:
        key = (case[1], case[3], case[4])
        groups[key] = groups.get(key, 0) + 1
    return sum((m - 1) * key[2] for key, m in groups.items() if m > 1 and key[2] > 0)


class FaultSweep:
    """18 fault-storm points and 8 network-fault points through
    :func:`repro.perf.sweeps.prefix_map` (fork snapshots, one child at
    a time per prefix group)."""

    name = "fault-sweep"
    seeded = True

    def __init__(self, fault_grid=FAULT_GRID, net_grid=NET_GRID):
        self.fault_grid = fault_grid
        self.net_grid = net_grid

    def config(self) -> Dict:
        return {"fault_grid": list(self.fault_grid), "net_grid": list(self.net_grid)}

    def inputs(self, seed: int):
        return sweep_inputs(seed, self.fault_grid, self.net_grid)

    def setup(self, seed: int):
        return self.inputs(seed)

    def run(self, cases, probe):
        fault_cases, net_cases = cases
        fault = probe.unwrap(
            sweeps.prefix_map(probe.plan(chaos_plan), fault_cases, children=1)
        )
        net = probe.unwrap(
            sweeps.prefix_map(probe.plan(net_plan), net_cases, children=1)
        )
        everything = fault_cases + net_cases
        probe.count("perf.snapshot.reused_ns", reused_ns(fault_cases) + reused_ns(net_cases))
        probe.count("perf.snapshot.points_ns", sum(case[3] for case in everything))
        return fault_cases, fault, net_cases, net

    def check(self, outcome) -> Round:
        fault_cases, fault, net_cases, net = outcome
        ops = {}
        for prefix, results in (("fault", fault), ("net", net)):
            for index, result in enumerate(results):
                ops[f"{prefix}{index:02d}"] = digest(dataclasses.astuple(result))
        return Round(
            virtual_ns=sum(case[3] for case in fault_cases + net_cases),
            ops=ops,
            miss_ratio=sum(r.miss_ratio for r in fault) / len(fault),
        )

    def canaries(self):
        return {}


WORKLOADS = {w.name: w for w in (KernelLean, KernelTraced, RingSaturated, FaultSweep)}
