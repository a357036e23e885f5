"""Chaos harness: a reference workload run under seeded fault storms.

Builds a four-task control workload (a critical control loop, a sensor
task, a logger, and a bulk background task), arms a generated
:class:`~repro.faults.plan.FaultPlan` against it, and reports how the
kernel's overload protection held up: deadline-miss ratio, on-time
service ratio, aborted jobs, and post-burst recovery time.  The
:mod:`benchmarks.bench_faults` sweep and the ``python -m
repro.reproduce faults`` subcommand are both thin wrappers around
:func:`run_chaos`.

Everything is a pure function of ``(seed, duration, rates,
defenses)``: :attr:`ChaosResult.trace_signature` is asserted stable by
the determinism tests.

Both harnesses are split into a *prefix* (build the configuration and
simulate the fault-free warm-up to a split point) and a *continuation*
(arm the faults there and run to the horizon), so sweep points sharing
a warm-up can restore it from one checkpoint (see
:func:`repro.perf.sweeps.prefix_map`).  The activation point
``faults_from`` is part of the configuration: a cold run with
``faults_from=t`` performs build -> run_until(t) -> arm -> run, which
is operation-for-operation what a restored continuation performs --
byte-identical signatures by construction.  ``faults_from=0`` (the
default everywhere) arms faults before the first event, exactly the
historical behavior.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.metrics import miss_ratio, recovery_time_ns
from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel.kernel import Kernel
from repro.kernel.program import Call, Compute, Program
from repro.timeunits import ms

__all__ = [
    "ChaosResult",
    "NetChaosResult",
    "NetChaosState",
    "build_chaos_kernel",
    "chaos_prefix",
    "chaos_continue",
    "run_chaos",
    "net_chaos_prefix",
    "net_chaos_continue",
    "run_net_chaos",
    "WORKLOAD",
]

#: The reference workload: (name, period ns, wcet ns, criticality).
#: U = 0.2 + 0.2 + 0.2 + 0.2 = 0.8 -- comfortably feasible under EDF,
#: so every miss in a chaos run is caused by the injected faults.
WORKLOAD: Tuple[Tuple[str, int, int, int], ...] = (
    ("ctrl", ms(5), ms(1), 2),
    ("sense", ms(10), ms(2), 1),
    ("log", ms(20), ms(4), 0),
    ("bulk", ms(40), ms(8), 0),
)

#: Budget headroom over the declared WCET (enforcement threshold).
BUDGET_FACTOR = 1.5


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one chaos run."""

    seed: int
    duration_ns: int
    defenses: bool
    faults_planned: int
    faults_injected: Dict[str, int]
    miss_ratio: float
    #: Per-thread on-time completions / expected releases.  Unlike the
    #: miss ratio this punishes shed and backed-off releases too: work
    #: that never became a job still counts against service.
    service_ratio: Dict[str, float]
    jobs_aborted: int
    threads_dead: Tuple[str, ...]
    recovery_ns: int
    #: Stable fingerprint of the full trace (events + job records);
    #: equal runs are byte-identical, across processes too (sha256,
    #: not ``hash()``, which string-salts per process).
    trace_signature: str = field(repr=False, default="")


def build_chaos_kernel(
    defenses: bool = True, obs: Optional[str] = None
) -> Kernel:
    """The reference workload on an EDF kernel, defended or bare.

    With ``defenses`` each task gets a per-job budget of
    ``BUDGET_FACTOR * wcet`` (action ``suspend_job``) and a bounded
    restart policy (3 restarts, one-period initial back-off).  ``obs``
    attaches an observability collector in the named mode (reachable
    as ``kernel.obs`` afterward).
    """
    kernel = Kernel(scheduler=EDFScheduler(ZERO_OVERHEAD))
    if obs is not None:
        from repro.obs.collector import ObsCollector

        ObsCollector(mode=obs).attach(kernel)
    for name, period, wcet, criticality in WORKLOAD:
        kernel.create_thread(
            name,
            Program([Compute(wcet)]),
            period=period,
            deadline=period,
            criticality=criticality,
        )
        if defenses:
            kernel.set_budget(
                name, round(BUDGET_FACTOR * wcet), action="suspend_job"
            )
            kernel.set_restart_policy(name, max_restarts=3, backoff_ns=period)
    return kernel


def chaos_prefix(
    defenses: bool = True, t_split: int = 0, obs: Optional[str] = None
) -> Kernel:
    """Build the chaos kernel and simulate its fault-free warm-up.

    Returns the kernel paused exactly at ``t_split`` -- the shared
    prefix every sweep point with the same ``(defenses, obs,
    t_split)`` restores from.  ``t_split=0`` skips the warm-up.

    The warm-up's trace is signed here, once: a continuation forked
    from this kernel inherits the running digest and its own
    :meth:`~repro.sim.trace.Trace.signature` hashes only the tail.
    """
    if t_split < 0:
        raise ValueError(f"t_split must be non-negative (got {t_split})")
    kernel = build_chaos_kernel(defenses, obs=obs)
    if t_split:
        kernel.run_until(t_split)
        kernel.trace.signature()
    return kernel


def chaos_continue(
    kernel: Kernel,
    seed: int,
    duration_ns: int = ms(1000),
    *,
    wcet_overrun_rate: float = 0.0,
    crash_rate: float = 0.0,
    clock_jitter_rate: float = 0.0,
    defenses: bool = True,
    burst_end_ns: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
    faults_from: int = 0,
    defense_override: Optional[Callable[[Kernel], None]] = None,
) -> ChaosResult:
    """Finish a chaos run from a prefix kernel paused at ``faults_from``.

    Arms the generated (or given) plan's faults strictly after the
    split, applies an optional ``defense_override(kernel)`` -- the
    ablation hook: re-tune budgets/restart policies at the split
    instant -- and runs to ``duration_ns``.  ``defenses`` only labels
    the result; the kernel's actual defenses were fixed by the prefix
    (modulo the override).

    The kernel must sit exactly at ``faults_from``: the continuation's
    operation sequence is then identical whether ``kernel`` came from
    a cold :func:`chaos_prefix` call or a fork snapshot of one.
    """
    if kernel.now != faults_from:
        raise ValueError(
            f"continuation must resume exactly at the split point "
            f"(kernel at {kernel.now}, faults_from {faults_from})"
        )
    if defense_override is not None:
        defense_override(kernel)
    if plan is None:
        plan = FaultPlan.generate(
            seed,
            duration_ns,
            threads=[w[0] for w in WORKLOAD],
            wcet_overrun_rate=wcet_overrun_rate,
            crash_rate=crash_rate,
            clock_jitter_rate=clock_jitter_rate,
        )
    plan = plan.after(faults_from)
    injector = FaultInjector(kernel, plan).install()
    trace = kernel.run_until(duration_ns)
    if burst_end_ns is None:
        burst_end_ns = max((f.time for f in plan), default=0)

    # One pass over the job records: on-time completions per thread
    # and aborted jobs.
    on_time: Dict[str, int] = {}
    aborted = 0
    for j in trace.jobs:
        completion = j.completion
        if completion is None:
            aborted += j.aborted
        elif j.deadline is None or completion <= j.deadline:
            on_time[j.thread] = on_time.get(j.thread, 0) + 1
    service: Dict[str, float] = {}
    for name, period, _wcet, _crit in WORKLOAD:
        expected = duration_ns // period
        service[name] = on_time.get(name, 0) / expected if expected else 0.0

    signature = trace.signature()
    return ChaosResult(
        seed=seed,
        duration_ns=duration_ns,
        defenses=defenses,
        faults_planned=len(plan),
        faults_injected=dict(injector.injected),
        miss_ratio=miss_ratio(trace, kernel.now),
        service_ratio=service,
        jobs_aborted=aborted,
        threads_dead=tuple(
            sorted(t.name for t in kernel.threads.values() if t.dead)
        ),
        recovery_ns=recovery_time_ns(trace, kernel.now, burst_end_ns),
        trace_signature=signature,
    )


def run_chaos(
    seed: int,
    duration_ns: int = ms(1000),
    *,
    wcet_overrun_rate: float = 0.0,
    crash_rate: float = 0.0,
    clock_jitter_rate: float = 0.0,
    defenses: bool = True,
    burst_end_ns: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
    faults_from: int = 0,
    defense_override: Optional[Callable[[Kernel], None]] = None,
    obs: Optional[str] = None,
) -> ChaosResult:
    """One seeded chaos run; see the module docstring.

    ``plan`` overrides the generated plan (rates are then ignored).
    ``burst_end_ns`` marks where the fault burst nominally stops for
    the recovery-time metric; it defaults to the last planned fault.
    ``faults_from`` is the fault-activation point: the run warms up
    fault-free to it, then arms the plan's later faults -- the cold
    reference for prefix-snapshot sweeps (0 = arm at t = 0, the
    historical behavior).
    """
    kernel = chaos_prefix(defenses, t_split=faults_from, obs=obs)
    return chaos_continue(
        kernel,
        seed,
        duration_ns,
        wcet_overrun_rate=wcet_overrun_rate,
        crash_rate=crash_rate,
        clock_jitter_rate=clock_jitter_rate,
        defenses=defenses,
        burst_end_ns=burst_end_ns,
        plan=plan,
        faults_from=faults_from,
        defense_override=defense_override,
    )


# ----------------------------------------------------------------------
# network chaos: the dependable-fieldbus harness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NetChaosResult:
    """Outcome of one network chaos run (see :func:`run_net_chaos`)."""

    seed: int
    duration_ns: int
    nodes: int
    drop_p: float
    corrupt_p: float
    #: Retransmission bound in force (0 = retries disabled).
    max_retransmits: int
    #: Updates published by the writer (excludes rejoin re-broadcasts).
    published: int
    #: Worst replica's applied-updates / broadcast-sequences ratio.
    delivery_ratio: float
    per_node_updates: Dict[str, int]
    frames_retransmitted: int
    retransmits_exhausted: int
    error_frames: int
    bus_off_events: int
    frames_delivered: int
    #: Total wire wait (queue -> transmission start) across deliveries;
    #: grows with retransmission traffic -- the latency cost of retries.
    arbitration_wait_ns: int
    seq_gaps: int
    duplicates: int
    stale_episodes: int
    resyncs: int
    rebroadcasts: int
    worst_staleness_ns: int
    worst_latency_ns: int
    membership_changes: int
    #: ``(time, observer, peer, "down"/"up")`` in detection order.
    membership_events: Tuple = ()
    #: sha256 over replica stats, bus counters, error-state transition
    #: logs, and membership events -- the determinism fingerprint.
    signature: str = field(repr=False, default="")


@dataclass
class NetChaosState:
    """A paused network-chaos configuration (the shared prefix).

    Everything :func:`net_chaos_continue` needs to finish the run:
    the cluster (paused at the split point), the replicated channel,
    the optional heartbeat monitor, and the horizon the prefix was
    built for.  Fork-snapshot safe: the cluster runs in this process
    (no worker pool processes).
    """

    cluster: object
    channel: object
    monitor: Optional[object]
    duration_ns: int


def net_chaos_prefix(
    duration_ns: int = ms(1000),
    *,
    nodes: int = 4,
    dependability: bool = True,
    max_retransmits: int = 8,
    publish_period: int = ms(10),
    heartbeat_period: int = ms(50),
    freshness_ns: Optional[int] = None,
    stale_policy: str = "hold",
    silence_node: Optional[str] = None,
    silence_at: Optional[int] = None,
    rejoin_backoff_ns: Optional[int] = None,
    t_split: int = 0,
) -> NetChaosState:
    """Build the net-chaos cluster and run its fault-free warm-up.

    Every argument shapes the prefix (the writer's publish cutoff
    depends on ``duration_ns``, the silence event is scheduled at
    build time), so all of them belong in the sweep's
    :class:`~repro.perf.sweeps.PrefixSpec` key.  The returned state
    sits exactly at ``t_split``.
    """
    from repro.net.cluster import Cluster
    from repro.net.global_state import GlobalStateChannel
    from repro.net.membership import HeartbeatMonitor

    if nodes < 2:
        raise ValueError("network chaos needs at least two nodes")
    if t_split < 0:
        raise ValueError(f"t_split must be non-negative (got {t_split})")

    cluster = Cluster()
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        cluster.add_node(name, Kernel(EDFScheduler(ZERO_OVERHEAD)))
    if dependability:
        cluster.enable_dependability(max_retransmits)

    if freshness_ns is None:
        # Default bound: three publish periods of silence is stale
        # (one in flight + one driver poll + headroom).
        freshness_ns = 3 * publish_period
    channel = GlobalStateChannel(
        cluster,
        "chaos",
        can_id=0x10,
        writer_node=names[0],
        driver_period=publish_period,
        freshness_ns=freshness_ns,
        stale_policy=stale_policy,
    )

    monitor = None
    if dependability:
        monitor = HeartbeatMonitor(cluster, period=heartbeat_period)
        channel.attach_membership(monitor)

    # The writer stops publishing before the end so in-flight frames
    # (including retransmissions) drain and every replica settles.
    cutoff = max(0, duration_ns - 4 * publish_period)
    writer_kernel = cluster.nodes[names[0]]

    def pub(kern, thread) -> None:
        if kern.now <= cutoff:
            channel.publish(kern, thread, ("v", kern.now))

    writer_kernel.create_thread(
        "gs-pub",
        Program([Call(pub, label="gs-pub")]),
        period=publish_period,
        deadline=publish_period,
    )

    if silence_node is not None:
        if silence_node not in cluster.nodes:
            raise ValueError(f"unknown silence_node {silence_node}")
        if silence_at is None:
            silence_at = duration_ns // 2
        victim = cluster.nodes[silence_node]
        hb_name = f"hb-tx:{silence_node}"
        to_crash = [hb_name]
        if silence_node == names[0]:
            to_crash.append("gs-pub")
        if rejoin_backoff_ns is not None:
            victim.set_restart_policy(
                hb_name, max_restarts=1, backoff_ns=rejoin_backoff_ns
            )

        def crash(kern=victim, targets=tuple(to_crash)) -> None:
            for target in targets:
                kern.crash_thread(target, "silenced")

        victim.schedule_event(silence_at, crash, label="net-chaos-silence")

    if t_split:
        cluster.run_until(t_split)
    return NetChaosState(
        cluster=cluster,
        channel=channel,
        monitor=monitor,
        duration_ns=duration_ns,
    )


def net_chaos_continue(
    state: NetChaosState,
    seed: int,
    *,
    drop_p: float = 0.0,
    corrupt_p: float = 0.0,
    faults_from: int = 0,
) -> NetChaosResult:
    """Finish a net-chaos run from a prefix paused at ``faults_from``.

    Arms the seeded Bernoulli wire-fault hook at the split point and
    runs the cluster to the horizon the prefix was built for.  The
    per-frame verdict stream ``random.Random(f"netchaos:{seed}")`` is
    created here and consumed only by frames transmitted after the
    split, so a restored continuation replays the exact cold sequence.
    """
    if not 0.0 <= drop_p <= 1.0 or not 0.0 <= corrupt_p <= 1.0:
        raise ValueError("fault probabilities must be in [0, 1]")
    if drop_p + corrupt_p > 1.0:
        raise ValueError("drop_p + corrupt_p must not exceed 1")
    cluster = state.cluster
    channel = state.channel
    monitor = state.monitor
    if cluster.now != faults_from:
        raise ValueError(
            f"continuation must resume exactly at the split point "
            f"(cluster at {cluster.now}, faults_from {faults_from})"
        )

    # Per-frame Bernoulli verdicts, consumed in deterministic
    # arbitration order -- the wire is the only source of randomness.
    rng = random.Random(f"netchaos:{seed}")

    def fault_hook(start: int, frame) -> str:
        r = rng.random()
        if r < drop_p:
            return "drop"
        if r < drop_p + corrupt_p:
            return "corrupt"
        return "ok"

    if drop_p or corrupt_p:
        cluster.bus.fault_hook = fault_hook

    cluster.run_until(state.duration_ns)

    bus = cluster.bus
    per_node_updates: Dict[str, int] = {}
    seq_gaps = duplicates = stale_episodes = resyncs = 0
    worst_staleness = worst_latency = 0
    total_sequences = channel.published + channel.resync_broadcasts
    ratio = 1.0
    for node in sorted(channel.status_by_node):
        status = channel.status_by_node[node]
        per_node_updates[node] = status.updates
        seq_gaps += status.gaps
        duplicates += status.duplicates
        stale_episodes += status.stale_count
        resyncs += status.resyncs
        worst_staleness = max(worst_staleness, status.staleness_max_ns)
        worst_latency = max(worst_latency, status.latency_max_ns)
        if total_sequences:
            ratio = min(ratio, status.updates / total_sequences)

    error_transitions = []
    bus_off_events = 0
    if bus.error_states is not None:
        for node in sorted(bus.error_states):
            err_state = bus.error_states[node]
            bus_off_events += err_state.bus_off_events
            error_transitions.append((node, tuple(err_state.transitions)))
    membership_events = tuple(monitor.events) if monitor is not None else ()

    blob = repr((
        sorted(per_node_updates.items()),
        seq_gaps, duplicates, stale_episodes, resyncs,
        worst_staleness, worst_latency,
        bus.frames_delivered, bus.frames_dropped, bus.frames_corrupted,
        bus.frames_retransmitted, bus.retransmits_exhausted,
        bus.error_frames, bus.frames_deferred_bus_off, bus.bits_carried,
        tuple(error_transitions),
        membership_events,
    ))
    return NetChaosResult(
        seed=seed,
        duration_ns=state.duration_ns,
        nodes=len(cluster.nodes),
        drop_p=drop_p,
        corrupt_p=corrupt_p,
        max_retransmits=bus.max_retransmits,
        published=channel.published,
        delivery_ratio=ratio,
        per_node_updates=per_node_updates,
        frames_retransmitted=bus.frames_retransmitted,
        retransmits_exhausted=bus.retransmits_exhausted,
        error_frames=bus.error_frames,
        bus_off_events=bus_off_events,
        frames_delivered=bus.frames_delivered,
        arbitration_wait_ns=bus.total_arbitration_wait_ns,
        seq_gaps=seq_gaps,
        duplicates=duplicates,
        stale_episodes=stale_episodes,
        resyncs=resyncs,
        rebroadcasts=channel.resync_broadcasts,
        worst_staleness_ns=worst_staleness,
        worst_latency_ns=worst_latency,
        membership_changes=len(monitor.events) if monitor is not None else 0,
        membership_events=membership_events,
        signature=hashlib.sha256(blob.encode()).hexdigest(),
    )


def run_net_chaos(
    seed: int,
    duration_ns: int = ms(1000),
    *,
    nodes: int = 4,
    drop_p: float = 0.0,
    corrupt_p: float = 0.0,
    dependability: bool = True,
    max_retransmits: int = 8,
    publish_period: int = ms(10),
    heartbeat_period: int = ms(50),
    freshness_ns: Optional[int] = None,
    stale_policy: str = "hold",
    silence_node: Optional[str] = None,
    silence_at: Optional[int] = None,
    rejoin_backoff_ns: Optional[int] = None,
    faults_from: int = 0,
) -> NetChaosResult:
    """One seeded chaos run against the replicated-channel cluster.

    Builds an ``nodes``-node cluster whose writer (``n0``) publishes a
    sequenced :class:`~repro.net.global_state.GlobalStateChannel`
    update every ``publish_period`` while a seeded Bernoulli fault
    hook drops/corrupts frames with probability ``drop_p`` /
    ``corrupt_p``.  With ``dependability`` the bus retransmits
    (bounded by ``max_retransmits``) and runs the CAN error state
    machines; a :class:`~repro.net.membership.HeartbeatMonitor`
    tracks liveness and re-syncs replicas on rejoin.

    ``silence_node`` + ``silence_at`` crash that node's heartbeat
    sender (and its publisher, if it is the writer) mid-run via
    ``kernel.crash_thread``; ``rejoin_backoff_ns`` grants the sender
    one restart after that back-off, modelling a rejoin.

    ``faults_from`` is the wire-fault activation point: the cluster
    warms up fault-free to it before the Bernoulli hook arms -- the
    cold reference for prefix-snapshot sweeps (0 = armed from t = 0,
    the historical behavior).

    Everything is a pure function of the arguments: the returned
    ``signature`` is byte-identical across runs, processes, and
    ``parallel_map`` worker counts.
    """
    if not 0.0 <= drop_p <= 1.0 or not 0.0 <= corrupt_p <= 1.0:
        raise ValueError("fault probabilities must be in [0, 1]")
    if drop_p + corrupt_p > 1.0:
        raise ValueError("drop_p + corrupt_p must not exceed 1")
    state = net_chaos_prefix(
        duration_ns,
        nodes=nodes,
        dependability=dependability,
        max_retransmits=max_retransmits,
        publish_period=publish_period,
        heartbeat_period=heartbeat_period,
        freshness_ns=freshness_ns,
        stale_policy=stale_policy,
        silence_node=silence_node,
        silence_at=silence_at,
        rejoin_backoff_ns=rejoin_backoff_ns,
        t_split=faults_from,
    )
    return net_chaos_continue(
        state, seed, drop_p=drop_p, corrupt_p=corrupt_p,
        faults_from=faults_from,
    )
