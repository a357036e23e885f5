"""Dependable-fieldbus sweep: delivery ratio and staleness vs drop rate.

An extension beyond the paper (EMERALDS defers inter-node protocols to
its companion work): the network chaos harness of
:func:`repro.faults.chaos.run_net_chaos` replicates a sequenced state
channel across a 4-node cluster while a seeded Bernoulli fault hook
drops frames on the wire, once with bounded CAN retransmission armed
and once with retries disabled.  The table reports, per (drop rate,
retries) cell averaged over seeds: the worst replica's delivery ratio,
retransmissions and exhausted retries, error frames, sequence gaps,
stale episodes, and the worst observed replica staleness and
publish-to-apply latency.

The headline rows: with retries the delivery ratio stays 1.0 through
drop rates of 10% (every lost frame is re-sent within the bound, at a
measurable latency cost); with retries disabled the ratio tracks
``1 - p`` and replicas accumulate sequence gaps.

Each (drop rate, retries, seed) case is an independent seeded
simulation, so the sweep fans out over ``--workers`` processes
(results identical to the serial run).  ``--smoke`` shrinks the sweep
for CI and *asserts* the retransmission guarantee (exit code 1 on
violation) -- the ``net-chaos-smoke`` CI job runs exactly that.

With ``--warmup-ms`` the wire faults arm only after a loss-free
warm-up; cases with the same retry bound then share that warm-up
cluster, simulated once and restored per point through
:func:`repro.perf.sweeps.prefix_map` (fork snapshots where available;
byte-identical to cold-starting each point).
"""

import statistics
from typing import Tuple

from common import apply_bench_args, bench_arg_parser, publish, sweep_map
from repro.analysis import format_table
from repro.faults.chaos import net_chaos_continue, net_chaos_prefix, run_net_chaos
from repro.perf.sweeps import PrefixSpec, prefix_map
from repro.timeunits import ms, to_ms, to_us

#: Retransmission bound when retries are on (the CAN-ish default).
RETRY_BOUND = 8


def _avg_wait_us(result) -> float:
    """Mean wire wait per delivered frame (us) -- the latency price of
    retransmission traffic occupying the bus."""
    if not result.frames_delivered:
        return 0.0
    return result.arbitration_wait_ns / result.frames_delivered / 1000.0


def make_cases(drop_ps, seeds, duration_ns, warmup_ns=0):
    """The sweep grid: one case per (drop rate, retries, seed)."""
    return [
        (drop_p, retries, seed, duration_ns, warmup_ns)
        for drop_p in drop_ps
        for retries in (RETRY_BOUND, 0)
        for seed in seeds
    ]


def _net_case(case: Tuple[float, int, int, int, int]):
    """One seeded network chaos run, cold-started; module-level so
    worker processes can import it.  Determinism rides on the seed
    inside the case."""
    drop_p, retries, seed, duration_ns, warmup_ns = case
    return run_net_chaos(
        seed,
        duration_ns,
        drop_p=drop_p,
        dependability=True,
        max_retransmits=retries,
        faults_from=warmup_ns,
    )


def _net_plan(case: Tuple[float, int, int, int, int]):
    """Shared-prefix plan for one case: cases with the same retry
    bound (and horizon) share the loss-free warm-up cluster."""
    drop_p, retries, seed, duration_ns, warmup_ns = case
    spec = PrefixSpec(
        key=("netchaos", retries, duration_ns, warmup_ns),
        t_split=warmup_ns,
        build=lambda: net_chaos_prefix(
            duration_ns,
            dependability=True,
            max_retransmits=retries,
            t_split=warmup_ns,
        ),
    )

    def continuation(state):
        return net_chaos_continue(
            state, seed, drop_p=drop_p, faults_from=warmup_ns
        )

    return spec, continuation


def run_cases(cases):
    """Execute the grid: shared-prefix planner when a warm-up makes
    prefixes shareable, the classic parallel cold sweep otherwise."""
    if any(case[4] > 0 for case in cases):
        return prefix_map(_net_plan, cases)
    return sweep_map(_net_case, cases)


def sweep(drop_ps, seeds, duration_ns, warmup_ns=0):
    cases = make_cases(drop_ps, seeds, duration_ns, warmup_ns)
    outcomes = run_cases(cases)
    rows = []
    per_seed = len(seeds)
    for index in range(0, len(cases), per_seed):
        drop_p, retries, _, _, _ = cases[index]
        results = outcomes[index:index + per_seed]
        rows.append(
            [
                f"{drop_p:g}",
                "yes" if retries else "no",
                f"{min(r.delivery_ratio for r in results):.3f}",
                f"{statistics.mean(r.frames_retransmitted for r in results):.1f}",
                f"{statistics.mean(r.retransmits_exhausted for r in results):.1f}",
                f"{statistics.mean(r.error_frames for r in results):.1f}",
                f"{statistics.mean(r.seq_gaps for r in results):.1f}",
                f"{statistics.mean(r.stale_episodes for r in results):.1f}",
                f"{to_ms(max(r.worst_staleness_ns for r in results)):.1f}",
                f"{to_us(max(r.worst_latency_ns for r in results)):.0f}",
                f"{statistics.mean(_avg_wait_us(r) for r in results):.1f}",
            ]
        )
    return rows, outcomes, cases


def main(argv=None) -> int:
    parser = bench_arg_parser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep for CI; asserts ratio 1.0 with retries at p<=0.1",
    )
    parser.add_argument(
        "--warmup-ms", type=int, default=0,
        help="loss-free warm-up before the wire faults arm; cases "
             "sharing a warm-up reuse one snapshotted prefix (default "
             "0 = the classic cold sweep)",
    )
    args = apply_bench_args(parser.parse_args(argv))
    if args.warmup_ms < 0:
        raise SystemExit(f"--warmup-ms must be non-negative (got {args.warmup_ms})")
    if args.smoke:
        drop_ps, seeds, duration = (0.0, 0.05, 0.1), (1, 2), ms(300)
    else:
        drop_ps, seeds, duration = (
            (0.0, 0.02, 0.05, 0.1, 0.2, 0.3), (1, 2, 3, 4, 5), ms(1000)
        )
    warmup = ms(args.warmup_ms)
    if warmup >= duration:
        raise SystemExit(
            f"--warmup-ms {args.warmup_ms} leaves no room for faults "
            f"inside the {to_ms(duration):.0f} ms horizon"
        )
    rows, outcomes, cases = sweep(drop_ps, seeds, duration, warmup)
    header = [
        "drop p",
        "retries",
        "min ratio",
        "retx",
        "exhausted",
        "err frames",
        "seq gaps",
        "stale",
        "worst age ms",
        "worst lat us",
        "avg wait us",
    ]
    warmup_note = (
        f", faults armed after {to_ms(warmup):.0f} ms warm-up" if warmup else ""
    )
    text = (
        f"Fieldbus dependability sweep: 4 nodes, {len(seeds)} seeds x "
        f"{to_ms(duration):.0f} ms, retry bound {RETRY_BOUND}{warmup_note}\n"
        + format_table(header, rows)
    )
    publish("net_fault_sweep", text)

    # The retransmission guarantee the CI smoke job enforces: every
    # update reaches every replica when retries are armed and the drop
    # rate stays at or below 10%.
    violations = [
        (case[0], case[2], result.delivery_ratio)
        for case, result in zip(cases, outcomes)
        if case[1] and case[0] <= 0.1 and result.delivery_ratio < 1.0
    ]
    if violations:
        for drop_p, seed, ratio in violations:
            print(
                f"FAIL: delivery ratio {ratio:.3f} < 1.0 with retries at "
                f"p={drop_p:g} seed={seed}"
            )
        return 1
    print("retransmission guarantee held: ratio 1.0 with retries at p <= 0.1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
