#!/usr/bin/env python3
"""Quickstart: a tiny EMERALDS application.

Builds a kernel with the CSD-3 scheduler and three periodic threads:

* ``control`` (5 ms, DP1 queue) updates a shared object behind an
  EMERALDS semaphore and publishes its latest sample on a *state
  message* channel -- the lock-free single-writer mechanism EMERALDS
  uses for high-rate sensor-style data (a mailbox would overflow: the
  consumer runs 20x slower and only ever wants the latest value).
* ``supervisor`` (20 ms, DP2 queue) also takes the lock, and sends a
  low-rate report through a mailbox.
* ``logger`` (100 ms, FP queue) drains the report mailbox and reads
  the latest sample.

Run:  python examples/quickstart.py
"""

from repro.kernel.footprint import kernel_footprint
from repro import (
    Acquire,
    Compute,
    CSDScheduler,
    Kernel,
    OverheadModel,
    Program,
    Recv,
    Release,
    Send,
    StateRead,
    StateWrite,
    ms,
    to_us,
    us,
)


def build_kernel() -> Kernel:
    scheduler = CSDScheduler(OverheadModel(), dp_queue_count=2)
    kernel = Kernel(scheduler, sem_scheme="emeralds")

    kernel.create_semaphore("state_lock")
    kernel.create_mailbox("reports", capacity=8)
    kernel.create_channel("latest_sample", slots=4)

    # Fast control loop: lock the shared object, publish the sample on
    # the state channel (no kernel trap).  Lives in DP1 (EDF).
    kernel.create_thread(
        "control",
        Program(
            [
                Acquire("state_lock"),
                Compute(us(300)),
                Release("state_lock"),
                StateWrite("latest_sample", value="rpm"),
                Compute(us(200)),
            ]
        ),
        period=ms(5),
        csd_queue=0,
    )

    # Medium-rate supervisor, DP2: takes the lock, files one report.
    kernel.create_thread(
        "supervisor",
        Program(
            [
                Compute(ms(1)),
                Acquire("state_lock"),
                Compute(us(500)),
                Release("state_lock"),
                Send("reports", size=16, payload="report"),
            ]
        ),
        period=ms(20),
        csd_queue=1,
    )

    # Slow logger on the FP (rate-monotonic) queue: drains the five
    # reports that arrive per 100 ms, reads the latest sample.
    kernel.create_thread(
        "logger",
        Program(
            [Recv("reports") for _ in range(5)]
            + [StateRead("latest_sample"), Compute(ms(2))]
        ),
        period=ms(100),
        csd_queue=2,
    )
    return kernel


def main() -> None:
    kernel = build_kernel()
    trace = kernel.run_until(ms(1000))

    print("=== quickstart: 1 s of virtual time on CSD-3 ===")
    print(trace.summary(kernel.now))
    print()
    print("scheduler queues (DP1, DP2, FP):", kernel.scheduler.queue_lengths())
    stats = kernel.scheduler.stats
    print(
        f"scheduler ops: {stats.blocks} blocks, {stats.unblocks} unblocks, "
        f"{stats.selects} selects; charged {to_us(stats.charged_total_ns):.0f} us"
    )
    sem = kernel.semaphores["state_lock"]
    print(
        f"semaphore: {sem.acquires} acquires "
        f"({sem.contended_acquires} contended), "
        f"{sem.parks} hint-parks (each saves one context switch)"
    )
    channel = kernel.channels["latest_sample"]
    print(
        f"state channel: {channel.writes} writes, {channel.reads} reads, "
        f"{channel.torn_reads} torn reads"
    )
    print()
    print(trace.gantt_ascii(0, ms(40), columns=72))
    violations = trace.deadline_violations(kernel.now)
    print()
    print("deadline violations:", len(violations))
    report = kernel_footprint(kernel)
    print()
    print("memory footprint on the modeled part:")
    print(report.render())
    print(f"fits a 32 KB part: {report.fits(32 * 1024)}")
    assert not violations, "quickstart workload must be schedulable"


if __name__ == "__main__":
    main()
