"""Memory-footprint accounting against the 32-128 KB target parts.

The paper's code-size claim ("a rich set of OS services in just 13
kbytes") cannot be reproduced in Python, but the *data* side of the
small-memory budget can: the RAM the kernel's objects occupy on the
modeled part.  This benchmark accounts every example application and
checks the whole repo's applications stay inside the paper's memory
envelope -- plus the mailbox-vs-state-message memory trade-off.
"""

import importlib
import sys
from pathlib import Path

from common import apply_bench_args, bench_arg_parser, publish
from repro.analysis import format_table
from repro.core.edf import EDFScheduler
from repro.core.overhead import ZERO_OVERHEAD
from repro.kernel.footprint import KERNEL_CODE_BYTES, kernel_footprint
from repro.kernel.kernel import Kernel

sys.path.insert(0, str(Path(__file__).parent.parent / "examples"))


def example_footprints():
    rows = []
    for name in ("quickstart", "engine_control", "voice_pipeline"):
        module = importlib.import_module(name)
        if name == "engine_control":
            kernel = module.build_kernel("emeralds")
        else:
            kernel = module.build_kernel()
        report = kernel_footprint(kernel)
        rows.append(
            [
                name,
                report.data_bytes,
                report.total_bytes,
                "yes" if report.fits(32 * 1024) else "NO",
                "yes" if report.fits(128 * 1024) else "NO",
            ]
        )
    publish(
        "footprint",
        format_table(
            ["application", "data (B)", "code+data (B)", "fits 32 KB", "fits 128 KB"],
            rows,
            title=(
                f"Memory footprint (kernel code {KERNEL_CODE_BYTES} B, the "
                "paper's 13 KB): the Section 2 parts have 32-128 KB total"
            ),
        ),
    )
    # Everything must fit the paper's top-end part; the modest apps
    # must fit the bottom-end part too.
    assert all(r[4] == "yes" for r in rows)
    assert rows[0][3] == "yes"  # quickstart fits 32 KB


def state_message_memory_tradeoff():
    """Distributing one value to k readers: k mailboxes of depth d vs
    one N-slot channel.  The state message wins on RAM too."""
    rows = []
    for readers in (2, 4, 8):
        mk = Kernel(EDFScheduler(ZERO_OVERHEAD))
        for i in range(readers):
            mk.create_mailbox(f"m{i}", capacity=4, max_message_size=16)
        mailbox_bytes = kernel_footprint(mk).data_bytes

        sk = Kernel(EDFScheduler(ZERO_OVERHEAD))
        sk.create_channel("c", slots=4)
        state_bytes = kernel_footprint(sk).data_bytes
        rows.append([readers, mailbox_bytes, state_bytes])
    publish(
        "footprint_ipc",
        format_table(
            ["readers", "k mailboxes (B)", "one state channel (B)"],
            rows,
            title="RAM to distribute one value to k readers",
        ),
    )
    for readers, mailbox_bytes, state_bytes in rows:
        assert state_bytes < mailbox_bytes
    # Mailbox memory grows with readers; the channel does not.
    assert rows[-1][1] > rows[0][1]
    assert rows[-1][2] == rows[0][2]


def main(argv=None) -> int:
    apply_bench_args(bench_arg_parser(description=__doc__).parse_args(argv))
    example_footprints()
    state_message_memory_tradeoff()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
