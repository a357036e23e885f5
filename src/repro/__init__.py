"""repro: a reproduction of EMERALDS, the small-memory real-time microkernel.

EMERALDS (Zuberi, Pillai & Shin, SOSP 1999) re-designs the core RTOS
services -- task scheduling, semaphores, and intra-node message
passing -- around properties of small-memory embedded systems.  This
package reimplements the whole system as a cost-faithful discrete-event
kernel plus the analytic machinery behind the paper's evaluation:

* :mod:`repro.core` -- the CSD scheduler family, EDF/RM baselines, the
  Table 1 overhead model, and overhead-aware schedulability analysis;
* :mod:`repro.kernel` -- the microkernel substrate (threads, dispatch,
  syscalls, interrupts, devices, memory protection, timers);
* :mod:`repro.sync` -- semaphores with the Section 6 optimizations,
  condition variables, and the hint-inserting code parser;
* :mod:`repro.ipc` -- mailboxes, shared memory, and state messages;
* :mod:`repro.sim` -- the event engine, workload generators, traces,
  and the breakdown-utilization experiment drivers.

Quick start::

    from repro import Kernel, CSDScheduler, Program, Compute, ms

    kernel = Kernel(CSDScheduler(dp_queue_count=1))
    kernel.create_thread(
        "control", Program([Compute(ms(1))]), period=ms(10), csd_queue=0
    )
    trace = kernel.run_until(ms(100))
    print(trace.summary(kernel.now))
"""

from repro.core import (
    CSDScheduler,
    EDFScheduler,
    OverheadModel,
    RMHeapScheduler,
    RMScheduler,
    Schedulable,
    Scheduler,
    TaskSpec,
    Workload,
    ZERO_OVERHEAD,
    csd_schedulable,
    edf_schedulable,
    find_feasible_splits,
    rm_schedulable,
    table2_workload,
)
from repro.ipc import Mailbox, SharedMemory, StateChannel, required_slots
from repro.kernel import (
    Acquire,
    Call,
    Compute,
    CvBroadcast,
    CvSignal,
    CvWait,
    Kernel,
    KernelError,
    Process,
    Program,
    Recv,
    Release,
    Send,
    Signal,
    Sleep,
    StateRead,
    StateWrite,
    Thread,
    Wait,
)
from repro.net import Cluster, Fieldbus, Frame, NetInterface, net_send
from repro.sim import breakdown_utilization, figure_series, generate_workload
from repro.sync import EmeraldsSemaphore, StandardSemaphore, insert_hints
from repro.timeunits import ms, seconds, to_ms, to_us, us

__version__ = "1.0.0"

__all__ = [
    "Acquire",
    "CSDScheduler",
    "Call",
    "Cluster",
    "Compute",
    "CvBroadcast",
    "CvSignal",
    "CvWait",
    "EDFScheduler",
    "EmeraldsSemaphore",
    "Fieldbus",
    "Frame",
    "Kernel",
    "KernelError",
    "Mailbox",
    "NetInterface",
    "OverheadModel",
    "Process",
    "Program",
    "RMHeapScheduler",
    "RMScheduler",
    "Recv",
    "Release",
    "Schedulable",
    "Scheduler",
    "Send",
    "SharedMemory",
    "Signal",
    "Sleep",
    "StandardSemaphore",
    "StateChannel",
    "StateRead",
    "StateWrite",
    "TaskSpec",
    "Thread",
    "Wait",
    "Workload",
    "ZERO_OVERHEAD",
    "breakdown_utilization",
    "csd_schedulable",
    "edf_schedulable",
    "figure_series",
    "find_feasible_splits",
    "generate_workload",
    "insert_hints",
    "ms",
    "net_send",
    "required_slots",
    "rm_schedulable",
    "seconds",
    "table2_workload",
    "to_ms",
    "to_us",
    "us",
]
