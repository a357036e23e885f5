"""The microkernel substrate: threads, dispatch, IRQs, memory, devices."""

from repro.kernel.clock import Timer
from repro.kernel.devices import AperiodicDevice, PeriodicDevice
from repro.kernel.footprint import FootprintModel, FootprintReport, kernel_footprint
from repro.kernel.interrupts import InterruptController
from repro.kernel.kernel import Kernel, KernelError
from repro.kernel.kevent import KernelEvent
from repro.kernel.memory import MemoryMap, ProtectionFault, Region
from repro.kernel.process import AddressSpaceAllocator, Process
from repro.kernel.program import (
    Acquire,
    Call,
    Compute,
    CvBroadcast,
    CvSignal,
    CvWait,
    Op,
    Program,
    Recv,
    Release,
    Send,
    Signal,
    Sleep,
    StateRead,
    StateWrite,
    Wait,
)
from repro.kernel.thread import Thread

__all__ = [
    "Acquire",
    "AddressSpaceAllocator",
    "AperiodicDevice",
    "Call",
    "Compute",
    "CvBroadcast",
    "CvSignal",
    "CvWait",
    "FootprintModel",
    "FootprintReport",
    "InterruptController",
    "Kernel",
    "KernelError",
    "KernelEvent",
    "MemoryMap",
    "Op",
    "PeriodicDevice",
    "Process",
    "Program",
    "ProtectionFault",
    "Recv",
    "Region",
    "Release",
    "Send",
    "Signal",
    "Sleep",
    "StateRead",
    "StateWrite",
    "Thread",
    "Timer",
    "Wait",
    "kernel_footprint",
]
