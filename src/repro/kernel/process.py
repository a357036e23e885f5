"""Processes: protection domains owning memory maps and threads.

EMERALDS is a microkernel with multi-threaded user processes
(Section 3, Figure 1): threads are scheduled by the kernel, while the
process provides the protection boundary.  A default allocator carves
regions out of the flat on-chip address space, reflecting the paper's
in-memory, no-virtual-memory target (32-128 KB of RAM).
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel.memory import MemoryMap, Region

__all__ = ["Process", "AddressSpaceAllocator"]

#: Default simulated physical memory size: 128 KB, the top of the
#: paper's target range.
DEFAULT_MEMORY_BYTES = 128 * 1024


class AddressSpaceAllocator:
    """Bump allocator for the flat physical address space.

    Small-memory systems lay memory out statically at build time; this
    allocator stands in for the linker.
    """

    def __init__(self, total_bytes: int = DEFAULT_MEMORY_BYTES):
        if total_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.total_bytes = total_bytes
        self._next = 0

    @property
    def used_bytes(self) -> int:
        return self._next

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self._next

    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if self._next + size > self.total_bytes:
            raise MemoryError(
                f"out of simulated memory: need {size}, have {self.free_bytes}"
            )
        base = self._next
        self._next += size
        return base


class Process:
    """A protection domain: a named memory map plus member threads."""

    def __init__(self, name: str, allocator: Optional[AddressSpaceAllocator] = None):
        self.name = name
        self.memory = MemoryMap()
        self.threads: List[object] = []
        self._allocator = allocator

    def map_region(
        self,
        name: str,
        size: int,
        readable: bool = True,
        writable: bool = True,
        base: Optional[int] = None,
    ) -> Region:
        """Map a new region, allocating space when ``base`` is None."""
        if base is None:
            if self._allocator is None:
                raise ValueError(
                    f"process {self.name} has no allocator; pass an explicit base"
                )
            base = self._allocator.allocate(size)
        region = Region(name, base, size, readable=readable, writable=writable)
        self.memory.map(region)
        return region

    def __repr__(self) -> str:
        return (
            f"<Process {self.name}: {len(self.threads)} threads, "
            f"{len(self.memory)} regions>"
        )
