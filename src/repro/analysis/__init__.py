"""Result rendering: tables and ASCII series for the evaluation."""

from repro.analysis.metrics import (
    CpuBreakdown,
    cpu_breakdown,
    miss_ratio,
    recovery_time_ns,
)
from repro.analysis.tables import ascii_series, format_table

__all__ = [
    "CpuBreakdown",
    "ascii_series",
    "cpu_breakdown",
    "format_table",
    "miss_ratio",
    "recovery_time_ns",
]
