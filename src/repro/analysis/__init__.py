"""Result rendering: tables and ASCII series for the evaluation."""

from repro.analysis.metrics import miss_ratio, recovery_time_ns
from repro.analysis.tables import ascii_series, format_table

__all__ = [
    "ascii_series",
    "format_table",
    "miss_ratio",
    "recovery_time_ns",
]
