"""Host time, scaled by the host's measured speed.

On a shared host the same code runs at different speeds from one second to
the next (another tenant on the sibling hyperthread, frequency changes):
one fixed pure-Python loop measured 55 ms in some seconds and 85 ms in
others on a 2-core cloud VM. A raw wall-clock figure then moves by a third
between identical runs, far more than any change a benchmark should catch.

:class:`HostClock` measures wall-clock time in *laps* taken between
simulation steps, outside any traced span. After each lap it times a fixed
reference loop that exercises what the program does (object allocation,
dict and attribute access, SHA-256, big-integer XOR), and scales the lap
by ``REFERENCE_SECONDS / measured reference time``. The scaled total is
the host time the work would have taken on a host where the reference
loop takes ``REFERENCE_SECONDS``. Both totals are kept; the raw one is
printed beside every scaled figure.
"""

from __future__ import annotations

import hashlib
import time

# The reference loop's time on a quiet core of the 2-core, 2 GHz x86 VM
# this benchmark was calibrated on. A constant: changing it rescales every
# host figure and breaks comparison with earlier results.
REFERENCE_SECONDS = 0.0037

_BLOB = bytes(range(256)) * 4


class _Row:
    __slots__ = ("number", "name")

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name


def reference_seconds() -> float:
    """Time one run of the reference loop."""
    started = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(1500):
        row = _Row(i, str(i))
        table[row.name] = row.number ^ len(table)
        table.get(str(i - 3))
        hashlib.sha256(_BLOB).digest()
        _ = int.from_bytes(_BLOB[:64], "big") ^ i
    return time.perf_counter() - started


class HostClock:
    """Accumulates raw and speed-scaled host seconds, one lap at a time."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._mark = time.perf_counter()

    def restart(self) -> None:
        """Zero both totals; the next lap starts now."""
        self.raw = self.scaled = 0.0
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """Close the current lap (reference time is excluded from it)."""
        elapsed = time.perf_counter() - self._mark
        self.raw += elapsed
        self.scaled += elapsed * REFERENCE_SECONDS / reference_seconds()
        self._mark = time.perf_counter()

    @property
    def speed(self) -> float:
        """Reference speed relative to the host's: scaled / raw."""
        return self.scaled / self.raw if self.raw else 1.0
