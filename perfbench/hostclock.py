"""Host-speed calibration, interleaved with the measured work.

The shared host this benchmark was built on changes speed by 30% and
more from one second to the next (other tenants, frequency changes),
and every kind of CPU-bound work slows together: a fixed pure-Python
loop and a ``repro`` kernel, alternated for 30 s, spread by 33% and 39%
across one-second windows, but their ratio by under 10%.  So the
benchmark times work in *calibrated seconds*: while a :class:`HostClock`
runs, a timer signal interrupts the process every :data:`INTERVAL_S`
and runs a fixed calibration kernel (about a millisecond), and a wall
interval is converted piece by piece, each piece scaled by
``REFERENCE_S / (local kernel time)`` with the kernel's own time taken
out.  A calibrated second is a second on a host where the kernel takes
:data:`REFERENCE_S`; raw wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter
from typing import Any

#: Seconds between calibration samples.
INTERVAL_S = 0.025
#: Kernel time, in seconds, that defines one calibrated second.
REFERENCE_S = 0.0005
#: Samples on each side used to smooth the local kernel time.
_SMOOTH = 5


def calibration_kernel() -> float:
    """A fixed mix of dict, list, float and attribute work."""
    table: dict[int, float] = {}
    items: list[float] = []
    acc = 0.0
    for i in range(1200):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.5 - acc * 1e-3
        items.append(acc)
    items.sort()
    return acc + items[0] + len(table)


class HostClock:
    """Samples the calibration kernel on a timer while it runs."""

    def __init__(self) -> None:
        #: Start times and durations of the kernel samples, in order.
        self.starts: list[float] = []
        self.durations: list[float] = []
        #: Running total of the durations, read by the layer tracer.
        self.kernel_s = 0.0
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = perf_counter()
        calibration_kernel()
        duration = perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.kernel_s += duration

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _local(self, i: int) -> float:
        """Smoothed kernel time around sample ``i``."""
        lo = max(0, i - _SMOOTH)
        return statistics.median(self.durations[lo:i + _SMOOTH + 1])

    def kernel_time(self, t0: float, t1: float) -> float:
        """Wall time spent in calibration samples inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds of work in the wall interval ``[t0, t1]``."""
        starts = self.starts
        if not starts:
            return t1 - t0
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        total = 0.0
        cursor = t0
        for i in range(lo, hi):
            total += (starts[i] - cursor) / self._local(i)
            cursor = max(cursor, starts[i] + self.durations[i])
        tail = min(hi, len(starts) - 1)
        total += max(t1 - cursor, 0.0) / self._local(tail)
        return total * REFERENCE_S
