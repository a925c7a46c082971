"""Host-speed sampling: times on a shared host, corrected to one steady speed.

The benchmark runs on shared hosts whose speed drifts while it runs.  On
the 2-core development host a neighbour on the same physical core slows
every instruction by up to ~1.6x, in phases lasting from milliseconds to
minutes, so a slow phase can cover a whole run and no statistic of wall
time alone removes it.

:class:`HostSpeed` samples the host's speed *while the measured code
runs*: an interval timer interrupts the main thread every ``PERIOD_S``
and the signal handler times one fixed calibration unit -- interpreter
work (attribute loads, dict updates, integer arithmetic) whose code
never changes with the repository.  The handler runs the unit twice and
times only the second pass: the first brings the unit's ~30 KiB of
objects back into the cache the program evicted, so the timed pass
reads how fast the core runs now, not what the program did before it.
Over a measured interval, the trimmed mean unit time divided by
``REFERENCE_UNIT_S`` is the host's *slowness* during that interval, and
a time divided by it is that time at the reference speed.  Sampling
costs about 3% of the run, the same on every commit, and the samples
are taken with the garbage collector paused so the program's heap never
inflates them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from typing import Any

#: Sampling period of the interval timer.
PERIOD_S = 0.01
#: One calibration unit at the reference speed: its typical time on the
#: 2-core development host, so corrected times read close to wall times
#: there.
REFERENCE_UNIT_S = 130e-6
#: Samples above this multiple of the interval's median are preemptions
#: of the sampler itself, not host speed, and are left out.
OUTLIER_FACTOR = 3.0

_UNIT_ITEMS = 512
_MASK = 0xFFFFF

clock = time.perf_counter


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _calibration_unit(items: list[_Item], table: dict[int, int]) -> None:
    """Fixed interpreter work that allocates no tracked objects."""
    for item in items:
        key = item.key
        table[key] = (table[key] + item.value) & _MASK
        item.value = (item.value * 7 + key) & _MASK


class HostSpeed:
    """Samples host speed every ``PERIOD_S`` while the context is open.

    ``mark()`` opens a measured interval, ``slowness(mark)`` closes it.
    Only the main thread of the process may use it (signal handlers run
    there).
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self._items = [_Item(index & 63, index) for index in range(_UNIT_ITEMS)]
        self._table = {key: 0 for key in range(64)}
        self._previous: Any = None

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum: int, _frame: Any) -> None:
        collecting = gc.isenabled()
        gc.disable()
        _calibration_unit(self._items, self._table)  # warms the cache
        started = clock()
        _calibration_unit(self._items, self._table)
        self.samples.append(clock() - started)
        if collecting:
            gc.enable()

    def mark(self) -> int:
        """Open a measured interval."""
        return len(self.samples)

    def slowness(self, mark: int) -> float:
        """Host slowness since ``mark``: > 1 when slower than the reference."""
        taken = self.samples[mark:]
        if not taken:
            raise ValueError(f"no host-speed sample in an interval shorter than {PERIOD_S} s")
        ceiling = OUTLIER_FACTOR * statistics.median(taken)
        return statistics.fmean(t for t in taken if t <= ceiling) / REFERENCE_UNIT_S
