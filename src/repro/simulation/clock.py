"""A simple simulated clock shared by the enforcement components."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError


@dataclass
class SimulatedClock:
    """A monotonically advancing simulated clock (seconds).

    The Security Gateway and the streaming pipeline read the same clock
    instance so that packet timestamps and rule installation times are
    mutually consistent without relying on wall time (which would make
    tests flaky).
    """

    current_time: float = 0.0

    def now(self) -> float:
        """The current simulated time in seconds."""
        return self.current_time

    def advance(self, seconds: float) -> float:
        """Move the clock forward and return the new time."""
        if seconds < 0:
            raise SimulationError(f"cannot advance the clock by a negative amount: {seconds}")
        self.current_time += seconds
        return self.current_time

    def advance_ms(self, milliseconds: float) -> float:
        """Move the clock forward by ``milliseconds`` and return the new time."""
        return self.advance(milliseconds / 1000.0)
