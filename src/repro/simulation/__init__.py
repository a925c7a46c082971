"""The simulated clock that stamps the gateway's and the streaming pipeline's events."""

from repro.simulation.clock import SimulatedClock

__all__ = ["SimulatedClock"]
