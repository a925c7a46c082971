"""Tests for the simulated clock."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.clock import SimulatedClock


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_ms(500)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimulatedClock().advance(-1)
