"""The end-to-end benchmark's tracer keeps finding the names it patches.

``benchmarks.e2e.run.instrument`` wraps named methods of one assembled
gateway's components (the assembler's ``observe``, ``prepare_batch``,
``observe_prepared``, ``evict_idle`` and ``flush``, the dispatcher's
``submit``/``poll``/``drain`` and more).  A rename or deletion in
``src/`` breaks traced benchmark runs; this guard fails in the tier-1
suite instead.
"""

from __future__ import annotations

from benchmarks.e2e.run import instrument
from benchmarks.e2e.trace import Tracer
from repro.api import GatewayConfig, build_gateway
from repro.streaming import SimulatedSource


def test_instrumented_facade_records_assembly_and_dispatch(trained_identifier, tmp_path):
    handle = build_gateway(
        GatewayConfig(identifier=trained_identifier, ledger_path=tmp_path / "ledger.ndjson")
    )
    tracer = Tracer()
    try:
        instrument(tracer, handle)
        handle.run_until_idle(SimulatedSource(devices=4, seed=3))
        layers = tracer.layer_table()
    finally:
        tracer.restore()
        handle.close()
    assert layers["streaming.assemble"]["calls"] > 0
    assert layers["streaming.dispatch"]["calls"] > 0
