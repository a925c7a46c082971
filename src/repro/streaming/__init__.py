"""Online device identification: packets in, enforcement decisions out.

The offline pipeline (``repro.eval``) pre-builds complete fingerprints and
identifies them in bulk.  This subpackage runs the same two-stage
identification *as traffic arrives*, the way the paper's Security Gateway
operates:

* :mod:`repro.streaming.sources` -- the :class:`PacketSource` protocol with
  pcap-replay and simulator adapters;
* :mod:`repro.streaming.assembler` -- per-device incremental fingerprint
  assembly in one capture index, with idle eviction;
* :mod:`repro.streaming.dispatcher` -- batched classifier-bank invocation
  with an LRU cache of identification results;
* :mod:`repro.streaming.backpressure` -- bounded queues with drop/block
  overload policies;
* :mod:`repro.streaming.pipeline` -- the orchestrator and the
  :class:`GatewayEnforcementSink` bridging verdicts into enforcement.
"""

from repro.streaming.assembler import (
    AssemblerStats,
    FingerprintAssembler,
    ReadyFingerprint,
)
from repro.streaming.backpressure import (
    BackpressurePolicy,
    BoundedQueue,
    Offer,
    QueueStats,
)
from repro.streaming.dispatcher import (
    BatchDispatcher,
    DispatcherStats,
    IdentificationCache,
    IdentifiedDevice,
    fingerprint_cache_key,
)
from repro.streaming.pipeline import (
    GatewayEnforcementSink,
    PipelineStats,
    StreamingPipeline,
)
from repro.streaming.sources import (
    IterableSource,
    PacketSource,
    PcapReplaySource,
    SimulatedSource,
    interleave_traces,
    replay_trace,
)

__all__ = [
    "AssemblerStats",
    "FingerprintAssembler",
    "ReadyFingerprint",
    "BackpressurePolicy",
    "BoundedQueue",
    "Offer",
    "QueueStats",
    "BatchDispatcher",
    "DispatcherStats",
    "IdentificationCache",
    "IdentifiedDevice",
    "fingerprint_cache_key",
    "GatewayEnforcementSink",
    "PipelineStats",
    "StreamingPipeline",
    "IterableSource",
    "PacketSource",
    "PcapReplaySource",
    "SimulatedSource",
    "interleave_traces",
    "replay_trace",
]
