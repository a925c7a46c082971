"""Reproduction of IoT SENTINEL (Miettinen et al., ICDCS 2017).

The package is organised in layers that mirror the paper's system design:

* :mod:`repro.net` -- packet dissection/serialisation and pcap I/O
  (stand-in for scapy, which is not available offline).
* :mod:`repro.features` -- the 23 per-packet features of Table I and the
  variable-length / fixed-length device fingerprints ``F`` and ``F'``.
* :mod:`repro.ml` -- CART decision trees, Random Forests as flat node
  arrays, stratified k-fold splits, negative subsampling and the
  confusion-matrix metrics the evaluation reports (stand-in for
  scikit-learn).
* :mod:`repro.distance` -- the discrimination stage: one batched
  Damerau-Levenshtein kernel over packet sequences and the deterministic
  reference draw.
* :mod:`repro.identification` -- the two-stage device-type identification
  pipeline (one binary classifier per device-type + edit-distance
  discrimination), plus the online-learning lifecycle: unknown-device
  quarantine, epoch-based cache invalidation and fleet re-identification
  when a device-type is registered at runtime.
* :mod:`repro.devices` -- behaviour profiles and setup-traffic simulation
  for the 27 device-types of Table II.
* :mod:`repro.datasets` -- fingerprint dataset construction and persistence.
* :mod:`repro.streaming` -- the online identification pipeline: packet
  sources, incremental fingerprint assembly, batched/cached
  dispatch and the bridge into gateway enforcement.
* :mod:`repro.sdn`, :mod:`repro.gateway`, :mod:`repro.security_service` --
  the enforcement half of the paper: OpenFlow-like switch, Security
  Gateway (the switch's packet-in handler) with its MAC-keyed
  enforcement-rule table and isolation overlays, and
  the IoT Security Service with its vulnerability repository.
* :mod:`repro.simulation` -- the simulated clock shared by the gateway and
  the streaming pipeline.
* :mod:`repro.obs` -- the observability surface: an append-only,
  schema-versioned evidence ledger of every verdict and lifecycle event,
  and a unified metrics registry behind one ``snapshot()``.
* :mod:`repro.api` -- the declarative gateway-construction facade:
  :class:`~repro.api.GatewayConfig` in, fully wired
  :class:`~repro.api.GatewayHandle` out.
* :mod:`repro.fleet` -- epoch-coordinated multi-gateway serving: the
  model-distribution channel, hot bundle swaps and the fleet health /
  convergence view.
* :mod:`repro.eval` -- experiment runners that regenerate every table and
  figure of the paper's evaluation section.
* :mod:`repro.scenarios` -- hostile-campaign harness: seeded adversarial
  and churn scenarios (mimicry, MAC-randomization storms, firmware drift,
  DHCP churn, burst overload) scored against the evidence ledger, with
  byte-deterministic per-scenario artifacts.

The most commonly used entry points of every layer are re-exported here;
``from repro import GatewayConfig, build_gateway`` is the intended way
to stand up a serving gateway, and
``from repro import DeviceTypeIdentifier, StreamingPipeline`` the way to
reach the underlying layers.
"""

from repro.api import GatewayConfig, GatewayHandle, SwapReport, build_gateway
from repro.exceptions import ConfigError, FleetError
from repro.features.fingerprint import Fingerprint
from repro.fleet import (
    BundleSubscriber,
    ConvergenceReport,
    FleetCoordinator,
    FleetHealthView,
    GatewayHealth,
    PushRecord,
)
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.autopilot import (
    LearnProposal,
    LifecycleAutopilot,
    ReprofileReport,
    ReprofileScheduler,
    TriggerPolicy,
)
from repro.identification.identifier import (
    DeviceTypeIdentifier,
    IdentificationResult,
    UNKNOWN_DEVICE_TYPE,
)
from repro.identification.lifecycle import (
    CacheEpoch,
    LifecycleCoordinator,
    QuarantineLog,
    RelearnReport,
    load_quarantine_log,
    save_quarantine_log,
)
from repro.identification.model_store import load_identifier, save_identifier
from repro.identification.registry import FingerprintRegistry
from repro.obs import (
    EvidenceRecord,
    MetricsRegistry,
    Observability,
    VerdictLedger,
    replay_ledger,
)
from repro.security_service.service import IoTSecurityService, SecurityAssessment
from repro.streaming import (
    BatchDispatcher,
    FingerprintAssembler,
    GatewayEnforcementSink,
    IdentificationCache,
    IdentifiedDevice,
    PacketSource,
    PcapReplaySource,
    SimulatedSource,
    StreamingPipeline,
)
from repro.version import __version__

__all__ = [
    "__version__",
    "build_gateway",
    "BundleSubscriber",
    "ConfigError",
    "ConvergenceReport",
    "FleetCoordinator",
    "FleetError",
    "FleetHealthView",
    "GatewayConfig",
    "GatewayHandle",
    "GatewayHealth",
    "PushRecord",
    "SwapReport",
    "Fingerprint",
    "SecurityGateway",
    "DeviceTypeIdentifier",
    "IdentificationResult",
    "UNKNOWN_DEVICE_TYPE",
    "CacheEpoch",
    "LearnProposal",
    "LifecycleAutopilot",
    "LifecycleCoordinator",
    "QuarantineLog",
    "RelearnReport",
    "ReprofileReport",
    "ReprofileScheduler",
    "TriggerPolicy",
    "FingerprintRegistry",
    "load_identifier",
    "load_quarantine_log",
    "save_identifier",
    "save_quarantine_log",
    "EvidenceRecord",
    "MetricsRegistry",
    "Observability",
    "VerdictLedger",
    "replay_ledger",
    "IoTSecurityService",
    "SecurityAssessment",
    "BatchDispatcher",
    "FingerprintAssembler",
    "GatewayEnforcementSink",
    "IdentificationCache",
    "IdentifiedDevice",
    "PacketSource",
    "PcapReplaySource",
    "SimulatedSource",
    "StreamingPipeline",
]
