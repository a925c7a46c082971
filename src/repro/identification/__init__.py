"""Two-stage device-type identification (Sect. IV-B of the paper)."""

from repro.identification.autopilot import (
    AutopilotDecision,
    LearnProposal,
    LifecycleAutopilot,
    ReprofileReport,
    ReprofileScheduler,
    TriggerPolicy,
    provisional_label,
)
from repro.identification.classifier_bank import (
    BankScores,
    ClassifierBank,
    DeviceTypeClassifier,
)
from repro.identification.identifier import DeviceTypeIdentifier, IdentificationResult
from repro.identification.lifecycle import (
    CacheEpoch,
    LifecycleCoordinator,
    QuarantineLog,
    QuarantinedDevice,
    RelearnReport,
    fingerprint_key,
    load_quarantine_log,
    save_quarantine_log,
)
from repro.identification.model_store import bundle_info, load_identifier, save_identifier
from repro.identification.registry import FingerprintRegistry

__all__ = [
    "AutopilotDecision",
    "BankScores",
    "CacheEpoch",
    "ClassifierBank",
    "DeviceTypeClassifier",
    "DeviceTypeIdentifier",
    "IdentificationResult",
    "LearnProposal",
    "LifecycleAutopilot",
    "LifecycleCoordinator",
    "QuarantineLog",
    "QuarantinedDevice",
    "RelearnReport",
    "ReprofileReport",
    "ReprofileScheduler",
    "TriggerPolicy",
    "FingerprintRegistry",
    "bundle_info",
    "fingerprint_key",
    "load_identifier",
    "load_quarantine_log",
    "provisional_label",
    "save_identifier",
    "save_quarantine_log",
]
