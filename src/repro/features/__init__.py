"""Feature extraction and device fingerprints (Sect. IV-A of the paper)."""

from repro.features.packet_features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    PacketFeatureExtractor,
    port_class,
)
from repro.features.fingerprint import (
    FIXED_PACKET_COUNT,
    FIXED_VECTOR_SIZE,
    Fingerprint,
)
from repro.features.session import SetupPhaseDetector, split_by_source

__all__ = [
    "FEATURE_COUNT",
    "FEATURE_NAMES",
    "PacketFeatureExtractor",
    "port_class",
    "FIXED_PACKET_COUNT",
    "FIXED_VECTOR_SIZE",
    "Fingerprint",
    "SetupPhaseDetector",
    "split_by_source",
]
