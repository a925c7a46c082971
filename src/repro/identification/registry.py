"""A store of labelled training fingerprints, grouped by device-type."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.exceptions import IdentificationError
from repro.features.fingerprint import FIXED_PACKET_COUNT, Fingerprint


@dataclass
class FingerprintRegistry:
    """Labelled fingerprints of known device-types.

    The IoT Security Service accumulates such a registry from laboratory
    ground-truth experiments (and potentially crowdsourcing); the classifier
    bank and the edit-distance discriminator both read from it.
    """

    fixed_packet_count: int = FIXED_PACKET_COUNT
    _by_type: dict[str, list[Fingerprint]] = field(default_factory=lambda: defaultdict(list))

    def add(self, fingerprint: Fingerprint, device_type: Optional[str] = None) -> None:
        """Add a labelled fingerprint (label from the argument or the fingerprint)."""
        label = device_type or fingerprint.device_type
        if not label:
            raise IdentificationError("cannot register a fingerprint without a device-type label")
        stored = fingerprint
        if fingerprint.device_type != label:
            stored = Fingerprint(
                vectors=fingerprint.vectors,
                device_type=label,
                device_mac=fingerprint.device_mac,
                metadata=dict(fingerprint.metadata),
            )
        self._by_type[label].append(stored)

    def add_all(self, fingerprints: Iterable[Fingerprint]) -> None:
        """Add many labelled fingerprints."""
        for fingerprint in fingerprints:
            self.add(fingerprint)

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    @property
    def device_types(self) -> list[str]:
        """All registered device-type names, sorted."""
        return sorted(self._by_type)

    @property
    def total_fingerprints(self) -> int:
        return sum(len(group) for group in self._by_type.values())

    def count(self, device_type: str) -> int:
        return len(self._by_type.get(device_type, []))

    def fingerprints_of(self, device_type: str) -> list[Fingerprint]:
        """The fingerprints registered for one device-type."""
        if device_type not in self._by_type:
            raise IdentificationError(f"unknown device-type: {device_type!r}")
        return list(self._by_type[device_type])

    def groups(self) -> dict[str, list[Fingerprint]]:
        """Every device-type's fingerprints, types in first-registration order.

        :meth:`fingerprints_excluding` concatenates the other types' groups
        in this order.
        """
        return {label: list(group) for label, group in self._by_type.items()}

    def fingerprints_excluding(self, device_type: str) -> list[Fingerprint]:
        """All fingerprints whose type differs from ``device_type``."""
        return [
            fingerprint
            for label, group in self.groups().items()
            if label != device_type
            for fingerprint in group
        ]

    def __iter__(self) -> Iterator[Fingerprint]:
        for label in sorted(self._by_type):
            yield from self._by_type[label]

    def __len__(self) -> int:
        return self.total_fingerprints

    def __contains__(self, device_type: object) -> bool:
        return device_type in self._by_type

    # ------------------------------------------------------------------ #
    # Matrix views used for classifier training.
    # ------------------------------------------------------------------ #
    def fixed_matrix(self, fingerprints: Iterable[Fingerprint]) -> np.ndarray:
        """Stack the fixed-length vectors F' of the given fingerprints."""
        vectors = [
            fingerprint.to_fixed_vector(self.fixed_packet_count) for fingerprint in fingerprints
        ]
        if not vectors:
            raise IdentificationError("cannot build a matrix from zero fingerprints")
        return np.stack(vectors).astype(np.float64)

    def training_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """All fixed vectors and their labels, in registry iteration order."""
        fingerprints = list(self)
        matrix = self.fixed_matrix(fingerprints)
        labels = np.array([fingerprint.device_type for fingerprint in fingerprints], dtype=object)
        return matrix, labels
