"""The full two-stage device-type identification pipeline."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.distance.discrimination import (
    DissimilarityScore,
    EditDistanceDiscriminator,
    intern_references,
)
from repro.exceptions import IdentificationError
from repro.features.fingerprint import Fingerprint
from repro.identification.classifier_bank import ClassifierBank
from repro.identification.registry import FingerprintRegistry

#: Label returned for fingerprints rejected by every per-type classifier.
UNKNOWN_DEVICE_TYPE = "unknown"


@dataclass(frozen=True)
class IdentificationResult:
    """The outcome of identifying one fingerprint.

    Attributes:
        device_type: the final predicted type, or ``"unknown"``.
        matched_types: every type whose classifier accepted the fingerprint.
        discrimination_scores: per-candidate dissimilarity scores, present
            only when the edit-distance stage ran.
        classification_seconds: wall-clock time of the classification stage.
        discrimination_seconds: wall-clock time of the discrimination stage.
        is_new_device_type: True when no classifier accepted the fingerprint.
    """

    device_type: str
    matched_types: tuple[str, ...]
    discrimination_scores: tuple[DissimilarityScore, ...] = ()
    classification_seconds: float = 0.0
    discrimination_seconds: float = 0.0

    @property
    def is_new_device_type(self) -> bool:
        return self.device_type == UNKNOWN_DEVICE_TYPE

    @property
    def needed_discrimination(self) -> bool:
        return len(self.matched_types) > 1

    @property
    def total_seconds(self) -> float:
        return self.classification_seconds + self.discrimination_seconds

    @property
    def provenance(self) -> dict[str, tuple[tuple[int, ...], Optional[int]]]:
        """Audit trail of the edit-distance stage, per candidate type.

        Maps each compared ``device_type`` to ``(reference_indices,
        selection_seed)``: exactly which reference fingerprints (indices
        into the registry's per-type list) the dissimilarity score was
        computed against, and the deterministic draw seed that selected
        them (``None`` when the whole pool was compared or the paper-style
        random mode ran).  Empty when the edit-distance stage never ran.
        """
        return {
            score.device_type: (score.reference_indices, score.selection_seed)
            for score in self.discrimination_scores
        }


@dataclass
class DeviceTypeIdentifier:
    """Identifies device-types from fingerprints (classification + discrimination).

    Typical usage::

        registry = FingerprintRegistry()
        registry.add_all(training_fingerprints)
        identifier = DeviceTypeIdentifier.train(registry, random_state=0)
        result = identifier.identify(unknown_fingerprint)

    Attributes:
        bank: the per-device-type classifier bank (stage 1).
        registry: training fingerprints, used as discrimination references.
        discriminator: the edit-distance discriminator (stage 2).
        novelty_threshold: extension to the paper -- after the winning type
            is determined, the mean normalised edit distance between the
            fingerprint and the winner's reference fingerprints must stay
            below this value, otherwise the device is reported as a new
            (unknown) device-type.  This protects against per-type
            classifiers accepting wildly out-of-distribution fingerprints.
            ``None`` disables the guard (the paper's exact behaviour).
        revision: bumped by every :meth:`add_device_type`.  Doubles as the
            *salt* of the discriminator's deterministic reference draw:
            identical fingerprints meet identical references until the
            registry actually changes, at which point every draw is
            re-randomised at once.  Any component
            caching identification results must treat a revision change as
            invalidating every cached verdict; the
            :class:`~repro.identification.lifecycle.LifecycleCoordinator`
            automates that (epoch bump + cache clears + fleet
            re-identification).
    """

    bank: ClassifierBank
    registry: FingerprintRegistry
    discriminator: EditDistanceDiscriminator = field(default_factory=EditDistanceDiscriminator)
    novelty_threshold: Optional[float] = 0.85
    revision: int = 0

    def __post_init__(self) -> None:
        # Discriminations on every gateway serving this identifier then
        # find each reference's codes cached (a loaded bundle included).
        intern_references(self.registry)

    @classmethod
    def train(
        cls,
        registry: FingerprintRegistry,
        negative_ratio: float = 10.0,
        n_estimators: int = 10,
        references_per_type: int = 5,
        random_state: Optional[int] = None,
        novelty_threshold: Optional[float] = 0.85,
    ) -> "DeviceTypeIdentifier":
        """Train an identifier from a labelled fingerprint registry."""
        bank = ClassifierBank(
            negative_ratio=negative_ratio,
            n_estimators=n_estimators,
            random_state=random_state,
        )
        bank.train_from_registry(registry)
        # Deterministic reference selection: the draw is seeded per
        # fingerprint from its content hash (plus this identifier's
        # revision), so no trained-in generator state exists to seed here.
        discriminator = EditDistanceDiscriminator(references_per_type=references_per_type)
        return cls(
            bank=bank,
            registry=registry,
            discriminator=discriminator,
            novelty_threshold=novelty_threshold,
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance.
    # ------------------------------------------------------------------ #
    def add_device_type(self, device_type: str, fingerprints: Sequence[Fingerprint]) -> None:
        """Register a new device-type and train only its classifier.

        Existing classifiers are left untouched -- the scalability property
        the paper emphasises over multi-class approaches such as GTID.
        Callers holding caches of identification results must invalidate
        them (see :attr:`revision`); previously "unknown" devices should be
        re-identified against the grown bank -- the
        :class:`~repro.identification.lifecycle.LifecycleCoordinator` does
        both.
        """
        if not fingerprints:
            raise IdentificationError("a new device-type needs at least one fingerprint")
        for fingerprint in fingerprints:
            self.registry.add(fingerprint, device_type=device_type)
        self.bank.train_type(
            device_type,
            self.registry.fingerprints_of(device_type),
            self.registry.fingerprints_excluding(device_type),
        )
        intern_references(self.registry.fingerprints_of(device_type))
        self.revision += 1

    # ------------------------------------------------------------------ #
    # Identification.
    # ------------------------------------------------------------------ #
    def identify(self, fingerprint: Fingerprint, use_discrimination: bool = True) -> IdentificationResult:
        """Identify the device-type of a fingerprint (a batch of one).

        ``use_discrimination=False`` disables the edit-distance stage (used
        by the ablation experiment); ties are then broken by the classifier
        acceptance probability.
        """
        return self.identify_many([fingerprint], use_discrimination)[0]

    def identify_many(
        self, fingerprints: Sequence[Fingerprint], use_discrimination: bool = True
    ) -> list[IdentificationResult]:
        """Identify a batch of fingerprints, one pass per stage.

        Stage 1 scores the whole batch as one ``(batch x device-types)``
        matrix through the bank's fused forest stack.  Stage 2 then draws
        the reference subsets of every row that needs the edit distance --
        each multi-match's candidates, and the novelty guard of each
        single match -- and scores them in one
        :meth:`~repro.distance.discrimination.EditDistanceDiscriminator.score_many`
        call.  A multi-match's guard reuses the winner's score.

        Each result's ``classification_seconds`` is the batch's stage-1
        wall-clock divided evenly across the batch, and its
        ``discrimination_seconds`` is the stage-2 wall-clock divided
        evenly across the rows that needed it (0 for the others), so both
        sum back to the two stage times.
        """
        if not fingerprints:
            return []
        start = time.perf_counter()
        # One symbol pass per query: the fixed vectors' first-unique rows
        # and the edit-distance alphabet lookup both read these.
        symbols = [fingerprint.as_symbol_sequence() for fingerprint in fingerprints]
        scores = self.bank.score_fingerprints(fingerprints, symbols)
        classification_seconds = (time.perf_counter() - start) / len(fingerprints)

        start = time.perf_counter()
        matched_rows = scores.matched_rows()
        scored_rows: list[int] = []
        requests = []
        for row, (fingerprint, matched) in enumerate(zip(fingerprints, matched_rows)):
            guarded = len(matched) == 1 and self.novelty_threshold is not None
            discriminated = len(matched) > 1 and use_discrimination
            if guarded or discriminated:
                scored_rows.append(row)
                requests.append(
                    (fingerprint, {name: self.registry.fingerprints_of(name) for name in matched})
                )
        scored = self.discriminator.score_many(
            requests, salt=self.revision, symbols=[symbols[row] for row in scored_rows]
        )
        row_scores = dict(zip(scored_rows, scored))
        discrimination_seconds = (
            (time.perf_counter() - start) / len(scored_rows) if scored_rows else 0.0
        )

        results = []
        for row, matched in enumerate(matched_rows):
            best = matched[0] if matched else UNKNOWN_DEVICE_TYPE
            discrimination: tuple[DissimilarityScore, ...] = ()
            if row in row_scores:
                ranked = sorted(row_scores[row])
                winning = ranked[0]
                best = winning.device_type
                if (
                    self.novelty_threshold is not None
                    and winning.comparisons
                    and winning.score / winning.comparisons > self.novelty_threshold
                ):
                    best = UNKNOWN_DEVICE_TYPE
                # The single-match guard's score is surfaced so borderline
                # verdicts carry the same audit provenance (reference indices
                # + draw seed) as multi-match ones; ablation mode
                # (use_discrimination=False) keeps the scores empty.
                if use_discrimination:
                    discrimination = tuple(ranked)
            elif len(matched) > 1:
                probabilities = scores.probabilities_of(row)
                best = max(matched, key=lambda device_type: probabilities[device_type])
            results.append(
                IdentificationResult(
                    device_type=best,
                    matched_types=tuple(matched),
                    discrimination_scores=discrimination,
                    classification_seconds=classification_seconds,
                    discrimination_seconds=discrimination_seconds if row in row_scores else 0.0,
                )
            )
        return results

    @property
    def known_device_types(self) -> list[str]:
        return self.bank.device_types
