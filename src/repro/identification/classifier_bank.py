"""One binary Random Forest classifier per device-type.

The paper's first identification stage trains, for every known device-type
``D_i``, a classifier ``C_i`` that answers "does this fingerprint belong to
``D_i``?".  All fingerprints of ``D_i`` form the positive class; a random
subsample of ``10 x n`` fingerprints of other types forms the negative
class (to avoid imbalanced-class learning issues).  New device-types can be
added without retraining the existing classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import IdentificationError
from repro.features.fingerprint import FIXED_PACKET_COUNT, Fingerprint, fixed_vectors
from repro.identification.registry import FingerprintRegistry
from repro.ml.compiled import CompiledForest, ForestStack
from repro.ml.forest import RandomForestClassifier
from repro.ml.sampling import negative_subsample

NEGATIVE_LABEL = 0
POSITIVE_LABEL = 1


@dataclass
class DeviceTypeClassifier:
    """The binary accept/reject classifier of a single device-type.

    ``compiled`` is the fitted forest's node arrays: what scores, and what
    the model store saves and reloads.
    """

    device_type: str
    compiled: CompiledForest
    positive_count: int = 0
    negative_count: int = 0

    def accepts(self, fixed_vector: np.ndarray) -> bool:
        """True when the classifier predicts the fingerprint matches its type."""
        probabilities = self.compiled.predict_proba(fixed_vector)[0]
        return int(self.compiled.classes_[np.argmax(probabilities)]) == POSITIVE_LABEL


@dataclass(frozen=True)
class BankScores:
    """Stage-1 scores of a fingerprint batch against every classifier.

    Attributes:
        device_types: bank types, sorted; the column order of the matrices.
        positive: ``(n, n_types)`` probability that sample ``i`` belongs to
            type ``j``.
        accepted: ``(n, n_types)`` boolean accept verdicts (the same
            argmax rule the per-sample path applies: ties reject).
    """

    device_types: tuple[str, ...]
    positive: np.ndarray
    accepted: np.ndarray

    def matched_rows(self) -> list[list[str]]:
        """Each sample's accepted device-types, in sorted type order."""
        return [list(compress(self.device_types, row)) for row in self.accepted.tolist()]

    def probabilities_of(self, row: int) -> dict[str, float]:
        """Per-type acceptance probabilities of one sample."""
        return {
            device_type: float(probability)
            for device_type, probability in zip(self.device_types, self.positive[row])
        }


@dataclass
class ClassifierBank:
    """The collection of per-device-type classifiers.

    Attributes:
        negative_ratio: negative-to-positive sample ratio (10 in the paper).
        n_estimators: trees per Random Forest.
        max_depth: optional per-tree depth limit.
        fixed_packet_count: number of packets in the fixed fingerprint F'.
        random_state: seed controlling negative subsampling and forests.

    Every classifier's compiled forest is also fused into one
    :class:`~repro.ml.compiled.ForestStack` (in sorted type order), which
    :meth:`score_batch` descends once per batch.  Every mutation
    (:meth:`train_type`, :meth:`remove_type`, :meth:`install`) rebuilds it;
    :meth:`train_from_registry` rebuilds it once, after its last type.
    """

    negative_ratio: float = 10.0
    n_estimators: int = 10
    max_depth: Optional[int] = None
    fixed_packet_count: int = FIXED_PACKET_COUNT
    random_state: Optional[int] = None

    _classifiers: dict[str, DeviceTypeClassifier] = field(default_factory=dict)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _stack: ForestStack = field(init=False, repr=False, compare=False)
    _stack_types: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.random_state)
        self._fuse()

    def _fuse(self) -> None:
        """Rebuild the fused forest stack over every classifier, sorted by type."""
        self._stack_types = tuple(sorted(self._classifiers))
        self._stack = ForestStack(
            forests=tuple(self._classifiers[name].compiled for name in self._stack_types),
            classes_=np.array([NEGATIVE_LABEL, POSITIVE_LABEL]),
        )

    # ------------------------------------------------------------------ #
    # Training.
    # ------------------------------------------------------------------ #
    def train_type(
        self,
        device_type: str,
        positives: Sequence[Fingerprint],
        negatives: Sequence[Fingerprint],
    ) -> DeviceTypeClassifier:
        """Train (or retrain) the classifier of one device-type.

        Only this type's classifier is touched; the paper highlights that
        adding a new device-type never requires relearning existing models.
        """
        chosen = self._choose_negatives(device_type, len(positives), len(negatives))
        classifier = self._fit(
            device_type,
            self._fixed_matrix(positives),
            self._fixed_matrix([negatives[int(index)] for index in chosen]),
        )
        self._fuse()
        return classifier

    def install(self, classifiers: Sequence[DeviceTypeClassifier]) -> None:
        """Add already-trained classifiers (e.g. reloaded from a bundle)."""
        for classifier in classifiers:
            self._classifiers[classifier.device_type] = classifier
        self._fuse()

    def train_from_registry(self, registry: FingerprintRegistry) -> None:
        """Train one classifier per device-type present in the registry.

        The bank equals one :meth:`train_type` call per type (sorted type
        order, negatives from :meth:`FingerprintRegistry.fingerprints_excluding`)
        bit for bit, but each registry fingerprint's fixed vector is built
        once, not once per type that samples it as a negative, and the
        forest stack is fused once.
        """
        if not registry.device_types:
            raise IdentificationError("the fingerprint registry is empty")
        groups = registry.groups()
        matrix = self._fixed_matrix([member for group in groups.values() for member in group])
        ends = dict(zip(groups, np.cumsum([len(group) for group in groups.values()]).tolist()))
        try:
            for device_type in registry.device_types:
                stop = ends[device_type]
                start = stop - len(groups[device_type])
                negatives = np.delete(matrix, np.s_[start:stop], axis=0)
                chosen = self._choose_negatives(device_type, stop - start, len(negatives))
                self._fit(device_type, matrix[start:stop], negatives[chosen])
        finally:
            self._fuse()

    def _fixed_matrix(self, fingerprints: Sequence[Fingerprint]) -> np.ndarray:
        """The fixed vectors F' of ``fingerprints``, one row each."""
        return fixed_vectors(fingerprints, self.fixed_packet_count, dtype=np.float64)

    def _choose_negatives(
        self, device_type: str, positive_count: int, negative_count: int
    ) -> np.ndarray:
        """Indices of the negatives one type trains on (draws from the RNG)."""
        if not positive_count:
            raise IdentificationError(f"no positive fingerprints for type {device_type!r}")
        if not negative_count:
            raise IdentificationError(f"no negative fingerprints for type {device_type!r}")
        return negative_subsample(
            range(negative_count), positive_count, ratio=self.negative_ratio, rng=self._rng
        )

    def _fit(
        self, device_type: str, positive_matrix: np.ndarray, negative_matrix: np.ndarray
    ) -> DeviceTypeClassifier:
        """Fit and store one type's forest; the caller fuses the stack."""
        X = np.vstack([positive_matrix, negative_matrix])
        y = np.concatenate(
            [
                np.full(len(positive_matrix), POSITIVE_LABEL),
                np.full(len(negative_matrix), NEGATIVE_LABEL),
            ]
        )
        forest = RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            random_state=int(self._rng.integers(0, 2**31 - 1)),
        )
        classifier = DeviceTypeClassifier(
            device_type=device_type,
            compiled=forest.fit(X, y),
            positive_count=len(positive_matrix),
            negative_count=len(negative_matrix),
        )
        self._classifiers[device_type] = classifier
        return classifier

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #
    @property
    def device_types(self) -> list[str]:
        return list(self._stack_types)

    def __len__(self) -> int:
        return len(self._classifiers)

    def __contains__(self, device_type: object) -> bool:
        return device_type in self._classifiers

    def classifier_of(self, device_type: str) -> DeviceTypeClassifier:
        if device_type not in self._classifiers:
            raise IdentificationError(f"no classifier trained for type {device_type!r}")
        return self._classifiers[device_type]

    def remove_type(self, device_type: str) -> None:
        """Drop the classifier of a device-type (e.g. a retired model)."""
        self._classifiers.pop(device_type, None)
        self._fuse()

    # ------------------------------------------------------------------ #
    # Batch scoring.
    # ------------------------------------------------------------------ #
    def score_batch(self, fixed_matrix: np.ndarray) -> BankScores:
        """Score a ``(batch, d)`` fixed-vector matrix against every type.

        One descent of the fused forest stack yields every type's mean
        ``(negative, positive)`` probabilities, bitwise equal to scoring
        each type's compiled forest on its own.  A sample is accepted iff
        the argmax lands on the positive class (ties reject).
        """
        # Stack columns are (NEGATIVE_LABEL, POSITIVE_LABEL) = (0, 1), so a
        # label doubles as its column index; the argmax of two columns lands
        # on the positive one iff it is strictly larger.
        probabilities = self._stack.predict_proba(fixed_matrix)
        positive = probabilities[:, :, POSITIVE_LABEL]
        return BankScores(
            device_types=self._stack_types,
            positive=positive,
            accepted=positive > probabilities[:, :, NEGATIVE_LABEL],
        )

    def score_fingerprints(
        self,
        fingerprints: Sequence[Fingerprint],
        symbols: Optional[Sequence[Sequence[bytes]]] = None,
    ) -> BankScores:
        """Batch-score fingerprints (fixed vectors are built here).

        ``symbols``, when given, holds each fingerprint's
        :meth:`~repro.features.fingerprint.Fingerprint.as_symbol_sequence`,
        so a caller that needs the symbols anyway builds them once.
        """
        if not fingerprints:
            return BankScores(
                device_types=self._stack_types,
                positive=np.zeros((0, len(self._classifiers))),
                accepted=np.zeros((0, len(self._classifiers)), dtype=bool),
            )
        return self.score_batch(
            fixed_vectors(fingerprints, self.fixed_packet_count, symbols, dtype=np.float64)
        )

    def matching_types(self, fingerprint: Fingerprint) -> list[str]:
        """Every device-type whose classifier accepts the fingerprint."""
        return self.score_fingerprints([fingerprint]).matched_rows()[0]

    def acceptance_probabilities(self, fingerprint: Fingerprint) -> dict[str, float]:
        """Per-type acceptance probabilities (useful for diagnostics)."""
        return self.score_fingerprints([fingerprint]).probabilities_of(0)
