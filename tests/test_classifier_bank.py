"""Tests for the per-device-type classifier bank."""

import numpy as np
import pytest

from repro.exceptions import IdentificationError
from repro.features.fingerprint import Fingerprint
from repro.identification.classifier_bank import ClassifierBank
from repro.identification.model_store import load_identifier, save_identifier
from repro.identification.registry import FingerprintRegistry
from tests.conftest import per_type_bank_scores


@pytest.fixture(scope="module")
def small_registry(request):
    dataset = request.getfixturevalue("small_dataset")
    return dataset.to_registry()


class TestTraining:
    def test_one_classifier_per_type(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=5, random_state=0)
        bank.train_from_registry(registry)
        assert bank.device_types == registry.device_types
        assert len(bank) == len(registry.device_types)

    def test_negative_subsample_ratio_respected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(negative_ratio=3.0, n_estimators=3, random_state=0)
        device_type = registry.device_types[0]
        classifier = bank.train_type(
            device_type,
            registry.fingerprints_of(device_type),
            registry.fingerprints_excluding(device_type),
        )
        assert classifier.positive_count == registry.count(device_type)
        assert classifier.negative_count == min(
            3 * registry.count(device_type),
            registry.total_fingerprints - registry.count(device_type),
        )

    def test_training_empty_registry_rejected(self):
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_from_registry(FingerprintRegistry())

    def test_training_without_positives_rejected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_type("X", [], registry.fingerprints_excluding("Aria"))

    def test_training_without_negatives_rejected(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank()
        with pytest.raises(IdentificationError):
            bank.train_type("Aria", registry.fingerprints_of("Aria"), [])

    def test_registry_training_equals_one_train_type_per_type(self, small_dataset):
        # Register types out of sorted order: negatives are pooled in
        # registration order, which the one-pass path must reproduce.
        registry = FingerprintRegistry()
        registry.add_all(reversed(small_dataset.fingerprints))
        assert list(registry.groups()) != registry.device_types
        batched = ClassifierBank(n_estimators=3, random_state=5)
        batched.train_from_registry(registry)
        per_type = ClassifierBank(n_estimators=3, random_state=5)
        for device_type in registry.device_types:
            per_type.train_type(
                device_type,
                registry.fingerprints_of(device_type),
                registry.fingerprints_excluding(device_type),
            )

        assert batched.device_types == per_type.device_types
        for device_type in registry.device_types:
            first = batched.classifier_of(device_type)
            second = per_type.classifier_of(device_type)
            assert (first.positive_count, first.negative_count) == (
                second.positive_count,
                second.negative_count,
            )
            expected = second.compiled.pack()
            for key, array in first.compiled.pack().items():
                assert array.tobytes() == expected[key].tobytes(), (device_type, key)
        for name in (
            "_feature",
            "_threshold",
            "_elimination",
            "_tree_slots",
            "_leaf_base",
            "_leaf_probabilities",
        ):
            expected = getattr(per_type._stack, name)
            assert getattr(batched._stack, name).tobytes() == expected.tobytes(), name
        assert batched._rng.bit_generator.state == per_type._rng.bit_generator.state

    def test_single_type_registry_rejected(self, small_dataset):
        registry = FingerprintRegistry()
        registry.add_all(small_dataset.of_type("Aria"))
        bank = ClassifierBank()
        with pytest.raises(IdentificationError, match="no negative"):
            bank.train_from_registry(registry)
        assert bank.score_batch(np.zeros((1, 5))).positive.shape == (1, 0)

    def test_incremental_add_does_not_touch_existing(self, small_dataset):
        registry = small_dataset.to_registry()
        types = registry.device_types
        bank = ClassifierBank(n_estimators=3, random_state=0)
        first_type, second_type = types[0], types[1]
        bank.train_type(
            first_type,
            registry.fingerprints_of(first_type),
            registry.fingerprints_excluding(first_type),
        )
        existing = bank.classifier_of(first_type)
        bank.train_type(
            second_type,
            registry.fingerprints_of(second_type),
            registry.fingerprints_excluding(second_type),
        )
        assert bank.classifier_of(first_type) is existing

    def test_remove_type(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=3, random_state=0)
        bank.train_from_registry(registry)
        target = registry.device_types[0]
        bank.remove_type(target)
        assert target not in bank
        with pytest.raises(IdentificationError):
            bank.classifier_of(target)


class TestMatching:
    def test_own_type_usually_accepted(self, small_dataset, trained_identifier):
        bank = trained_identifier.bank
        hits = 0
        fingerprints = small_dataset.of_type("Aria")
        for fingerprint in fingerprints:
            if "Aria" in bank.matching_types(fingerprint):
                hits += 1
        assert hits / len(fingerprints) >= 0.7

    def test_acceptance_probabilities_in_range(self, small_dataset, trained_identifier):
        fingerprint = small_dataset.fingerprints[0]
        probabilities = trained_identifier.bank.acceptance_probabilities(fingerprint)
        assert set(probabilities) == set(trained_identifier.bank.device_types)
        assert all(0.0 <= value <= 1.0 for value in probabilities.values())

    def test_unknown_classifier_lookup_rejected(self, trained_identifier):
        with pytest.raises(IdentificationError):
            trained_identifier.bank.classifier_of("NotADevice")


def _fixed_matrix(bank, fingerprints):
    return np.stack(
        [fingerprint.to_fixed_vector(bank.fixed_packet_count) for fingerprint in fingerprints]
    ).astype(np.float64)


def _assert_fused_equals_per_type(bank, matrix):
    scores = bank.score_batch(matrix)
    positive, accepted = per_type_bank_scores(bank, matrix)
    assert scores.device_types == tuple(bank.device_types)
    # Bitwise, not approximate: the fused stack sums each type's trees in
    # the same order as its own forest does.
    assert scores.positive.tobytes() == positive.tobytes()
    assert np.array_equal(scores.accepted, accepted)


class TestFusedStack:
    def test_fused_scores_equal_per_type_forests(self, small_dataset, trained_identifier):
        bank = trained_identifier.bank
        for size in (1, 3, 12, len(small_dataset.fingerprints)):
            _assert_fused_equals_per_type(
                bank, _fixed_matrix(bank, small_dataset.fingerprints[:size])
            )

    def test_every_mutation_rebuilds_the_stack(self, small_dataset):
        registry = small_dataset.to_registry()
        bank = ClassifierBank(n_estimators=4, random_state=0)
        bank.train_from_registry(registry)
        matrix = _fixed_matrix(bank, small_dataset.fingerprints[:10])
        _assert_fused_equals_per_type(bank, matrix)
        bank.remove_type(bank.device_types[0])
        _assert_fused_equals_per_type(bank, matrix)
        assert bank.score_batch(matrix).positive.shape == (10, len(registry.device_types) - 1)

    def test_reloaded_bank_after_add_device_type(self, small_dataset, trained_identifier, tmp_path):
        path = save_identifier(tmp_path / "bundle.npz", trained_identifier)
        loaded = load_identifier(path)
        matrix = _fixed_matrix(loaded.bank, small_dataset.fingerprints[:16])
        _assert_fused_equals_per_type(loaded.bank, matrix)
        donors = small_dataset.of_type(loaded.bank.device_types[0])[:3]
        loaded.add_device_type(
            "BrandNewDevice",
            [Fingerprint(vectors=donor.vectors, device_type="BrandNewDevice") for donor in donors],
        )
        assert "BrandNewDevice" in loaded.bank.device_types
        _assert_fused_equals_per_type(loaded.bank, matrix)

    def test_empty_bank_scores_no_types(self):
        scores = ClassifierBank().score_batch(np.zeros((2, 5)))
        assert scores.positive.shape == (2, 0)
        assert scores.accepted.shape == (2, 0)
