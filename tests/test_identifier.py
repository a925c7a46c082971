"""Tests for the two-stage device-type identifier."""

import numpy as np
import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.api import GatewayConfig, build_gateway
from repro.distance.damerau_levenshtein import GLOBAL_INTERNER, SymbolInterner
from repro.distance.discrimination import _encoded_word
from repro.exceptions import IdentificationError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import FEATURE_COUNT
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE, DeviceTypeIdentifier
from repro.identification.model_store import save_identifier
from repro.identification.registry import FingerprintRegistry
from tests.conftest import assert_scores_match_scalar_oracle


class TestTrainAndIdentify:
    def test_identifies_training_types(self, small_dataset, trained_identifier):
        correct = 0
        total = 0
        for device_type in small_dataset.device_types[:4]:
            for fingerprint in small_dataset.of_type(device_type)[:4]:
                result = trained_identifier.identify(fingerprint)
                correct += result.device_type == device_type
                total += 1
        assert correct / total >= 0.7

    def test_result_metadata(self, small_dataset, trained_identifier):
        fingerprint = small_dataset.fingerprints[0]
        result = trained_identifier.identify(fingerprint)
        assert result.classification_seconds > 0
        assert result.total_seconds >= result.classification_seconds
        if result.needed_discrimination:
            assert len(result.discrimination_scores) == len(result.matched_types)
        assert isinstance(result.matched_types, tuple)

    def test_unknown_device_detected(self, trained_identifier):
        # A fingerprint radically unlike anything in the training data:
        # a single LLC frame repeated.
        rows = []
        for index in range(6):
            row = [0] * FEATURE_COUNT
            row[1] = 1  # llc
            row[18] = 2000 + index * 17
            rows.append(row)
        foreign = Fingerprint.from_feature_rows(rows)
        result = trained_identifier.identify(foreign)
        assert result.device_type == UNKNOWN_DEVICE_TYPE
        assert result.is_new_device_type

    def test_disable_discrimination(self, small_dataset, trained_identifier):
        fingerprint = small_dataset.of_type("TP-LinkPlugHS110")[0]
        result = trained_identifier.identify(fingerprint, use_discrimination=False)
        assert result.discrimination_scores == ()
        assert result.device_type in trained_identifier.known_device_types + [UNKNOWN_DEVICE_TYPE]

    def test_identify_many(self, small_dataset, trained_identifier):
        fingerprints = small_dataset.fingerprints[:5]
        results = trained_identifier.identify_many(fingerprints)
        assert len(results) == 5

    def test_confusable_family_matches_stay_in_family(self, small_dataset, trained_identifier):
        """Smarter appliances may be confused with each other but rarely
        with unrelated device-types (the Table III structure)."""
        family = {"SmarterCoffee", "iKettle2"}
        in_family = 0
        total = 0
        for device_type in family:
            for fingerprint in small_dataset.of_type(device_type):
                predicted = trained_identifier.identify(fingerprint).device_type
                total += 1
                in_family += predicted in family
        assert in_family / total >= 0.8


class TestIncrementalLearning:
    def test_add_device_type(self, small_dataset):
        registry = small_dataset.to_registry()
        identifier = DeviceTypeIdentifier.train(registry, n_estimators=5, random_state=0)
        known_before = set(identifier.known_device_types)

        simulator = SetupTrafficSimulator(seed=77)
        traces = simulator.simulate_many(DEVICE_CATALOG["Withings"], 6)
        fingerprints = [
            Fingerprint.from_packets(trace.packets, device_type="Withings") for trace in traces
        ]
        identifier.add_device_type("Withings", fingerprints)

        assert set(identifier.known_device_types) == known_before | {"Withings"}
        probe = Fingerprint.from_packets(
            simulator.simulate(DEVICE_CATALOG["Withings"]).packets, device_type="Withings"
        )
        assert identifier.identify(probe).device_type == "Withings"

    def test_add_device_type_requires_fingerprints(self, small_dataset):
        identifier = DeviceTypeIdentifier.train(
            small_dataset.to_registry(), n_estimators=3, random_state=0
        )
        with pytest.raises(IdentificationError):
            identifier.add_device_type("Empty", [])

    def test_training_empty_registry_rejected(self):
        with pytest.raises(IdentificationError):
            DeviceTypeIdentifier.train(FingerprintRegistry())


def _verdict(result):
    """A result without its wall-clock fields."""
    return result.device_type, result.matched_types, result.discrimination_scores


class TestBatchPass:
    @pytest.mark.parametrize("use_discrimination", [True, False])
    def test_identify_equals_its_identify_many_row(
        self, small_dataset, trained_identifier, use_discrimination
    ):
        fingerprints = small_dataset.fingerprints[::3]
        batch = trained_identifier.identify_many(fingerprints, use_discrimination)
        assert any(result.needed_discrimination for result in batch)
        for fingerprint, result in zip(fingerprints, batch):
            single = trained_identifier.identify(fingerprint, use_discrimination)
            assert _verdict(single) == _verdict(result)

    def test_batched_scores_equal_the_scalar_oracle(self, small_dataset, trained_identifier):
        fingerprints = small_dataset.fingerprints[::2]
        checked = 0
        for fingerprint, result in zip(
            fingerprints, trained_identifier.identify_many(fingerprints)
        ):
            checked += assert_scores_match_scalar_oracle(trained_identifier, fingerprint, result)
        assert checked > len(fingerprints) // 2

    def test_stage_times_are_split_per_result(self, small_dataset, trained_identifier):
        results = trained_identifier.identify_many(small_dataset.fingerprints[:12])
        assert all(result.classification_seconds > 0 for result in results)
        for result in results:
            assert (result.discrimination_seconds > 0) == bool(result.discrimination_scores)

    def test_fresh_query_symbols_do_not_grow_the_interner(
        self, small_dataset, trained_identifier
    ):
        for reference in trained_identifier.registry:
            _encoded_word(reference)
        before = len(GLOBAL_INTERNER)
        # Rows past the twelfth unique packet leave the fixed vector (and
        # so the classifier verdict) unchanged; the appended rows carry
        # packet sizes no reference has, so the edit-distance stage meets
        # symbols the alphabet has never seen.
        base = next(
            fingerprint
            for fingerprint in small_dataset.fingerprints
            if len(fingerprint.unique_vectors()) > 12
            and trained_identifier.identify(fingerprint).discrimination_scores
        )
        fresh_rows = np.repeat(base.vectors[-1:], 3, axis=0)
        fresh_rows[:, 18] = [70001, 70002, 70003]
        fresh = Fingerprint(vectors=np.vstack([base.vectors, fresh_rows]))
        result = trained_identifier.identify(fresh)
        assert result.discrimination_scores
        assert len(GLOBAL_INTERNER) == before
        assert getattr(fresh, "_symbol_codes", None) is None
        assert_scores_match_scalar_oracle(trained_identifier, fresh, result)


class TestReferenceInterning:
    """Every reference is interned when its identifier is built or grows,
    so identification on a serving gateway never interns one."""

    @staticmethod
    def _record_interning(monkeypatch) -> list[int]:
        encoded: list[int] = []
        encode = SymbolInterner.encode

        def recorded(interner, symbols):
            encoded.append(len(symbols))
            return encode(interner, symbols)

        monkeypatch.setattr(SymbolInterner, "encode", recorded)
        return encoded

    def test_a_bundle_loaded_gateway_interns_no_reference_while_identifying(
        self, small_dataset, trained_identifier, tmp_path, monkeypatch
    ):
        bundle = tmp_path / "model.npz"
        save_identifier(bundle, trained_identifier)
        handle = build_gateway(GatewayConfig(bundle_path=bundle))
        identifier = handle.identifier
        assert all(
            getattr(reference, "_symbol_codes", None) is not None
            for reference in identifier.registry
        )
        encoded = self._record_interning(monkeypatch)
        # Fresh query objects: no codes cached on any of them.
        probes = [
            Fingerprint(vectors=fingerprint.vectors) for fingerprint in small_dataset.fingerprints
        ]
        results = identifier.identify_many(probes)
        assert sum(bool(result.discrimination_scores) for result in results) > len(probes) // 2
        assert encoded == []
        for probe, result in zip(probes[::5], results[::5]):
            assert_scores_match_scalar_oracle(identifier, probe, result)
        handle.close()

    def test_a_learned_type_is_interned_when_it_is_added(self, small_dataset, monkeypatch):
        identifier = DeviceTypeIdentifier.train(
            small_dataset.to_registry(), n_estimators=3, random_state=0
        )
        simulator = SetupTrafficSimulator(seed=77)
        fingerprints = [
            Fingerprint.from_packets(trace.packets, device_type="Withings")
            for trace in simulator.simulate_many(DEVICE_CATALOG["Withings"], 6)
        ]
        identifier.add_device_type("Withings", fingerprints)
        encoded = self._record_interning(monkeypatch)
        probe = Fingerprint.from_packets(simulator.simulate(DEVICE_CATALOG["Withings"]).packets)
        assert identifier.identify(probe).device_type == "Withings"
        assert encoded == []
