"""End-to-end integration tests: capture -> fingerprint -> identify -> enforce."""

import numpy as np

from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.features.fingerprint import Fingerprint
from repro.features.session import SetupPhaseDetector, split_by_source
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import DeviceTypeIdentifier
from repro.net.pcap import read_pcap, write_pcap
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService

from tests.conftest import onboard_trace


class TestPcapToIdentificationPipeline:
    def test_full_pipeline_from_capture_file(self, tmp_path, trained_identifier):
        """Simulate a capture, write it to pcap, re-read it, and identify."""
        simulator = SetupTrafficSimulator(seed=2024)
        trace = simulator.simulate(DEVICE_CATALOG["EdnetCam"])
        capture_path = tmp_path / "new_device.pcap"
        write_pcap(capture_path, trace.packets)

        packets = read_pcap(capture_path)
        by_source = split_by_source(packets)
        device_packets = by_source[trace.device_mac]
        setup_packets = SetupPhaseDetector().setup_slice(device_packets)
        fingerprint = Fingerprint.from_packets(setup_packets)

        result = trained_identifier.identify(fingerprint)
        assert result.device_type == "EdnetCam"

    def test_mixed_capture_multiple_devices(self, tmp_path, trained_identifier):
        simulator = SetupTrafficSimulator(seed=2025)
        traces = [
            simulator.simulate(DEVICE_CATALOG["Aria"]),
            simulator.simulate(DEVICE_CATALOG["HueBridge"]),
        ]
        mixed = sorted(
            (packet for trace in traces for packet in trace.packets),
            key=lambda packet: packet.timestamp,
        )
        segments = SetupPhaseDetector().segment_capture(mixed)
        assert len(segments) == 2
        predictions = {}
        for trace in traces:
            fingerprint = Fingerprint.from_packets(segments[trace.device_mac])
            predictions[trace.device_type] = trained_identifier.identify(fingerprint).device_type
        assert predictions["Aria"] == "Aria"
        assert predictions["HueBridge"] == "HueBridge"


class TestGatewayEndToEnd:
    def test_household_onboarding_scenario(self, trained_identifier):
        """Onboard several devices and verify the resulting network policy."""
        service = IoTSecurityService(identifier=trained_identifier)
        gateway = SecurityGateway()
        simulator = SetupTrafficSimulator(environment=service.environment, seed=4242)

        records = {}
        for name in ("Aria", "EdnetCam", "HueBridge"):
            trace = simulator.simulate(DEVICE_CATALOG[name])
            records[name] = onboard_trace(gateway, service, trace)

        assert records["Aria"].isolation_level is IsolationLevel.TRUSTED
        assert records["EdnetCam"].isolation_level is IsolationLevel.RESTRICTED
        assert gateway.connected_device_count == 3
        assert len(gateway.rule_cache) == 3
        # Every identified device has at least one switch rule when filtering.
        assert gateway.switch.rule_count >= 3

    def test_incremental_device_type_rollout(self, small_dataset):
        """A brand-new device-type can be added without retraining the rest."""
        registry = small_dataset.to_registry()
        identifier = DeviceTypeIdentifier.train(registry, n_estimators=6, random_state=3)
        service = IoTSecurityService(identifier=identifier)
        gateway = SecurityGateway()

        simulator = SetupTrafficSimulator(seed=777)
        # Before: the Lightify gateway cannot be recognised as its real type
        # (it is not part of the training registry yet).
        unknown_trace = simulator.simulate(DEVICE_CATALOG["Lightify"])
        record = onboard_trace(gateway, service, unknown_trace)
        assert record.device_type != "Lightify"

        # The IoTSSP learns the new type from lab fingerprints.
        training = [
            Fingerprint.from_packets(trace.packets, device_type="Lightify")
            for trace in simulator.simulate_many(DEVICE_CATALOG["Lightify"], 8)
        ]
        identifier.add_device_type("Lightify", training)

        # After: a freshly connected Lightify is identified and trusted
        # (no seeded vulnerabilities for it).
        second_trace = simulator.simulate(DEVICE_CATALOG["Lightify"])
        second_record = onboard_trace(gateway, service, second_trace)
        assert second_record.device_type == "Lightify"
        assert second_record.isolation_level is IsolationLevel.TRUSTED


class TestDatasetReproducibility:
    def test_same_seed_same_dataset_same_accuracy_inputs(self):
        names = ("Aria", "WeMoSwitch", "TP-LinkPlugHS110")
        first = DatasetBuilder(runs_per_type=4, seed=9).build_synthetic(names)
        second = DatasetBuilder(runs_per_type=4, seed=9).build_synthetic(names)
        assert len(first) == len(second) == 12
        for a, b in zip(first.fingerprints, second.fingerprints):
            assert a.device_type == b.device_type
            assert np.array_equal(a.vectors, b.vectors)
