"""Tests for the IoT Security Service, vulnerability DB and isolation policy."""

import pytest

from repro.api import GatewayConfig, build_gateway
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.features.fingerprint import Fingerprint
from repro.identification.classifier_bank import ClassifierBank
from repro.security_service.isolation import IsolationLevel, isolation_level_for
from repro.security_service.service import IoTSecurityService, vendor_cloud_destinations
from repro.security_service.vulnerability import (
    VulnerabilityDatabase,
    VulnerabilityRecord,
    build_default_database,
)
from repro.streaming import SimulatedSource


class TestIsolationPolicy:
    def test_unknown_is_strict(self):
        assert isolation_level_for(False, []) is IsolationLevel.STRICT
        assert isolation_level_for(False, ["anything"]) is IsolationLevel.STRICT

    def test_vulnerable_is_restricted(self):
        assert isolation_level_for(True, ["cve"]) is IsolationLevel.RESTRICTED

    def test_clean_is_trusted(self):
        assert isolation_level_for(True, []) is IsolationLevel.TRUSTED

    def test_internet_access_property(self):
        assert not IsolationLevel.STRICT.allows_internet
        assert IsolationLevel.RESTRICTED.allows_internet
        assert IsolationLevel.TRUSTED.allows_internet
        assert IsolationLevel.TRUSTED.allows_trusted_overlay
        assert not IsolationLevel.RESTRICTED.allows_trusted_overlay


class TestVulnerabilityDatabase:
    def test_default_database_seeded(self):
        database = build_default_database()
        assert len(database) >= 10
        assert database.is_vulnerable("EdnetCam")
        assert not database.is_vulnerable("Aria")

    def test_query_and_severity(self):
        database = build_default_database()
        records = database.query("D-LinkCam")
        assert records
        assert database.highest_severity("D-LinkCam") == max(r.severity for r in records)
        assert database.highest_severity("Aria") is None

    def test_add_custom_record(self):
        database = VulnerabilityDatabase()
        database.add(VulnerabilityRecord("CVE-X", "MyDevice", "bad", 5.0))
        assert database.is_vulnerable("MyDevice")
        assert database.affected_device_types == ["MyDevice"]

    def test_invalid_severity(self):
        with pytest.raises(ValueError):
            VulnerabilityRecord("CVE-X", "D", "s", 11.0)


class TestVendorCloudDestinations:
    def test_known_device_has_destinations(self, lab_environment):
        destinations = vendor_cloud_destinations("EdnetCam", lab_environment)
        assert destinations
        assert all(destination.count(".") == 3 for destination in destinations)

    def test_unknown_device_has_none(self, lab_environment):
        assert vendor_cloud_destinations("NotADevice", lab_environment) == ()

    def test_deterministic(self, lab_environment):
        assert vendor_cloud_destinations("EdimaxCam", lab_environment) == vendor_cloud_destinations(
            "EdimaxCam", lab_environment
        )


class TestIoTSecurityService:
    @pytest.fixture()
    def service(self, trained_identifier):
        return IoTSecurityService(identifier=trained_identifier)

    def _assess(self, service, name, seed=501):
        # Identification runs in the dispatcher on the gateway path; the
        # service assesses the resulting label.
        simulator = SetupTrafficSimulator(seed=seed)
        trace = simulator.simulate(DEVICE_CATALOG[name])
        result = service.identifier.identify(Fingerprint.from_packets(trace.packets))
        return service.assess_device_type(result.device_type)

    def test_vulnerable_device_restricted(self, service):
        assessment = self._assess(service, "EdnetCam")
        assert assessment.device_type == "EdnetCam"
        assert assessment.isolation_level is IsolationLevel.RESTRICTED
        assert assessment.allowed_destinations
        assert assessment.vulnerabilities

    def test_clean_device_trusted(self, service):
        assessment = self._assess(service, "Aria")
        assert assessment.device_type == "Aria"
        assert assessment.isolation_level is IsolationLevel.TRUSTED
        assert assessment.allowed_destinations == ()

    def test_unknown_device_strict(self, service):
        # HomeMaticPlug is not part of the small training set.
        assessment = self._assess(service, "HomeMaticPlug")
        assert assessment.isolation_level is IsolationLevel.STRICT

    def test_assess_device_type_shortcut(self, service):
        known = service.assess_device_type("EdnetCam")
        unknown = service.assess_device_type("SomethingElse")
        assert known.isolation_level is IsolationLevel.RESTRICTED
        assert unknown.isolation_level is IsolationLevel.STRICT
        assert unknown.device_type == "unknown"


class TestAssessmentMembership:
    """Assessing a verdict asks the bank for membership, not for a type list."""

    def test_verdict_stream_never_lists_bank_types(self, trained_identifier, monkeypatch):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        listed = []
        sorted_types = ClassifierBank.device_types.fget

        def counting(bank):
            listed.append(1)
            return sorted_types(bank)

        monkeypatch.setattr(ClassifierBank, "device_types", property(counting))
        names = ["Aria", "EdnetCam", "HomeMaticPlug", "WeMoSwitch"]
        handle.run_until_idle(SimulatedSource(device_names=names, devices=8, seed=5))
        assert handle.snapshot()["dispatcher.identified"] == 8
        assert listed == []

    def test_known_unknown_and_provisional_assessments(self, trained_identifier):
        service = IoTSecurityService(identifier=trained_identifier, provisional_types={"Aria"})
        vulnerable = service.assess_device_type("EdnetCam")
        assert vulnerable.isolation_level is IsolationLevel.RESTRICTED
        assert vulnerable.vulnerabilities
        assert vulnerable.allowed_destinations == vendor_cloud_destinations(
            "EdnetCam", service.environment
        )
        clean = service.assess_device_type("HueBridge")
        assert (clean.device_type, clean.isolation_level) == ("HueBridge", IsolationLevel.TRUSTED)
        assert clean.allowed_destinations == ()
        # Clean but auto-learned: capped at restricted, cloud-only.
        provisional = service.assess_device_type("Aria")
        assert provisional.device_type == "Aria"
        assert provisional.isolation_level is IsolationLevel.RESTRICTED
        assert provisional.vulnerabilities == ()
        assert provisional.allowed_destinations == vendor_cloud_destinations(
            "Aria", service.environment
        )
        # Catalog types outside the bank and labels of no type are unknown.
        for label in ("HomeMaticPlug", "unknown", "SomethingElse"):
            assessment = service.assess_device_type(label)
            assert assessment.device_type == "unknown"
            assert assessment.isolation_level is IsolationLevel.STRICT
            assert assessment.vulnerabilities == ()
            assert assessment.allowed_destinations == ()
