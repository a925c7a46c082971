"""Tests for the IoT Security Service, vulnerability DB and isolation policy."""

import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.features.fingerprint import Fingerprint
from repro.security_service.isolation import IsolationLevel, isolation_level_for
from repro.security_service.service import IoTSecurityService, vendor_cloud_destinations
from repro.security_service.vulnerability import (
    VulnerabilityDatabase,
    VulnerabilityRecord,
    build_default_database,
)


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
