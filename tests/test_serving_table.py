"""The per-revision serving table: assessments and enforcement plans derived
once, and rebuilt whenever what they were derived from moves.

Each test serves a verdict for a type, moves one input of the table (a
vulnerability report, a learned type, an installed identifier, a
promotion), and checks that the *next* verdict for that type gets the new
isolation level, allow-list and switch rules -- the rules compared
against ``tests.conftest.oracle_flow_rules``, the per-verdict translation
the plans replaced.
"""

from __future__ import annotations

import copy

import pytest

from repro.api import GatewayConfig, build_gateway
from repro.identification.identifier import DeviceTypeIdentifier, IdentificationResult
from repro.identification.model_store import save_identifier
from repro.net.addresses import MACAddress
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import vendor_cloud_destinations
from repro.security_service.vulnerability import VulnerabilityRecord
from repro.streaming.dispatcher import IdentifiedDevice
from tests.conftest import oracle_flow_rules

CLEAN = "HueBridge"  # in the small training set, no vulnerability on record


def serve(handle, index: int, device_type: str, fingerprint):
    """Deliver one verdict for ``device_type`` to a fresh MAC; its device record."""
    mac = MACAddress(0x02_00_00_00_30_00 + index)
    result = IdentificationResult(device_type=device_type, matched_types=(device_type,))
    handle.sink(IdentifiedDevice(mac=mac, fingerprint=fingerprint, result=result))
    return handle.gateway.device_record(mac)


def assert_enforced(handle, record, level: IsolationLevel, allowed: tuple[str, ...]) -> None:
    """The device's record, cached rule and switch rules all say ``level``."""
    rule = handle.gateway.rule_cache.lookup(record.mac)
    assert record.isolation_level is level
    assert rule.isolation_level is level
    assert rule.allowed_destinations == allowed
    installed = [
        flow_rule
        for flow_rule in handle.gateway.switch.rules
        if flow_rule.cookie == f"enforce-{record.mac}"
    ]
    assert sorted(installed, key=repr) == sorted(oracle_flow_rules(rule), key=repr)


@pytest.fixture()
def identifier(trained_identifier):
    # A private copy: learns and swaps mutate what the gateway holds.
    return copy.deepcopy(trained_identifier)


@pytest.fixture()
def fingerprint(small_dataset):
    return small_dataset.of_type(CLEAN)[0]


class TestServingTable:
    def test_repeated_verdicts_reuse_one_assessment(self, identifier):
        service = build_gateway(GatewayConfig(identifier=identifier)).security_service
        assessment = service.assess_device_type("EdnetCam")
        assert service.assess_device_type("EdnetCam") is assessment
        # Labels outside the bank share the one "unknown" assessment and
        # are not kept under their own name.
        assert service.assess_device_type("NoSuchModel") == service.assess_device_type("unknown")
        assert "NoSuchModel" not in service._table.assessed

    def test_new_vulnerability_restricts_the_next_verdict(self, identifier, fingerprint):
        handle = build_gateway(GatewayConfig(identifier=identifier))
        before = serve(handle, 1, CLEAN, fingerprint)
        assert_enforced(handle, before, IsolationLevel.TRUSTED, ())

        handle.security_service.vulnerability_db.add(
            VulnerabilityRecord("CVE-TEST-0001", CLEAN, "remote takeover", 9.8)
        )
        after = serve(handle, 2, CLEAN, fingerprint)
        allowed = vendor_cloud_destinations(CLEAN, handle.security_service.environment)
        assert allowed
        assert_enforced(handle, after, IsolationLevel.RESTRICTED, allowed)
        assert after.vulnerability_count == 1
        assert any("CVE-TEST-0001" in note and str(after.mac) in note
                   for note in handle.gateway.notifications)
        # The device served before the report keeps its rules until its
        # next verdict, which is re-assessed too.
        assert_enforced(handle, before, IsolationLevel.TRUSTED, ())
        handle.sink(
            IdentifiedDevice(
                mac=before.mac,
                fingerprint=fingerprint,
                result=IdentificationResult(device_type=CLEAN, matched_types=(CLEAN,)),
            )
        )
        assert_enforced(handle, before, IsolationLevel.RESTRICTED, allowed)

    def test_learned_type_is_assessed_at_the_next_verdict(self, identifier, small_dataset):
        handle = build_gateway(GatewayConfig(identifier=identifier))
        label = "WeMoInsightSim"
        prints = small_dataset.of_type("Aria")[:3]
        unknown = serve(handle, 1, label, prints[0])
        assert unknown.device_type == "unknown"
        assert_enforced(handle, unknown, IsolationLevel.STRICT, ())

        handle.lifecycle.learn_device_type(label, prints, snapshot=False)
        learned = serve(handle, 2, label, prints[0])
        assert learned.device_type == label
        assert_enforced(handle, learned, IsolationLevel.TRUSTED, ())

    def test_swapped_identifier_is_assessed_at_the_next_verdict(
        self, identifier, small_dataset, fingerprint, tmp_path
    ):
        handle = build_gateway(GatewayConfig(identifier=identifier))
        assert_enforced(handle, serve(handle, 1, CLEAN, fingerprint), IsolationLevel.TRUSTED, ())

        # The pushed model does not know the type, at the same revision:
        # only the identity of the installed identifier changed.
        without = [
            index
            for index, label in enumerate(small_dataset.labels)
            if label != CLEAN
        ]
        pushed = DeviceTypeIdentifier.train(small_dataset.to_registry(without), random_state=3)
        pushed.revision = identifier.revision
        bundle = tmp_path / "pushed.npz"
        save_identifier(bundle, pushed, epoch=handle.epoch + 1)
        assert handle.swap_bundle(bundle).applied

        after = serve(handle, 2, CLEAN, fingerprint)
        assert after.device_type == "unknown"
        assert_enforced(handle, after, IsolationLevel.STRICT, ())

    def test_promotion_lifts_the_cap_at_the_next_verdict(self, identifier, fingerprint):
        handle = build_gateway(GatewayConfig(identifier=identifier, autopilot=True))
        handle.security_service.provisional_types.add(CLEAN)
        allowed = vendor_cloud_destinations(CLEAN, handle.security_service.environment)
        capped = serve(handle, 1, CLEAN, fingerprint)
        assert_enforced(handle, capped, IsolationLevel.RESTRICTED, allowed)

        handle.autopilot.promote(CLEAN)
        promoted = serve(handle, 2, CLEAN, fingerprint)
        assert_enforced(handle, promoted, IsolationLevel.TRUSTED, ())
