"""Tests for the Security Gateway (onboarding, authorisation, datapath)."""

import pytest

from repro.api import GatewayConfig, build_gateway
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import EnforcementError
from repro.gateway.enforcement import NetworkOverlay
from repro.gateway.security_gateway import SecurityGateway
from repro.net.addresses import MACAddress
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService, SecurityAssessment
from repro.security_service.vulnerability import VulnerabilityRecord
from repro.streaming import SimulatedSource

from tests.conftest import make_tcp_packet, make_udp_packet, onboard_trace

EXTERNAL_MAC = MACAddress.from_string("02:00:00:00:0e:ee")


@pytest.fixture()
def service(trained_identifier):
    return IoTSecurityService(identifier=trained_identifier)


@pytest.fixture()
def gateway():
    return SecurityGateway()


def _onboard(gateway, service, name, seed=812):
    simulator = SetupTrafficSimulator(seed=seed)
    trace = simulator.simulate(DEVICE_CATALOG[name])
    return onboard_trace(gateway, service, trace), trace


class TestOnboarding:
    def test_vulnerable_device_restricted_and_untrusted(self, gateway, service):
        record, _ = _onboard(gateway, service, "EdnetCam")
        assert record.device_type == "EdnetCam"
        assert record.isolation_level is IsolationLevel.RESTRICTED
        assert record.overlay is NetworkOverlay.UNTRUSTED
        assert record.enforcement_rule is not None
        assert record.enforcement_rule.allowed_destinations
        assert gateway.rule_cache.lookup(record.mac) is record.enforcement_rule
        assert gateway.switch.rule_count >= 2

    def test_clean_device_trusted_and_rekeyed(self, gateway, service):
        record, _ = _onboard(gateway, service, "Aria", seed=813)
        assert record.isolation_level is IsolationLevel.TRUSTED
        assert record.overlay is NetworkOverlay.TRUSTED
        credential = gateway.wps.credential_of(record.mac)
        assert credential is not None
        assert credential.overlay is NetworkOverlay.TRUSTED
        assert gateway.wps.rekey_count == 1

    def test_unknown_device_strict(self, gateway, service):
        record, _ = _onboard(gateway, service, "MAXGateway", seed=814)
        assert record.device_type == "unknown"
        assert record.isolation_level is IsolationLevel.STRICT

    def test_critical_vulnerability_triggers_notification(self, gateway, service):
        record, _ = _onboard(gateway, service, "D-LinkCam", seed=815)  # severity 9.1 in the seeded DB
        assert record.device_type == "D-LinkCam"
        assert gateway.notifications
        assert "D-LinkCam" in gateway.notifications[0]

    def test_disconnect_cleans_up(self, gateway, service):
        record, _ = _onboard(gateway, service, "EdnetCam", seed=816)
        gateway.disconnect_device(record.mac)
        assert record.mac not in gateway.devices
        assert gateway.rule_cache.lookup(record.mac) is None
        assert all(rule.cookie != f"enforce-{record.mac}" for rule in gateway.switch.rules)


class TestCredentials:
    def test_facade_issues_one_credential_per_onboarded_device(self, trained_identifier):
        """A device first seen in its verdict gets one PSK, for the overlay
        its assessment puts it on: none is issued and then re-keyed."""
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        handle.run_until_idle(SimulatedSource(devices=12, seed=11))
        gateway = handle.gateway
        wps = gateway.wps
        assert len(gateway.devices) == 12
        assert wps.issued_count == len(gateway.devices)
        assert wps.rekey_count == 0
        levels = set()
        for mac, record in gateway.devices.items():
            levels.add(record.isolation_level)
            assert wps.credential_of(mac).overlay is record.overlay
        assert IsolationLevel.TRUSTED in levels and len(levels) > 1

    def test_device_connected_before_its_verdict_is_rekeyed(self, gateway):
        mac = MACAddress.from_string("02:00:00:00:0a:01")
        gateway.connect_device(mac, ip_address="192.168.1.40")
        first = gateway.wps.credential_of(mac)
        assert first.overlay is NetworkOverlay.UNTRUSTED
        assessment = SecurityAssessment(
            device_type="Aria", isolation_level=IsolationLevel.TRUSTED, vulnerabilities=()
        )
        gateway.apply_assessment(mac, assessment)
        rekeyed = gateway.wps.credential_of(mac)
        assert rekeyed.overlay is NetworkOverlay.TRUSTED and rekeyed.psk != first.psk
        assert (gateway.wps.issued_count, gateway.wps.rekey_count) == (2, 1)


class TestAuthorization:
    def _record_of(self, gateway, service, name, seed):
        record, _ = _onboard(gateway, service, name, seed=seed)
        return record

    def test_restricted_device_cloud_only(self, gateway, service):
        record = self._record_of(gateway, service, "EdnetCam", 820)
        allowed_ip = record.enforcement_rule.allowed_destinations[0]
        to_cloud = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, allowed_ip, dst_port=443)
        to_other = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "8.8.8.8", dst_port=80)
        assert gateway.authorize(to_cloud).allowed
        assert not gateway.authorize(to_other).allowed

    def test_trusted_device_reaches_internet(self, gateway, service):
        record = self._record_of(gateway, service, "Aria", 821)
        packet = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "93.184.216.34", dst_port=443)
        assert gateway.authorize(packet).allowed

    def test_strict_device_blocked_from_internet(self, gateway, service):
        record = self._record_of(gateway, service, "MAXGateway", 822)
        packet = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "93.184.216.34", dst_port=80)
        assert not gateway.authorize(packet).allowed

    def test_overlay_separation(self, gateway, service):
        trusted = self._record_of(gateway, service, "Aria", 823)
        untrusted = self._record_of(gateway, service, "EdnetCam", 824)
        trusted_to_untrusted = make_tcp_packet(
            trusted.mac, untrusted.mac, trusted.ip_address, untrusted.ip_address, dst_port=80
        )
        untrusted_to_untrusted_peer = make_tcp_packet(
            untrusted.mac, trusted.mac, untrusted.ip_address, trusted.ip_address, dst_port=80
        )
        assert not gateway.authorize(trusted_to_untrusted).allowed
        assert not gateway.authorize(untrusted_to_untrusted_peer).allowed

    def test_untrusted_devices_may_talk_to_each_other(self, gateway, service):
        first = self._record_of(gateway, service, "EdnetCam", 825)
        second = self._record_of(gateway, service, "MAXGateway", 826)
        packet = make_udp_packet(first.mac, second.mac, first.ip_address, second.ip_address, dst_port=5000)
        assert gateway.authorize(packet).allowed

    def test_filtering_disabled_allows_everything(self, service):
        gateway = SecurityGateway(filtering_enabled=False)
        record, _ = _onboard(gateway, service, "EdnetCam", seed=827)
        packet = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "8.8.8.8", dst_port=80)
        assert gateway.authorize(packet).allowed

    def test_counters(self, gateway, service):
        record = self._record_of(gateway, service, "MAXGateway", 828)
        allowed_before = gateway.packets_allowed
        blocked_before = gateway.packets_blocked
        gateway.authorize(make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "8.8.8.8"))
        assert gateway.packets_blocked == blocked_before + 1
        assert gateway.packets_allowed == allowed_before

    def test_unidentified_local_traffic_is_counted(self, gateway):
        # Setup-phase local traffic of a not-yet-assessed device is
        # allowed *and* counted: skipping the counter undercounted
        # packets_allowed and skewed the Table VI-style accounting.
        stranger = MACAddress.from_string("02:00:00:00:00:99")
        broadcast = MACAddress.from_string("ff:ff:ff:ff:ff:ff")
        allowed_before = gateway.packets_allowed
        decision = gateway.authorize(
            make_udp_packet(stranger, broadcast, "0.0.0.0", "255.255.255.255", dst_port=67)
        )
        assert decision.allowed
        assert gateway.packets_allowed == allowed_before + 1

    def test_dhcp_reassignment_evicts_stale_ip_mapping(self, gateway):
        # A DHCP re-assignment must remove the old IP's mapping, or
        # _destination_record can resolve the dead IP to the wrong device
        # once another device claims it.
        device = MACAddress.from_string("02:00:00:00:00:42")
        gateway.note_address_claim(device, "192.168.0.50", now=1.0)
        gateway.note_address_claim(device, "192.168.0.77", now=2.0)
        assert gateway.ip_to_mac.get("192.168.0.77") == device
        assert "192.168.0.50" not in gateway.ip_to_mac
        assert gateway.devices[device].ip_address == "192.168.0.77"

        # The freed address can be claimed by a different device.
        newcomer = MACAddress.from_string("02:00:00:00:00:43")
        gateway.note_address_claim(newcomer, "192.168.0.50", now=3.0)
        assert gateway.ip_to_mac.get("192.168.0.50") == newcomer


class TestDatapath:
    def test_handle_packet_uses_flow_table_and_controller(self, gateway):
        # Install a deterministic restricted assessment directly: this test
        # exercises the switch datapath, not the identification stage.
        mac = MACAddress.from_string("02:00:00:00:0d:01")
        gateway.connect_device(mac, ip_address="192.168.0.55")
        assessment = SecurityAssessment(
            device_type="EdnetCam",
            isolation_level=IsolationLevel.RESTRICTED,
            vulnerabilities=(VulnerabilityRecord("CVE-SIM-1", "EdnetCam", "test", 5.0),),
            allowed_destinations=("52.28.10.10",),
        )
        record = gateway.apply_assessment(mac, assessment)
        decision = gateway.handle_packet(
            make_tcp_packet(record.mac, EXTERNAL_MAC, "192.168.0.55", "52.28.10.10", dst_port=443)
        )
        assert decision.forwarded
        blocked = gateway.handle_packet(
            make_tcp_packet(record.mac, EXTERNAL_MAC, "192.168.0.55", "8.8.8.8", dst_port=80)
        )
        assert blocked.dropped

    def test_device_record_lookup(self, gateway, service):
        record, _ = _onboard(gateway, service, "Aria", seed=832)
        assert gateway.device_record(record.mac) is record
        with pytest.raises(EnforcementError):
            gateway.device_record(MACAddress(424242))
        assert gateway.connected_device_count >= 1
        assert record in gateway.devices_in_overlay(NetworkOverlay.TRUSTED)


class TestLifecycleCoupling:
    """disconnect_device / rule eviction -> lifecycle coordinator wiring."""

    def _wired(self, gateway, service):
        from repro.identification.lifecycle import LifecycleCoordinator

        coordinator = LifecycleCoordinator(identifier=service.identifier)
        gateway.attach_lifecycle(coordinator)
        return coordinator

    def _quarantined_record(self, gateway, service, coordinator, seed=814):
        # MAXGateway is not in the trained bank: it onboards as unknown.
        record, trace = _onboard(gateway, service, "MAXGateway", seed=seed)
        from repro.features.fingerprint import Fingerprint

        coordinator.quarantine.record(
            record.mac, Fingerprint.from_packets(trace.packets), now=0.0
        )
        return record

    def test_disconnect_informs_lifecycle(self, gateway, service):
        coordinator = self._wired(gateway, service)
        record = self._quarantined_record(gateway, service, coordinator)
        assert record.mac in coordinator.quarantine

        gateway.disconnect_device(record.mac)
        assert record.mac not in coordinator.quarantine  # no ghost re-identification
        assert coordinator.disconnects == 1

    def test_stale_rule_eviction_counts_as_departure(self, gateway, service):
        coordinator = self._wired(gateway, service)
        record = self._quarantined_record(gateway, service, coordinator)
        evicted = gateway.rule_cache.evict_stale(now=1_000_000.0, max_idle_seconds=60.0)
        assert evicted >= 1
        assert record.mac not in coordinator.quarantine
        assert coordinator.disconnects >= 1

    def test_capacity_eviction_is_not_a_departure(self, service):
        # An LRU rule squeezed out of a full cache may belong to a device
        # that is still connected; it must not drop quarantine state.
        from repro.gateway.rule_cache import EnforcementRuleCache

        gateway = SecurityGateway(rule_cache=EnforcementRuleCache(max_entries=1))
        coordinator = self._wired(gateway, service)
        record = self._quarantined_record(gateway, service, coordinator)
        _onboard(gateway, service, "Aria", seed=815)  # second rule: LRU evicts the first
        assert gateway.rule_cache.lookup(record.mac) is None
        assert record.mac in coordinator.quarantine  # still pending a learn
        assert coordinator.disconnects == 0
        assert any(rule.cookie == f"enforce-{record.mac}" for rule in gateway.switch.rules)

    def test_unattached_gateway_disconnect_still_works(self, gateway, service):
        record, _ = _onboard(gateway, service, "EdnetCam", seed=816)
        gateway.disconnect_device(record.mac)  # no lifecycle: no error
        assert record.mac not in gateway.devices

    def test_attach_lifecycle_chains_existing_evict_hook(self, gateway, service):
        # A metrics hook installed before attach_lifecycle keeps firing.
        observed = []
        gateway.rule_cache.on_evict = lambda mac, reason: observed.append((mac, reason))
        coordinator = self._wired(gateway, service)
        record = self._quarantined_record(gateway, service, coordinator)
        gateway.rule_cache.evict_stale(now=1_000_000.0, max_idle_seconds=60.0)
        assert (record.mac, "stale") in observed  # the original hook ran
        assert record.mac not in coordinator.quarantine  # and so did the wiring
        assert gateway.switch.rule_count == 0

    def test_stale_eviction_drops_flow_rules_without_lifecycle(self, gateway, service):
        # The switch must stop forwarding for a device the rule cache has
        # forgotten, or the datapath and authorize() disagree and the flow
        # table never shrinks under MAC churn.
        record, _ = _onboard(gateway, service, "Aria", seed=813)
        assert record.isolation_level is IsolationLevel.TRUSTED
        assert gateway.switch.rule_count == 1
        assert gateway.rule_cache.evict_stale(now=1_000_000.0, max_idle_seconds=60.0) == 1
        packet = make_tcp_packet(record.mac, EXTERNAL_MAC, record.ip_address, "8.8.8.8")
        assert gateway.authorize(packet).reason == "unidentified device, internet blocked"
        decision = gateway.handle_packet(packet)
        assert decision.rule is None
        assert decision.dropped
        assert gateway.switch.rule_count == 0

    def test_evict_hook_passed_with_cache_keeps_firing(self, service):
        from repro.gateway.rule_cache import EnforcementRuleCache

        observed = []
        cache = EnforcementRuleCache(on_evict=lambda mac, reason: observed.append((mac, reason)))
        gateway = SecurityGateway(rule_cache=cache)
        coordinator = self._wired(gateway, service)
        record = self._quarantined_record(gateway, service, coordinator)
        gateway.rule_cache.evict_stale(now=1_000_000.0, max_idle_seconds=60.0)
        assert observed == [(record.mac, "stale")]  # once, despite two wirings
        assert coordinator.disconnects == 1
        assert gateway.switch.rule_count == 0


class TestDhcpChurn:
    """Lease reassignment races: ip_to_mac coherence under re-join storms.

    Pins the disconnect guard (a departing device must not evict a lease
    that has already been reassigned to another MAC) and the quarantine
    dedup behaviour for rotated identities re-running setup.
    """

    MAC_A = MACAddress.from_string("06:aa:aa:aa:aa:01")
    MAC_B = MACAddress.from_string("06:bb:bb:bb:bb:02")

    def test_rejoin_with_new_lease_drops_old_mapping(self, gateway):
        gateway.note_address_claim(self.MAC_A, "10.0.0.10", now=1.0)
        gateway.note_address_claim(self.MAC_A, "10.0.0.20", now=2.0)
        assert gateway.ip_to_mac == {"10.0.0.20": self.MAC_A}
        assert gateway.devices[self.MAC_A].ip_address == "10.0.0.20"

    def test_takeover_survives_previous_holder_rejoin(self, gateway):
        # A held the lease, B took it over, then A re-joins elsewhere:
        # A's old-lease cleanup must not evict B's live mapping.
        gateway.note_address_claim(self.MAC_A, "10.0.0.10", now=1.0)
        gateway.note_address_claim(self.MAC_B, "10.0.0.10", now=2.0)
        gateway.note_address_claim(self.MAC_A, "10.0.0.30", now=3.0)
        assert gateway.ip_to_mac["10.0.0.10"] == self.MAC_B
        assert gateway.ip_to_mac["10.0.0.30"] == self.MAC_A

    def test_disconnect_does_not_evict_reassigned_lease(self, gateway):
        # The regression: disconnect used to pop the record's IP
        # unconditionally, tearing down the *new* holder's mapping.
        gateway.note_address_claim(self.MAC_A, "10.0.0.10", now=1.0)
        gateway.note_address_claim(self.MAC_B, "10.0.0.10", now=2.0)
        gateway.disconnect_device(self.MAC_A)
        assert self.MAC_A not in gateway.devices
        assert gateway.ip_to_mac["10.0.0.10"] == self.MAC_B

    def test_disconnect_drops_a_still_owned_lease(self, gateway):
        gateway.note_address_claim(self.MAC_A, "10.0.0.10", now=1.0)
        gateway.disconnect_device(self.MAC_A)
        assert "10.0.0.10" not in gateway.ip_to_mac

    def test_unspecified_address_is_ignored(self, gateway):
        # DHCP DISCOVER traffic claims 0.0.0.0; it must never enter the map.
        gateway.note_address_claim(self.MAC_A, "0.0.0.0", now=1.0)
        gateway.note_address_claim(self.MAC_A, None, now=2.0)
        assert gateway.ip_to_mac == {}
        assert gateway.devices[self.MAC_A].ip_address is None

    def test_storm_leaves_no_stale_or_dangling_entries(self, gateway):
        # A randomized churn storm; the map must stay a bijection onto
        # the connected devices' current leases throughout.
        import random

        rng = random.Random(4242)
        macs = [
            MACAddress.from_string(f"06:cc:cc:cc:cc:{index:02x}") for index in range(6)
        ]
        leases = [f"10.1.0.{index}" for index in range(4)]
        for step in range(200):
            mac = rng.choice(macs)
            if rng.random() < 0.2:
                gateway.disconnect_device(mac)
            else:
                gateway.note_address_claim(mac, rng.choice(leases), now=float(step))
        for ip, mac in gateway.ip_to_mac.items():
            assert mac in gateway.devices, f"dangling mapping {ip} -> {mac}"
            assert gateway.devices[mac].ip_address == ip
        ips = list(gateway.ip_to_mac)
        assert len(ips) == len(set(ips))

    def test_rotated_mac_rejoin_is_not_double_counted(self, service, gateway):
        from repro.features.fingerprint import Fingerprint
        from repro.identification.lifecycle import LifecycleCoordinator

        coordinator = LifecycleCoordinator(identifier=service.identifier)
        gateway.attach_lifecycle(coordinator)
        record, trace = _onboard(gateway, service, "MAXGateway", seed=910)
        fingerprint = Fingerprint.from_packets(trace.packets)
        # The same rotated identity re-runs setup repeatedly: the log
        # refreshes its one entry instead of growing per sighting.
        for sighting in range(3):
            coordinator.quarantine.record(record.mac, fingerprint, now=float(sighting))
        assert len(coordinator.quarantine) == 1
        assert coordinator.quarantine.recorded == 3
        assert coordinator.quarantine.evicted == 0
        gateway.disconnect_device(record.mac)
        assert len(coordinator.quarantine) == 0
        assert coordinator.quarantine.released == 1
