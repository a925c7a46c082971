"""Tests for the setup-traffic simulator."""

import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.profiles import DeviceProfile, SetupStep, StepKind
from repro.devices.simulator import LabEnvironment, SetupTrafficSimulator
from repro.exceptions import SimulationError
from repro.features.packet_features import FEATURE_INDEX
from repro.net.packet import Packet

from tests.conftest import ScalarFeatureExtractor


class TestLabEnvironment:
    def test_ip_allocation_is_unique(self, lab_environment):
        first = lab_environment.allocate_ip()
        second = lab_environment.allocate_ip()
        assert first != second
        assert first.startswith(lab_environment.subnet_prefix)

    def test_pool_wraps_around_when_exhausted(self):
        environment = LabEnvironment()
        first = environment.allocate_ip()
        for _ in range(239):
            environment.allocate_ip()
        recycled = environment.allocate_ip()
        assert recycled == first
        assert int(recycled.rsplit(".", 1)[1]) >= 10

    def test_resolution_is_deterministic(self, lab_environment):
        assert lab_environment.resolve("api.fitbit.com") == lab_environment.resolve("api.fitbit.com")
        assert lab_environment.resolve("api.fitbit.com") != lab_environment.resolve("ws.meethue.com")

    def test_resolution_is_case_insensitive(self, lab_environment):
        assert lab_environment.resolve("Cloud.Example.COM") == lab_environment.resolve("cloud.example.com")

    def test_dns_server_defaults_to_gateway(self):
        environment = LabEnvironment(gateway_ip="10.1.1.1")
        assert environment.dns_server == "10.1.1.1"


class TestSimulation:
    def test_trace_has_packets_from_single_mac(self, simulator):
        trace = simulator.simulate(DEVICE_CATALOG["WeMoSwitch"])
        assert len(trace) > 10
        assert {packet.src_mac for packet in trace.packets} == {trace.device_mac}

    def test_timestamps_are_monotonic(self, simulator):
        trace = simulator.simulate(DEVICE_CATALOG["HueBridge"])
        timestamps = [packet.timestamp for packet in trace.packets]
        assert timestamps == sorted(timestamps)

    def test_device_mac_uses_vendor_oui(self, simulator):
        profile = DEVICE_CATALOG["HueBridge"]
        trace = simulator.simulate(profile)
        assert str(trace.device_mac).startswith(profile.mac_oui)

    def test_reproducible_with_same_seed(self):
        first = SetupTrafficSimulator(seed=5).simulate(DEVICE_CATALOG["Aria"])
        second = SetupTrafficSimulator(seed=5).simulate(DEVICE_CATALOG["Aria"])
        assert len(first) == len(second)
        assert [packet.size for packet in first.packets] == [packet.size for packet in second.packets]

    def test_different_seeds_vary(self):
        first = SetupTrafficSimulator(seed=1).simulate(DEVICE_CATALOG["Aria"])
        second = SetupTrafficSimulator(seed=2).simulate(DEVICE_CATALOG["Aria"])
        assert [packet.size for packet in first.packets] != [packet.size for packet in second.packets]

    def test_simulate_many(self, simulator):
        traces = simulator.simulate_many(DEVICE_CATALOG["Aria"], 5)
        assert len(traces) == 5
        assert len({str(trace.device_mac) for trace in traces}) == 5

    def test_simulate_many_rejects_zero_runs(self, simulator):
        with pytest.raises(SimulationError):
            simulator.simulate_many(DEVICE_CATALOG["Aria"], 0)

    def test_packets_serialise_and_dissect(self, simulator):
        """Every simulated packet must survive a bytes round-trip."""
        trace = simulator.simulate(DEVICE_CATALOG["D-LinkCam"])
        for packet in trace.packets:
            parsed = Packet.dissect(packet.to_bytes())
            assert parsed.src_mac == packet.src_mac

    def test_unknown_step_kind_rejected(self, simulator):
        profile = DEVICE_CATALOG["Aria"]
        bad_profile = DeviceProfile(
            name="Bad",
            vendor="X",
            model="Y",
            steps=(SetupStep(StepKind.DNS_QUERY, target="x.example"),),
        )
        # Sanity: valid profile simulates fine; then corrupt the renderer input.
        simulator.simulate(profile)
        trace = simulator.simulate(bad_profile)
        assert len(trace) >= 1


class TestProtocolContent:
    def _features_of(self, simulator, name):
        trace = simulator.simulate(DEVICE_CATALOG[name])
        return ScalarFeatureExtractor().extract_all(trace.packets)

    def test_wifi_device_emits_eapol_and_dhcp(self, simulator):
        matrix = self._features_of(simulator, "WeMoSwitch")
        assert matrix[:, FEATURE_INDEX["eapol"]].sum() >= 1
        assert matrix[:, FEATURE_INDEX["dhcp"]].sum() >= 1
        assert matrix[:, FEATURE_INDEX["arp"]].sum() >= 1

    def test_upnp_device_emits_ssdp_and_router_alert(self, simulator):
        matrix = self._features_of(simulator, "WeMoSwitch")
        assert matrix[:, FEATURE_INDEX["ssdp"]].sum() >= 1
        assert matrix[:, FEATURE_INDEX["ip_option_router_alert"]].sum() >= 1

    def test_cloud_device_emits_dns_and_https(self, simulator):
        matrix = self._features_of(simulator, "Aria")
        assert matrix[:, FEATURE_INDEX["dns"]].sum() >= 1
        assert matrix[:, FEATURE_INDEX["https"]].sum() >= 1
        assert matrix[:, FEATURE_INDEX["ntp"]].sum() >= 1

    def test_destination_counter_grows(self, simulator):
        matrix = self._features_of(simulator, "HueBridge")
        assert matrix[:, FEATURE_INDEX["dst_ip_counter"]].max() >= 3
