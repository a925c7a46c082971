"""Tests for the clock, latency, resource and workload simulation models."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.clock import SimulatedClock
from repro.simulation.latency import LatencyModel, PathType, processing_delay_ms
from repro.simulation.resources import GatewayResourceModel
from repro.simulation.workload import ConcurrentFlowWorkload


class TestSimulatedClock:
    def test_advance(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_ms(500)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimulatedClock().advance(-1)


class TestLatencyModel:
    def test_wireless_paths_slower_than_wired(self):
        model = LatencyModel(seed=0)
        wireless = model.sample_many(PathType.WIRELESS_TO_WIRELESS, 50).mean()
        wired = model.sample_many(PathType.WIRED_TO_WIRED, 50).mean()
        assert wireless > wired

    def test_table_v_ranges(self):
        model = LatencyModel(seed=1)
        device_pair = model.sample_many(PathType.WIRELESS_TO_WIRELESS, 100).mean()
        local_server = model.sample_many(PathType.WIRELESS_TO_LOCAL_SERVER, 100).mean()
        remote_server = model.sample_many(PathType.WIRELESS_TO_REMOTE_SERVER, 100).mean()
        assert 20 < device_pair < 32
        assert 13 < local_server < 22
        assert 15 < remote_server < 26

    def test_processing_delay_larger_with_filtering(self):
        assert processing_delay_ms(True, 0) > processing_delay_ms(False, 0)
        # Without filtering there is no lookup, whatever the rule count.
        assert processing_delay_ms(False, 5000) == processing_delay_ms(False, 0)
        assert processing_delay_ms(True, 5000) > processing_delay_ms(True, 0)

    def test_gateway_processing_charged_twice(self):
        model_a = LatencyModel(seed=2)
        model_b = LatencyModel(seed=2)
        base = model_a.sample_many(PathType.WIRELESS_TO_WIRELESS, 200, gateway_processing_ms=0.0)
        loaded = model_b.sample_many(PathType.WIRELESS_TO_WIRELESS, 200, gateway_processing_ms=2.0)
        assert loaded.mean() - base.mean() == pytest.approx(4.0, abs=0.5)

    def test_concurrent_flow_load_increases_latency(self):
        model_a = LatencyModel(seed=3)
        model_b = LatencyModel(seed=3)
        quiet = model_a.sample_many(PathType.WIRELESS_TO_WIRELESS, 200, concurrent_flows=0).mean()
        busy = model_b.sample_many(PathType.WIRELESS_TO_WIRELESS, 200, concurrent_flows=150).mean()
        assert busy > quiet
        assert busy - quiet < 5.0  # the paper: increase is insignificant

    def test_device_offsets(self):
        model = LatencyModel(seed=4, device_offsets_ms={"D2": 3.0})
        base = LatencyModel(seed=4).sample_many(PathType.WIRELESS_TO_WIRELESS, 100).mean()
        offset = model.sample_many(PathType.WIRELESS_TO_WIRELESS, 100, source_device="D2").mean()
        assert offset == pytest.approx(base + 3.0, abs=0.1)

    def test_invalid_arguments(self):
        model = LatencyModel(seed=0)
        with pytest.raises(SimulationError):
            model.sample(PathType.WIRELESS_TO_WIRELESS, concurrent_flows=-1)
        with pytest.raises(SimulationError):
            model.sample_many(PathType.WIRELESS_TO_WIRELESS, 0)

    def test_latencies_positive(self):
        model = LatencyModel(seed=5)
        samples = model.sample_many(PathType.WIRED_TO_WIRED, 200)
        assert np.all(samples > 0)


class TestGatewayResourceModel:
    def test_cpu_grows_with_flows(self):
        model = GatewayResourceModel(seed=0, measurement_noise=0.0)
        idle = model.cpu_utilization(0, filtering_enabled=False)
        busy = model.cpu_utilization(150, filtering_enabled=False)
        assert busy > idle
        assert 30 < idle < 45
        assert busy < 60

    def test_filtering_cpu_overhead_is_small(self):
        model = GatewayResourceModel(seed=0, measurement_noise=0.0)
        with_filtering = model.cpu_utilization(100, filtering_enabled=True)
        without_filtering = model.cpu_utilization(100, filtering_enabled=False)
        overhead = 100.0 * (with_filtering - without_filtering) / without_filtering
        assert 0 < overhead < 5.0

    def test_memory_grows_with_rules_only_when_filtering(self):
        model = GatewayResourceModel(seed=0, measurement_noise=0.0)
        empty = model.memory_usage_mb(0, filtering_enabled=True)
        full = model.memory_usage_mb(20000, filtering_enabled=True)
        plain = model.memory_usage_mb(20000, filtering_enabled=False)
        assert full > empty
        assert 30 < full < 120  # Fig. 6c range
        assert plain == pytest.approx(model.memory_usage_mb(0, filtering_enabled=False), rel=0.01)

    def test_cpu_capped_at_100(self):
        model = GatewayResourceModel(seed=0, cpu_per_flow_percent=10.0, measurement_noise=0.0)
        assert model.cpu_utilization(1000, filtering_enabled=True) == 100.0

    def test_invalid_arguments(self):
        model = GatewayResourceModel(seed=0)
        with pytest.raises(SimulationError):
            model.cpu_utilization(-1, True)
        with pytest.raises(SimulationError):
            model.memory_usage_mb(-5, True)

    def test_sample_bundle(self):
        sample = GatewayResourceModel(seed=0).sample(50, 100, True)
        assert sample.concurrent_flows == 50
        assert sample.enforcement_rules == 100
        assert sample.filtering_enabled


class TestConcurrentFlowWorkload:
    def test_flow_count(self):
        workload = ConcurrentFlowWorkload(seed=0)
        assert len(workload.generate(75)) == 75
        assert workload.generate(0) == []

    def test_flows_have_valid_endpoints(self):
        workload = ConcurrentFlowWorkload(device_count=5, seed=1)
        for flow in workload.generate(40):
            assert flow.key.src_ip.startswith(workload.subnet_prefix)
            assert flow.key.protocol in ("tcp", "udp")
            assert flow.source_mac == workload.device_mac(
                int(flow.key.src_ip.rsplit(".", 1)[1]) - 10
            )

    def test_local_ratio_extremes(self):
        local_only = ConcurrentFlowWorkload(device_count=6, local_ratio=1.0, seed=2)
        remote_only = ConcurrentFlowWorkload(device_count=6, local_ratio=0.0, seed=2)
        assert all(flow.key.dst_ip.startswith("192.168.0.") for flow in local_only.generate(30))
        assert all(not flow.key.dst_ip.startswith("192.168.0.") for flow in remote_only.generate(30))

    def test_no_self_flows_in_local_traffic(self):
        workload = ConcurrentFlowWorkload(device_count=3, local_ratio=1.0, seed=3)
        for flow in workload.generate(60):
            assert flow.key.src_ip != flow.key.dst_ip

    def test_invalid_configuration(self):
        with pytest.raises(SimulationError):
            ConcurrentFlowWorkload(device_count=1)
        with pytest.raises(SimulationError):
            ConcurrentFlowWorkload(local_ratio=1.5)
        with pytest.raises(SimulationError):
            ConcurrentFlowWorkload(seed=0).generate(-1)
