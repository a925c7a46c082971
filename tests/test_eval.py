"""Tests for the evaluation harness (table/figure runners and reporting)."""

import gc
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.eval import experiments
from repro.eval.experiments import (
    DELAY_REFERENCE,
    DELAY_WITH,
    DELAY_WITHOUT,
    MEMORY_WITH,
    MEMORY_WITHOUT,
    RULES_WITH,
    RULES_WITHOUT,
    TABLE_V_DESTINATIONS,
    TABLE_V_SOURCES,
    GatewayTestbed,
    OverheadRow,
    added_latency_share,
    DatapathCost,
    evaluate_identification,
    onboarding_memory,
    run_ablation,
    run_cpu_vs_flows,
    run_latency_table,
    run_latency_vs_flows,
    run_memory_vs_rules,
    run_overhead_table,
    run_timing,
    table_iii_confusion,
)
from repro.eval.reporting import (
    format_confusion_matrix,
    format_fig5,
    format_latency_table,
    format_overhead_table,
    format_series,
    format_table,
    format_timing_table,
)
from repro.gateway.security_gateway import SecurityGateway
from repro.security_service.isolation import IsolationLevel


@pytest.fixture(scope="module")
def small_evaluation(request):
    dataset = request.getfixturevalue("small_dataset")
    return evaluate_identification(dataset, n_splits=3, n_estimators=6, random_state=0)


class TestIdentificationEvaluation:
    def test_every_fingerprint_predicted(self, small_dataset, small_evaluation):
        assert len(small_evaluation.y_true) == len(small_dataset)
        assert len(small_evaluation.y_pred) == len(small_dataset)

    def test_reasonable_overall_accuracy(self, small_evaluation):
        # Paper-scale accuracy is ~0.815; the reduced test configuration
        # must still be clearly better than random (1/9 = 0.11).
        assert small_evaluation.overall_accuracy > 0.5

    def test_distinct_devices_highly_accurate(self, small_evaluation):
        per_type = small_evaluation.per_type_accuracy
        assert per_type["Aria"] >= 0.7
        assert per_type["HueBridge"] >= 0.7

    def test_confusable_family_lower_accuracy_than_distinct(self, small_evaluation):
        per_type = small_evaluation.per_type_accuracy
        family_mean = np.mean([per_type["SmarterCoffee"], per_type["iKettle2"]])
        distinct_mean = np.mean([per_type["Aria"], per_type["HueBridge"]])
        assert family_mean <= distinct_mean

    def test_discrimination_statistics(self, small_evaluation):
        assert 0.0 <= small_evaluation.discrimination_fraction <= 1.0
        if small_evaluation.needed_discrimination:
            assert small_evaluation.mean_candidates_when_ambiguous >= 2.0

    def test_confusion_matrix_restriction(self, small_evaluation):
        matrix, labels = table_iii_confusion(
            small_evaluation, devices=("TP-LinkPlugHS110", "TP-LinkPlugHS100")
        )
        assert matrix.shape == (2, 2)
        assert labels == ["TP-LinkPlugHS110", "TP-LinkPlugHS100"]
        assert matrix.sum() > 0


class TestTimingExperiment:
    def test_rows_present_and_positive(self, small_dataset, trained_identifier):
        summary = run_timing(small_dataset, identifier=trained_identifier, samples=10)
        assert "1 Classification (Random Forest)" in summary.rows
        assert "1 Discrimination (edit distance)" in summary.rows
        assert "Type Identification" in summary.rows
        for mean, stdev in summary.rows.values():
            assert mean >= 0.0
            assert stdev >= 0.0

    def test_composite_rows_scale(self, small_dataset, trained_identifier):
        summary = run_timing(small_dataset, identifier=trained_identifier, samples=10)
        single = summary.mean_of("1 Classification (Random Forest)")
        all_types = summary.mean_of(
            f"{len(trained_identifier.known_device_types)} Classifications (Random Forest)"
        )
        assert all_types > single


#: Small sizes for the measured enforcement runners.
_QUICK = {"passes": 3, "packets_per_pass": 18}


class TestEnforcementExperiments:
    def test_testbed_onboards_levels_in_turn(self):
        testbed = GatewayTestbed(7)
        trusted, restricted, strict = IsolationLevel.TRUSTED, IsolationLevel.RESTRICTED, IsolationLevel.STRICT
        for gateway in (testbed.filtering, testbed.plain):
            levels = [record.isolation_level for record in gateway.devices.values()]
            assert levels == [trusted, restricted, strict, trusted, restricted, strict, trusted]
            assert len(gateway.rule_cache) == 7
        # Trusted and strict devices get one switch rule, restricted two.
        assert testbed.filtering.switch.rule_count == 9
        assert testbed.plain.switch.rule_count == 0
        testbed.grow(10)
        assert len(testbed.filtering.devices) == len(testbed.plain.devices) == 10

    def test_filtering_drops_strict_remote_traffic(self):
        testbed = GatewayTestbed(4)
        (packet,) = testbed.packets("D3", "S_remote", 1)
        assert testbed.filtering.handle_packet(packet).dropped
        assert testbed.plain.handle_packet(packet).forwarded
        # The restricted source may reach its allow-listed remote server.
        (packet,) = testbed.packets("D2", "S_remote", 1)
        assert testbed.filtering.handle_packet(packet).forwarded

    @pytest.mark.parametrize(
        "runner, kwargs, calls_per_mode",
        [
            # One warm-up and three timed passes of 18 packets per lane:
            # Table V has nine pairs, Table VI three packet lists, the flow
            # sweeps one list per flow count.  Fig. 6c times 18 packets at
            # each of two points on its filtering, plain and reference
            # (filtering) gateways.
            (run_latency_table, {"device_count": 4}, (9 * 4 * 18, 9 * 4 * 18)),
            (run_overhead_table, {"path_latency_ms": 25.5, "device_count": 6}, (3 * 4 * 18, 3 * 4 * 18)),
            (run_latency_vs_flows, {"flow_counts": (20, 40), "device_count": 6}, (2 * 4 * 18, 2 * 4 * 18)),
            (run_cpu_vs_flows, {"flow_counts": (20, 40), "device_count": 6}, (2 * 4 * 18, 2 * 4 * 18)),
            (run_memory_vs_rules, {"rule_counts": (6, 12)}, (2 * 2 * 4 * 18, 2 * 4 * 18)),
        ],
        ids=["table5", "table6", "fig6a", "fig6b", "fig6c"],
    )
    def test_every_runner_routes_packets_through_handle_packet(
        self, monkeypatch, runner, kwargs, calls_per_mode
    ):
        calls: Counter = Counter()
        handle_packet = SecurityGateway.handle_packet

        def counting(gateway, packet):
            calls[gateway.filtering_enabled] += 1
            return handle_packet(gateway, packet)

        monkeypatch.setattr(SecurityGateway, "handle_packet", counting)
        runner(**kwargs, **_QUICK)
        assert (calls[True], calls[False]) == calls_per_mode

    def test_latency_table_rows(self):
        table = run_latency_table(device_count=4, **_QUICK)
        assert [row[:2] for row in table.rows] == [
            (source, destination) for source in TABLE_V_SOURCES for destination in TABLE_V_DESTINATIONS
        ]
        for _, _, filtering_us, plain_us in table.rows:
            assert filtering_us > 0 and plain_us > 0
        assert table.row("D1", "D4") == table.rows[0][2:]
        with pytest.raises(KeyError):
            table.row("D9", "D4")

    def test_added_latency_share_counts_both_traversals(self):
        # 2 x (9 - 4) µs = 10 µs of a 20 ms path.
        assert added_latency_share(9.0, 4.0, 20.0) == pytest.approx(0.0005)

    def test_overhead_table_rows(self):
        table = run_overhead_table(path_latency_ms=25.5, device_count=6, **_QUICK)
        assert set(table.rows) == {"D1D2 Latency", "D1D3 Latency", "CPU utilization", "Memory usage"}
        latency = table.rows["D1D2 Latency"]
        assert table.overhead_of("D1D2 Latency") == pytest.approx(
            100.0 * added_latency_share(latency.with_filtering, latency.without_filtering, 25.5)
        )
        assert table.rows["CPU utilization"].unit == "measured µs CPU"
        # Filtering installs switch rules on top of the same onboarding.
        assert table.overhead_of("Memory usage") > 0.0

    @pytest.mark.parametrize("runner", [run_latency_vs_flows, run_cpu_vs_flows])
    def test_flow_series(self, runner):
        series = runner(flow_counts=(20, 80, 140), device_count=6, **_QUICK)
        assert series.x_values == [20.0, 80.0, 140.0]
        assert set(series.series) == {"With Filtering", "Without Filtering"}
        for values in series.series.values():
            assert len(values) == 3
            assert all(value > 0 for value in values)

    def test_memory_vs_rules_installs_switch_rules_only_with_filtering(self):
        series = run_memory_vs_rules(rule_counts=(6, 30), **_QUICK)
        assert series.x_values == [6.0, 30.0]
        assert series.series_of(RULES_WITHOUT) == [0.0, 0.0]
        assert series.series_of(RULES_WITH) == [8.0, 40.0]
        with_filtering, without = series.series_of(MEMORY_WITH), series.series_of(MEMORY_WITHOUT)
        assert with_filtering[1] > with_filtering[0] > 0
        assert all(plain < filtering for plain, filtering in zip(without, with_filtering))
        for name in (DELAY_WITH, DELAY_WITHOUT, DELAY_REFERENCE):
            assert all(value > 0 for value in series.series_of(name))

    def test_ablation(self, small_dataset):
        result = run_ablation(small_dataset, n_splits=3, n_estimators=5, random_state=0)
        assert "full pipeline" in result.accuracies
        assert "without edit-distance discrimination" in result.accuracies
        assert all(0.0 <= accuracy <= 1.0 for accuracy in result.accuracies.values())


def _fake_clocks(monkeypatch, wall_ns, cpu_ns, load=lambda call: 1):
    """Make ``handle_packet`` advance fake clocks by a fixed per-packet cost.

    ``wall_ns`` and ``cpu_ns`` map ``filtering_enabled`` to a packet's cost;
    ``load(call)`` scales the cost of the ``call``-th packet (counted from 1).
    """
    clocks = {"wall": 0, "cpu": 0, "calls": 0}

    def handle_packet(gateway, packet):
        clocks["calls"] += 1
        clocks["wall"] += wall_ns[gateway.filtering_enabled] * load(clocks["calls"])
        clocks["cpu"] += cpu_ns[gateway.filtering_enabled] * load(clocks["calls"])

    monkeypatch.setattr(SecurityGateway, "handle_packet", handle_packet)
    fake_time = SimpleNamespace(
        perf_counter_ns=lambda: clocks["wall"], process_time_ns=lambda: clocks["cpu"]
    )
    monkeypatch.setattr(experiments, "time", fake_time)


class TestGatewayTestbed:
    @pytest.mark.parametrize(
        "source, destination, forwarded",
        [
            # D1 is trusted, D2 restricted to the remote server, D3 strict.
            ("D1", "D4", True),
            ("D1", "S_local", True),
            ("D1", "S_remote", True),
            ("D2", "D4", False),
            ("D2", "S_local", False),
            ("D2", "S_remote", True),
            ("D3", "D4", False),
            ("D3", "S_local", False),
            ("D3", "S_remote", False),
        ],
    )
    def test_filtering_verdict_per_table_v_pair(self, source, destination, forwarded):
        testbed = GatewayTestbed(4)
        (packet,) = testbed.packets(source, destination, 1)
        assert testbed.filtering.handle_packet(packet).forwarded is forwarded
        assert testbed.plain.handle_packet(packet).forwarded

    def test_packets_of_a_pair(self):
        packets = GatewayTestbed(4).packets("D2", "S_remote", 5)
        assert [packet.tcp.src_port for packet in packets] == list(range(49152, 49157))
        for packet in packets:
            assert packet.ethernet.src == packets[0].ethernet.src
            endpoints = (packet.ipv4.src, packet.ipv4.dst, packet.tcp.dst_port)
            assert endpoints == ("10.0.0.2", "52.28.10.10", 443)
        # D2 is device 1; the remote server is reached through the router's MAC.
        assert str(packets[0].ethernet.src) == "02:16:3e:00:00:01"
        assert str(packets[0].ethernet.dst) == "02:00:00:00:00:01"

    def test_flows_are_taken_in_turn(self):
        packets = GatewayTestbed(4).flows(7, 16)
        assert len(packets) == 16
        assert [packet.tcp.src_port for packet in packets[:7]] == list(range(49152, 49159))
        for index, packet in enumerate(packets):
            assert packet is packets[index % 7]

    def test_flows_meet_every_destination_kind(self):
        packets = GatewayTestbed(4).flows(9, 9)
        # Flows 0-2 go to the next device, 3-5 to the local server, 6-8 to the remote one.
        assert [packet.ipv4.dst for packet in packets] == [
            "10.0.0.2", "10.0.0.3", "10.0.0.4",
            "192.168.0.2", "192.168.0.2", "192.168.0.2",
            "52.28.10.10", "52.28.10.10", "52.28.10.10",
        ]
        # Flow k starts at device k modulo the four devices.
        assert [packet.ipv4.src for packet in packets] == [f"10.0.0.{k % 4 + 1}" for k in range(9)]

    def test_device_addresses_stay_distinct_past_one_octet(self):
        testbed = GatewayTestbed(300)
        packets = testbed.flows(300, 300)
        assert len({packet.ipv4.src for packet in packets}) == 300
        assert len({packet.ethernet.src for packet in packets}) == 300
        assert packets[255].ipv4.src == "10.0.1.0"
        assert len(testbed.filtering.devices) == len(testbed.plain.devices) == 300

    def test_grow_keeps_the_larger_count(self):
        testbed = GatewayTestbed(7)
        testbed.grow(3)
        assert testbed.device_count == 7
        assert len(testbed.filtering.devices) == len(testbed.plain.devices) == 7
        assert testbed.filtering.switch.rule_count == 9

    def test_passes_alternate_lane_order(self, monkeypatch):
        order = []
        handle_packet = SecurityGateway.handle_packet

        def recording(gateway, packet):
            order.append((gateway.filtering_enabled, packet.ipv4.src))
            return handle_packet(gateway, packet)

        monkeypatch.setattr(SecurityGateway, "handle_packet", recording)
        testbed = GatewayTestbed(4)
        testbed.time([testbed.packets("D1", "D4", 1), testbed.packets("D2", "D4", 1)], passes=2)
        lanes = [(True, "10.0.0.1"), (False, "10.0.0.1"), (True, "10.0.0.2"), (False, "10.0.0.2")]
        # The warm-up (pass -1) and pass 1 run backwards, pass 0 forwards.
        assert order == lanes[::-1] + lanes + lanes[::-1]

    def test_time_reports_per_packet_microseconds(self, monkeypatch):
        _fake_clocks(
            monkeypatch, wall_ns={True: 3000, False: 1000}, cpu_ns={True: 2000, False: 500}
        )
        testbed = GatewayTestbed(4)
        packet_lists = [testbed.packets("D1", "D4", 2), testbed.packets("D3", "D4", 5)]
        costs = testbed.time(packet_lists, passes=3)
        expected = (DatapathCost(3.0, 2.0), DatapathCost(1.0, 0.5))
        assert costs == [expected, expected]

    def test_median_ignores_warm_up_and_one_slow_pass(self, monkeypatch):
        # One list of two packets: the warm-up runs the plain lane (calls 1-2)
        # then the filtering lane (calls 3-4); pass 0 starts with filtering.
        _fake_clocks(
            monkeypatch,
            wall_ns={True: 3000, False: 1000},
            cpu_ns={True: 2000, False: 500},
            load=lambda call: 100 if 3 <= call <= 6 else 1,
        )
        testbed = GatewayTestbed(4)
        ((filtering, plain),) = testbed.time([testbed.packets("D1", "D4", 2)], passes=3)
        assert filtering == DatapathCost(3.0, 2.0)
        assert plain == DatapathCost(1.0, 0.5)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_timing_runs_without_gc_and_restores_it(self, monkeypatch, enabled):
        seen = []
        handle_packet = SecurityGateway.handle_packet

        def recording(gateway, packet):
            seen.append(gc.isenabled())
            return handle_packet(gateway, packet)

        monkeypatch.setattr(SecurityGateway, "handle_packet", recording)
        testbed = GatewayTestbed(4)
        (gc.enable if enabled else gc.disable)()
        try:
            testbed.time([testbed.packets("D1", "D4", 2)], passes=1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen and not any(seen)

    def test_timing_restores_gc_after_an_error(self, monkeypatch):
        def failing(gateway, packet):
            raise RuntimeError("datapath fault")

        monkeypatch.setattr(SecurityGateway, "handle_packet", failing)
        testbed = GatewayTestbed(4)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="datapath fault"):
            testbed.time([testbed.packets("D1", "D4", 1)], passes=1)
        assert gc.isenabled()

    def test_onboarding_memory_counts_switch_rules_per_level(self):
        # Every three devices (trusted, restricted, strict) install four rules.
        filtering = onboarding_memory(True, (3, 6))
        plain = onboarding_memory(False, (3, 6))
        assert [rules for _, rules in filtering] == [4, 8]
        assert [rules for _, rules in plain] == [0, 0]
        assert filtering[1][0] > filtering[0][0] > 0
        assert plain[1][0] > plain[0][0] > 0
        assert not tracemalloc.is_tracing()

    def test_overhead_table_names_each_base(self):
        table = run_overhead_table(path_latency_ms=25.5, device_count=6, **_QUICK)
        assert table.rows["D1D2 Latency"].base == "2 x added delay / 25.5 paper ms path latency"
        assert table.rows["D1D3 Latency"].unit == "measured µs"
        assert table.rows["Memory usage"].base == "bytes traced onboarding 6 devices w/o filtering"
        assert table.rows["Memory usage"].unit == "measured KiB"


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_fig5(self):
        text = format_fig5({"Aria": 1.0, "iKettle2": 0.45}, overall=0.8)
        assert "Aria" in text
        assert "GLOBAL" in text

    def test_format_confusion(self):
        matrix = np.array([[5, 1], [2, 4]])
        text = format_confusion_matrix(matrix, ["A", "B"])
        assert "1 A" in text
        assert "2 B" in text

    def test_format_timing(self):
        text = format_timing_table({"step": (1.5, 0.2)})
        assert "1.500 ms" in text

    def test_format_latency_and_overhead(self):
        latency = format_latency_table([("D1", "D4", 9.2, 3.7)], {"D4": 25.5})
        overhead = format_overhead_table(
            {"CPU utilization": OverheadRow(9.0, 3.6, "measured µs CPU", 150.0, "CPU per call w/o filtering")}
        )
        assert "D1" in latency
        assert "measured µs" in latency and "paper ms" in latency
        # 2 x (9.2 - 3.7) µs of a 25.5 ms path.
        assert "+0.043%" in latency
        assert "+150.000%" in overhead
        assert "measured µs CPU" in overhead and "CPU per call w/o filtering" in overhead

    def test_format_series(self):
        text = format_series("flows", [10, 20], {"With Filtering": [1.0, 2.0], "Without": [1.0, 1.5]})
        assert "flows" in text
        assert "With Filtering" in text
