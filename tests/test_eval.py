"""Tests for the evaluation harness (table/figure runners and reporting)."""

import numpy as np
import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.eval.experiments import (
    evaluate_identification,
    resource_sample,
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
from repro.security_service.service import IoTSecurityService
from repro.simulation.resources import GatewayResourceModel

from tests.conftest import onboard_trace


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


class TestEnforcementExperiments:
    def test_latency_table_shape(self):
        table = run_latency_table(iterations=5, seed=0)
        assert len(table.rows) == 9
        for source, destination, f_mean, f_std, p_mean, p_std in table.rows:
            assert source in ("D1", "D2", "D3")
            assert f_mean > 0 and p_mean > 0
            # Filtering overhead must stay small (the paper's headline claim).
            assert abs(f_mean - p_mean) / p_mean < 0.25

    def test_latency_table_row_lookup(self):
        table = run_latency_table(iterations=5, seed=0)
        row = table.row("D1", "D4")
        assert len(row) == 4
        with pytest.raises(KeyError):
            table.row("D9", "D4")

    def test_overhead_table_in_paper_range(self):
        table = run_overhead_table(iterations=10, repetitions=5, seed=1)
        assert set(table.rows) == {"D1D2 Latency", "D1D3 Latency", "CPU utilization", "Memory usage"}
        assert -2.0 < table.overhead_of("D1D2 Latency") < 15.0
        assert 0.0 <= table.overhead_of("CPU utilization") < 5.0
        assert 0.0 <= table.overhead_of("Memory usage") < 20.0

    def test_latency_vs_flows_series(self):
        series = run_latency_vs_flows(flow_counts=(20, 80, 140), iterations=5, seed=0)
        assert len(series.x_values) == 3
        assert set(series.series) == {
            "D1-D2 w/ filtering",
            "D1-D2 w/o filtering",
            "D1-D3 w/ filtering",
            "D1-D3 w/o filtering",
        }
        for values in series.series.values():
            assert len(values) == 3
            assert all(value > 0 for value in values)

    def test_cpu_vs_flows_monotone_trend(self):
        series = run_cpu_vs_flows(flow_counts=(0, 150), samples_per_point=10, seed=0)
        with_filtering = series.series_of("With Filtering")
        without_filtering = series.series_of("Without Filtering")
        assert with_filtering[1] > with_filtering[0]
        assert without_filtering[1] > without_filtering[0]
        assert with_filtering[1] < 60  # Fig. 6b stays well below saturation

    def test_resource_sample_reflects_rule_cache(self, trained_identifier):
        gateway = SecurityGateway()
        trace = SetupTrafficSimulator(seed=831).simulate(DEVICE_CATALOG["EdnetCam"])
        onboard_trace(gateway, IoTSecurityService(identifier=trained_identifier), trace)
        sample = resource_sample(gateway, GatewayResourceModel(seed=0), concurrent_flows=50)
        assert sample.filtering_enabled
        assert sample.enforcement_rules == len(gateway.rule_cache)
        assert 0 < sample.cpu_percent <= 100
        assert sample.memory_mb > 0

    def test_memory_vs_rules_grows_only_with_filtering(self):
        series = run_memory_vs_rules(rule_counts=(0, 20000), samples_per_point=5, seed=0)
        filtering = series.series_of("With Filtering")
        plain = series.series_of("Without Filtering")
        assert filtering[1] - filtering[0] > 20
        assert abs(plain[1] - plain[0]) < 10

    def test_ablation(self, small_dataset):
        result = run_ablation(small_dataset, n_splits=3, n_estimators=5, random_state=0)
        assert "full pipeline" in result.accuracies
        assert "without edit-distance discrimination" in result.accuracies
        assert all(0.0 <= accuracy <= 1.0 for accuracy in result.accuracies.values())


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
        latency = format_latency_table([("D1", "D4", 24.8, 1.4, 24.5, 1.4)])
        overhead = format_overhead_table({"CPU utilization": (0.63, 1.8)})
        assert "D1" in latency
        assert "+0.63%" in overhead

    def test_format_series(self):
        text = format_series("flows", [10, 20], {"With Filtering": [1.0, 2.0], "Without": [1.0, 1.5]})
        assert "flows" in text
        assert "With Filtering" in text
