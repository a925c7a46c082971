"""Experiment runners for every table and figure of the paper's evaluation.

Each function reproduces the measurement procedure of one table or figure of
Sect. VI; the benchmark modules under ``benchmarks/`` are thin wrappers that
call these runners and print the resulting rows/series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.datasets.builder import FingerprintDataset
from repro.devices.catalog import DEVICE_NAMES, TABLE_III_DEVICES
from repro.devices.simulator import SetupTrafficSimulator
from repro.devices.catalog import DEVICE_CATALOG
from repro.distance.discrimination import (
    DETERMINISTIC_SELECTION,
    RANDOM_SELECTION,
    EditDistanceDiscriminator,
)
from repro.features.fingerprint import Fingerprint
from repro.gateway.enforcement import EnforcementRule, flow_rule_templates
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import DeviceTypeIdentifier
from repro.ml.metrics import confusion_matrix, per_class_accuracy
from repro.ml.validation import StratifiedKFold
from repro.security_service.isolation import IsolationLevel
from repro.simulation.latency import LatencyModel, PathType, processing_delay_ms
from repro.simulation.resources import GatewayResourceModel, ResourceSample
from repro.simulation.workload import ConcurrentFlowWorkload

# --------------------------------------------------------------------------- #
# Fig. 5 and Table III: identification accuracy and confusion.
# --------------------------------------------------------------------------- #


@dataclass
class IdentificationEvaluation:
    """Cross-validated identification results (Fig. 5 + Table III inputs)."""

    y_true: list[str] = field(default_factory=list)
    y_pred: list[str] = field(default_factory=list)
    needed_discrimination: int = 0
    candidate_counts: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def overall_accuracy(self) -> float:
        true = np.asarray(self.y_true, dtype=object)
        pred = np.asarray(self.y_pred, dtype=object)
        return float(np.mean(true == pred))

    @property
    def per_type_accuracy(self) -> dict[str, float]:
        accuracy = per_class_accuracy(self.y_true, self.y_pred)
        ordered = {name: accuracy[name] for name in DEVICE_NAMES if name in accuracy}
        for name, value in accuracy.items():
            if name not in ordered:
                ordered[name] = value
        return ordered

    @property
    def discrimination_fraction(self) -> float:
        """Fraction of fingerprints accepted by more than one classifier."""
        return self.needed_discrimination / len(self.y_true) if self.y_true else 0.0

    @property
    def mean_candidates_when_ambiguous(self) -> float:
        ambiguous = [count for count in self.candidate_counts if count > 1]
        return float(np.mean(ambiguous)) if ambiguous else 0.0

    def confusion(self, labels: Optional[Sequence[str]] = None) -> tuple[np.ndarray, list]:
        return confusion_matrix(self.y_true, self.y_pred, labels=labels)


def evaluate_identification(
    dataset: FingerprintDataset,
    n_splits: int = 10,
    repetitions: int = 1,
    n_estimators: int = 10,
    negative_ratio: float = 10.0,
    use_discrimination: bool = True,
    random_state: int = 0,
) -> IdentificationEvaluation:
    """Stratified k-fold cross-validation of the identification pipeline.

    This is the experiment behind Fig. 5 and Table III: at each fold one
    binary classifier per device-type is trained on the training split
    (positives = the type's fingerprints, negatives = a ``negative_ratio x n``
    subsample of the rest) and every test fingerprint runs through
    classification plus, when needed, edit-distance discrimination.
    """
    labels = dataset.labels
    evaluation = IdentificationEvaluation()
    start = time.perf_counter()
    for repetition in range(repetitions):
        splitter = StratifiedKFold(
            n_splits=n_splits, shuffle=True, random_state=random_state + repetition
        )
        for train_indices, test_indices in splitter.split(labels):
            registry = dataset.to_registry(train_indices)
            identifier = DeviceTypeIdentifier.train(
                registry,
                negative_ratio=negative_ratio,
                n_estimators=n_estimators,
                random_state=random_state + repetition,
            )
            for index in test_indices:
                fingerprint = dataset.fingerprints[int(index)]
                result = identifier.identify(fingerprint, use_discrimination=use_discrimination)
                evaluation.y_true.append(fingerprint.device_type)
                evaluation.y_pred.append(result.device_type)
                evaluation.candidate_counts.append(len(result.matched_types))
                if result.needed_discrimination:
                    evaluation.needed_discrimination += 1
    evaluation.elapsed_seconds = time.perf_counter() - start
    return evaluation


def table_iii_confusion(
    evaluation: IdentificationEvaluation,
    devices: Sequence[str] = TABLE_III_DEVICES,
) -> tuple[np.ndarray, list[str]]:
    """Restrict the confusion matrix to the ten confusable devices of Table III."""
    matrix, labels = evaluation.confusion(labels=list(devices))
    return matrix, list(labels)


# --------------------------------------------------------------------------- #
# Table IV: identification timing.
# --------------------------------------------------------------------------- #


@dataclass
class TimingSummary:
    """Mean/stdev wall-clock timings (milliseconds) of the pipeline steps."""

    rows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def mean_of(self, step: str) -> float:
        return self.rows[step][0]


def _mean_std_ms(samples: Sequence[float]) -> tuple[float, float]:
    values = np.asarray(samples) * 1000.0
    return float(values.mean()), float(values.std())


def run_timing(
    dataset: Optional[FingerprintDataset] = None,
    identifier: Optional[DeviceTypeIdentifier] = None,
    samples: int = 50,
    random_state: int = 0,
    classifications_per_identification: Optional[int] = None,
    discriminations_per_identification: int = 7,
) -> TimingSummary:
    """Table IV: time consumption of each identification step.

    Measures (a) one Random-Forest classification, (b) one edit-distance
    computation (one reference pair scored by the discriminator's
    ``score_type``, the kernel identification runs), (c) one fingerprint
    extraction from a packet trace, and the composite rows: one
    classification per known type, the average number of edit-distance
    computations per identification (7 in the paper's setup) and the
    resulting total type-identification time.
    """
    if dataset is None:
        from repro.datasets.builder import generate_fingerprint_dataset

        dataset = generate_fingerprint_dataset(runs_per_type=6, seed=random_state)
    if identifier is None:
        identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=random_state)

    rng = np.random.default_rng(random_state)
    fingerprints = dataset.fingerprints
    type_count = len(identifier.known_device_types)
    classifications_per_identification = classifications_per_identification or type_count

    single_classifier = identifier.bank.classifier_of(identifier.known_device_types[0])

    classification_times: list[float] = []
    distance_times: list[float] = []
    extraction_times: list[float] = []
    all_classification_times: list[float] = []
    identification_times: list[float] = []

    simulator = SetupTrafficSimulator(seed=random_state)
    profiles = [DEVICE_CATALOG[name] for name in dataset.device_types if name in DEVICE_CATALOG]

    # One untimed call per row first: a cold first call (reference
    # encodings, allocator growth) is not the steady state the table
    # reports.  The warm-up trace comes from its own simulator and draws
    # nothing from ``rng``, so the timed samples are the same as without it.
    warm, warm_other = fingerprints[0], fingerprints[-1]
    single_classifier.accepts(warm.to_fixed_vector())
    identifier.discriminator.score_type(
        warm, warm_other.device_type, [warm_other], salt=identifier.revision
    )
    if profiles:
        Fingerprint.from_packets(
            SetupTrafficSimulator(seed=random_state).simulate(profiles[0]).packets
        )
    identifier.bank.matching_types(warm)
    identifier.identify(warm)

    for _ in range(samples):
        fingerprint = fingerprints[int(rng.integers(0, len(fingerprints)))]
        other = fingerprints[int(rng.integers(0, len(fingerprints)))]
        fixed = fingerprint.to_fixed_vector()

        start = time.perf_counter()
        single_classifier.accepts(fixed)
        classification_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        identifier.discriminator.score_type(
            fingerprint, other.device_type, [other], salt=identifier.revision
        )
        distance_times.append(time.perf_counter() - start)

        if profiles:
            trace = simulator.simulate(profiles[int(rng.integers(0, len(profiles)))])
            start = time.perf_counter()
            Fingerprint.from_packets(trace.packets)
            extraction_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        identifier.bank.matching_types(fingerprint)
        all_classification_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        identifier.identify(fingerprint)
        identification_times.append(time.perf_counter() - start)

    single_classification = _mean_std_ms(classification_times)
    single_distance = _mean_std_ms(distance_times)
    extraction = _mean_std_ms(extraction_times) if extraction_times else (0.0, 0.0)
    all_classifications = _mean_std_ms(all_classification_times)
    discriminations = (
        single_distance[0] * discriminations_per_identification,
        single_distance[1] * discriminations_per_identification,
    )
    type_identification = (
        extraction[0] + all_classifications[0] + discriminations[0],
        float(np.sqrt(extraction[1] ** 2 + all_classifications[1] ** 2 + discriminations[1] ** 2)),
    )

    summary = TimingSummary()
    summary.rows["1 Classification (Random Forest)"] = single_classification
    summary.rows["1 Discrimination (edit distance)"] = single_distance
    summary.rows["Fingerprint extraction"] = extraction
    summary.rows[f"{classifications_per_identification} Classifications (Random Forest)"] = all_classifications
    summary.rows[f"{discriminations_per_identification} Discriminations (edit distance)"] = discriminations
    summary.rows["Type Identification"] = type_identification
    summary.rows["Measured full identification"] = _mean_std_ms(identification_times)
    return summary


# --------------------------------------------------------------------------- #
# Tables V / VI and Fig. 6: enforcement overhead.
# --------------------------------------------------------------------------- #

#: Source devices and destinations of Table V.
TABLE_V_SOURCES = ("D1", "D2", "D3")
TABLE_V_DESTINATIONS = ("D4", "S_local", "S_remote")

_PATH_OF_DESTINATION = {
    "D4": PathType.WIRELESS_TO_WIRELESS,
    "S_local": PathType.WIRELESS_TO_LOCAL_SERVER,
    "S_remote": PathType.WIRELESS_TO_REMOTE_SERVER,
}

#: Per-device radio-quality offsets (ms) reproducing the spread of Table V.
_DEVICE_OFFSETS_MS = {"D1": -1.0, "D2": 1.5, "D3": 0.8}


@dataclass
class LatencyTable:
    """Table V: mean/stdev latency per pair, with and without filtering."""

    rows: list[tuple[str, str, float, float, float, float]] = field(default_factory=list)

    def row(self, source: str, destination: str) -> tuple[float, float, float, float]:
        for row in self.rows:
            if row[0] == source and row[1] == destination:
                return row[2], row[3], row[4], row[5]
        raise KeyError(f"no row for {source} -> {destination}")


def resource_sample(
    gateway: SecurityGateway, model: GatewayResourceModel, concurrent_flows: int
) -> ResourceSample:
    """Sample ``gateway``'s modelled CPU/memory for a given flow load."""
    return model.sample(
        concurrent_flows=concurrent_flows,
        enforcement_rules=len(gateway.rule_cache),
        filtering_enabled=gateway.filtering_enabled,
    )


def _build_loaded_gateway(filtering_enabled: bool, device_count: int, seed: int) -> SecurityGateway:
    """A gateway with ``device_count`` devices and enforcement rules installed."""
    gateway = SecurityGateway(filtering_enabled=filtering_enabled)
    workload = ConcurrentFlowWorkload(device_count=max(2, device_count), seed=seed)
    levels = [IsolationLevel.TRUSTED, IsolationLevel.RESTRICTED, IsolationLevel.STRICT]
    for index in range(device_count):
        mac = workload.device_mac(index)
        gateway.connect_device(mac, ip_address=workload.device_ip(index))
        level = levels[index % len(levels)]
        allowed = ("52.28.10.10", "52.28.10.11") if level is IsolationLevel.RESTRICTED else ()
        rule = EnforcementRule(
            device_mac=mac,
            isolation_level=level,
            allowed_destinations=allowed,
            device_type=f"device-{index}",
        )
        gateway.rule_cache.store(rule)
        record = gateway.devices[mac]
        record.isolation_level = level
        record.enforcement_rule = rule
        if filtering_enabled:
            for template in flow_rule_templates(level, allowed):
                gateway.switch.install_rule(template.stamp(mac, f"enforce-{mac}"))
    return gateway


def _modelled_delay_ms(gateway: SecurityGateway) -> float:
    """The latency model's per-traversal processing cost of ``gateway``."""
    return processing_delay_ms(gateway.filtering_enabled, len(gateway.rule_cache))


def run_latency_table(
    iterations: int = 15,
    concurrent_flows: int = 20,
    device_count: int = 20,
    seed: int = 0,
) -> LatencyTable:
    """Table V: probe latency for each device/server pair, filtering on vs off."""
    table = LatencyTable()
    gateway_filtering = _build_loaded_gateway(True, device_count, seed)
    gateway_plain = _build_loaded_gateway(False, device_count, seed)
    model_filtering = LatencyModel(seed=seed, device_offsets_ms=_DEVICE_OFFSETS_MS)
    model_plain = LatencyModel(seed=seed + 1, device_offsets_ms=_DEVICE_OFFSETS_MS)

    for source in TABLE_V_SOURCES:
        for destination in TABLE_V_DESTINATIONS:
            path = _PATH_OF_DESTINATION[destination]
            with_filtering = model_filtering.sample_many(
                path,
                iterations,
                gateway_processing_ms=_modelled_delay_ms(gateway_filtering),
                concurrent_flows=concurrent_flows,
                source_device=source,
            )
            without_filtering = model_plain.sample_many(
                path,
                iterations,
                gateway_processing_ms=_modelled_delay_ms(gateway_plain),
                concurrent_flows=concurrent_flows,
                source_device=source,
            )
            table.rows.append(
                (
                    source,
                    destination,
                    float(with_filtering.mean()),
                    float(with_filtering.std()),
                    float(without_filtering.mean()),
                    float(without_filtering.std()),
                )
            )
    return table


@dataclass
class OverheadTable:
    """Table VI: relative overhead of the filtering mechanism."""

    rows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def overhead_of(self, case: str) -> float:
        return self.rows[case][0]


def run_overhead_table(
    iterations: int = 15,
    repetitions: int = 10,
    concurrent_flows: int = 60,
    device_count: int = 40,
    seed: int = 0,
) -> OverheadTable:
    """Table VI: latency, CPU and memory overhead of enabling filtering."""
    gateway_filtering = _build_loaded_gateway(True, device_count, seed)
    gateway_plain = _build_loaded_gateway(False, device_count, seed)
    resources_filtering = GatewayResourceModel(seed=seed)
    resources_plain = GatewayResourceModel(seed=seed)

    latency_overheads_d1d2: list[float] = []
    latency_overheads_d1d3: list[float] = []
    cpu_overheads: list[float] = []
    memory_overheads: list[float] = []

    for repetition in range(repetitions):
        model_filtering = LatencyModel(seed=seed + repetition, device_offsets_ms=_DEVICE_OFFSETS_MS)
        model_plain = LatencyModel(seed=seed + repetition, device_offsets_ms=_DEVICE_OFFSETS_MS)
        for bucket, source in ((latency_overheads_d1d2, "D2"), (latency_overheads_d1d3, "D3")):
            with_filtering = model_filtering.sample_many(
                PathType.WIRELESS_TO_WIRELESS,
                iterations,
                gateway_processing_ms=_modelled_delay_ms(gateway_filtering),
                concurrent_flows=concurrent_flows,
                source_device=source,
            )
            without_filtering = model_plain.sample_many(
                PathType.WIRELESS_TO_WIRELESS,
                iterations,
                gateway_processing_ms=_modelled_delay_ms(gateway_plain),
                concurrent_flows=concurrent_flows,
                source_device=source,
            )
            bucket.append(
                100.0 * (with_filtering.mean() - without_filtering.mean()) / without_filtering.mean()
            )

        cpu_with = resource_sample(
            gateway_filtering, resources_filtering, concurrent_flows
        ).cpu_percent
        cpu_without = resource_sample(gateway_plain, resources_plain, concurrent_flows).cpu_percent
        cpu_overheads.append(100.0 * (cpu_with - cpu_without) / cpu_without)

        memory_with = resource_sample(
            gateway_filtering, resources_filtering, concurrent_flows
        ).memory_mb
        memory_without = resource_sample(gateway_plain, resources_plain, concurrent_flows).memory_mb
        memory_overheads.append(100.0 * (memory_with - memory_without) / memory_without)

    table = OverheadTable()
    table.rows["D1D2 Latency"] = (float(np.mean(latency_overheads_d1d2)), float(np.std(latency_overheads_d1d2)))
    table.rows["D1D3 Latency"] = (float(np.mean(latency_overheads_d1d3)), float(np.std(latency_overheads_d1d3)))
    table.rows["CPU utilization"] = (float(np.mean(cpu_overheads)), float(np.std(cpu_overheads)))
    table.rows["Memory usage"] = (float(np.mean(memory_overheads)), float(np.std(memory_overheads)))
    return table


@dataclass
class ResourceSeries:
    """A figure series: x values plus named y series (Fig. 6a/6b/6c)."""

    x_label: str
    x_values: list[float] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def series_of(self, name: str) -> list[float]:
        return self.series[name]


def run_latency_vs_flows(
    flow_counts: Sequence[int] = tuple(range(20, 160, 10)),
    iterations: int = 15,
    device_count: int = 20,
    seed: int = 0,
) -> ResourceSeries:
    """Fig. 6a: device-to-device latency against the number of concurrent flows."""
    gateway_filtering = _build_loaded_gateway(True, device_count, seed)
    gateway_plain = _build_loaded_gateway(False, device_count, seed)
    result = ResourceSeries(x_label="concurrent_flows", x_values=[float(count) for count in flow_counts])
    for label, gateway, path in (
        ("D1-D2 w/ filtering", gateway_filtering, PathType.WIRELESS_TO_WIRELESS),
        ("D1-D2 w/o filtering", gateway_plain, PathType.WIRELESS_TO_WIRELESS),
        ("D1-D3 w/ filtering", gateway_filtering, PathType.WIRELESS_TO_LOCAL_SERVER),
        ("D1-D3 w/o filtering", gateway_plain, PathType.WIRELESS_TO_LOCAL_SERVER),
    ):
        model = LatencyModel(seed=seed, device_offsets_ms=_DEVICE_OFFSETS_MS)
        values = []
        for flow_count in flow_counts:
            samples = model.sample_many(
                path,
                iterations,
                gateway_processing_ms=_modelled_delay_ms(gateway),
                concurrent_flows=int(flow_count),
                source_device="D1",
            )
            values.append(float(samples.mean()))
        result.series[label] = values
    return result


def run_cpu_vs_flows(
    flow_counts: Sequence[int] = tuple(range(0, 160, 10)),
    device_count: int = 20,
    samples_per_point: int = 5,
    seed: int = 0,
) -> ResourceSeries:
    """Fig. 6b: Security Gateway CPU utilisation against concurrent flows."""
    gateway_filtering = _build_loaded_gateway(True, device_count, seed)
    gateway_plain = _build_loaded_gateway(False, device_count, seed)
    result = ResourceSeries(x_label="concurrent_flows", x_values=[float(count) for count in flow_counts])
    for label, gateway in (("With Filtering", gateway_filtering), ("Without Filtering", gateway_plain)):
        model = GatewayResourceModel(seed=seed)
        values = []
        for flow_count in flow_counts:
            samples = [
                resource_sample(gateway, model, int(flow_count)).cpu_percent
                for _ in range(samples_per_point)
            ]
            values.append(float(np.mean(samples)))
        result.series[label] = values
    return result


def run_memory_vs_rules(
    rule_counts: Sequence[int] = (0, 2500, 5000, 7500, 10000, 12500, 15000, 17500, 20000),
    samples_per_point: int = 5,
    seed: int = 0,
) -> ResourceSeries:
    """Fig. 6c: Security Gateway memory against the number of enforcement rules."""
    result = ResourceSeries(x_label="enforcement_rules", x_values=[float(count) for count in rule_counts])
    model_filtering = GatewayResourceModel(seed=seed)
    model_plain = GatewayResourceModel(seed=seed + 1)
    values_filtering = []
    values_plain = []
    for rule_count in rule_counts:
        values_filtering.append(
            float(
                np.mean(
                    [
                        model_filtering.memory_usage_mb(int(rule_count), filtering_enabled=True)
                        for _ in range(samples_per_point)
                    ]
                )
            )
        )
        values_plain.append(
            float(
                np.mean(
                    [
                        model_plain.memory_usage_mb(int(rule_count), filtering_enabled=False)
                        for _ in range(samples_per_point)
                    ]
                )
            )
        )
    result.series["With Filtering"] = values_filtering
    result.series["Without Filtering"] = values_plain
    return result


# --------------------------------------------------------------------------- #
# Ablations (our addition, motivated by the design choices of Sect. IV).
# --------------------------------------------------------------------------- #


@dataclass
class AblationResult:
    """Overall accuracy of the pipeline under different configurations."""

    accuracies: dict[str, float] = field(default_factory=dict)


def run_ablation(
    dataset: FingerprintDataset,
    n_splits: int = 5,
    n_estimators: int = 10,
    random_state: int = 0,
) -> AblationResult:
    """Ablation: edit-distance stage, negative-subsample ratio and F' length."""
    result = AblationResult()
    baseline = evaluate_identification(
        dataset, n_splits=n_splits, n_estimators=n_estimators, random_state=random_state
    )
    result.accuracies["full pipeline"] = baseline.overall_accuracy

    no_discrimination = evaluate_identification(
        dataset,
        n_splits=n_splits,
        n_estimators=n_estimators,
        use_discrimination=False,
        random_state=random_state,
    )
    result.accuracies["without edit-distance discrimination"] = no_discrimination.overall_accuracy

    small_negative = evaluate_identification(
        dataset,
        n_splits=n_splits,
        n_estimators=n_estimators,
        negative_ratio=2.0,
        random_state=random_state,
    )
    result.accuracies["negative ratio 2x"] = small_negative.overall_accuracy

    return result


# --------------------------------------------------------------------------- #
# Reference-selection ablation: the paper's random draw vs the deterministic
# per-fingerprint draw (the bugfix for borderline-verdict instability).
# --------------------------------------------------------------------------- #


@dataclass
class SelectionAblationResult:
    """Random vs deterministic reference selection, per mode.

    Attributes:
        accuracies: overall identification accuracy (first pass).
        verdict_stability: fraction of test fingerprints whose verdict
            (``device_type``) is identical across every repeated
            identification -- the reproducibility headline.  1.0 means no
            fingerprint ever flipped.
        flipped: count of test fingerprints that received more than one
            distinct verdict across the repeats.
        repeats: how many times each fingerprint was identified.
    """

    accuracies: dict[str, float] = field(default_factory=dict)
    verdict_stability: dict[str, float] = field(default_factory=dict)
    flipped: dict[str, int] = field(default_factory=dict)
    repeats: int = 0


def run_selection_ablation(
    dataset: FingerprintDataset,
    n_splits: int = 5,
    repeats: int = 5,
    n_estimators: int = 10,
    random_state: int = 0,
) -> SelectionAblationResult:
    """Ablation: paper-style random reference draw vs deterministic draw.

    One stratified train/test split; a single identifier is trained once
    and its discriminator swapped between modes, so the classifier stage
    is held constant and only the reference-selection policy varies.
    Every test fingerprint is identified ``repeats`` times per mode:
    accuracy comes from the first pass, stability from comparing all
    passes.  The deterministic draw must be perfectly stable by
    construction; the random draw exhibits the borderline-verdict flips
    that motivated the fix.
    """
    labels = dataset.labels
    splitter = StratifiedKFold(n_splits=n_splits, shuffle=True, random_state=random_state)
    train_indices, test_indices = next(iter(splitter.split(labels)))
    registry = dataset.to_registry(train_indices)
    identifier = DeviceTypeIdentifier.train(
        registry, n_estimators=n_estimators, random_state=random_state
    )
    references_per_type = identifier.discriminator.references_per_type
    probes = [dataset.fingerprints[int(index)] for index in test_indices]

    result = SelectionAblationResult(repeats=repeats)
    modes = {
        "deterministic draw": EditDistanceDiscriminator(
            references_per_type=references_per_type, selection=DETERMINISTIC_SELECTION
        ),
        "random draw (paper)": EditDistanceDiscriminator(
            references_per_type=references_per_type,
            selection=RANDOM_SELECTION,
            rng=np.random.default_rng(random_state),
        ),
    }
    for mode, discriminator in modes.items():
        identifier.discriminator = discriminator
        passes = [identifier.identify_many(probes) for _ in range(repeats)]
        first = [outcome.device_type for outcome in passes[0]]
        correct = sum(
            1
            for probe, predicted in zip(probes, first)
            if predicted == probe.device_type
        )
        flipped = 0
        for row in range(len(probes)):
            verdicts = {passes[column][row].device_type for column in range(repeats)}
            if len(verdicts) > 1:
                flipped += 1
        result.accuracies[mode] = correct / len(probes) if probes else 0.0
        result.verdict_stability[mode] = (
            (len(probes) - flipped) / len(probes) if probes else 1.0
        )
        result.flipped[mode] = flipped
    return result
