"""Experiment runners for every table and figure of the paper's evaluation.

Each function reproduces the measurement procedure of one table or figure of
Sect. VI; the benchmark modules under ``benchmarks/`` are thin wrappers that
call these runners and print the resulting rows/series.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.datasets.builder import FingerprintDataset
from repro.devices.catalog import DEVICE_CATALOG, DEVICE_NAMES, TABLE_III_DEVICES
from repro.devices.simulator import SetupTrafficSimulator
from repro.distance.discrimination import (
    DETERMINISTIC_SELECTION,
    RANDOM_SELECTION,
    EditDistanceDiscriminator,
)
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import DeviceTypeIdentifier
from repro.ml.metrics import confusion_matrix, per_class_accuracy
from repro.ml.validation import StratifiedKFold
from repro.net.addresses import MACAddress
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import PROTO_TCP, IPv4Header
from repro.net.layers.tcp import TCPSegment
from repro.net.packet import Packet
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import SecurityAssessment

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
# Tables V / VI and Fig. 6: enforcement overhead, measured on the datapath.
# --------------------------------------------------------------------------- #

#: Table V's sources, a trusted, a restricted and a strict device, and its
#: destinations: another device, a local server and a remote server.
TABLE_V_SOURCES = ("D1", "D2", "D3")
TABLE_V_DESTINATIONS = ("D4", "S_local", "S_remote")
_TABLE_V_PAIRS = [(source, destination) for source in TABLE_V_SOURCES for destination in TABLE_V_DESTINATIONS]
#: The servers' MAC and IP; the remote one is reached through the router's MAC.
_SERVERS = {
    "S_local": (MACAddress(0x02_00_00_00_00_FE), "192.168.0.2"),
    "S_remote": (MACAddress(0x02_00_00_00_00_01), "52.28.10.10"),
}
#: One assessment per level, shared by its devices as the security service
#: shares one per device-type; the restricted level may reach the remote server.
_ASSESSMENTS = tuple(
    SecurityAssessment(
        f"{level.value}-device",
        level,
        allowed_destinations=(_SERVERS["S_remote"][1],) if level is IsolationLevel.RESTRICTED else (),
    )
    for level in (IsolationLevel.TRUSTED, IsolationLevel.RESTRICTED, IsolationLevel.STRICT)
)


def _device(index: int) -> tuple[MACAddress, str]:
    """MAC and IPv4 address of onboarded device ``index``."""
    host = index + 1
    return MACAddress(0x02_16_3E_00_00_00 + index), f"10.{host >> 16 & 255}.{host >> 8 & 255}.{host & 255}"


def _onboard(gateway: SecurityGateway, start: int, stop: int) -> None:
    """Onboard devices ``start`` to ``stop - 1``; levels cycle trusted / restricted / strict."""
    for index in range(start, stop):
        gateway.apply_assessment(_device(index)[0], _ASSESSMENTS[index % 3])


def _tcp_packet(source: tuple[MACAddress, str], destination: tuple[MACAddress, str], src_port: int) -> Packet:
    return Packet(
        ethernet=EthernetFrame(dst=destination[0], src=source[0], ethertype=ETHERTYPE.IPV4),
        ipv4=IPv4Header(src=source[1], dst=destination[1], protocol=PROTO_TCP),
        tcp=TCPSegment(src_port=src_port, dst_port=443),
    )


class DatapathCost(NamedTuple):
    """Median per-packet cost of ``SecurityGateway.handle_packet``, in microseconds."""

    wall_us: float
    cpu_us: float


def _median_costs(
    lanes: Sequence[tuple[SecurityGateway, Sequence[Packet]]], passes: int
) -> list[DatapathCost]:
    """Median per-packet cost of each ``(gateway, packets)`` lane over ``passes``.

    One untimed pass per lane warms up.  Every timed pass then runs every
    lane, forwards on even passes and backwards on odd ones, so a swing
    in host load lands on all lanes alike.  As in :mod:`timeit`, garbage
    collection is off meanwhile, so a collection owed to earlier
    allocations does not land in one pass.  Wall time is
    ``perf_counter_ns``, CPU time ``process_time_ns``.
    """
    samples: list[list[tuple[int, int]]] = [[] for _ in lanes]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for index in range(-1, passes):  # pass -1 is the warm-up
            for lane in range(len(lanes))[:: 1 if index % 2 == 0 else -1]:
                gateway, packets = lanes[lane]
                handle = gateway.handle_packet
                wall, cpu = time.perf_counter_ns(), time.process_time_ns()
                for packet in packets:
                    handle(packet)
                if index >= 0:
                    samples[lane].append((time.perf_counter_ns() - wall, time.process_time_ns() - cpu))
    finally:
        if collecting:
            gc.enable()
    return [
        DatapathCost(*(float(np.median(clock)) / (1000.0 * len(packets)) for clock in zip(*lane_samples)))
        for lane_samples, (_, packets) in zip(samples, lanes)
    ]


class GatewayTestbed:
    """A filtering and a non-filtering gateway, onboarded alike, and their traffic.

    Every runner of Tables V / VI and Fig. 6 measures through this one
    testbed.  Devices join through :meth:`SecurityGateway.apply_assessment`
    with levels cycling trusted / restricted / strict, so Table V's D1-D3
    (devices 0-2) are one source of each level and D4 (device 3) a further
    device.  :meth:`time` sends the same TCP packets through both.
    """

    def __init__(self, device_count: int) -> None:
        self.filtering = SecurityGateway(filtering_enabled=True)
        self.plain = SecurityGateway(filtering_enabled=False)
        self.device_count = 0
        self.grow(device_count)

    def grow(self, device_count: int) -> None:
        """Onboard further devices until both gateways hold ``device_count``."""
        for gateway in (self.filtering, self.plain):
            _onboard(gateway, self.device_count, device_count)
        self.device_count = max(self.device_count, device_count)

    def packets(self, source: str, destination: str, count: int) -> list[Packet]:
        """``count`` packets of one Table V pair (``"D1"``, ..., ``"S_local"``, ``"S_remote"``)."""
        def endpoint(name: str) -> tuple[MACAddress, str]:
            return _SERVERS[name] if name in _SERVERS else _device(int(name[1:]) - 1)

        return [_tcp_packet(endpoint(source), endpoint(destination), 49152 + port) for port in range(count)]

    def flows(self, flow_count: int, count: int) -> list[Packet]:
        """``count`` packets taken in turn from ``flow_count`` concurrent TCP flows.

        Flow ``k`` runs from device ``k`` (modulo the device count) to the
        next device, the local server or the remote server, so every level
        meets every destination kind.
        """
        devices = self.device_count
        destinations = [(_device((k + 1) % devices), *_SERVERS.values())[k // 3 % 3] for k in range(flow_count)]
        flows = [_tcp_packet(_device(k % devices), destinations[k], 49152 + k) for k in range(flow_count)]
        return [flows[index % flow_count] for index in range(count)]

    def time(
        self, packet_lists: Sequence[Sequence[Packet]], passes: int
    ) -> list[tuple[DatapathCost, DatapathCost]]:
        """Per-packet cost of each list, filtering on and off, all in the same passes."""
        gateways = (self.filtering, self.plain)
        lanes = [(gateway, packets) for packets in packet_lists for gateway in gateways]
        costs = _median_costs(lanes, passes)
        return list(zip(costs[::2], costs[1::2]))


def added_latency_share(filtering_us: float, plain_us: float, path_ms: float) -> float:
    """Filtering's added delay on a round trip (two gateway traversals) as a share of a path's latency."""
    return 2.0 * (filtering_us - plain_us) / (1000.0 * path_ms)


def onboarding_memory(filtering_enabled: bool, device_counts: Sequence[int]) -> list[tuple[int, int]]:
    """Bytes ``tracemalloc`` traces and switch rules installed as one gateway onboards up to each count."""
    gateway = SecurityGateway(filtering_enabled=filtering_enabled)
    points = []
    tracemalloc.start()
    try:
        for start, stop in zip((0, *device_counts), device_counts):
            _onboard(gateway, start, stop)
            points.append((tracemalloc.get_traced_memory()[0], gateway.switch.rule_count))
    finally:
        tracemalloc.stop()
    return points


@dataclass
class LatencyTable:
    """Table V: per-packet gateway delay (µs) per pair, filtering on and off."""

    rows: list[tuple[str, str, float, float]] = field(default_factory=list)

    def row(self, source: str, destination: str) -> tuple[float, float]:
        for row in self.rows:
            if row[0] == source and row[1] == destination:
                return row[2], row[3]
        raise KeyError(f"no row for {source} -> {destination}")


def run_latency_table(device_count: int = 20, passes: int = 15, packets_per_pass: int = 200) -> LatencyTable:
    """Table V: measured per-packet ``handle_packet`` time for every source/destination pair."""
    testbed = GatewayTestbed(device_count)
    costs = testbed.time([testbed.packets(*pair, packets_per_pass) for pair in _TABLE_V_PAIRS], passes)
    return LatencyTable([(*pair, on.wall_us, off.wall_us) for pair, (on, off) in zip(_TABLE_V_PAIRS, costs)])


class OverheadRow(NamedTuple):
    """One Table VI row: both measured values and the overhead against a named base."""

    with_filtering: float
    without_filtering: float
    unit: str
    overhead_percent: float
    base: str


@dataclass
class OverheadTable:
    """Table VI: what enabling filtering costs, per row against its named base."""

    rows: dict[str, OverheadRow] = field(default_factory=dict)

    def overhead_of(self, case: str) -> float:
        return self.rows[case].overhead_percent


def run_overhead_table(
    path_latency_ms: float,
    device_count: int = 40,
    concurrent_flows: int = 60,
    passes: int = 15,
    packets_per_pass: int = 200,
) -> OverheadTable:
    """Table VI: latency, CPU and memory overhead of enabling filtering.

    The latency rows time D1's packets to D2 and to D3 and report the
    added round-trip delay as a share of ``path_latency_ms``, the
    device-to-device path latency without filtering (supplied by the
    caller: this host has no radio path).  The CPU row compares CPU time
    per call over ``concurrent_flows`` flows, the memory row the bytes
    traced while onboarding ``device_count`` devices.
    """
    testbed = GatewayTestbed(device_count)
    d1d2, d1d3, (filtering, plain) = testbed.time(
        [
            testbed.packets("D1", "D2", packets_per_pass),
            testbed.packets("D1", "D3", packets_per_pass),
            testbed.flows(concurrent_flows, packets_per_pass),
        ],
        passes,
    )
    table = OverheadTable()
    for case, (on, off) in (("D1D2 Latency", d1d2), ("D1D3 Latency", d1d3)):
        share = 100.0 * added_latency_share(on.wall_us, off.wall_us, path_latency_ms)
        base = f"2 x added delay / {path_latency_ms:g} paper ms path latency"
        table.rows[case] = OverheadRow(on.wall_us, off.wall_us, "measured µs", share, base)
    overhead = 100.0 * (filtering.cpu_us - plain.cpu_us) / plain.cpu_us
    table.rows["CPU utilization"] = OverheadRow(
        filtering.cpu_us, plain.cpu_us, "measured µs CPU", overhead, "CPU per handle_packet call w/o filtering"
    )
    # Without filtering first: shared memos (MAC text) filled by the first
    # run make the second one cheaper, which must not shrink the base.
    plain_bytes = onboarding_memory(False, (device_count,))[0][0]
    filtering_bytes = onboarding_memory(True, (device_count,))[0][0]
    overhead = 100.0 * (filtering_bytes - plain_bytes) / plain_bytes
    base = f"bytes traced onboarding {device_count} devices w/o filtering"
    table.rows["Memory usage"] = OverheadRow(
        filtering_bytes / 1024, plain_bytes / 1024, "measured KiB", overhead, base
    )
    return table


@dataclass
class ResourceSeries:
    """A figure series: x values plus named y series (Fig. 6a/6b/6c)."""

    x_label: str
    x_values: list[float] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def series_of(self, name: str) -> list[float]:
        return self.series[name]


def _flow_series(
    flow_counts: Sequence[int], device_count: int, passes: int, packets_per_pass: int, clock: str
) -> ResourceSeries:
    """Per-packet cost (``clock``: ``"wall_us"`` or ``"cpu_us"``) at each flow count, one sweep per pass."""
    testbed = GatewayTestbed(device_count)
    costs = testbed.time([testbed.flows(count, packets_per_pass) for count in flow_counts], passes)
    series = {
        "With Filtering": [getattr(filtering, clock) for filtering, _ in costs],
        "Without Filtering": [getattr(plain, clock) for _, plain in costs],
    }
    return ResourceSeries("concurrent_flows", [float(count) for count in flow_counts], series)


def run_latency_vs_flows(
    flow_counts: Sequence[int] = tuple(range(20, 160, 10)),
    device_count: int = 20,
    passes: int = 25,
    packets_per_pass: int = 200,
) -> ResourceSeries:
    """Fig. 6a: measured per-packet delay (µs) against the number of concurrent flows."""
    return _flow_series(flow_counts, device_count, passes, packets_per_pass, "wall_us")


def run_cpu_vs_flows(
    flow_counts: Sequence[int] = tuple(range(20, 160, 10)),
    device_count: int = 20,
    passes: int = 25,
    packets_per_pass: int = 200,
) -> ResourceSeries:
    """Fig. 6b: measured per-packet CPU time (µs) against the number of concurrent flows."""
    return _flow_series(flow_counts, device_count, passes, packets_per_pass, "cpu_us")


#: Series names of :func:`run_memory_vs_rules`.
MEMORY_WITH, MEMORY_WITHOUT = "w/ filtering (measured MiB)", "w/o filtering (measured MiB)"
RULES_WITH, RULES_WITHOUT = "w/ filtering switch rules", "w/o filtering switch rules"
DELAY_WITH, DELAY_WITHOUT = "w/ filtering (measured µs/packet)", "w/o filtering (measured µs/packet)"
DELAY_REFERENCE = "reference w/ filtering (measured µs/packet)"


def run_memory_vs_rules(
    rule_counts: Sequence[int] = (40, 2500, 5000, 7500, 10000, 12500, 15000, 17500, 20000),
    passes: int = 15,
    packets_per_pass: int = 450,
) -> ResourceSeries:
    """Fig. 6c: memory, switch rules and per-packet delay against cached enforcement rules.

    Each device holds one cached enforcement rule, so a gateway reaches
    each count by onboarding that many devices; memory is
    :func:`onboarding_memory`'s.  The per-packet ``handle_packet`` time of
    Table V's pairs comes from a second, untraced growth (tracing slows
    every allocation); the same passes time a reference gateway that keeps
    the first count, so growth is compared under the same host load.
    """
    result = ResourceSeries("enforcement_rules", [float(count) for count in rule_counts])
    modes = ((False, MEMORY_WITHOUT, RULES_WITHOUT), (True, MEMORY_WITH, RULES_WITH))
    for filtering_enabled, memory, rules in modes:
        points = onboarding_memory(filtering_enabled, rule_counts)
        result.series[memory] = [traced / 2**20 for traced, _ in points]
        result.series[rules] = [float(installed) for _, installed in points]
    testbed, reference = GatewayTestbed(0), GatewayTestbed(rule_counts[0]).filtering
    per_pair = packets_per_pass // len(_TABLE_V_PAIRS)
    packets = [packet for pair in _TABLE_V_PAIRS for packet in testbed.packets(*pair, per_pair)]
    delays = []
    for count in rule_counts:
        testbed.grow(count)
        lanes = [(gateway, packets) for gateway in (testbed.filtering, testbed.plain, reference)]
        delays.append(_median_costs(lanes, passes))
    for name, column in zip((DELAY_WITH, DELAY_WITHOUT, DELAY_REFERENCE), zip(*delays)):
        result.series[name] = [cost.wall_us for cost in column]
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
