"""Fleet re-identification throughput after a runtime type registration.

An N-device fleet of one unknown model is quarantined under strict
isolation; the operator then registers the missing device-type through the
:class:`~repro.identification.lifecycle.LifecycleCoordinator`.  The
measured path is everything `learn_device_type` does: incremental
training of the new classifier, epoch bump + cache invalidation, batch
re-identification of the quarantined fleet through ``identify_many``
(compiled forests), and the enforcement-sink pass that replaces each
device's strict gateway rule.

Checked properties:

* every quarantined device is re-identified to the learned type and its
  gateway rule upgraded away from strict;
* the dispatcher cache registered with the coordinator is invalidated.

The batched-vs-per-fingerprint timing is *reported* (headline of the
``BENCH_relearn.json`` trajectory) but not asserted: a single-round
wall-clock comparison on a shared CI runner is noise-prone, and the batch
speedup itself is already gated by ``bench_compiled_inference.py``.
"""

from __future__ import annotations

import time

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.autopilot import LifecycleAutopilot, TriggerPolicy
from repro.identification.identifier import (
    DeviceTypeIdentifier,
    IdentificationResult,
    UNKNOWN_DEVICE_TYPE,
)
from repro.identification.lifecycle import LifecycleCoordinator
from repro.net.addresses import MACAddress
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService
from repro.streaming import GatewayEnforcementSink, IdentifiedDevice

from benchmarks.conftest import BENCH_QUICK, BENCH_SEED, make_section_reporter

KNOWN_TYPES = ("Aria", "HueBridge", "EdnetCam", "WeMoSwitch", "TP-LinkPlugHS110", "D-LinkCam")
LEARNED_TYPE = "HomeMaticPlug"
FLEET_SIZE = 10 if BENCH_QUICK else 60
TRAINING_RUNS = 8
#: Unknown singleton devices mixed into the quarantine for the autopilot
#: benchmark: cluster detection must pick the real cluster out of noise.
NOISE_DEVICES = 4 if BENCH_QUICK else 16

#: The benchmarks in this file merge their sections into BENCH_relearn.json.
_report = make_section_reporter("relearn")


def build_quarantined_stack():
    """An identifier that does not know the fleet's model, fleet quarantined."""
    from repro.datasets.builder import generate_fingerprint_dataset

    dataset = generate_fingerprint_dataset(
        runs_per_type=TRAINING_RUNS, device_names=list(KNOWN_TYPES), seed=BENCH_SEED
    )
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=BENCH_SEED)

    service = IoTSecurityService(identifier=identifier)
    gateway = SecurityGateway()
    coordinator = LifecycleCoordinator(identifier=identifier)
    coordinator.sink = GatewayEnforcementSink(
        gateway=gateway, security_service=service, lifecycle=coordinator
    )
    cache = coordinator.make_cache(capacity=256)

    simulator = SetupTrafficSimulator(seed=BENCH_SEED + 1)
    profile = DEVICE_CATALOG[LEARNED_TYPE]
    for trace in simulator.simulate_many(profile, FLEET_SIZE):
        coordinator.quarantine.record(
            trace.device_mac,
            Fingerprint.from_packets(trace.packets),
            completion_reason="idle",
        )
    training = [
        Fingerprint.from_packets(trace.packets, device_type=LEARNED_TYPE)
        for trace in simulator.simulate_many(profile, TRAINING_RUNS)
    ]
    return identifier, gateway, coordinator, cache, training


def test_relearn_throughput(benchmark, bench_report):
    identifier, gateway, coordinator, cache, training = build_quarantined_stack()
    fleet = coordinator.quarantine.devices()
    assert len(fleet) == FLEET_SIZE

    # The fleet's model really is unknown to the pre-learning bank.
    probe = identifier.identify(fleet[0].fingerprint)
    assert probe.is_new_device_type
    cache.put(b"pre-learning", probe)  # must be unreachable afterwards

    report = benchmark.pedantic(
        coordinator.learn_device_type,
        args=(LEARNED_TYPE, training),
        kwargs={"snapshot": False},
        rounds=1,
        iterations=1,
    )

    # Baseline: the same quarantined fingerprints identified one call at
    # a time -- the shape a consumer without the lifecycle batch path had.
    start = time.perf_counter()
    baseline = [identifier.identify(entry.fingerprint) for entry in fleet]
    baseline_seconds = time.perf_counter() - start

    print()
    print("Fleet re-identification after runtime type registration")
    print(f"  quarantined fleet              {report.quarantined} devices")
    print(f"  upgraded                       {len(report.upgraded)}")
    print(f"  still unknown                  {len(report.still_unknown)}")
    print(f"  re-identification (batched)    {report.identify_seconds * 1000:.1f} ms "
          f"({report.devices_per_second:,.0f} devices/s)")
    print(f"  re-identification (per-fp)     {baseline_seconds * 1000:.1f} ms")
    print(f"  cache epoch                    {report.generation} "
          f"(stale rejections {cache.stale_rejections})")

    # Every quarantined device was re-identified and its rule upgraded.
    assert len(report.upgraded) == FLEET_SIZE
    assert not report.still_unknown
    assert len(coordinator.quarantine) == 0
    for entry in fleet:
        rule = gateway.rule_cache.lookup(entry.mac)
        assert rule is not None
        assert rule.isolation_level is not IsolationLevel.STRICT
        assert gateway.device_record(entry.mac).device_type == LEARNED_TYPE

    # The verdicts agree with the one-at-a-time baseline.
    agreements = sum(1 for result in baseline if result.device_type == LEARNED_TYPE)
    assert agreements >= int(0.9 * FLEET_SIZE)

    # Timing sanity only; the batched/sequential ratio is trajectory data.
    assert report.identify_seconds > 0

    # The pre-learning cache entry is unreachable (epoch + clear).
    assert cache.get(b"pre-learning") is None

    _report(
        bench_report,
        "relearn",
        {
            "fleet_size": FLEET_SIZE,
            "upgraded": len(report.upgraded),
            "still_unknown": len(report.still_unknown),
            "identify_seconds_batched": report.identify_seconds,
            "identify_seconds_per_fingerprint_baseline": baseline_seconds,
            "devices_per_second": report.devices_per_second,
            "epoch_generation": report.generation,
        },
    )


# --------------------------------------------------------------------- #
# The autopilot trigger path.
# --------------------------------------------------------------------- #
def build_autopilot_stack():
    """A cluster of identical unseen-model devices buried in noise.

    The measured path is everything ``LifecycleAutopilot.poll`` does:
    group the quarantine log into same-model clusters, apply the trigger
    policy, train the provisional classifier, bump the epoch, batch
    re-identify the fleet and replace every upgraded strict rule.
    """
    from repro.datasets.builder import generate_fingerprint_dataset

    dataset = generate_fingerprint_dataset(
        runs_per_type=TRAINING_RUNS, device_names=list(KNOWN_TYPES), seed=BENCH_SEED
    )
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=BENCH_SEED)

    service = IoTSecurityService(identifier=identifier)
    gateway = SecurityGateway()
    coordinator = LifecycleCoordinator(identifier=identifier)
    sink = GatewayEnforcementSink(
        gateway=gateway, security_service=service, lifecycle=coordinator
    )
    coordinator.sink = sink
    gateway.attach_lifecycle(coordinator)
    autopilot = LifecycleAutopilot(
        coordinator,
        policy=TriggerPolicy(min_cluster_size=FLEET_SIZE),
        security_service=service,
    )

    def quarantine_through_sink(mac, fingerprint):
        sink(
            IdentifiedDevice(
                mac=mac,
                fingerprint=fingerprint,
                result=IdentificationResult(
                    device_type=UNKNOWN_DEVICE_TYPE, matched_types=()
                ),
                completion_reason="idle",
            )
        )

    profile = DEVICE_CATALOG[LEARNED_TYPE]
    cluster_macs = []
    for index in range(FLEET_SIZE):
        # Same seed, distinct MACs: one model performing one identical
        # setup procedure -- the sharing cluster detection keys on.
        mac = MACAddress.from_string(f"02:be:7c:00:{index // 256:02x}:{index % 256:02x}")
        trace = SetupTrafficSimulator(seed=BENCH_SEED + 1).simulate(profile, device_mac=mac)
        quarantine_through_sink(mac, Fingerprint.from_packets(trace.packets))
        cluster_macs.append(mac)
    noise_simulator = SetupTrafficSimulator(seed=BENCH_SEED + 2)
    for index in range(NOISE_DEVICES):
        trace = noise_simulator.simulate(DEVICE_CATALOG["SmarterCoffee"])
        quarantine_through_sink(trace.device_mac, Fingerprint.from_packets(trace.packets))
    return gateway, coordinator, autopilot, cluster_macs


def test_autopilot_trigger_throughput(benchmark, bench_report):
    gateway, coordinator, autopilot, cluster_macs = build_autopilot_stack()
    assert len(coordinator.quarantine) == FLEET_SIZE + NOISE_DEVICES

    start = time.perf_counter()
    decisions = benchmark.pedantic(
        autopilot.poll, kwargs={"now": 1_000.0}, rounds=1, iterations=1
    )
    poll_seconds = time.perf_counter() - start

    assert [decision.action for decision in decisions] == ["learned"]
    report = decisions[0].report
    assert len(report.upgraded) == FLEET_SIZE
    # The noise singletons never reach the threshold and stay parked.
    assert len(coordinator.quarantine) >= NOISE_DEVICES - len(report.still_unknown)
    for mac in cluster_macs:
        rule = gateway.rule_cache.lookup(mac)
        assert rule is not None
        assert rule.isolation_level is not IsolationLevel.STRICT

    print()
    print("Autopilot trigger path (cluster detection -> learn -> enforce)")
    print(f"  quarantined                    {FLEET_SIZE + NOISE_DEVICES} devices "
          f"({FLEET_SIZE} clustered + {NOISE_DEVICES} noise)")
    print(f"  poll wall time                 {poll_seconds * 1000:.1f} ms")
    print(f"  re-identification              {report.identify_seconds * 1000:.1f} ms "
          f"({report.devices_per_second:,.0f} devices/s)")
    print(f"  upgraded                       {len(report.upgraded)} "
          f"(provisional label {report.device_type!r})")

    _report(
        bench_report,
        "autopilot",
        {
            "cluster_size": FLEET_SIZE,
            "noise_devices": NOISE_DEVICES,
            "poll_seconds": poll_seconds,
            "identify_seconds": report.identify_seconds,
            "devices_per_second": report.devices_per_second,
            "upgraded": len(report.upgraded),
            "triggers_fired": autopilot.triggers_fired,
        },
    )


# --------------------------------------------------------------------- #
# Bit-reproducible relearn: two gateways, one bundle, identical verdicts.
# --------------------------------------------------------------------- #
def test_relearn_is_bit_reproducible(benchmark, bench_report):
    """Two identical stacks learning the same type agree bit-for-bit.

    The epoch-aware multi-gateway story requires the fleet
    re-identification inside ``learn_device_type`` to be reproducible:
    the deterministic reference draw (salted with the bumped identifier
    revision) makes two gateways that learned the same type produce
    identical upgraded/still-unknown partitions and identical
    per-device verdict provenance.  Timing is recorded to confirm the
    deterministic draw adds no relearn-path regression.
    """
    first_stack = build_quarantined_stack()
    second_stack = build_quarantined_stack()

    report_one = benchmark.pedantic(
        first_stack[2].learn_device_type,
        args=(LEARNED_TYPE, first_stack[4]),
        kwargs={"snapshot": False},
        rounds=1,
        iterations=1,
    )
    report_two = second_stack[2].learn_device_type(
        LEARNED_TYPE, second_stack[4], snapshot=False
    )

    assert report_one.upgraded == report_two.upgraded
    assert report_one.still_unknown == report_two.still_unknown
    assert report_one.generation == report_two.generation

    # The verdicts themselves (not just the partition) are identical,
    # including the discrimination provenance.
    probes = list(first_stack[4])[:8]
    one = first_stack[0].identify_many(probes)
    two = second_stack[0].identify_many(probes)
    for left, right in zip(one, two):
        assert left.device_type == right.device_type
        assert left.discrimination_scores == right.discrimination_scores

    print()
    print("Relearn reproducibility across two identical gateways")
    print(f"  upgraded                       {len(report_one.upgraded)} (identical partitions)")
    print(f"  re-identification (gateway 1)  {report_one.identify_seconds * 1000:.1f} ms")
    print(f"  re-identification (gateway 2)  {report_two.identify_seconds * 1000:.1f} ms")

    _report(
        bench_report,
        "deterministic_relearn",
        {
            "fleet_size": FLEET_SIZE,
            "upgraded": len(report_one.upgraded),
            "partitions_identical": True,
            "identify_seconds_first": report_one.identify_seconds,
            "identify_seconds_second": report_two.identify_seconds,
        },
    )
