"""Tests for the online-learning lifecycle (quarantine -> learn -> enforce)."""

from __future__ import annotations

import pytest

from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import LifecycleError, ModelStoreError
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import (
    DeviceTypeIdentifier,
    IdentificationResult,
    UNKNOWN_DEVICE_TYPE,
)
from repro.identification.lifecycle import (
    CacheEpoch,
    LifecycleCoordinator,
    QuarantineLog,
    RELEARN_REASON,
)
from repro.identification.model_store import bundle_info
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService
from repro.streaming import (
    BatchDispatcher,
    GatewayEnforcementSink,
    IdentificationCache,
    IdentifiedDevice,
    ReadyFingerprint,
    SimulatedSource,
    StreamingPipeline,
)
from tests.conftest import make_device_mac

#: Training set deliberately missing "Aria": Aria devices identify as
#: unknown until the type is learned at runtime, and Aria assesses clean
#: (trusted), so the upgrade exercises the WPS re-keying path too.
PARTIAL_TYPES = ("HueBridge", "EdnetCam", "WeMoSwitch", "D-LinkCam", "TP-LinkPlugHS110")


@pytest.fixture(scope="module")
def partial_dataset():
    return DatasetBuilder(runs_per_type=8, seed=1234).build_synthetic(PARTIAL_TYPES)


@pytest.fixture()
def partial_identifier(partial_dataset):
    """A fresh identifier per test: learning mutates the bank."""
    return DeviceTypeIdentifier.train(partial_dataset.to_registry(), random_state=7)


@pytest.fixture(scope="module")
def aria_training():
    simulator = SetupTrafficSimulator(seed=555)
    return [
        Fingerprint.from_packets(trace.packets, device_type="Aria")
        for trace in simulator.simulate_many(DEVICE_CATALOG["Aria"], 8)
    ]


def aria_ready(seed=777, mac=None) -> ReadyFingerprint:
    trace = SetupTrafficSimulator(seed=seed).simulate(DEVICE_CATALOG["Aria"])
    fingerprint = Fingerprint.from_packets(trace.packets)
    return ReadyFingerprint(
        mac=mac or trace.device_mac, fingerprint=fingerprint, reason="budget"
    )


def known_result(device_type="HueBridge") -> IdentificationResult:
    return IdentificationResult(device_type=device_type, matched_types=(device_type,))


def unknown_result() -> IdentificationResult:
    return IdentificationResult(device_type=UNKNOWN_DEVICE_TYPE, matched_types=())


# --------------------------------------------------------------------- #
# The cache epoch: generation-stamped entries.
# --------------------------------------------------------------------- #
class TestCacheEpoch:
    def test_bump_makes_existing_entries_unreachable(self):
        epoch = CacheEpoch()
        cache = IdentificationCache(capacity=4, epoch=epoch)
        cache.put(b"key", known_result())
        assert cache.get(b"key") is not None

        epoch.bump()
        assert cache.get(b"key") is None  # stale even though never cleared
        assert cache.stale_rejections == 1
        assert len(cache) == 0  # the stale entry was evicted on lookup

    def test_peek_also_rejects_stale_entries(self):
        epoch = CacheEpoch()
        cache = IdentificationCache(capacity=4, epoch=epoch)
        cache.put(b"key", known_result())
        epoch.bump()
        assert cache.peek(b"key") is None
        assert cache.stale_rejections == 1

    def test_one_bump_invalidates_every_sharing_cache(self):
        epoch = CacheEpoch()
        caches = [IdentificationCache(capacity=4, epoch=epoch) for _ in range(3)]
        for cache in caches:
            cache.put(b"key", known_result())
        epoch.bump()
        assert all(cache.get(b"key") is None for cache in caches)

    def test_entries_written_after_bump_are_served(self):
        epoch = CacheEpoch()
        cache = IdentificationCache(capacity=4, epoch=epoch)
        epoch.bump()
        cache.put(b"key", known_result())
        assert cache.get(b"key") is not None
        assert cache.stale_rejections == 0

    def test_private_epoch_preserves_plain_lru_semantics(self):
        cache = IdentificationCache(capacity=4)
        cache.put(b"key", known_result())
        assert cache.get(b"key") is not None
        assert cache.stale_rejections == 0

    def test_negative_generation_rejected(self):
        with pytest.raises(LifecycleError):
            CacheEpoch(generation=-1)


# --------------------------------------------------------------------- #
# The quarantine log.
# --------------------------------------------------------------------- #
class TestQuarantineLog:
    def test_record_discard_roundtrip(self):
        log = QuarantineLog(capacity=8)
        ready = aria_ready()
        log.record(ready.mac, ready.fingerprint, now=3.0, completion_reason="idle")
        assert ready.mac in log
        assert len(log) == 1
        entry = log.devices()[0]
        assert entry.quarantined_at == 3.0
        assert entry.completion_reason == "idle"

        assert log.discard(ready.mac)
        assert ready.mac not in log
        assert log.released == 1
        assert not log.discard(ready.mac)  # idempotent

    def test_repeat_sighting_replaces_instead_of_growing(self):
        log = QuarantineLog(capacity=8)
        ready = aria_ready()
        newer = aria_ready(seed=778, mac=ready.mac)
        log.record(ready.mac, ready.fingerprint, now=1.0)
        log.record(newer.mac, newer.fingerprint, now=2.0)
        assert len(log) == 1
        assert log.devices()[0].quarantined_at == 2.0
        assert log.recorded == 2

    def test_capacity_bound_evicts_oldest(self):
        log = QuarantineLog(capacity=2)
        fingerprint = aria_ready().fingerprint
        macs = [make_device_mac(index + 1) for index in range(3)]
        for mac in macs:
            log.record(mac, fingerprint)
        assert len(log) == 2
        assert macs[0] not in log  # the oldest was evicted
        assert macs[1] in log and macs[2] in log
        assert log.evicted == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(LifecycleError):
            QuarantineLog(capacity=0)


# --------------------------------------------------------------------- #
# Coordinator units.
# --------------------------------------------------------------------- #
class TestCoordinator:
    def test_note_identified_quarantines_unknown_and_releases_known(
        self, partial_identifier
    ):
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        ready = aria_ready()
        unknown = IdentifiedDevice(
            mac=ready.mac, fingerprint=ready.fingerprint, result=unknown_result()
        )
        assert coordinator.note_identified(unknown, now=5.0)
        assert ready.mac in coordinator.quarantine

        identified = IdentifiedDevice(
            mac=ready.mac, fingerprint=ready.fingerprint, result=known_result()
        )
        assert not coordinator.note_identified(identified)
        assert ready.mac not in coordinator.quarantine

    def test_sink_failure_keeps_the_device_quarantined(
        self, partial_identifier, aria_training
    ):
        # Enforcement failing for a re-identified device must not strand
        # it: the quarantine entry survives for the next attempt.
        def failing_sink(identified):
            raise RuntimeError("switch unreachable")

        coordinator = LifecycleCoordinator(
            identifier=partial_identifier, sink=failing_sink
        )
        ready = aria_ready()
        coordinator.quarantine.record(ready.mac, ready.fingerprint)
        with pytest.raises(RuntimeError):
            coordinator.learn_device_type("Aria", aria_training)
        assert ready.mac in coordinator.quarantine

    def test_make_cache_is_registered_and_epoch_bound(self, partial_identifier):
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        cache = coordinator.make_cache(capacity=8)
        assert cache in coordinator.registered_caches
        assert cache.epoch is coordinator.epoch

    def test_learn_clears_registered_caches_and_bumps_epoch(
        self, partial_identifier, aria_training
    ):
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        cache = coordinator.make_cache(capacity=8)
        cache.put(b"key", known_result())
        report = coordinator.learn_device_type("Aria", aria_training)
        assert report.generation == 1
        assert coordinator.epoch.generation == 1
        assert len(cache) == 0
        assert report.quarantined == 0
        assert coordinator.relearns == 1
        assert "Aria" in partial_identifier.known_device_types
        assert partial_identifier.revision == 1

    def test_snapshot_paths_required(self, partial_identifier):
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        with pytest.raises(LifecycleError):
            coordinator.save_snapshot()
        with pytest.raises(LifecycleError):
            coordinator.load_snapshot()

    def test_unmatched_fleet_stays_quarantined(self, partial_identifier):
        # Learning some *other* type must not release devices it cannot
        # identify: they wait for the next registration.
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        ready = aria_ready()
        coordinator.quarantine.record(ready.mac, ready.fingerprint)
        simulator = SetupTrafficSimulator(seed=321)
        training = [
            Fingerprint.from_packets(trace.packets, device_type="SmarterCoffee")
            for trace in simulator.simulate_many(DEVICE_CATALOG["SmarterCoffee"], 8)
        ]
        report = coordinator.learn_device_type("SmarterCoffee", training)
        assert report.still_unknown == (ready.mac,)
        assert report.upgraded == ()
        assert ready.mac in coordinator.quarantine


# --------------------------------------------------------------------- #
# The end-to-end acceptance scenario.
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def build_stack(self, identifier, tmp_path=None):
        service = IoTSecurityService(identifier=identifier)
        gateway = SecurityGateway()
        coordinator = LifecycleCoordinator(
            identifier=identifier,
            store_path=(tmp_path / "model.npz") if tmp_path is not None else None,
        )
        sink = GatewayEnforcementSink(
            gateway=gateway, security_service=service, lifecycle=coordinator
        )
        coordinator.sink = sink
        dispatcher = BatchDispatcher(
            identifier, max_batch=1, cache=coordinator.make_cache(capacity=32)
        )
        return service, gateway, coordinator, sink, dispatcher

    def identify_through(self, dispatcher, sink, ready):
        results = dispatcher.submit(ready)
        results.extend(dispatcher.drain())
        for item in results:
            sink(item)
        return results

    def test_quarantine_learn_reidentify_enforce(
        self, partial_identifier, aria_training, tmp_path
    ):
        service, gateway, coordinator, sink, dispatcher = self.build_stack(
            partial_identifier, tmp_path
        )

        # 1. An unknown-model device identifies as unknown and is pinned
        #    to strict isolation; its fingerprint is quarantined.
        ready = aria_ready()
        results = self.identify_through(dispatcher, sink, ready)
        assert results[0].result.is_new_device_type
        record = gateway.device_record(ready.mac)
        assert record.device_type == UNKNOWN_DEVICE_TYPE
        assert record.isolation_level is IsolationLevel.STRICT
        assert ready.mac in coordinator.quarantine

        # A known device's verdict lands in the dispatcher cache (it must
        # become unreachable after learning -- verdicts can shift when the
        # bank grows).
        hue = SetupTrafficSimulator(seed=42).simulate(DEVICE_CATALOG["HueBridge"])
        hue_ready = ReadyFingerprint(
            mac=hue.device_mac,
            fingerprint=Fingerprint.from_packets(hue.packets),
            reason="budget",
        )
        self.identify_through(dispatcher, sink, hue_ready)
        assert len(dispatcher.cache) == 1  # unknown was never cached

        # 2. The operator registers the missing type; with no
        #    re-onboarding the quarantined device is re-identified and its
        #    gateway rule upgraded from strict.
        rekeys_before = gateway.wps.rekey_count
        report = coordinator.learn_device_type("Aria", aria_training)
        assert report.device_type == "Aria"
        assert report.upgraded == (ready.mac,)
        assert report.still_unknown == ()
        assert ready.mac not in coordinator.quarantine
        assert report.devices_per_second > 0

        record = gateway.device_record(ready.mac)
        assert record.device_type == "Aria"
        assert record.isolation_level is IsolationLevel.TRUSTED
        assert gateway.rule_cache.lookup(ready.mac).isolation_level is IsolationLevel.TRUSTED
        assert gateway.rule_cache.replacements >= 1  # the strict rule was replaced
        assert gateway.wps.rekey_count == rekeys_before + 1  # WPS credential rotated
        assert sink.enforced == 3  # two onboardings + one upgrade

        # 3. The dispatcher cache was invalidated: the same fingerprints
        #    now serve post-learning verdicts, old LRU entries unreachable.
        assert len(dispatcher.cache) == 0
        again = self.identify_through(dispatcher, sink, aria_ready(mac=ready.mac))
        assert again[0].result.device_type == "Aria"
        assert not again[0].from_cache

        # 4. The snapshot rolled by learn_device_type carries the new
        #    epoch and reloads to identical verdicts.
        assert report.snapshot_path is not None
        assert bundle_info(report.snapshot_path)["epoch"] == report.generation
        reloaded = coordinator.load_snapshot()
        probe = aria_ready(seed=9001).fingerprint
        assert (
            reloaded.identify(probe).device_type
            == partial_identifier.identify(probe).device_type
            == "Aria"
        )

    def test_missed_clear_is_covered_by_the_epoch(
        self, partial_identifier, aria_training
    ):
        # A cache sharing the coordinator's epoch but never registered
        # (the "missed clear" failure mode) still rejects stale verdicts.
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        orphan = IdentificationCache(capacity=8, epoch=coordinator.epoch)
        orphan.put(b"stale", known_result())
        coordinator.learn_device_type("Aria", aria_training)
        assert orphan.get(b"stale") is None
        assert orphan.stale_rejections == 1

    def test_stale_bundle_rejected_on_epoch_mismatch(
        self, partial_identifier, aria_training, tmp_path
    ):
        coordinator = LifecycleCoordinator(
            identifier=partial_identifier, store_path=tmp_path / "model.npz"
        )
        stale_path = tmp_path / "stale.npz"
        coordinator.save_snapshot(stale_path)  # epoch 0 bundle
        coordinator.learn_device_type("Aria", aria_training)  # epoch is now 1
        with pytest.raises(ModelStoreError, match="stale model bundle"):
            coordinator.load_snapshot(stale_path)
        # A fresh snapshot at the current epoch loads cleanly.
        coordinator.save_snapshot()
        assert "Aria" in coordinator.load_snapshot().known_device_types

    def test_unstamped_bundle_loads_only_before_any_learning(
        self, partial_identifier, aria_training, tmp_path
    ):
        # A pre-lifecycle bundle (plain save_identifier, no epoch stamp)
        # is accepted by a runtime that has never learned a type -- the
        # migration path -- but rejected once the bank has grown.
        from repro.identification.model_store import save_identifier

        legacy = tmp_path / "legacy.npz"
        save_identifier(legacy, partial_identifier)
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        assert coordinator.load_snapshot(legacy).known_device_types
        coordinator.learn_device_type("Aria", aria_training)
        with pytest.raises(ModelStoreError, match="stale model bundle"):
            coordinator.load_snapshot(legacy)

    def test_streaming_pipeline_feeds_the_quarantine(self, partial_identifier):
        # Wire the full streaming path: an unknown-model device flows
        # source -> assembler -> dispatcher -> sink and lands quarantined.
        service = IoTSecurityService(identifier=partial_identifier)
        gateway = SecurityGateway()
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        sink = GatewayEnforcementSink(
            gateway=gateway, security_service=service, lifecycle=coordinator
        )
        simulator = SetupTrafficSimulator(seed=606)
        traces = [
            simulator.simulate(DEVICE_CATALOG["Aria"]),
            simulator.simulate(DEVICE_CATALOG["HueBridge"], start_time=5.0),
        ]
        pipeline = StreamingPipeline(
            source=SimulatedSource(traces=traces),
            dispatcher=BatchDispatcher(
                partial_identifier, max_batch=4, cache=coordinator.make_cache()
            ),
            on_identified=sink,
        )
        pipeline.run()
        quarantined_macs = coordinator.quarantine.macs()
        assert traces[0].device_mac in quarantined_macs
        assert traces[1].device_mac not in quarantined_macs
        entry = coordinator.quarantine.devices()[0]
        assert entry.completion_reason in ("budget", "idle", "flush")

    def test_relearn_verdicts_carry_the_relearn_reason(
        self, partial_identifier, aria_training
    ):
        delivered = []
        coordinator = LifecycleCoordinator(
            identifier=partial_identifier, sink=delivered.append
        )
        ready = aria_ready()
        coordinator.quarantine.record(ready.mac, ready.fingerprint)
        coordinator.learn_device_type("Aria", aria_training)
        assert len(delivered) == 1
        assert delivered[0].completion_reason == RELEARN_REASON
        assert delivered[0].result.device_type == "Aria"
        assert delivered[0].mac == ready.mac


# --------------------------------------------------------------------- #
# Durable quarantine: persistence round-trips and corruption rejection.
# --------------------------------------------------------------------- #
class TestQuarantinePersistence:
    def fill_log(self, count=3, capacity=8):
        from repro.identification.lifecycle import QuarantineLog

        log = QuarantineLog(capacity=capacity)
        for index in range(count):
            ready = aria_ready(seed=900 + index)
            log.record(
                ready.mac, ready.fingerprint, now=10.0 + index, completion_reason="idle"
            )
        return log

    def test_round_trip_preserves_entries_order_and_counters(self, tmp_path):
        from repro.identification.lifecycle import load_quarantine_log, save_quarantine_log

        log = self.fill_log()
        log.discard(log.macs()[0])
        path = save_quarantine_log(tmp_path / "quarantine.npz", log, epoch=4)
        restored = load_quarantine_log(path, expected_epoch=4)
        assert restored.capacity == log.capacity
        assert restored.macs() == log.macs()  # insertion order retained
        assert restored.recorded == log.recorded
        assert restored.released == log.released
        for saved, loaded in zip(log.devices(), restored.devices()):
            assert loaded.mac == saved.mac
            assert loaded.quarantined_at == saved.quarantined_at
            assert loaded.completion_reason == saved.completion_reason
            assert (loaded.fingerprint.vectors == saved.fingerprint.vectors).all()

    def test_empty_log_round_trips(self, tmp_path):
        from repro.identification.lifecycle import (
            QuarantineLog,
            load_quarantine_log,
            save_quarantine_log,
        )

        path = save_quarantine_log(tmp_path / "empty.npz", QuarantineLog(capacity=16))
        restored = load_quarantine_log(path)
        assert len(restored) == 0
        assert restored.capacity == 16

    def test_truncated_file_rejected(self, tmp_path):
        from repro.identification.lifecycle import load_quarantine_log, save_quarantine_log

        path = save_quarantine_log(tmp_path / "quarantine.npz", self.fill_log(), epoch=1)
        data = path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelStoreError):
            load_quarantine_log(truncated)

    def test_version_skew_rejected(self, tmp_path):
        import json

        import numpy as np

        from repro.identification.lifecycle import load_quarantine_log, save_quarantine_log
        from repro.identification.model_store import QUARANTINE_SCHEMA_VERSION

        path = save_quarantine_log(tmp_path / "quarantine.npz", self.fill_log())
        with np.load(path, allow_pickle=False) as archive:
            contents = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(contents.pop("meta")).decode("utf-8"))
        meta["schema_version"] = QUARANTINE_SCHEMA_VERSION + 1
        future = tmp_path / "future.npz"
        encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(future, "wb") as handle:
            np.savez_compressed(handle, meta=encoded, **contents)
        with pytest.raises(ModelStoreError, match="schema version"):
            load_quarantine_log(future)

    def test_model_bundle_is_not_a_quarantine_log(self, tmp_path, partial_identifier):
        from repro.identification.lifecycle import load_quarantine_log
        from repro.identification.model_store import save_identifier

        bundle = tmp_path / "model.npz"
        save_identifier(bundle, partial_identifier)
        with pytest.raises(ModelStoreError, match="not an IoT SENTINEL quarantine log"):
            load_quarantine_log(bundle)

    def test_epoch_mismatch_rejected(self, tmp_path):
        from repro.identification.lifecycle import load_quarantine_log, save_quarantine_log

        path = save_quarantine_log(tmp_path / "quarantine.npz", self.fill_log(), epoch=1)
        with pytest.raises(ModelStoreError, match="stale quarantine log"):
            load_quarantine_log(path, expected_epoch=2)

    def test_coordinator_write_through_and_resume(self, partial_identifier, tmp_path):
        # Every quarantine change is persisted immediately; a restarted
        # coordinator resumes with the exact pending fleet.
        coordinator = LifecycleCoordinator(
            identifier=partial_identifier,
            store_path=tmp_path / "model.npz",
            quarantine_path=tmp_path / "quarantine.npz",
        )
        coordinator.save_snapshot()
        ready = aria_ready()
        unknown = IdentifiedDevice(
            mac=ready.mac, fingerprint=ready.fingerprint, result=unknown_result()
        )
        coordinator.note_identified(unknown, now=5.0)
        assert (tmp_path / "quarantine.npz").exists()

        resumed = LifecycleCoordinator.resume(
            tmp_path / "model.npz", tmp_path / "quarantine.npz"
        )
        assert resumed.quarantine.macs() == [ready.mac]
        assert resumed.epoch.generation == 0

        # A successful identification releases the entry -- durably.
        coordinator.note_identified(
            IdentifiedDevice(
                mac=ready.mac, fingerprint=ready.fingerprint, result=known_result()
            )
        )
        resumed_again = LifecycleCoordinator.resume(
            tmp_path / "model.npz", tmp_path / "quarantine.npz"
        )
        assert len(resumed_again.quarantine) == 0

    def test_learn_persists_quarantine_at_new_epoch(
        self, partial_identifier, aria_training, tmp_path
    ):
        from repro.identification.model_store import load_quarantine_records

        coordinator = LifecycleCoordinator(
            identifier=partial_identifier,
            store_path=tmp_path / "model.npz",
            quarantine_path=tmp_path / "quarantine.npz",
        )
        ready = aria_ready()
        coordinator.quarantine.record(ready.mac, ready.fingerprint)
        report = coordinator.learn_device_type("Aria", aria_training)
        meta, records = load_quarantine_records(tmp_path / "quarantine.npz")
        assert meta["epoch"] == report.generation == 1
        assert records == []  # the fleet was re-identified and released

    def test_quarantine_paths_required(self, partial_identifier):
        coordinator = LifecycleCoordinator(identifier=partial_identifier)
        with pytest.raises(LifecycleError):
            coordinator.save_quarantine()
        with pytest.raises(LifecycleError):
            coordinator.load_quarantine()
