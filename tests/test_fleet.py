"""Fleet serving: the gateway facade, hot model swaps and epoch convergence.

Three surfaces under test:

* ``repro.api`` -- the declarative :class:`GatewayConfig` /
  :func:`build_gateway` facade: construction matrix (minimal, full,
  invalid-with-named-fields), the wiring guarantees the hand-built path
  was prone to missing, and the :meth:`GatewayHandle.swap_bundle` hot
  swap (in-flight fingerprints survive, verdicts carry the right
  revision, replays are counted no-ops);
* ``repro.fleet.channel`` -- push watermark discipline, idempotent
  replay, rollback-as-forward-push, late-joiner catch-up;
* the end-to-end convergence property: after one push + sync, every
  member serves the same epoch and produces bit-identical verdicts for
  the same traffic (the PR 5 determinism guarantee doing fleet duty).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.api import GatewayConfig, GatewayHandle, build_gateway
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import ConfigError, FleetError, LifecycleError, ModelStoreError
from repro.features.fingerprint import Fingerprint
from repro.fleet import FleetCoordinator, FleetHealthView
from repro.identification.identifier import DeviceTypeIdentifier, UNKNOWN_DEVICE_TYPE
from repro.identification.model_store import bundle_info, save_identifier
from repro.obs import replay_ledger
from repro.streaming import SimulatedSource
from repro.streaming.backpressure import BackpressurePolicy

from tests.conftest import SMALL_DEVICE_SET, make_device_mac
from tests.test_model_store import rewrite_bundle


# --------------------------------------------------------------------- #
# Shared helpers and fixtures.
# --------------------------------------------------------------------- #
def probe_fingerprints(count: int = 4, seed: int = 77):
    """(mac, fingerprint) pairs of known device models."""
    simulator = SetupTrafficSimulator(seed=seed)
    probes = []
    for index in range(count):
        profile = DEVICE_CATALOG[SMALL_DEVICE_SET[index % len(SMALL_DEVICE_SET)]]
        mac = make_device_mac(index + 1)
        trace = simulator.simulate(profile, device_mac=mac)
        probes.append((mac, Fingerprint.from_packets(trace.packets)))
    return probes


def verdict_signature(identified):
    """Everything a fleet-agreement check can observe about one verdict."""
    return (
        str(identified.mac),
        identified.result.device_type,
        identified.result.matched_types,
        identified.result.discrimination_scores,
    )


@pytest.fixture()
def bundle_v1(trained_identifier, tmp_path):
    path = tmp_path / "model-v1.json"
    save_identifier(path, trained_identifier, epoch=1)
    return path


@pytest.fixture()
def identifier_v2(small_dataset, trained_identifier):
    v2 = DeviceTypeIdentifier.train(small_dataset.to_registry(), random_state=8)
    v2.revision = trained_identifier.revision + 1
    return v2


@pytest.fixture()
def bundle_v2(identifier_v2, tmp_path):
    path = tmp_path / "model-v2.json"
    save_identifier(path, identifier_v2, epoch=2)
    return path


# --------------------------------------------------------------------- #
# GatewayConfig validation + build_gateway wiring.
# --------------------------------------------------------------------- #
class TestGatewayConfig:
    def test_minimal_config_builds_a_working_gateway(self, trained_identifier):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        assert isinstance(handle, GatewayHandle)
        mac, fingerprint = probe_fingerprints(1)[0]
        identified = handle.identify(mac, fingerprint)
        assert len(identified) == 1
        assert identified[0].result.device_type != UNKNOWN_DEVICE_TYPE
        assert handle.gateway.device_record(mac) is not None
        assert handle.snapshot()["dispatcher.identified"] == 1

    def test_full_config_wires_every_cross_reference(self, bundle_v1, tmp_path):
        handle = build_gateway(
            GatewayConfig(
                bundle_path=bundle_v1,
                name="gw-full",
                max_batch=8,
                queue_capacity=32,
                backpressure="drop",
                cache_capacity=128,
                store_path=tmp_path / "store.json",
                quarantine_path=tmp_path / "quarantine.json",
                autopilot=True,
                ledger_path=tmp_path / "ledger.ndjson",
            )
        )
        # The facade made every cross-reference the hand-wired path
        # required the caller to remember.
        assert handle.lifecycle.sink is handle.sink
        assert handle.sink.lifecycle is handle.lifecycle
        assert handle.gateway.lifecycle is handle.lifecycle
        assert handle.autopilot is not None
        assert handle.autopilot.coordinator is handle.lifecycle
        assert handle.cache.epoch is handle.lifecycle.epoch
        assert handle.dispatcher.cache is handle.cache
        assert handle.dispatcher.queue.policy is BackpressurePolicy.DROP
        # One hub, single-sourced through every layer.
        hub = handle.observability
        assert handle.dispatcher.observability is hub
        assert handle.sink.observability is hub
        assert handle.lifecycle.observability is hub
        assert handle.autopilot.observability is hub
        assert hub.ledger is not None
        # The bundle's epoch stamp was adopted.
        assert handle.epoch == 1
        handle.close()

    def test_missing_model_source_names_the_fields(self):
        with pytest.raises(ConfigError, match="identifier/bundle_path/resume"):
            build_gateway(GatewayConfig())

    def test_conflicting_model_sources_rejected(self, trained_identifier, bundle_v1):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            build_gateway(
                GatewayConfig(identifier=trained_identifier, bundle_path=bundle_v1)
            )

    def test_invalid_numeric_fields_all_named_in_one_error(self, trained_identifier):
        for cache_capacity in (-5, 0):
            with pytest.raises(ConfigError) as excinfo:
                build_gateway(
                    GatewayConfig(
                        identifier=trained_identifier,
                        max_batch=0,
                        queue_capacity=-1,
                        cache_capacity=cache_capacity,
                    )
                )
            message = str(excinfo.value)
            for field in ("max_batch", "queue_capacity", "cache_capacity"):
                assert field in message

    def test_docstring_documents_every_field(self):
        attributes = GatewayConfig.__doc__.split("Attributes:", 1)[1]
        documented = set(re.findall(r"^ {8}(\w+):", attributes, flags=re.MULTILINE))
        missing = [f.name for f in dataclasses.fields(GatewayConfig) if f.name not in documented]
        assert not missing, f"GatewayConfig docstring omits {missing}"

    def test_resume_requires_store_path(self):
        with pytest.raises(ConfigError, match="store_path"):
            build_gateway(GatewayConfig(resume=True))

    def test_unknown_backpressure_string_rejected(self, trained_identifier):
        with pytest.raises(ConfigError, match="backpressure"):
            build_gateway(
                GatewayConfig(identifier=trained_identifier, backpressure="yolo")
            )

    def test_backpressure_accepts_policy_names(self, trained_identifier):
        handle = build_gateway(
            GatewayConfig(identifier=trained_identifier, backpressure="block")
        )
        assert handle.dispatcher.queue.policy is BackpressurePolicy.BLOCK

    def test_resume_rebuilds_the_stack_from_disk(self, trained_identifier, tmp_path):
        store = tmp_path / "store.json"
        quarantine = tmp_path / "quarantine.json"
        first = build_gateway(
            GatewayConfig(
                identifier=trained_identifier,
                store_path=store,
                quarantine_path=quarantine,
            )
        )
        first.lifecycle.save_snapshot()
        resumed = build_gateway(
            GatewayConfig(resume=True, store_path=store, quarantine_path=quarantine)
        )
        assert (
            resumed.identifier.known_device_types
            == trained_identifier.known_device_types
        )
        assert resumed.lifecycle.observability is resumed.observability

    def test_run_until_idle_streams_and_enforces(self, trained_identifier, simulator):
        traces = [
            simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
            for index, name in enumerate(["Aria", "HueBridge"])
        ]
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        stats = handle.run_until_idle(SimulatedSource(traces=traces))
        assert stats.identified == 2
        assert handle.sink.enforced == 2
        assert handle.gateway.connected_device_count == 2

    def test_identify_mid_stream_leaves_captures_in_progress(
        self, trained_identifier, simulator
    ):
        # Aria goes idle before the other two start, so its verdict leaves
        # the stream while HueBridge and EdnetCam are still being captured.
        traces = [
            simulator.simulate(DEVICE_CATALOG[name], start_time=start)
            for name, start in (("Aria", 0.0), ("HueBridge", 30.0), ("EdnetCam", 31.0))
        ]
        uninterrupted = build_gateway(GatewayConfig(identifier=trained_identifier))
        expected = [
            verdict_signature(item)
            for item in uninterrupted.stream(SimulatedSource(traces=traces))
        ]

        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        stream = handle.stream(SimulatedSource(traces=traces))
        streamed = [next(stream)]
        mac, fingerprint = probe_fingerprints(1)[0]
        identified = handle.identify(mac, fingerprint)
        streamed.extend(stream)

        assert [item.mac for item in identified] == [mac]
        assert all(item.completion_reason != "flush" for item in identified)
        assert [verdict_signature(item) for item in streamed] == expected
        macs = [item.mac for item in streamed + identified]
        assert sorted(macs) == sorted({trace.device_mac for trace in traces} | {mac})

    def test_ledger_explains_every_onboarding(self, trained_identifier, tmp_path):
        ledger_path = tmp_path / "ledger.ndjson"
        handle = build_gateway(
            GatewayConfig(identifier=trained_identifier, ledger_path=ledger_path)
        )
        traces = [
            SetupTrafficSimulator(seed=seed).simulate(DEVICE_CATALOG[name])
            for name, seed in (
                ("EdnetCam", 812), ("Aria", 813), ("MAXGateway", 814), ("D-LinkCam", 815)
            )
        ]
        for trace in traces:
            handle.run_until_idle(SimulatedSource(traces=[trace]))
        handle.close()

        ledger = replay_ledger(ledger_path)
        for trace in traces:
            records = ledger.for_mac(str(trace.device_mac))
            verdicts = [record for record in records if record.kind == "verdict"]
            enforcements = [record for record in records if record.kind == "enforcement"]
            assert len(verdicts) == 1 and len(enforcements) == 1
            device = handle.gateway.devices[trace.device_mac]
            assert enforcements[0].verdict == device.device_type
            assert enforcements[0].enforcement_action == device.isolation_level.name


# --------------------------------------------------------------------- #
# Hot model swap on a live gateway.
# --------------------------------------------------------------------- #
class TestHotSwap:
    def test_in_flight_fingerprints_survive_and_use_the_new_model(
        self, trained_identifier, identifier_v2, bundle_v2, tmp_path
    ):
        handle = build_gateway(
            GatewayConfig(
                identifier=trained_identifier,
                max_batch=16,  # large: injected probes stay queued
                ledger_path=tmp_path / "ledger.ndjson",
            )
        )
        probes = probe_fingerprints(5)
        # Two verdicts delivered before the swap...
        for mac, fingerprint in probes[:2]:
            assert handle.identify(mac, fingerprint)
        # ...three more enqueued but NOT yet identified when the swap lands.
        for mac, fingerprint in probes[2:]:
            handle.identify(mac, fingerprint, flush=False)
        assert len(handle.dispatcher.queue) == 3

        report = handle.swap_bundle(bundle_v2)
        assert report.applied
        assert (report.previous_epoch, report.epoch) == (0, 2)
        assert report.revision == identifier_v2.revision
        assert handle.dispatcher.stats.swaps == 1

        # The queued fingerprints were not dropped: they drain through
        # the NEW model.
        drained = handle.pipeline.finish()
        assert sorted(str(item.mac) for item in drained) == sorted(
            str(mac) for mac, _ in probes[2:]
        )
        assert handle.dispatcher.stats.dropped == 0
        assert handle.dispatcher.stats.identified == 5

        # The ledger pins the revision history: pre-swap verdicts carry
        # the old revision, post-swap ones the new, with the apply
        # record in between.
        handle.close()
        records = replay_ledger(tmp_path / "ledger.ndjson").records
        verdicts = [r for r in records if r.kind == "verdict"]
        assert [r.identifier_revision for r in verdicts] == (
            [trained_identifier.revision] * 2 + [identifier_v2.revision] * 3
        )
        applies = [r for r in records if r.kind == "apply"]
        assert len(applies) == 1 and applies[0].detail["applied"] is True

    def test_swap_updates_every_model_consumer(
        self, trained_identifier, identifier_v2, bundle_v2
    ):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        handle.swap_bundle(bundle_v2)
        assert handle.dispatcher.identifier.revision == identifier_v2.revision
        assert handle.lifecycle.identifier.revision == identifier_v2.revision
        assert handle.security_service.identifier.revision == identifier_v2.revision
        assert handle.identifier.revision == identifier_v2.revision
        assert handle.epoch == 2

    def test_swap_invalidates_the_verdict_cache_by_epoch(
        self, trained_identifier, bundle_v2
    ):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        mac, fingerprint = probe_fingerprints(1)[0]
        handle.identify(mac, fingerprint)
        hit = handle.identify(mac, fingerprint)
        assert hit[0].from_cache
        handle.swap_bundle(bundle_v2)
        fresh = handle.identify(mac, fingerprint)
        assert not fresh[0].from_cache  # the old entry is stale by epoch

    def test_duplicate_swap_is_a_counted_no_op(self, trained_identifier, bundle_v2):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        first = handle.swap_bundle(bundle_v2)
        invalidations = handle.lifecycle.epoch.invalidations
        replay = handle.swap_bundle(bundle_v2)
        assert first.applied and not replay.applied
        assert replay.reason == "duplicate"
        assert handle.duplicate_swaps == 1 and handle.applied_swaps == 1
        assert handle.epoch == 2
        # A replay must not re-invalidate the caches.
        assert handle.lifecycle.epoch.invalidations == invalidations

    def test_swap_backwards_raises(self, trained_identifier, bundle_v1, bundle_v2):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        handle.swap_bundle(bundle_v2)
        with pytest.raises(FleetError, match="older epoch"):
            handle.swap_bundle(bundle_v1)

    def test_same_epoch_different_revision_requires_restamp(
        self, trained_identifier, identifier_v2, tmp_path
    ):
        conflicting = tmp_path / "conflicting.json"
        save_identifier(conflicting, identifier_v2, epoch=0)
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        with pytest.raises(FleetError, match="re-stamp"):
            handle.swap_bundle(conflicting)

    def test_epoch_override_beats_the_bundle_stamp(
        self, trained_identifier, bundle_v1
    ):
        # The rollback path: an old bundle re-issued under a fresh epoch.
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        report = handle.swap_bundle(bundle_v1, epoch=7)
        assert report.applied and report.epoch == 7
        assert handle.epoch == 7

    def test_cache_epoch_advance_refuses_backwards(self, trained_identifier):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        handle.adopt_epoch(3)
        assert handle.adopt_epoch(3) == 3  # equal: no-op
        with pytest.raises(LifecycleError, match="backwards"):
            handle.adopt_epoch(2)


# --------------------------------------------------------------------- #
# The distribution channel.
# --------------------------------------------------------------------- #
class TestFleetChannel:
    def test_push_is_idempotent_on_replay(self, bundle_v1):
        fleet = FleetCoordinator()
        first = fleet.push(bundle_v1)
        replay = fleet.push(bundle_v1)
        assert replay is first  # the existing watermark record
        assert fleet.duplicate_pushes == 1
        assert len(fleet.pushes) == 1

    def test_push_refuses_non_advancing_epochs(
        self, trained_identifier, identifier_v2, bundle_v2, tmp_path
    ):
        fleet = FleetCoordinator()
        fleet.push(bundle_v2)
        stale = tmp_path / "stale.json"
        save_identifier(stale, trained_identifier, epoch=1)
        with pytest.raises(FleetError, match="behind the"):
            fleet.push(stale)
        conflicting = tmp_path / "conflicting.json"
        save_identifier(conflicting, trained_identifier, epoch=2)
        with pytest.raises(FleetError, match="re-stamp"):
            fleet.push(conflicting)

    def test_push_refuses_a_bundle_no_gateway_can_load(self, bundle_v1, tmp_path):
        # bundle_info runs load_identifier's serving checks, so a bundle
        # every member would refuse at apply time never reaches the channel.
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        fleet.spawn_gateway("gw-0")

        def drop_revision(meta):
            meta["epoch"] = 3
            del meta["revision"]

        unloadable = rewrite_bundle(bundle_v1, tmp_path / "no-revision.npz", drop_revision)
        with pytest.raises(ModelStoreError, match="revision"):
            bundle_info(unloadable)
        with pytest.raises(ModelStoreError, match="revision"):
            fleet.push(unloadable)
        assert [record.epoch for record in fleet.pushes] == [1]
        assert fleet.members["gw-0"].pending == 0
        assert fleet.members["gw-0"].handle.epoch == 1

    def test_spawn_requires_a_watermark(self):
        fleet = FleetCoordinator()
        with pytest.raises(FleetError, match="push a bundle first"):
            fleet.spawn_gateway("gw-0")

    def test_spawned_member_serves_the_watermark(self, bundle_v1):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        handle = fleet.spawn_gateway("gw-0", GatewayConfig(max_batch=4))
        assert handle.name == "gw-0"
        assert handle.config.max_batch == 4  # template knobs honoured
        assert handle.epoch == 1
        assert fleet.members["gw-0"].pending == 0  # starts caught up

    def test_duplicate_member_name_rejected(self, bundle_v1):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        fleet.spawn_gateway("gw-0")
        with pytest.raises(FleetError, match="gw-0"):
            fleet.spawn_gateway("gw-0")

    def test_rollback_needs_a_previous_push(self, bundle_v1):
        fleet = FleetCoordinator()
        with pytest.raises(FleetError, match="cannot roll back"):
            fleet.rollback()
        fleet.push(bundle_v1)
        with pytest.raises(FleetError, match="cannot roll back"):
            fleet.rollback()

    def test_rollback_reverts_the_model_by_advancing_the_epoch(
        self, trained_identifier, bundle_v1, bundle_v2
    ):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        gateway = fleet.spawn_gateway("gw-0")
        fleet.push(bundle_v2)
        fleet.sync_all()
        record = fleet.rollback()
        assert record.bundle_path == str(bundle_v1)
        assert record.epoch == 3  # forward, never backward
        assert record.revision == trained_identifier.revision
        fleet.sync_all()
        assert gateway.epoch == 3
        assert gateway.revision == trained_identifier.revision

    def test_late_joiner_catches_up_in_order(self, bundle_v1, bundle_v2):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        fleet.push(bundle_v2)
        # A gateway stood up by hand from the OLD bundle, enrolled late.
        handle = build_gateway(GatewayConfig(bundle_path=bundle_v1, name="late"))
        subscriber = fleet.register(handle)
        assert subscriber.lag == 1
        reports = subscriber.poll()
        assert [report.epoch for report in reports] == [2]
        assert subscriber.duplicates == 1  # the v1 record it already served
        assert subscriber.lag == 0

    def test_spawning_after_rollback_adopts_the_channel_epoch(
        self, bundle_v1, bundle_v2
    ):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        fleet.push(bundle_v2)
        fleet.rollback()  # watermark: bundle v1 content @ epoch 3
        handle = fleet.spawn_gateway("gw-new")
        assert handle.epoch == 3  # channel epoch, not the file's stamp


# --------------------------------------------------------------------- #
# End-to-end convergence.
# --------------------------------------------------------------------- #
class TestFleetConvergence:
    FLEET_SIZE = 3

    def test_fleet_converges_and_verdict_streams_are_identical(
        self, bundle_v1, bundle_v2, identifier_v2
    ):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        handles = [
            fleet.spawn_gateway(f"gw-{index}", GatewayConfig(max_batch=4))
            for index in range(self.FLEET_SIZE)
        ]
        probes = probe_fingerprints(6)

        def drive(handle):
            signatures = []
            for mac, fingerprint in probes:
                for identified in handle.identify(mac, fingerprint):
                    signatures.append(verdict_signature(identified))
            return signatures

        view = FleetHealthView(fleet)
        before = [drive(handle) for handle in handles]
        assert all(signatures == before[0] for signatures in before)

        fleet.push(bundle_v2)
        staged = view.collect()
        assert not staged.converged
        assert staged.laggards == tuple(f"gw-{i}" for i in range(self.FLEET_SIZE))
        assert staged.max_lag == 1

        applied = fleet.sync_all()
        assert applied == {f"gw-{i}": 1 for i in range(self.FLEET_SIZE)}

        report = view.collect()
        assert report.converged
        assert report.target_epoch == 2
        assert not report.laggards
        assert {row.epoch for row in report.rows} == {2}
        assert {row.revision for row in report.rows} == {identifier_v2.revision}

        # Identical traffic through every converged member yields
        # bit-identical verdict streams -- the determinism harness's
        # signature (type, matched types, discrimination scores with
        # reference draws) compared across gateways.
        after = [drive(handle) for handle in handles]
        assert all(signatures == after[0] for signatures in after)
        # The new model is actually in service (revision visible above,
        # and the swap changed at least the serving epoch everywhere).
        assert all(handle.epoch == 2 for handle in handles)

    def test_duplicate_push_applies_nowhere(self, bundle_v1, bundle_v2):
        fleet = FleetCoordinator()
        fleet.push(bundle_v1)
        for index in range(2):
            fleet.spawn_gateway(f"gw-{index}")
        fleet.push(bundle_v2)
        assert fleet.sync_all() == {"gw-0": 1, "gw-1": 1}
        fleet.push(bundle_v2)  # replayed
        assert fleet.duplicate_pushes == 1
        assert fleet.sync_all() == {"gw-0": 0, "gw-1": 0}

    def test_channel_ledger_holds_push_and_apply_records(
        self, bundle_v1, bundle_v2, tmp_path
    ):
        from repro.obs import Observability, VerdictLedger

        ledger_path = tmp_path / "fleet-ledger.ndjson"
        fleet = FleetCoordinator(
            observability=Observability(ledger=VerdictLedger(ledger_path))
        )
        fleet.push(bundle_v1)
        fleet.spawn_gateway("gw-0")
        fleet.push(bundle_v2)
        fleet.sync_all()
        fleet.observability.ledger.close()

        records = replay_ledger(ledger_path).records
        pushes = [r for r in records if r.kind == "push"]
        applies = [r for r in records if r.kind == "apply"]
        assert [r.cache_epoch for r in pushes] == [1, 2]
        assert [r.detail["push_id"] for r in pushes] == [1, 2]
        assert len(applies) == 1
        assert applies[0].detail["gateway"] == "gw-0"
        assert applies[0].cache_epoch == 2
