"""Tests for the lifecycle autopilot: triggers, durable quarantine, re-profiling."""

from __future__ import annotations

import pytest

from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import AutopilotError
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.autopilot import (
    PROVISIONAL_LABEL_PREFIX,
    LifecycleAutopilot,
    ReprofileScheduler,
    TriggerPolicy,
    provisional_label,
)
from repro.identification.identifier import DeviceTypeIdentifier, UNKNOWN_DEVICE_TYPE
from repro.identification.lifecycle import LifecycleCoordinator
from repro.net.addresses import MACAddress
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import IoTSecurityService
from repro.streaming import BatchDispatcher, GatewayEnforcementSink
from repro.streaming.assembler import ReadyFingerprint

#: Training set deliberately missing "HomeMaticPlug": its devices identify
#: as unknown until the autopilot (or an operator) learns the type.
KNOWN_TYPES = ("Aria", "HueBridge", "EdnetCam")
UNKNOWN_MODEL = "HomeMaticPlug"


@pytest.fixture(scope="module")
def known_dataset():
    return DatasetBuilder(runs_per_type=6, seed=1234).build_synthetic(KNOWN_TYPES)


@pytest.fixture()
def identifier(known_dataset):
    """A fresh identifier per test: learning mutates the bank."""
    return DeviceTypeIdentifier.train(known_dataset.to_registry(), random_state=7)


def cluster_mac(index: int) -> MACAddress:
    return MACAddress.from_string(f"02:aa:bb:cc:dd:{index:02x}")


def cluster_fingerprint(seed: int = 55, mac: MACAddress | None = None) -> Fingerprint:
    """One member of an identical-setup unknown-model cluster.

    A fresh simulator per call with the same seed replays the exact same
    setup procedure, so distinct MACs share one fingerprint content key
    (same model, same firmware) -- the sharing cluster detection keys on.
    """
    trace = SetupTrafficSimulator(seed=seed).simulate(
        DEVICE_CATALOG[UNKNOWN_MODEL], device_mac=mac
    )
    return Fingerprint.from_packets(trace.packets)


def quarantine_cluster(coordinator, size: int, seed: int = 55, now: float = 0.0, base: int = 1):
    """Park ``size`` identical-model devices; returns their MACs."""
    macs = []
    for index in range(size):
        mac = cluster_mac(base + index)
        coordinator.quarantine.record(
            mac, cluster_fingerprint(seed=seed, mac=mac), now=now, completion_reason="idle"
        )
        macs.append(mac)
    return macs


def build_stack(identifier, tmp_path=None, policy=None, confirm=None):
    """Gateway + coordinator + sink + dispatcher + autopilot, fully wired."""
    service = IoTSecurityService(identifier=identifier)
    gateway = SecurityGateway()
    coordinator = LifecycleCoordinator(
        identifier=identifier,
        store_path=(tmp_path / "model.npz") if tmp_path is not None else None,
        quarantine_path=(tmp_path / "quarantine.npz") if tmp_path is not None else None,
    )
    sink = GatewayEnforcementSink(
        gateway=gateway, security_service=service, lifecycle=coordinator
    )
    coordinator.sink = sink
    gateway.attach_lifecycle(coordinator)
    dispatcher = BatchDispatcher(identifier, max_batch=1, cache=coordinator.make_cache())
    autopilot = LifecycleAutopilot(
        coordinator,
        policy=policy or TriggerPolicy(min_cluster_size=3),
        confirm=confirm,
        security_service=service,
    )
    return service, gateway, coordinator, sink, dispatcher, autopilot


def identify_through(dispatcher, sink, mac, fingerprint):
    ready = ReadyFingerprint(mac=mac, fingerprint=fingerprint, reason="budget")
    results = dispatcher.submit(ready)
    results.extend(dispatcher.drain())
    for item in results:
        sink(item)
    return results


# --------------------------------------------------------------------- #
# Trigger-policy edge cases.
# --------------------------------------------------------------------- #
class TestTriggerPolicy:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(AutopilotError):
            TriggerPolicy(min_cluster_size=0)
        with pytest.raises(AutopilotError):
            TriggerPolicy(min_dwell_seconds=-1.0)
        with pytest.raises(AutopilotError):
            TriggerPolicy(cooldown_seconds=-0.5)
        with pytest.raises(AutopilotError):
            TriggerPolicy(max_pending=0)

    def test_cluster_below_threshold_does_not_fire(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(coordinator, TriggerPolicy(min_cluster_size=3))
        quarantine_cluster(coordinator, 2)
        assert autopilot.poll(now=10.0) == []
        assert autopilot.triggers_fired == 0
        assert len(coordinator.quarantine) == 2  # nothing was learned

    def test_distinct_models_do_not_pool_into_one_cluster(self, identifier):
        # Three unknown devices of *different* setups share no key; no
        # cluster reaches the threshold.
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(coordinator, TriggerPolicy(min_cluster_size=3))
        for index, seed in enumerate((11, 22, 33)):
            mac = cluster_mac(index + 1)
            coordinator.quarantine.record(mac, cluster_fingerprint(seed=seed, mac=mac))
        assert len(autopilot.clusters()) == 3
        assert autopilot.poll(now=10.0) == []

    def test_dwell_time_debounces_fresh_clusters(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator,
            TriggerPolicy(min_cluster_size=2, min_dwell_seconds=30.0),
            confirm=lambda proposal: None,  # park instead of training
        )
        quarantine_cluster(coordinator, 2, now=100.0)
        assert autopilot.poll(now=110.0) == []  # dwell not yet served
        decisions = autopilot.poll(now=130.0)
        assert [decision.action for decision in decisions] == ["pending"]

    def test_cooldown_rate_limits_triggers(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator,
            TriggerPolicy(min_cluster_size=2, cooldown_seconds=60.0),
            confirm=lambda proposal: None,
        )
        quarantine_cluster(coordinator, 2, seed=55, base=1)
        quarantine_cluster(coordinator, 2, seed=77, base=10)  # a second model
        first = autopilot.poll(now=0.0)
        assert len(first) == 1  # one trigger per cooldown window
        assert autopilot.poll(now=30.0) == []  # still inside the window
        second = autopilot.poll(now=61.0)
        assert len(second) == 1
        assert first[0].proposal.cluster_key != second[0].proposal.cluster_key

    def test_max_pending_caps_unconfirmed_learns(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator,
            TriggerPolicy(min_cluster_size=2, max_pending=1),
            confirm=lambda proposal: None,
        )
        quarantine_cluster(coordinator, 2, seed=55, base=1)
        quarantine_cluster(coordinator, 2, seed=77, base=10)
        decisions = autopilot.poll(now=0.0)
        assert len(decisions) == 1  # the second cluster must wait
        assert len(autopilot.pending) == 1
        autopilot.reject(decisions[0].proposal.cluster_key)
        assert len(autopilot.poll(now=1.0)) == 1  # slot freed, second fires

    def test_cluster_dissolving_below_threshold_cancels_pending(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator,
            TriggerPolicy(min_cluster_size=2),
            confirm=lambda proposal: None,
        )
        macs = quarantine_cluster(coordinator, 2)
        assert autopilot.poll(now=0.0)[0].action == "pending"
        coordinator.quarantine.discard(macs[0])  # the device identified/left
        assert autopilot.poll(now=1.0) == []
        assert autopilot.pending == ()
        assert autopilot.cancelled == 1


# --------------------------------------------------------------------- #
# Proposal lifecycle: confirm, approve, reject, promote.
# --------------------------------------------------------------------- #
class TestProposals:
    def test_confirm_hook_label_overrides_provisional(self, identifier):
        seen = []

        def confirm(proposal):
            seen.append(proposal)
            return UNKNOWN_MODEL  # the operator knows the real name

        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=confirm
        )
        quarantine_cluster(coordinator, 2)
        decisions = autopilot.poll(now=0.0)
        assert decisions[0].action == "learned"
        assert decisions[0].report.device_type == UNKNOWN_MODEL
        assert seen[0].label.startswith(PROVISIONAL_LABEL_PREFIX)
        assert seen[0].cluster_size == 2
        assert UNKNOWN_MODEL in identifier.known_device_types

    def test_deferred_proposal_approved_later(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: None
        )
        quarantine_cluster(coordinator, 2)
        proposal = autopilot.poll(now=0.0)[0].proposal
        report = autopilot.approve(proposal.cluster_key, label=UNKNOWN_MODEL)
        assert report.device_type == UNKNOWN_MODEL
        assert len(report.upgraded) == 2
        assert len(coordinator.quarantine) == 0
        assert autopilot.pending == ()

    def test_reject_keeps_the_fleet_quarantined(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: None
        )
        quarantine_cluster(coordinator, 2)
        proposal = autopilot.poll(now=0.0)[0].proposal
        rejected = autopilot.reject(proposal.cluster_key)
        assert rejected.cluster_key == proposal.cluster_key
        assert autopilot.rejected == 1
        assert len(coordinator.quarantine) == 2
        assert UNKNOWN_MODEL not in identifier.known_device_types

    def test_confirm_hook_veto_is_sticky(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: False
        )
        quarantine_cluster(coordinator, 2)
        decisions = autopilot.poll(now=0.0)
        assert [decision.action for decision in decisions] == ["rejected"]
        assert autopilot.rejected == 1
        assert len(coordinator.quarantine) == 2  # fleet stays parked
        assert autopilot.poll(now=10.0) == []  # never re-proposed

    def test_operator_reject_is_also_sticky(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: None
        )
        quarantine_cluster(coordinator, 2)
        proposal = autopilot.poll(now=0.0)[0].proposal
        autopilot.reject(proposal.cluster_key)
        assert autopilot.poll(now=10.0) == []  # no proposal churn after a veto

    def test_provisional_cap_applies_via_sink_carried_service(
        self, identifier, tmp_path
    ):
        # Autopilot constructed WITHOUT security_service: the cap must
        # still apply through the sink's service (same fallback promote
        # uses), or auto-minted types come out trusted.
        service, gateway, coordinator, sink, dispatcher, _ = build_stack(
            identifier, tmp_path
        )
        autopilot = LifecycleAutopilot(coordinator, TriggerPolicy(min_cluster_size=3))
        for index in range(3):
            mac = cluster_mac(index + 1)
            identify_through(dispatcher, sink, mac, cluster_fingerprint(mac=mac))
        decision = autopilot.poll(now=50.0)[0]
        assert decision.proposal.label in service.provisional_types
        for mac in decision.proposal.macs:
            assert gateway.device_record(mac).isolation_level is IsolationLevel.RESTRICTED

    def test_unknown_cluster_key_raises(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(coordinator)
        with pytest.raises(AutopilotError):
            autopilot.approve(b"missing-key-1234")
        with pytest.raises(AutopilotError):
            autopilot.reject(b"missing-key-1234")

    def test_provisional_label_is_deterministic(self):
        key = bytes(range(20))
        assert provisional_label(key) == provisional_label(key)
        assert provisional_label(key).startswith(PROVISIONAL_LABEL_PREFIX)


class TestProvisionalLabelCollisions:
    def test_digest_widened_to_twelve_hex(self):
        key = bytes(range(20))
        assert provisional_label(key) == PROVISIONAL_LABEL_PREFIX + key.hex()[:12]

    def test_collision_disambiguated_with_numeric_suffix(self):
        key_a = bytes.fromhex("ab12cd34ef56") + bytes(14)
        key_b = bytes.fromhex("ab12cd34ef56") + bytes([1]) * 14
        label_a = provisional_label(key_a)
        assert provisional_label(key_b, taken={label_a}) == label_a + "-2"
        assert provisional_label(key_b, taken={label_a, label_a + "-2"}) == label_a + "-3"
        # A non-colliding key is unaffected by taken labels.
        other = bytes.fromhex("0011223344556677") + bytes(12)
        assert provisional_label(other, taken={label_a}) == (
            PROVISIONAL_LABEL_PREFIX + "001122334455"
        )

    def test_autopilot_forced_collision_mints_distinct_labels(self, identifier):
        """Regression: two *different* models whose cluster keys share a
        label prefix must not be merged into one provisional type."""
        from repro.features.fingerprint import fingerprint_key

        def colliding_key(fingerprint: Fingerprint) -> bytes:
            # Force every cluster key to share its first 6 bytes (the 12
            # label hex digits) while remaining distinct beyond them --
            # the hash-prefix collision the ROADMAP warned about.
            return b"\xab" * 6 + fingerprint_key(fingerprint)[6:]

        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator,
            policy=TriggerPolicy(min_cluster_size=2),
            cluster_key=colliding_key,
        )
        for index in range(2):
            mac = cluster_mac(index + 1)
            coordinator.quarantine.record(mac, cluster_fingerprint(mac=mac))
        for index in range(2):
            mac = cluster_mac(index + 10)
            trace = SetupTrafficSimulator(seed=99).simulate(
                DEVICE_CATALOG["SmarterCoffee"], device_mac=mac
            )
            coordinator.quarantine.record(mac, Fingerprint.from_packets(trace.packets))

        decisions = autopilot.poll(now=100.0)
        learned = [decision for decision in decisions if decision.action == "learned"]
        assert len(learned) == 2
        labels = [decision.proposal.label for decision in learned]
        assert labels[0] == PROVISIONAL_LABEL_PREFIX + "abababababab"
        assert labels[1] == labels[0] + "-2"
        # Both minted labels really exist as distinct classifiers.
        assert set(labels) <= set(identifier.known_device_types)

    def test_auto_learned_type_capped_below_trusted_until_promoted(
        self, identifier, tmp_path
    ):
        # HomeMaticPlug assesses clean -> trusted when learned by an
        # operator; an autopilot-minted provisional label must not.
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        for index in range(3):
            mac = cluster_mac(index + 1)
            identify_through(dispatcher, sink, mac, cluster_fingerprint(mac=mac))
        decision = autopilot.poll(now=50.0)[0]
        label = decision.proposal.label
        assert label in service.provisional_types
        for mac in decision.proposal.macs:
            assert gateway.device_record(mac).isolation_level is IsolationLevel.RESTRICTED

        upgraded = autopilot.promote(label)
        assert upgraded == 3
        assert label not in service.provisional_types
        for mac in decision.proposal.macs:
            assert gateway.device_record(mac).isolation_level is IsolationLevel.TRUSTED


# --------------------------------------------------------------------- #
# Disconnect coupling (gateway -> lifecycle -> autopilot).
# --------------------------------------------------------------------- #
class TestDisconnectCoupling:
    def test_disconnect_sheds_pending_proposal_member(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: None
        )
        macs = quarantine_cluster(coordinator, 3)
        proposal = autopilot.poll(now=0.0)[0].proposal
        assert proposal.cluster_size == 3
        coordinator.note_disconnected(macs[0])
        assert autopilot.pending[0].cluster_size == 2
        assert macs[0] not in autopilot.pending[0].macs
        assert macs[0] not in coordinator.quarantine

    def test_disconnect_dissolving_cluster_cancels_proposal(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        autopilot = LifecycleAutopilot(
            coordinator, TriggerPolicy(min_cluster_size=2), confirm=lambda p: None
        )
        macs = quarantine_cluster(coordinator, 2)
        autopilot.poll(now=0.0)
        coordinator.note_disconnected(macs[0])
        assert autopilot.pending == ()
        assert autopilot.cancelled == 1


# --------------------------------------------------------------------- #
# Steady-state re-profiling.
# --------------------------------------------------------------------- #
class TestReprofile:
    def onboarded_aria(self, gateway, service, dispatcher, sink, seed=813):
        trace = SetupTrafficSimulator(seed=seed).simulate(DEVICE_CATALOG["Aria"])
        fingerprint = Fingerprint.from_packets(trace.packets)
        identify_through(dispatcher, sink, trace.device_mac, fingerprint)
        return trace.device_mac, fingerprint

    def test_invalid_scheduler_knobs_rejected(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        with pytest.raises(AutopilotError):
            ReprofileScheduler(coordinator, interval=0)
        with pytest.raises(AutopilotError):
            ReprofileScheduler(coordinator, batch_budget=0)

    def test_due_respects_interval(self, identifier):
        coordinator = LifecycleCoordinator(identifier=identifier)
        scheduler = ReprofileScheduler(coordinator, interval=100.0)
        assert scheduler.due(now=0.0)  # never ran
        scheduler.run([], now=0.0)
        assert not scheduler.due(now=50.0)
        assert scheduler.due(now=100.0)

    def test_drift_downgrades_and_quarantines(self, identifier, tmp_path):
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        mac, _ = self.onboarded_aria(gateway, service, dispatcher, sink)
        assert gateway.device_record(mac).isolation_level is IsolationLevel.TRUSTED

        # A firmware update shifts the device's setup behaviour to a
        # pattern no classifier knows.
        drifted_fingerprint = cluster_fingerprint(seed=77, mac=mac)
        scheduler = ReprofileScheduler(coordinator, interval=10.0)
        report = scheduler.run([(mac, drifted_fingerprint)], now=1000.0)
        assert report.drifted == (mac,)
        assert report.examined == 1
        record = gateway.device_record(mac)
        assert record.device_type == UNKNOWN_DEVICE_TYPE
        assert record.isolation_level is IsolationLevel.STRICT
        assert mac in coordinator.quarantine
        assert sink.sticky  # restored after the pass
        # From quarantine the device flows through the normal learn path:
        # two more drifted units form a cluster and the autopilot fires.
        for index in range(2):
            peer = cluster_mac(40 + index)
            identify_through(dispatcher, sink, peer, cluster_fingerprint(seed=77, mac=peer))
        decisions = autopilot.poll(now=1100.0)
        assert decisions[0].action == "learned"
        assert mac in decisions[0].report.upgraded

    def test_unchanged_devices_cause_no_rule_churn(self, identifier, tmp_path):
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        mac, fingerprint = self.onboarded_aria(gateway, service, dispatcher, sink)
        enforced_before = sink.enforced
        scheduler = ReprofileScheduler(coordinator, interval=10.0)
        report = scheduler.run([(mac, fingerprint)], now=1000.0)
        assert report.unchanged == (mac,)
        assert report.drifted == ()
        assert sink.enforced == enforced_before  # verdict agreed: no re-enforcement
        assert gateway.device_record(mac).isolation_level is IsolationLevel.TRUSTED

    def test_still_unknown_devices_keep_their_cluster_evidence(
        self, identifier, tmp_path
    ):
        # A re-profiling pass over already-quarantined devices must not
        # replace their clustered *setup* fingerprints with per-device
        # steady-state ones (or reset the dwell clock) -- that would
        # dissolve the cluster and starve the trigger forever.
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        macs = []
        for index in range(2):  # below threshold: they stay parked
            mac = cluster_mac(index + 1)
            identify_through(dispatcher, sink, mac, cluster_fingerprint(mac=mac))
            macs.append(mac)
        before = {entry.mac: entry for entry in coordinator.quarantine.devices()}

        # Steady-state traffic differs per device (distinct seeds).
        fleet = [
            (mac, cluster_fingerprint(seed=200 + index, mac=mac))
            for index, mac in enumerate(macs)
        ]
        scheduler = ReprofileScheduler(coordinator, interval=10.0)
        report = scheduler.run(fleet, now=5_000.0)
        assert set(report.still_unknown) == set(macs)
        after = {entry.mac: entry for entry in coordinator.quarantine.devices()}
        for mac in macs:
            assert (
                after[mac].fingerprint.vectors == before[mac].fingerprint.vectors
            ).all()
            assert after[mac].quarantined_at == before[mac].quarantined_at
        assert len(autopilot.clusters()) == 1  # still one cluster of two

    def test_budget_defers_and_cursor_resumes(self, identifier, tmp_path):
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        fleet = []
        for seed in (813, 814, 815):
            mac, fingerprint = self.onboarded_aria(
                gateway, service, dispatcher, sink, seed=seed
            )
            fleet.append((mac, fingerprint))
        scheduler = ReprofileScheduler(coordinator, interval=10.0, batch_budget=2)
        first = scheduler.run(fleet, now=0.0)
        assert first.examined == 2
        assert first.deferred == 1
        second = scheduler.run(fleet, now=10.0)
        assert second.examined == 1  # the deferred device, via the cursor
        examined = set(first.unchanged) | set(second.unchanged)
        assert examined == {mac for mac, _ in fleet}  # full coverage in two passes


# --------------------------------------------------------------------- #
# The end-to-end acceptance scenario: restart mid-quarantine.
# --------------------------------------------------------------------- #
class TestEndToEnd:
    def test_restart_mid_quarantine_then_autopilot_learns(self, identifier, tmp_path):
        # --- first gateway process: two unknown devices arrive, then die.
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        coordinator.save_snapshot()  # boot-time bundle at epoch 0
        for index in range(2):
            mac = cluster_mac(index + 1)
            identify_through(dispatcher, sink, mac, cluster_fingerprint(mac=mac))
        assert len(coordinator.quarantine) == 2
        assert autopilot.poll(now=10.0) == []  # below the 3-device threshold
        # The process dies here.  Nothing is flushed explicitly: the
        # quarantine path is write-through.

        # --- restarted process: resume from the persisted bundle + log.
        resumed = LifecycleCoordinator.resume(
            tmp_path / "model.npz", tmp_path / "quarantine.npz"
        )
        assert len(resumed.quarantine) == 2  # no lost pending devices
        assert resumed.epoch.generation == 0
        service2 = IoTSecurityService(identifier=resumed.identifier)
        gateway2 = SecurityGateway()
        sink2 = GatewayEnforcementSink(
            gateway=gateway2, security_service=service2, lifecycle=resumed
        )
        resumed.sink = sink2
        gateway2.attach_lifecycle(resumed)
        dispatcher2 = BatchDispatcher(
            resumed.identifier, max_batch=1, cache=resumed.make_cache()
        )
        autopilot2 = LifecycleAutopilot(
            resumed, TriggerPolicy(min_cluster_size=3), security_service=service2
        )
        # The restored devices re-onboard on the new gateway (their strict
        # records died with the old process; the quarantine log did not).
        for index in range(2):
            mac = cluster_mac(index + 1)
            identify_through(dispatcher2, sink2, mac, cluster_fingerprint(mac=mac))

        # --- a third identical device arrives; the cluster crosses the
        # threshold and the autopilot drives the whole learn flow.
        third = cluster_mac(3)
        identify_through(dispatcher2, sink2, third, cluster_fingerprint(mac=third))
        assert len(resumed.quarantine) == 3
        decisions = autopilot2.poll(now=500.0)
        assert [decision.action for decision in decisions] == ["learned"]
        report = decisions[0].report
        assert len(report.upgraded) == 3
        assert report.still_unknown == ()
        assert len(resumed.quarantine) == 0
        for index in range(3):
            record = gateway2.device_record(cluster_mac(index + 1))
            assert record.device_type.startswith(PROVISIONAL_LABEL_PREFIX)
            assert record.isolation_level is not IsolationLevel.STRICT

        # The post-learn state is durable: a third process resumes at the
        # new epoch with an empty quarantine.
        final = LifecycleCoordinator.resume(
            tmp_path / "model.npz", tmp_path / "quarantine.npz"
        )
        assert final.epoch.generation == report.generation
        assert len(final.quarantine) == 0
        assert report.device_type in final.identifier.known_device_types

    def test_disconnect_mid_cluster_prevents_the_trigger(self, identifier, tmp_path):
        service, gateway, coordinator, sink, dispatcher, autopilot = build_stack(
            identifier, tmp_path
        )
        macs = []
        for index in range(3):
            mac = cluster_mac(index + 1)
            identify_through(dispatcher, sink, mac, cluster_fingerprint(mac=mac))
            macs.append(mac)
        gateway.disconnect_device(macs[0])  # departed before the poll
        assert macs[0] not in coordinator.quarantine
        assert autopilot.poll(now=10.0) == []  # 2 < min_cluster_size
        assert len(coordinator.quarantine) == 2
