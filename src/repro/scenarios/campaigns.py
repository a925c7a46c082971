"""The five stock hostile campaigns.

Each campaign is a declarative dataclass: its fields are the scenario
knobs (recorded verbatim in the artifact under ``campaign``), its
:meth:`~repro.scenarios.base.Campaign._execute` renders the hostile
traffic with the simulator primitives (:func:`replay_trace` for
mimicry/rotation, :meth:`note_address_claim` for lease churn) and drives
a full :func:`~repro.api.build_gateway` stack -- or a 3-member fleet --
so every layer shipped since PR 1 sits in the blast radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api import GatewayConfig, GatewayHandle
from repro.devices.catalog import profile_of
from repro.devices.simulator import SetupTrafficSimulator, SetupTrace
from repro.fleet.channel import FleetCoordinator
from repro.identification.autopilot import ReprofileScheduler, TriggerPolicy
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE
from repro.identification.lifecycle import QuarantineLog
from repro.identification.model_store import save_identifier
from repro.net.addresses import MACAddress
from repro.simulation.clock import SimulatedClock
from repro.streaming.assembler import FingerprintAssembler
from repro.streaming.sources import IterableSource, interleave_traces, replay_trace

from .base import (
    Campaign,
    CampaignOutcome,
    TruthRecord,
    derive_seed,
    local_admin_mac,
)

UNKNOWN = UNKNOWN_DEVICE_TYPE


def _source(traces: Sequence[SetupTrace]) -> IterableSource:
    return IterableSource(list(interleave_traces(traces)))


@dataclass
class MimicryCampaign(Campaign):
    """An off-catalog device replays a trained type's setup traffic.

    Honest devices join one per trained type; then ``impostors`` copies
    of ``impostor_type`` hardware put the *victim's* recorded setup trace
    on the wire under their own MACs (``replay_trace`` preserves
    fingerprint content exactly).  An honest ``impostor_type`` unit joins
    last as the control: it should be quarantined as unknown, while every
    impostor that earns the victim's verdict -- and the victim's
    isolation level -- is a scored, ledger-backed misidentification.
    """

    victim_type: str = "HueBridge"
    impostor_type: str = "SmarterCoffee"
    impostors: int = 3
    name = "mimicry"

    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        identifier = self._train(seed)
        simulator = SetupTrafficSimulator(seed=derive_seed(seed, f"{self.name}:traffic"))
        truth: dict[str, TruthRecord] = {}
        traces: list[SetupTrace] = []
        victim_trace = None
        for index, device_type in enumerate(self.trained_types):
            trace = simulator.simulate(profile_of(device_type), start_time=index * 5.0)
            traces.append(trace)
            truth[str(trace.device_mac)] = TruthRecord(
                str(trace.device_mac), "honest", device_type, device_type
            )
            if device_type == self.victim_type:
                victim_trace = trace
        if victim_trace is None:
            raise ValueError(f"victim_type {self.victim_type!r} not in trained_types")

        impostor_profile = profile_of(self.impostor_type)
        for index in range(self.impostors):
            mac = simulator.random_device_mac(impostor_profile)
            traces.append(replay_trace(victim_trace, mac, 40.0 + index * 10.0))
            truth[str(mac)] = TruthRecord(str(mac), "impostor", self.impostor_type, UNKNOWN)

        control = simulator.simulate(profile_of(self.impostor_type), start_time=90.0)
        traces.append(control)
        truth[str(control.device_mac)] = TruthRecord(
            str(control.device_mac), "honest-unknown", self.impostor_type, UNKNOWN
        )

        handle = self._build_gateway(identifier, run_dir)
        handle.run_until_idle(_source(traces))

        mimicked = sum(
            1
            for mac, record in handle.gateway.devices.items()
            if truth.get(str(mac), None) is not None
            and truth[str(mac)].role == "impostor"
            and record.device_type == self.victim_type
        )
        extra = {
            "mimicry": {
                "victim_type": self.victim_type,
                "impostor_type": self.impostor_type,
                "impostors": self.impostors,
                "succeeded": mimicked,
                "success_rate": round(mimicked / self.impostors, 6) if self.impostors else 0.0,
            }
        }
        return CampaignOutcome(handle=handle, truth=truth, extra_metrics=extra)


@dataclass
class MacRandomizationStorm(Campaign):
    """One physical device re-joins repeatedly under rotating random MACs.

    Every join replays the same setup procedure under a fresh
    locally-administered MAC, so the gateway sees ``joins`` phantom
    devices with *identical* fingerprints: the quarantine log fills past
    its capacity (eviction pressure) and the autopilot sees a perfect
    unseen-model cluster -- which it auto-learns.  Since every cluster
    member is the same physical device, that trigger is scored as a
    false trigger.
    """

    storm_type: str = "iKettle2"
    joins: int = 8
    rejoin_gap: float = 30.0
    quarantine_capacity: int = 6
    min_cluster_size: int = 3
    name = "mac-randomization-storm"

    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        identifier = self._train(seed)
        simulator = SetupTrafficSimulator(seed=derive_seed(seed, f"{self.name}:traffic"))
        truth: dict[str, TruthRecord] = {}
        traces: list[SetupTrace] = []
        for index, device_type in enumerate(self.trained_types):
            trace = simulator.simulate(profile_of(device_type), start_time=index * 3.0)
            traces.append(trace)
            truth[str(trace.device_mac)] = TruthRecord(
                str(trace.device_mac), "honest", device_type, device_type
            )

        base = simulator.simulate(profile_of(self.storm_type))
        mac_rng = np.random.default_rng(derive_seed(seed, f"{self.name}:macs"))
        phantom_macs: set[str] = set()
        for join in range(self.joins):
            mac = local_admin_mac(mac_rng)
            traces.append(replay_trace(base, mac, 30.0 + join * self.rejoin_gap))
            phantom_macs.add(str(mac))
            truth[str(mac)] = TruthRecord(str(mac), "storm", self.storm_type, UNKNOWN)

        handle = self._build_gateway(
            identifier,
            run_dir,
            autopilot=True,
            trigger_policy=TriggerPolicy(min_cluster_size=self.min_cluster_size),
        )
        # The bounded log is the scenario's subject: shrink it below the
        # join count so rotation pressure forces evictions.  The
        # coordinator re-reads its ``quarantine`` attribute, so swapping
        # the log pre-traffic is safe.
        handle.lifecycle.quarantine = QuarantineLog(capacity=self.quarantine_capacity)
        handle.run_until_idle(_source(traces))
        decisions = handle.autopilot.poll(handle.clock.now())

        log = handle.lifecycle.quarantine
        extra = {
            "storm": {
                "joins": self.joins,
                "phantom_macs": sorted(phantom_macs),
                "quarantine_capacity": self.quarantine_capacity,
                "evictions": log.evicted,
                "phantom_labels": sorted(
                    decision.proposal.label
                    for decision in decisions
                    if decision.action == "learned"
                ),
            }
        }
        return CampaignOutcome(
            handle=handle,
            truth=truth,
            extra_metrics=extra,
            autopilot_decisions=decisions,
            phantom_macs=phantom_macs,
        )


@dataclass
class FirmwareDriftCampaign(Campaign):
    """Mid-campaign fingerprint drift across an epoch-coordinated fleet.

    A 3-member fleet is spawned from one pushed bundle and profiles the
    same device population.  Then two devices change their setup
    behaviour in place -- ``drift_device`` starts talking like an
    *untrained* model (true drift: known -> unknown, quarantined) and
    ``retype_device`` like another *trained* one (retype: rule replaced)
    -- and every member runs a :class:`ReprofileScheduler` pass over
    freshly assembled steady-state fingerprints.  The fleet must agree.
    """

    fleet_size: int = 3
    drift_device: str = "EdnetCam"
    drift_behavior: str = "Lightify"
    retype_device: str = "WeMoSwitch"
    retype_behavior: str = "Aria"
    name = "firmware-drift"

    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        identifier = self._train(seed)
        scratch = run_dir / "scratch"
        scratch.mkdir()
        bundle = save_identifier(scratch / "bundle.npz", identifier, epoch=1)

        fleet = FleetCoordinator(name=f"{self.name}-fleet")
        fleet.push(bundle, note="campaign baseline")
        members: list[GatewayHandle] = []
        for index in range(self.fleet_size):
            template = GatewayConfig(
                bundle_path=bundle,
                name="template",
                ledger_path=run_dir / f"gw-{index}-ledger.ndjson",
                clock=SimulatedClock(),
            )
            members.append(fleet.spawn_gateway(f"gw-{index}", template))

        simulator = SetupTrafficSimulator(seed=derive_seed(seed, f"{self.name}:traffic"))
        truth: dict[str, TruthRecord] = {}
        traces: list[SetupTrace] = []
        macs: dict[str, MACAddress] = {}
        for index, device_type in enumerate(self.trained_types):
            trace = simulator.simulate(profile_of(device_type), start_time=index * 5.0)
            traces.append(trace)
            macs[device_type] = trace.device_mac
            expected = device_type
            if device_type == self.drift_device:
                expected = UNKNOWN  # post-drift it behaves like an untrained model
            elif device_type == self.retype_device:
                expected = self.retype_behavior
            truth[str(trace.device_mac)] = TruthRecord(
                str(trace.device_mac), "fleet-device", device_type, expected
            )
        for member in members:
            member.run_until_idle(_source(traces))

        # Phase 2: the same MACs, new setup behaviour, assembled offline
        # into the steady-state fingerprints the scheduler re-identifies.
        behavior = {
            self.drift_device: self.drift_behavior,
            self.retype_device: self.retype_behavior,
        }
        fresh: dict[MACAddress, object] = {}
        assembler = FingerprintAssembler()
        for device_type in self.trained_types:
            profile = profile_of(behavior.get(device_type, device_type))
            trace = simulator.simulate(profile, device_mac=macs[device_type], start_time=200.0)
            for packet in trace.packets:
                ready = assembler.observe(packet)
                if ready is not None:
                    fresh[ready.mac] = ready.fingerprint
        for ready in assembler.flush():
            fresh[ready.mac] = ready.fingerprint
        pairs = sorted(fresh.items(), key=lambda item: str(item[0]))

        reports = {}
        for member in members:
            scheduler = ReprofileScheduler(member.lifecycle, interval=1.0, batch_budget=64)
            report = scheduler.run(pairs, now=member.clock.now())
            reports[member.name] = {
                "examined": report.examined,
                "unchanged": sorted(str(mac) for mac in report.unchanged),
                "drifted": sorted(str(mac) for mac in report.drifted),
                "retyped": sorted(str(mac) for mac in report.retyped),
                "still_unknown": sorted(str(mac) for mac in report.still_unknown),
                "deferred": report.deferred,
            }
        agreement = len({
            (tuple(view["drifted"]), tuple(view["retyped"]))
            for view in reports.values()
        }) == 1
        extra = {"reprofile": reports, "fleet_agreement": agreement}
        return CampaignOutcome(
            handle=members[0], truth=truth, extra_metrics=extra, handles=members
        )


@dataclass
class DhcpChurnCampaign(Campaign):
    """Lease reassignment races between identification and enforcement.

    After a normal identification run (including an unknown device that
    re-joins under a rotated MAC, twice -- the quarantine dedup case), a
    scripted DHCP storm drives :meth:`SecurityGateway.note_address_claim`
    and :meth:`disconnect_device` through the hostile interleavings:
    a rotated identity claims its predecessor's lease *before* the
    predecessor is disconnected, and a re-addressed device's old lease is
    taken over by a neighbour.  The scored invariant is map coherence --
    no stale or dangling ``ip_to_mac`` entries, no double-counted
    quarantine identity.
    """

    unknown_type: str = "SmarterCoffee"
    rejoin_replays: int = 2
    name = "dhcp-churn"

    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        identifier = self._train(seed)
        simulator = SetupTrafficSimulator(seed=derive_seed(seed, f"{self.name}:traffic"))
        truth: dict[str, TruthRecord] = {}
        traces: list[SetupTrace] = []
        for index, device_type in enumerate(self.trained_types):
            trace = simulator.simulate(profile_of(device_type), start_time=index * 4.0)
            traces.append(trace)
            truth[str(trace.device_mac)] = TruthRecord(
                str(trace.device_mac), "honest", device_type, device_type
            )

        unknown_trace = simulator.simulate(profile_of(self.unknown_type), start_time=30.0)
        traces.append(unknown_trace)
        old_mac = unknown_trace.device_mac
        truth[str(old_mac)] = TruthRecord(str(old_mac), "rotating", self.unknown_type, UNKNOWN)
        rotated = local_admin_mac(np.random.default_rng(derive_seed(seed, f"{self.name}:rotated")))
        # The rotated identity re-runs setup more than once: the log must
        # refresh its single entry, not grow one per sighting.
        for replay in range(self.rejoin_replays):
            traces.append(replay_trace(unknown_trace, rotated, 60.0 + replay * 30.0))
        truth[str(rotated)] = TruthRecord(str(rotated), "rotating", self.unknown_type, UNKNOWN)

        handle = self._build_gateway(identifier, run_dir)
        handle.run_until_idle(_source(traces))

        gateway = handle.gateway
        claims = 0
        for trace in traces[: len(self.trained_types)]:
            gateway.note_address_claim(trace.device_mac, trace.device_ip, 150.0)
            claims += 1
        gateway.note_address_claim(rotated, unknown_trace.device_ip, 155.0)
        claims += 1
        # The race: the old identity leaves *after* its lease moved on.
        # Its record still holds the lease's IP, so an unguarded
        # disconnect would evict the rotated identity's fresh mapping.
        gateway.disconnect_device(old_mac)
        device_a, device_b = traces[0], traces[1]
        new_ip = "192.168.99.250"
        gateway.note_address_claim(device_a.device_mac, new_ip, 160.0)
        gateway.note_address_claim(device_b.device_mac, device_a.device_ip, 165.0)
        claims += 2

        stale = sum(
            1
            for mac, record in gateway.devices.items()
            if record.ip_address and gateway.ip_to_mac.get(record.ip_address) != mac
        )
        dangling = sum(1 for mac in gateway.ip_to_mac.values() if mac not in gateway.devices)
        log = handle.lifecycle.quarantine
        extra = {
            "dhcp": {
                "claims": claims,
                "disconnects": 1,
                "rotated_mac": str(rotated),
                "stale_ip_mappings": stale,
                "dangling_ip_entries": dangling,
                "rotated_lease_holder": str(gateway.ip_to_mac.get(unknown_trace.device_ip, "")),
                "quarantine_entries": len(log),
                "quarantine_recorded": log.recorded,
                "quarantine_released": log.released,
            }
        }
        return CampaignOutcome(
            handle=handle, truth=truth, extra_metrics=extra, phantom_macs={str(rotated)}
        )


@dataclass
class BurstOverload(Campaign):
    """Simultaneous joins far above the drop-policy backpressure budget.

    Every device starts its setup at t=0 with the dispatch queue sized
    *below* one batch, so auto-drain can never race ahead of the offer
    stream and the drop policy must shed load.  The scored contract is
    exact accounting: every assembled fingerprint is either an
    identified verdict with a ledger record or a counted drop -- nothing
    disappears silently.
    """

    devices: int = 24
    unknown_type: str = "SmarterCoffee"
    max_batch: int = 8
    queue_capacity: int = 4
    backpressure: str = "drop"
    name = "burst-overload"

    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        identifier = self._train(seed)
        simulator = SetupTrafficSimulator(seed=derive_seed(seed, f"{self.name}:traffic"))
        population = list(self.trained_types) + [self.unknown_type]
        truth: dict[str, TruthRecord] = {}
        traces: list[SetupTrace] = []
        for index in range(self.devices):
            device_type = population[index % len(population)]
            trace = simulator.simulate(profile_of(device_type), start_time=0.0)
            traces.append(trace)
            expected = device_type if device_type in self.trained_types else UNKNOWN
            truth[str(trace.device_mac)] = TruthRecord(
                str(trace.device_mac), "burst", device_type, expected
            )

        handle = self._build_gateway(
            identifier,
            run_dir,
            backpressure=self.backpressure,
            max_batch=self.max_batch,
            queue_capacity=self.queue_capacity,
        )
        handle.run_until_idle(_source(traces))

        snapshot = handle.snapshot(include_timings=False)
        offered = snapshot.get("dispatcher.queue.offered", 0)
        accepted = snapshot.get("dispatcher.queue.accepted", 0)
        dropped = snapshot.get("dispatcher.queue.dropped", 0)
        blocked = snapshot.get("dispatcher.queue.blocked", 0)
        identified = snapshot.get("dispatcher.identified", 0)
        submitted = snapshot.get("dispatcher.submitted", 0)
        emitted = snapshot.get("assembler.fingerprints_emitted", 0)
        extra = {
            "burst": {
                "fingerprints_emitted": emitted,
                "submitted": submitted,
                "offered": offered,
                "accepted": accepted,
                "dropped": dropped,
                "blocked": blocked,
                "identified": identified,
                # No silently lost verdicts, either policy: every
                # fingerprint was submitted; each blocked offer is a
                # counted retry (MUST_DRAIN -> drain -> re-offer), so
                # offers decompose exactly into submissions + retries and
                # into accepts + drops + pushbacks; every accept became an
                # identified verdict.
                "exact_accounting": (
                    emitted == submitted
                    and offered == submitted + blocked
                    and offered == accepted + dropped + blocked
                    and accepted == identified
                ),
            }
        }
        return CampaignOutcome(handle=handle, truth=truth, extra_metrics=extra)


#: Registry of the stock campaigns, keyed by scenario name.
CAMPAIGNS = {
    campaign.name: campaign
    for campaign in (
        MimicryCampaign,
        MacRandomizationStorm,
        FirmwareDriftCampaign,
        DhcpChurnCampaign,
        BurstOverload,
    )
}
