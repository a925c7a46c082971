"""Autonomous lifecycle operations: trigger policies and re-profiling.

:mod:`repro.identification.lifecycle` gives the gateway a *coherent*
runtime-registration primitive (``learn_device_type``), but after PR 3
every transition still needed an operator: someone had to notice that a
pile of identical unknown devices had formed, call the learn API by hand,
and remember that sticky enforcement never revisits devices whose
fingerprints drift after a firmware update.  This module closes that loop
-- the paper's gateway *autonomously* tightens and relaxes enforcement as
device-type knowledge evolves (Sect. VIII-B):

* :class:`TriggerPolicy` -- the knobs deciding *when* a quarantine
  cluster (devices sharing one unseen-model fingerprint key) justifies an
  automatic learn: cluster size, dwell time, a trigger rate limit, and a
  cap on learns pending operator confirmation.
* :class:`LifecycleAutopilot` -- watches the
  :class:`~repro.identification.lifecycle.QuarantineLog` through
  :meth:`~LifecycleAutopilot.poll`, fires :class:`LearnProposal`\\ s when
  the policy is satisfied, and either executes
  ``learn_device_type`` immediately (auto-confirm) or parks the proposal
  for an operator decision (:meth:`~LifecycleAutopilot.approve` /
  :meth:`~LifecycleAutopilot.reject`).  Auto-learned types carry a
  *provisional* label and are capped below trusted isolation until an
  operator :meth:`~LifecycleAutopilot.promote`\\ s them.
* :class:`ReprofileScheduler` -- the steady-state pass: every
  ``interval`` stream-seconds it re-identifies a budgeted batch of the
  fleet with sticky enforcement off, so firmware updates that shift a
  device's fingerprint are detected and routed through the same
  quarantine -> learn flow instead of being silently ignored.

Departed devices are handled by the coordinator's disconnect coupling:
the autopilot registers itself as a disconnect listener, so a device that
leaves the network is shed from pending proposals (dissolving a cluster
below threshold cancels its proposal outright).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Optional, Sequence, Union

from repro.exceptions import AutopilotError
from repro.features.fingerprint import Fingerprint
from repro.identification.lifecycle import (
    LifecycleCoordinator,
    RelearnReport,
    fingerprint_key,
)
from repro.net.addresses import MACAddress

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.hub import Observability
    from repro.streaming.dispatcher import IdentifiedDevice

#: Prefix of provisional labels minted for auto-learned unknown models.
PROVISIONAL_LABEL_PREFIX = "unknown-model-"

#: Hex digits of the cluster-key digest carried in a provisional label.
#: Widened from the original 8 (32 bits -- a birthday collision at a few
#: tens of thousands of models) to 12 (48 bits); an *actual* prefix
#: collision is additionally disambiguated with a numeric suffix.
PROVISIONAL_LABEL_DIGEST_HEX = 12

#: ``completion_reason`` carried by verdicts produced by the steady-state
#: re-profiling pass (vs. ``"relearn"`` from fleet re-identification and
#: ``"budget"``/``"idle"``/``"flush"`` from the streaming assembler).
REPROFILE_REASON = "reprofile"


def provisional_label(cluster_key: bytes, taken: Collection[str] = ()) -> str:
    """The deterministic provisional label for an unseen-model cluster.

    Derived from the cluster's fingerprint content hash, so in the
    collision-free case (overwhelming at 48 digest bits) the same
    unknown model proposes the same label on every gateway and across
    restarts.  ``taken`` carries the labels already in use (known
    device-types, pending proposals, previously learned labels); when two
    different models hash-prefix-collide, the later one is disambiguated
    with a numeric suffix instead of silently merging into the first
    model's type.  The suffix is assigned in *discovery order*: it is
    deterministic per gateway, but two gateways that discovered the
    colliding models in opposite orders mint opposite suffixes -- on an
    actual collision, operator review (the provisional-label rename path
    tracked in the ROADMAP) is the cross-gateway reconciliation.

    Example:
        >>> provisional_label(bytes.fromhex("ab12cd34ef567890") + bytes(12))
        'unknown-model-ab12cd34ef56'
        >>> provisional_label(
        ...     bytes.fromhex("ab12cd34ef56ffff") + bytes(12),
        ...     taken={"unknown-model-ab12cd34ef56"},
        ... )
        'unknown-model-ab12cd34ef56-2'
    """
    base = PROVISIONAL_LABEL_PREFIX + cluster_key.hex()[:PROVISIONAL_LABEL_DIGEST_HEX]
    if base not in taken:
        return base
    suffix = 2
    while f"{base}-{suffix}" in taken:
        suffix += 1
    return f"{base}-{suffix}"


@dataclass(frozen=True)
class TriggerPolicy:
    """When does a quarantine cluster justify an automatic learn?

    Attributes:
        min_cluster_size: quarantined devices sharing one fingerprint key
            before the trigger may fire (the ROADMAP's "many devices of
            one unseen model pile up").
        min_dwell_seconds: the cluster's *oldest* member must have been
            quarantined at least this long -- a debounce so a transient
            burst does not immediately mint a device-type.
        cooldown_seconds: minimum stream-seconds between fired triggers
            (rate limit across *all* clusters).
        max_pending: proposals allowed to sit unconfirmed at once; when
            the operator hook defers and this many are parked, further
            clusters must wait.

    Example:
        >>> policy = TriggerPolicy(min_cluster_size=3, cooldown_seconds=60.0)
        >>> policy.min_cluster_size
        3
        >>> TriggerPolicy(min_cluster_size=0)
        Traceback (most recent call last):
            ...
        repro.exceptions.AutopilotError: min_cluster_size must be positive, got 0
    """

    min_cluster_size: int = 3
    min_dwell_seconds: float = 0.0
    cooldown_seconds: float = 0.0
    max_pending: int = 4

    def __post_init__(self) -> None:
        if self.min_cluster_size <= 0:
            raise AutopilotError(
                f"min_cluster_size must be positive, got {self.min_cluster_size}"
            )
        if self.min_dwell_seconds < 0:
            raise AutopilotError(
                f"min_dwell_seconds cannot be negative, got {self.min_dwell_seconds}"
            )
        if self.cooldown_seconds < 0:
            raise AutopilotError(
                f"cooldown_seconds cannot be negative, got {self.cooldown_seconds}"
            )
        if self.max_pending <= 0:
            raise AutopilotError(f"max_pending must be positive, got {self.max_pending}")


@dataclass
class LearnProposal:
    """One fired trigger: an unseen-model cluster proposed for learning."""

    cluster_key: bytes
    label: str
    macs: tuple[MACAddress, ...]
    fingerprints: tuple[Fingerprint, ...]
    proposed_at: float = 0.0

    @property
    def cluster_size(self) -> int:
        return len(self.macs)

    def without(self, mac: MACAddress) -> "LearnProposal":
        """A copy of the proposal with one (departed) member removed."""
        keep = [index for index, member in enumerate(self.macs) if member != mac]
        return LearnProposal(
            cluster_key=self.cluster_key,
            label=self.label,
            macs=tuple(self.macs[index] for index in keep),
            fingerprints=tuple(self.fingerprints[index] for index in keep),
            proposed_at=self.proposed_at,
        )


@dataclass(frozen=True)
class AutopilotDecision:
    """What :meth:`LifecycleAutopilot.poll` did about one proposal."""

    proposal: LearnProposal
    action: str  # "learned" | "pending" | "rejected"
    report: Optional[RelearnReport] = None


class LifecycleAutopilot:
    """Policy-driven automation of the quarantine -> learn flow.

    Attributes:
        coordinator: the lifecycle coordinator whose quarantine log is
            watched and whose ``learn_device_type`` is driven.
        policy: the :class:`TriggerPolicy` deciding when clusters fire.
        confirm: optional operator-confirmation hook, called once per
            fired trigger with the :class:`LearnProposal`.  Return a
            label (the proposal's provisional one, or a better name) to
            execute the learn immediately; return ``None`` to park the
            proposal for a later :meth:`approve` / :meth:`reject`;
            return ``False`` to veto the cluster outright (it stays
            quarantined and is never re-proposed).  With no hook, every
            proposal auto-executes under its provisional label and the
            label is marked *provisional* with the security service
            (capped below trusted isolation) until :meth:`promote` is
            called.
        security_service: optional
            :class:`~repro.security_service.service.IoTSecurityService`;
            auto-confirmed labels are registered as provisional with it.
            When unset, the sink's ``security_service`` (a
            :class:`~repro.streaming.pipeline.GatewayEnforcementSink`
            carries one) is used instead, so the cap applies under either
            wiring.
        cluster_key: content-hash function grouping quarantined devices
            into same-model clusters; defaults to
            :func:`~repro.identification.lifecycle.fingerprint_key` (the
            dispatcher cache's key -- identical setups, identical key).
        observability: optional hub; defaults to the coordinator's so a
            wired lifecycle automatically covers its autopilot.  When
            attached, trigger counters become snapshot sources and every
            promotion lands in the evidence ledger (learns are recorded
            by the coordinator itself).
    """

    def __init__(
        self,
        coordinator: LifecycleCoordinator,
        policy: Optional[TriggerPolicy] = None,
        confirm: Optional[Callable[[LearnProposal], Union[str, bool, None]]] = None,
        security_service=None,
        cluster_key: Callable[[Fingerprint], bytes] = fingerprint_key,
        observability: Optional["Observability"] = None,
    ):
        self.coordinator = coordinator
        self.policy = policy if policy is not None else TriggerPolicy()
        self.confirm = confirm
        self.security_service = security_service
        self.cluster_key = cluster_key
        self.observability = (
            observability if observability is not None else coordinator.observability
        )
        if self.observability is not None:
            self.observability.register_autopilot(self)
        self.triggers_fired = 0
        self.learned = 0
        self.rejected = 0
        self.cancelled = 0
        self.last_trigger_at: Optional[float] = None
        self._pending: dict[bytes, LearnProposal] = {}
        self._vetoed: set[bytes] = set()
        self._learned_members: dict[str, tuple[MACAddress, ...]] = {}
        coordinator.add_disconnect_listener(self._on_disconnect)

    # ------------------------------------------------------------------ #
    # Cluster detection.
    # ------------------------------------------------------------------ #
    def clusters(self) -> dict[bytes, list]:
        """Quarantined devices grouped by fingerprint content key."""
        grouped: dict[bytes, list] = {}
        for entry in self.coordinator.quarantine.devices():
            grouped.setdefault(self.cluster_key(entry.fingerprint), []).append(entry)
        return grouped

    @property
    def pending(self) -> tuple[LearnProposal, ...]:
        """Proposals awaiting an operator decision, oldest first."""
        return tuple(self._pending.values())

    # ------------------------------------------------------------------ #
    # The trigger loop.
    # ------------------------------------------------------------------ #
    def poll(self, now: float = 0.0) -> list[AutopilotDecision]:
        """Scan the quarantine log and fire every trigger the policy allows.

        ``now`` is stream time (the gateway clock).  Returns one
        :class:`AutopilotDecision` per proposal acted on this poll:
        ``"learned"`` when ``learn_device_type`` ran (the report rides
        along), ``"pending"`` when the confirmation hook deferred,
        ``"rejected"`` when the hook vetoed the cluster.
        """
        decisions: list[AutopilotDecision] = []
        clusters = self.clusters()

        # Pending proposals whose cluster dissolved below threshold
        # (devices identified, were released, or left the network) are
        # withdrawn -- the evidence for the learn no longer exists.
        for key in list(self._pending):
            members = clusters.get(key, [])
            if len(members) < self.policy.min_cluster_size:
                del self._pending[key]
                self.cancelled += 1

        for key, members in clusters.items():
            if key in self._pending:
                continue  # already proposed, operator still deciding
            if key in self._vetoed:
                continue  # operator said no; do not re-propose the model
            if len(members) < self.policy.min_cluster_size:
                continue
            oldest = min(entry.quarantined_at for entry in members)
            if now - oldest < self.policy.min_dwell_seconds:
                continue
            if (
                self.last_trigger_at is not None
                and now - self.last_trigger_at < self.policy.cooldown_seconds
            ):
                continue  # rate limit: one trigger per cooldown window
            if len(self._pending) >= self.policy.max_pending:
                continue

            proposal = LearnProposal(
                cluster_key=key,
                label=provisional_label(key, taken=self._taken_labels()),
                macs=tuple(entry.mac for entry in members),
                fingerprints=tuple(entry.fingerprint for entry in members),
                proposed_at=now,
            )
            self.triggers_fired += 1
            self.last_trigger_at = now

            if self.confirm is None:
                report = self._execute(proposal, proposal.label, provisional=True)
                decisions.append(AutopilotDecision(proposal, "learned", report))
                continue
            label = self.confirm(proposal)
            if label is None:
                self._pending[key] = proposal
                decisions.append(AutopilotDecision(proposal, "pending"))
            elif label is False:
                self._vetoed.add(key)
                self.rejected += 1
                decisions.append(AutopilotDecision(proposal, "rejected"))
            else:
                report = self._execute(proposal, label, provisional=False)
                decisions.append(AutopilotDecision(proposal, "learned", report))
        return decisions

    def approve(self, cluster_key: bytes, label: Optional[str] = None) -> RelearnReport:
        """Operator confirmation of a pending proposal; executes the learn.

        ``label`` overrides the provisional one (the operator knows the
        real model name).  An approved label is *not* provisional: the
        security service assesses it normally.
        """
        proposal = self._pending.pop(cluster_key, None)
        if proposal is None:
            raise AutopilotError(f"no pending proposal for cluster {cluster_key.hex()[:8]}")
        return self._execute(proposal, label or proposal.label, provisional=False)

    def reject(self, cluster_key: bytes) -> LearnProposal:
        """Operator veto of a pending proposal.

        The fleet stays quarantined (an operator can still learn it
        manually through the coordinator) and the cluster key is
        remembered so the same model is not re-proposed on every poll.
        """
        proposal = self._pending.pop(cluster_key, None)
        if proposal is None:
            raise AutopilotError(f"no pending proposal for cluster {cluster_key.hex()[:8]}")
        self._vetoed.add(cluster_key)
        self.rejected += 1
        return proposal

    def promote(self, label: str) -> int:
        """Clear a provisional label after operator review.

        The security service stops capping the type's isolation, and every
        device the autopilot learned under the label is re-assessed so its
        gateway rule relaxes to the full assessed level.  Returns the
        number of devices re-enforced.
        """
        service = self._service()
        if service is not None:
            service.provisional_types.discard(label)
        sink = self.coordinator.sink
        gateway = getattr(sink, "gateway", None)
        upgraded = 0
        if gateway is not None and service is not None:
            for mac in self._learned_members.get(label, ()):
                if mac in gateway.devices:
                    gateway.apply_assessment(mac, service.assess_device_type(label))
                    upgraded += 1
        if self.observability is not None:
            self.observability.record_promotion(
                label=label,
                upgraded=upgraded,
                revision=self.coordinator.identifier.revision,
                epoch=self.coordinator.epoch.generation,
            )
        return upgraded

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _taken_labels(self) -> set[str]:
        """Labels a freshly minted provisional label must not collide with.

        Known device-types (a hash-prefix collision with an existing type
        would silently merge two models into one classifier), labels of
        proposals still awaiting an operator decision, and labels this
        autopilot has already learned.
        """
        taken = set(self.coordinator.identifier.known_device_types)
        taken.update(proposal.label for proposal in self._pending.values())
        taken.update(self._learned_members)
        return taken

    def _service(self):
        """The security service to register provisional labels with.

        Falls back to the sink's service so the below-trusted cap applies
        whether or not the autopilot was handed one explicitly.
        """
        if self.security_service is not None:
            return self.security_service
        return getattr(self.coordinator.sink, "security_service", None)

    def _execute(
        self, proposal: LearnProposal, label: str, provisional: bool
    ) -> RelearnReport:
        if provisional:
            service = self._service()
            if service is not None:
                # Registered *before* the learn: the relearn pass
                # re-assesses the fleet, and an auto-minted type must not
                # come out trusted.
                service.provisional_types.add(label)
        report = self.coordinator.learn_device_type(label, proposal.fingerprints)
        self.learned += 1
        self._learned_members[label] = proposal.macs
        return report

    def _on_disconnect(self, mac: MACAddress) -> None:
        """Shed a departed device from every pending proposal."""
        for key, proposal in list(self._pending.items()):
            if mac not in proposal.macs:
                continue
            slimmed = proposal.without(mac)
            if slimmed.cluster_size < self.policy.min_cluster_size:
                del self._pending[key]
                self.cancelled += 1
            else:
                self._pending[key] = slimmed


# --------------------------------------------------------------------- #
# Steady-state re-profiling.
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReprofileReport:
    """What one :meth:`ReprofileScheduler.run` pass found."""

    examined: int
    unchanged: tuple[MACAddress, ...] = ()
    drifted: tuple[MACAddress, ...] = ()  # known type -> unknown: quarantined
    retyped: tuple[MACAddress, ...] = ()  # known type -> other known type
    still_unknown: tuple[MACAddress, ...] = ()
    deferred: int = 0  # budget exhausted; next pass picks them up
    identify_seconds: float = 0.0


class ReprofileScheduler:
    """Periodic fleet-wide re-identification with sticky enforcement off.

    ``GatewayEnforcementSink(sticky=True)`` deliberately drops post-setup
    "unknown" verdicts on identified devices -- steady-state traffic is
    not setup traffic.  The cost is blindness to *real* fingerprint drift
    (a firmware update changes the setup behaviour, Sect. VIII-B).  This
    scheduler closes the gap: every ``interval`` stream-seconds it takes
    freshly assembled fingerprints for (a budgeted batch of) the fleet,
    re-identifies them through ``identify_many``, and applies every
    verdict verbatim -- drifted devices are downgraded to strict,
    quarantined, and from there flow through the autopilot's normal
    quarantine -> learn path.

    Attributes:
        coordinator: supplies the identifier, sink and quarantine log.
        interval: stream-seconds between passes (:meth:`due` gates
            :meth:`run`; calling :meth:`run` directly forces a pass).
        batch_budget: devices re-identified per pass; the rest are
            reported as ``deferred`` and the internal cursor resumes with
            them next pass, so a large fleet is covered round-robin
            without one giant classification burst.
    """

    def __init__(
        self,
        coordinator: LifecycleCoordinator,
        interval: float = 3600.0,
        batch_budget: int = 64,
    ):
        if interval <= 0:
            raise AutopilotError(f"reprofile interval must be positive, got {interval}")
        if batch_budget <= 0:
            raise AutopilotError(f"batch_budget must be positive, got {batch_budget}")
        self.coordinator = coordinator
        self.interval = interval
        self.batch_budget = batch_budget
        self.last_run_at: Optional[float] = None
        self.passes = 0
        self._cursor = 0

    def due(self, now: float) -> bool:
        """True when a steady-state pass is owed at stream time ``now``."""
        return self.last_run_at is None or now - self.last_run_at >= self.interval

    def run(
        self,
        fleet: Sequence[tuple[MACAddress, Fingerprint]],
        now: float = 0.0,
    ) -> ReprofileReport:
        """Re-identify (a budgeted slice of) the fleet, sticky off.

        ``fleet`` pairs each MAC with a *freshly assembled* steady-state
        fingerprint (the caller owns capture; this method owns verdicts).
        Verdict handling, per device:

        * same type as the gateway record: nothing to do;
        * a different known type: the verdict is pushed through the sink
          (rule replaced in place);
        * unknown while the record carries a known type: *drift* -- the
          verdict is enforced verbatim (strict isolation) and the device
          is quarantined, entering the normal learn flow;
        * unknown and never identified: stays quarantined, no rule churn.
        """
        # Imported lazily: repro.streaming imports this package.
        from repro.streaming.dispatcher import IdentifiedDevice

        self.passes += 1
        self.last_run_at = now
        if not fleet:
            return ReprofileReport(examined=0)

        # Budgeted round-robin: resume where the previous pass stopped.
        if self._cursor >= len(fleet):
            self._cursor = 0
        window = list(fleet[self._cursor : self._cursor + self.batch_budget])
        self._cursor += len(window)
        deferred = len(fleet) - len(window)

        start = time.perf_counter()
        results = self.coordinator.identifier.identify_many(
            [fingerprint for _, fingerprint in window]
        )
        identify_seconds = time.perf_counter() - start

        sink = self.coordinator.sink
        gateway = getattr(sink, "gateway", None)
        unchanged: list[MACAddress] = []
        drifted: list[MACAddress] = []
        retyped: list[MACAddress] = []
        still_unknown: list[MACAddress] = []

        was_sticky = getattr(sink, "sticky", None)
        if was_sticky:
            sink.sticky = False  # a re-profiling verdict is applied verbatim
        try:
            for (mac, fingerprint), result in zip(window, results):
                record = gateway.devices.get(mac) if gateway is not None else None
                previous = record.device_type if record is not None else None
                identified = IdentifiedDevice(
                    mac=mac,
                    fingerprint=fingerprint,
                    result=result,
                    completion_reason=REPROFILE_REASON,
                )
                if result.is_new_device_type:
                    if previous not in (None, result.device_type):
                        drifted.append(mac)
                        if sink is not None:
                            sink(identified)  # downgrade to strict + quarantine
                        if mac not in self.coordinator.quarantine:
                            # A sink without lifecycle wiring enforced the
                            # strict rule but never parked the device.
                            self.coordinator.note_identified(identified, now=now)
                    else:
                        still_unknown.append(mac)
                        # Already-parked devices keep their original entry:
                        # re-recording would swap the clustered *setup*
                        # fingerprint for this per-device steady-state one
                        # and reset the dwell clock, starving the trigger.
                        if mac not in self.coordinator.quarantine:
                            self.coordinator.note_identified(identified, now=now)
                    continue
                if previous == result.device_type:
                    unchanged.append(mac)
                    self.coordinator.note_identified(identified, now=now)
                    continue
                retyped.append(mac)
                if sink is not None:
                    sink(identified)
                # Idempotent when the sink already reported through its
                # lifecycle wiring; releases the quarantine entry otherwise.
                self.coordinator.note_identified(identified, now=now)
        finally:
            if was_sticky:
                sink.sticky = was_sticky

        return ReprofileReport(
            examined=len(window),
            unchanged=tuple(unchanged),
            drifted=tuple(drifted),
            retyped=tuple(retyped),
            still_unknown=tuple(still_unknown),
            deferred=deferred,
            identify_seconds=identify_seconds,
        )
