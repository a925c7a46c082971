"""Online-learning lifecycle: quarantine -> learn -> re-identify -> enforce.

The paper's scalability argument (Sect. IV-B, contrasted with multi-class
approaches such as GTID) is that a per-type classifier can be added at any
time without retraining the rest of the bank.  The runtime consequences of
such a registration reach far beyond the bank, though, and each consumer
of identification verdicts holds state that silently goes stale:

* the dispatcher's :class:`~repro.streaming.dispatcher.IdentificationCache`
  keeps serving verdicts computed against the *old* bank;
* devices that identified as ``"unknown"`` were quarantined under strict
  isolation by the Security Gateway and nothing ever revisits them;
* model-store bundles saved before the registration reload a bank that
  does not know the new type.

This module is the coherence layer that makes runtime type registration
atomic across all three:

* :class:`CacheEpoch` -- a shared generation counter.  Caches stamp every
  entry with the generation current at insertion time and reject entries
  from older generations on lookup, so a stale verdict is unreachable even
  if an explicit ``clear()`` was missed (crash between bank update and
  invalidation, a cache registered after the fact, ...).
* :class:`QuarantineLog` -- a bounded record of the devices whose
  fingerprints every classifier rejected, retained so they can be
  re-identified once their type is learned.
* :class:`LifecycleCoordinator` -- orchestrates
  :meth:`~LifecycleCoordinator.learn_device_type`: trains the new
  classifier through the identifier's incremental path, bumps the epoch
  and clears every registered cache, batch re-identifies the quarantined
  fleet through ``identify_many`` (compiled forests), pushes the upgraded
  verdicts through the enforcement sink so strict gateway rules are
  replaced (and WPS credentials rekeyed where the new isolation level
  warrants it), and rolls a fresh model-store snapshot stamped with the
  new epoch so a loaded bundle knows which cache generation it belongs to.

Two durability/coupling layers round the subsystem out:

* the quarantine log can be *persisted* beside the model bundle
  (:func:`save_quarantine_log` / :func:`load_quarantine_log`, or
  write-through via :attr:`LifecycleCoordinator.quarantine_path`); a
  restarted gateway rebuilds the whole lifecycle state with
  :meth:`LifecycleCoordinator.resume` and loses no pending device;
* :meth:`LifecycleCoordinator.note_disconnected` couples gateway-side
  device departure (explicit disconnect, idle rule eviction) into the
  lifecycle so departed devices are neither re-identified nor counted
  toward the autopilot's learning clusters
  (:mod:`repro.identification.autopilot` drives the triggers).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.exceptions import LifecycleError

# fingerprint_key is canonically defined in repro.features.fingerprint (the
# discrimination stage seeds its deterministic reference draw from it, and
# repro.distance must not import repro.identification); it is re-exported
# here under its historical lifecycle-layer name for the dispatcher cache
# and the autopilot's cluster detection.
from repro.features.fingerprint import Fingerprint
from repro.features.fingerprint import fingerprint_key as fingerprint_key
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import (
    load_identifier,
    load_identifier_with_epoch,
    load_quarantine_records,
    save_identifier,
    save_quarantine_records,
)
from repro.net.addresses import MACAddress
from repro.obs.evidence import (
    QUARANTINE_DISCARDED,
    QUARANTINE_RECORDED,
    QUARANTINE_RELEASED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.obs.hub import Observability
    from repro.streaming.dispatcher import IdentificationCache, IdentifiedDevice

#: ``completion_reason`` carried by verdicts produced by fleet
#: re-identification (vs. ``"budget"``/``"idle"``/``"flush"`` from the
#: streaming assembler).
RELEARN_REASON = "relearn"


class CacheEpoch:
    """A monotonic generation counter shared by verdict caches.

    Every cache entry is stamped with the generation current when it was
    written; a lookup that finds an entry from an older generation treats
    it as a miss and evicts it.  Bumping the epoch therefore invalidates
    every sharing cache *atomically*, without enumerating them -- the
    belt to ``clear()``'s braces.

    Example:
        >>> epoch = CacheEpoch()
        >>> epoch.bump()
        1
        >>> epoch.generation, epoch.invalidations
        (1, 1)
    """

    __slots__ = ("generation", "invalidations")

    def __init__(self, generation: int = 0):
        if generation < 0:
            raise LifecycleError(f"epoch generation cannot be negative, got {generation}")
        self.generation = generation
        self.invalidations = 0

    def bump(self) -> int:
        """Invalidate every entry stamped with the current generation."""
        self.generation += 1
        self.invalidations += 1
        return self.generation

    def advance_to(self, generation: int) -> int:
        """Jump forward to an externally assigned generation (fleet push).

        A pushed model bundle arrives stamped with the epoch watermark the
        trainer assigned; the receiving gateway adopts that generation
        instead of minting its own, so every member of the fleet reports
        the *same* number for the same model.  Advancing counts as one
        invalidation (all current cache entries become unreachable);
        advancing to the current generation is a no-op; moving backwards
        is refused -- a rollback re-publishes the old bundle under a
        *fresh, higher* watermark (see ``FleetCoordinator.rollback``).
        """
        if generation < self.generation:
            raise LifecycleError(
                f"cannot move epoch backwards (at {self.generation}, "
                f"asked for {generation}); rollbacks re-stamp the bundle "
                "under a fresh higher epoch"
            )
        if generation > self.generation:
            self.generation = generation
            self.invalidations += 1
        return self.generation

    def __repr__(self) -> str:
        return f"CacheEpoch(generation={self.generation})"


@dataclass(frozen=True)
class QuarantinedDevice:
    """One device parked under strict isolation awaiting a learnable type."""

    mac: MACAddress
    fingerprint: Fingerprint
    quarantined_at: float = 0.0
    completion_reason: str = ""


class QuarantineLog:
    """A bounded log of devices whose fingerprints matched no classifier.

    The gateway pins such devices to strict isolation; this log retains
    their fingerprints so that, once the missing device-type is learned,
    the fleet can be re-identified and its rules upgraded without
    re-onboarding anything.  Insertion order is retained; exceeding
    ``capacity`` evicts the oldest entry (a device quarantined long ago is
    the least likely to still be connected).

    Example:
        >>> import numpy as np
        >>> from repro.features.fingerprint import Fingerprint, FEATURE_COUNT
        >>> from repro.net.addresses import MACAddress
        >>> log = QuarantineLog(capacity=8)
        >>> mac = MACAddress.from_string("02:00:00:00:00:01")
        >>> entry = log.record(
        ...     mac,
        ...     Fingerprint(vectors=np.zeros((1, FEATURE_COUNT))),
        ...     now=4.0,
        ...     completion_reason="idle",
        ... )
        >>> mac in log, len(log)
        (True, 1)
        >>> log.discard(mac)  # the device identified, or left the network
        True
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise LifecycleError(f"quarantine capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.recorded = 0
        self.evicted = 0
        self.released = 0
        self._devices: OrderedDict[MACAddress, QuarantinedDevice] = OrderedDict()

    def record(
        self,
        mac: MACAddress,
        fingerprint: Fingerprint,
        now: float = 0.0,
        completion_reason: str = "",
    ) -> QuarantinedDevice:
        """Park a device; a repeat sighting replaces the stored fingerprint."""
        entry = QuarantinedDevice(
            mac=mac,
            fingerprint=fingerprint,
            quarantined_at=now,
            completion_reason=completion_reason,
        )
        self._devices[mac] = entry
        self._devices.move_to_end(mac)
        self.recorded += 1
        while len(self._devices) > self.capacity:
            self._devices.popitem(last=False)
            self.evicted += 1
        return entry

    def discard(self, mac: MACAddress) -> bool:
        """Release a device (it identified, or left the network)."""
        present = self._devices.pop(mac, None) is not None
        if present:
            self.released += 1
        return present

    def devices(self) -> list[QuarantinedDevice]:
        """Snapshot of the quarantined fleet, oldest first."""
        return list(self._devices.values())

    def macs(self) -> list[MACAddress]:
        return list(self._devices)

    def __contains__(self, mac: object) -> bool:
        return mac in self._devices

    def __len__(self) -> int:
        return len(self._devices)


def save_quarantine_log(
    path: Union[str, Path], log: QuarantineLog, epoch: Optional[int] = None
) -> Path:
    """Persist a quarantine log beside the model bundle.

    The bundle is schema-versioned, SHA-256-checksummed, epoch-stamped and
    written atomically (write-then-rename), so a gateway that dies
    mid-save keeps its last good log.  A restarted gateway reloads it with
    :func:`load_quarantine_log` and resumes pending re-identifications
    with no lost devices.
    """
    records = [
        {
            "mac": entry.mac.value,
            "vectors": entry.fingerprint.vectors,
            "quarantined_at": entry.quarantined_at,
            "completion_reason": entry.completion_reason,
        }
        for entry in log.devices()
    ]
    counters = {
        "recorded": log.recorded,
        "evicted": log.evicted,
        "released": log.released,
    }
    return save_quarantine_records(
        path, records, capacity=log.capacity, epoch=epoch, counters=counters
    )


def load_quarantine_log(
    path: Union[str, Path], expected_epoch: Optional[int] = None
) -> QuarantineLog:
    """Reload a quarantine log persisted by :func:`save_quarantine_log`.

    ``expected_epoch`` (when given) must equal the epoch recorded in the
    bundle: a log saved before the latest type registration references a
    fleet that was already re-identified (or still lists devices a newer
    runtime has released), so version skew is rejected with
    :class:`~repro.exceptions.ModelStoreError` rather than resumed.
    Insertion order and the log's lifetime counters are restored exactly.
    """
    meta, records = load_quarantine_records(path, expected_epoch=expected_epoch)
    log = QuarantineLog(capacity=meta["capacity"])
    for record in records:
        log.record(
            MACAddress(record["mac"]),
            Fingerprint(vectors=record["vectors"]),
            now=record["quarantined_at"],
            completion_reason=record["completion_reason"],
        )
    # record() above counted the restorations; overwrite with the saved
    # lifetime counters so persistence is invisible to the accounting.
    counters = meta.get("counters", {})
    log.recorded = counters.get("recorded", log.recorded)
    log.evicted = counters.get("evicted", log.evicted)
    log.released = counters.get("released", log.released)
    return log


@dataclass(frozen=True)
class RelearnReport:
    """What one :meth:`LifecycleCoordinator.learn_device_type` call did."""

    device_type: str
    generation: int
    quarantined: int
    upgraded: tuple[MACAddress, ...] = ()
    still_unknown: tuple[MACAddress, ...] = ()
    identify_seconds: float = 0.0
    snapshot_path: Optional[Path] = None

    @property
    def devices_per_second(self) -> float:
        """Fleet re-identification throughput of this relearn."""
        return self.quarantined / self.identify_seconds if self.identify_seconds else 0.0


@dataclass
class LifecycleCoordinator:
    """Coordinates runtime type registration across every verdict consumer.

    Attributes:
        identifier: the live two-stage identifier whose bank grows.
        quarantine: the unknown-device log fed by :meth:`note_identified`.
        sink: per-device verdict consumer, typically a
            :class:`~repro.streaming.pipeline.GatewayEnforcementSink`;
            upgraded verdicts of the re-identified fleet are pushed through
            it so enforcement rules are replaced in place.
        epoch: the shared cache generation counter.  Caches created through
            :meth:`make_cache` share it; independently created caches can
            pass it as ``IdentificationCache(epoch=coordinator.epoch)``.
        store_path: when set, :meth:`learn_device_type` rolls a fresh
            model-store snapshot here after every registration.
        quarantine_path: when set, the quarantine log is persisted here
            (epoch-stamped, beside the model bundle) after every change --
            a restarted gateway resumes pending re-identifications via
            :meth:`resume` with no lost devices.
        observability: optional hub; when attached, every quarantine
            transition and type registration lands in the evidence ledger
            and the coordinator's counters become snapshot sources.
    """

    identifier: DeviceTypeIdentifier
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    sink: Optional[Callable[["IdentifiedDevice"], None]] = None
    epoch: CacheEpoch = field(default_factory=CacheEpoch)
    store_path: Optional[Union[str, Path]] = None
    quarantine_path: Optional[Union[str, Path]] = None
    observability: Optional["Observability"] = None
    relearns: int = 0
    disconnects: int = 0
    _caches: list = field(default_factory=list, repr=False)
    _disconnect_listeners: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.observability is not None:
            self.observability.register_lifecycle(self)

    def _record_quarantine_transition(
        self,
        mac: MACAddress,
        transition: str,
        now: float = 0.0,
        fingerprint: Optional[Fingerprint] = None,
        completion_reason: str = "",
    ) -> None:
        if self.observability is None:
            return
        self.observability.record_quarantine(
            mac=str(mac),
            transition=transition,
            revision=self.identifier.revision,
            epoch=self.epoch.generation,
            stream_time=now,
            fingerprint_key_hex=fingerprint_key(fingerprint).hex()
            if fingerprint is not None
            else None,
            completion_reason=completion_reason,
        )

    # ------------------------------------------------------------------ #
    # Cache registration.
    # ------------------------------------------------------------------ #
    def make_cache(self, capacity: int = 512) -> "IdentificationCache":
        """A registered :class:`IdentificationCache` bound to this epoch."""
        # Imported lazily: repro.streaming imports this module for
        # CacheEpoch, so a module-level import here would be circular.
        from repro.streaming.dispatcher import IdentificationCache

        cache = IdentificationCache(capacity=capacity, epoch=self.epoch)
        self._caches.append(cache)
        return cache

    @property
    def registered_caches(self) -> tuple:
        return tuple(self._caches)

    # ------------------------------------------------------------------ #
    # Streaming-side hook.
    # ------------------------------------------------------------------ #
    def note_identified(self, identified: "IdentifiedDevice", now: float = 0.0) -> bool:
        """Track one verdict leaving the pipeline; True when quarantined.

        Unknown verdicts park the device in the quarantine log (the
        gateway has pinned it to strict isolation); a successful
        identification releases any earlier quarantine entry for the MAC.
        """
        if identified.result.is_new_device_type:
            self.quarantine.record(
                identified.mac,
                identified.fingerprint,
                now=now,
                completion_reason=identified.completion_reason,
            )
            self._record_quarantine_transition(
                identified.mac,
                QUARANTINE_RECORDED,
                now=now,
                fingerprint=identified.fingerprint,
                completion_reason=identified.completion_reason,
            )
            self._persist_quarantine()
            return True
        if self.quarantine.discard(identified.mac):
            self._record_quarantine_transition(
                identified.mac, QUARANTINE_RELEASED, now=now
            )
            self._persist_quarantine()
        return False

    def note_disconnected(self, mac: MACAddress) -> bool:
        """A device left the network; stop re-identifying it.

        Called by :meth:`SecurityGateway.disconnect_device
        <repro.gateway.security_gateway.SecurityGateway.disconnect_device>`
        (directly or through its idle sweep, ``evict_idle``) on a gateway
        wired through ``attach_lifecycle``.  The device's quarantine entry is
        dropped -- a departed device must not be re-identified, enforced
        or counted toward an autopilot learning cluster -- and every
        registered disconnect listener (e.g. a
        :class:`~repro.identification.autopilot.LifecycleAutopilot`) is
        told so pending proposals shed the MAC too.  Returns True when a
        quarantine entry existed.
        """
        self.disconnects += 1
        present = self.quarantine.discard(mac)
        if present:
            self._record_quarantine_transition(mac, QUARANTINE_DISCARDED)
            self._persist_quarantine()
        for listener in self._disconnect_listeners:
            listener(mac)
        return present

    def add_disconnect_listener(self, listener: Callable[[MACAddress], None]) -> None:
        """Register a callable invoked with the MAC of every disconnect."""
        if not callable(listener):
            raise LifecycleError("a disconnect listener must be callable")
        if not any(existing is listener for existing in self._disconnect_listeners):
            self._disconnect_listeners.append(listener)

    # ------------------------------------------------------------------ #
    # The coherent registration path.
    # ------------------------------------------------------------------ #
    def learn_device_type(
        self,
        device_type: str,
        fingerprints: Sequence[Fingerprint],
        snapshot: bool = True,
    ) -> RelearnReport:
        """Register a device-type and restore coherence everywhere.

        In order: train the new per-type classifier through the
        identifier's incremental path, bump the cache epoch and clear
        every registered cache, batch re-identify the quarantined fleet,
        push each upgraded verdict through the sink (replacing the
        device's strict rule with its assessed isolation level), and --
        when :attr:`store_path` is set and ``snapshot`` is True -- roll a
        model-store snapshot stamped with the new epoch.

        Devices the grown bank still rejects remain quarantined for the
        next registration.

        Reproducibility: the registration bumps the identifier
        ``revision``, which salts the discrimination stage's
        deterministic reference draw.  The fleet re-identification is
        therefore *bit-reproducible* -- two gateways that learn the same
        type over the same bundle produce identical upgraded/still-unknown
        partitions, regardless of their prior traffic histories.
        """
        self.identifier.add_device_type(device_type, fingerprints)
        generation = self.epoch.bump()
        for cache in self._caches:
            cache.clear()

        fleet = self.quarantine.devices()
        upgraded: list[MACAddress] = []
        still_unknown: list[MACAddress] = []
        identify_seconds = 0.0
        if fleet:
            from repro.streaming.dispatcher import IdentifiedDevice  # import cycle guard

            start = time.perf_counter()
            results = self.identifier.identify_many([entry.fingerprint for entry in fleet])
            identify_seconds = time.perf_counter() - start
            for entry, result in zip(fleet, results):
                if result.is_new_device_type:
                    still_unknown.append(entry.mac)
                    continue
                if self.sink is not None:
                    self.sink(
                        IdentifiedDevice(
                            mac=entry.mac,
                            fingerprint=entry.fingerprint,
                            result=result,
                            completion_reason=RELEARN_REASON,
                        )
                    )
                # Released only after enforcement succeeded: if the sink
                # raises, the device stays quarantined and a retry can
                # still reach it (discard is idempotent -- a lifecycle-
                # wired sink has already released the MAC by now).
                self.quarantine.discard(entry.mac)
                upgraded.append(entry.mac)

        snapshot_path = None
        if snapshot and self.store_path is not None:
            snapshot_path = self.save_snapshot()
        self._persist_quarantine()
        self.relearns += 1
        report = RelearnReport(
            device_type=device_type,
            generation=generation,
            quarantined=len(fleet),
            upgraded=tuple(upgraded),
            still_unknown=tuple(still_unknown),
            identify_seconds=identify_seconds,
            snapshot_path=snapshot_path,
        )
        if self.observability is not None:
            self.observability.record_learn(report, revision=self.identifier.revision)
        return report

    # ------------------------------------------------------------------ #
    # Fleet-push adoption.
    # ------------------------------------------------------------------ #
    def adopt_epoch(self, generation: int) -> int:
        """Advance to a pushed bundle's epoch watermark and invalidate.

        The fleet counterpart of the bump inside
        :meth:`learn_device_type`: the generation is *assigned* by the
        trainer that stamped the bundle rather than minted locally, so
        every gateway that applies the same push converges on the same
        number.  Every registered cache is cleared (belt) on top of the
        epoch advance (braces), and the quarantine log is re-persisted
        under the new stamp so a restart resumes at the adopted epoch.
        """
        generation = self.epoch.advance_to(generation)
        for cache in self._caches:
            cache.clear()
        self._persist_quarantine()
        return generation

    def adopt_identifier(
        self, identifier: DeviceTypeIdentifier, generation: int
    ) -> DeviceTypeIdentifier:
        """Install a pushed model and restore coherence (hot swap path).

        Replaces the coordinator's identifier reference and adopts the
        bundle's epoch watermark.  The caller (normally
        :meth:`repro.api.GatewayHandle.swap_bundle`) is responsible for
        swapping the same identifier into the dispatcher and the security
        service -- the coordinator cannot reach objects that merely point
        at the old identifier.  Returns the replaced identifier.
        """
        previous = self.identifier
        self.identifier = identifier
        self.adopt_epoch(generation)
        return previous

    # ------------------------------------------------------------------ #
    # Epoch-aware persistence.
    # ------------------------------------------------------------------ #
    def save_snapshot(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Persist the identifier, stamping the bundle with the epoch."""
        target = path if path is not None else self.store_path
        if target is None:
            raise LifecycleError("no snapshot path: pass one or set store_path")
        return save_identifier(target, self.identifier, epoch=self.epoch.generation)

    def load_snapshot(self, path: Optional[Union[str, Path]] = None) -> DeviceTypeIdentifier:
        """Reload a snapshot, rejecting bundles from a different epoch.

        A bundle saved before the latest registration reloads a bank that
        does not know the newest type (and would quietly re-introduce the
        stale-verdict bug this subsystem exists to fix); a bundle from a
        *later* epoch belongs to a runtime that has learned types this
        coordinator has not seen.  Both raise
        :class:`~repro.exceptions.ModelStoreError`.
        """
        target = path if path is not None else self.store_path
        if target is None:
            raise LifecycleError("no snapshot path: pass one or set store_path")
        return load_identifier(target, expected_epoch=self.epoch.generation)

    # ------------------------------------------------------------------ #
    # Durable quarantine.
    # ------------------------------------------------------------------ #
    def save_quarantine(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Persist the quarantine log, stamped with the current epoch."""
        target = path if path is not None else self.quarantine_path
        if target is None:
            raise LifecycleError("no quarantine path: pass one or set quarantine_path")
        return save_quarantine_log(target, self.quarantine, epoch=self.epoch.generation)

    def load_quarantine(self, path: Optional[Union[str, Path]] = None) -> QuarantineLog:
        """Replace the in-memory quarantine log with a persisted one.

        The bundle must carry this coordinator's epoch: a log from another
        generation describes a fleet the runtime has already re-identified
        (or not yet quarantined) and is rejected as version skew.
        """
        target = path if path is not None else self.quarantine_path
        if target is None:
            raise LifecycleError("no quarantine path: pass one or set quarantine_path")
        self.quarantine = load_quarantine_log(target, expected_epoch=self.epoch.generation)
        return self.quarantine

    def _persist_quarantine(self) -> None:
        """Write-through of the quarantine log when a path is configured."""
        if self.quarantine_path is not None:
            save_quarantine_log(
                self.quarantine_path, self.quarantine, epoch=self.epoch.generation
            )

    @classmethod
    def resume(
        cls,
        store_path: Union[str, Path],
        quarantine_path: Optional[Union[str, Path]] = None,
        sink: Optional[Callable[["IdentifiedDevice"], None]] = None,
    ) -> "LifecycleCoordinator":
        """Rebuild a coordinator from persisted state after a restart.

        Loads the model bundle, adopts the cache epoch it was stamped with
        (so caches created through :meth:`make_cache` start at the right
        generation), and -- when ``quarantine_path`` names an existing
        file -- restores the quarantine log, rejecting one whose epoch
        disagrees with the bundle's.  The restarted gateway therefore
        resumes pending re-identifications exactly where the previous
        process stopped.
        """
        identifier, recorded_epoch = load_identifier_with_epoch(store_path)
        generation = recorded_epoch or 0
        coordinator = cls(
            identifier=identifier,
            epoch=CacheEpoch(generation),
            store_path=store_path,
            quarantine_path=quarantine_path,
            sink=sink,
        )
        if quarantine_path is not None and Path(quarantine_path).exists():
            coordinator.load_quarantine()
        return coordinator
