"""Sharded, incremental assembly of device fingerprints from a packet stream.

The offline path buffers a device's whole setup capture, cuts it with
:class:`~repro.features.session.SetupPhaseDetector` and only then extracts
features (:meth:`~repro.features.fingerprint.Fingerprint.from_packets`).  The
streaming assembler instead folds packet batches into the devices'
fingerprints as they arrive: one vectorised pass gives the batch's Table-I
rows, each packed into one integer key (:func:`pack_rows`), and one walk
over the frames in stream order applies the stateful destination counter,
consecutive-duplicate suppression and the emission decision.  Captures sit
in one index keyed by the MAC's integer value as it sits in the batch
column; each records its shard, ``hash((mac_value,)) % shards``, when it
opens, so that the pipeline's idle-eviction sweeps visit one shard at a
time, round robin.

A fingerprint is emitted when

* the paper's setup packet budget is reached (``reason="budget"``),
* the device's packet rate drops (``reason="idle"``) -- the paper's
  end-of-setup criterion, detected online with the same adaptive rule
  :class:`~repro.features.session.SetupPhaseDetector` applies offline: a
  gap exceeding ``max(min_idle_seconds, idle_factor * median gap)`` cuts
  the capture when the device's own next packet reveals it, and an
  explicit :meth:`ShardedFingerprintAssembler.evict_idle` sweep driven by
  the pipeline clock catches devices that never speak again, or
* the stream ends and :meth:`ShardedFingerprintAssembler.flush` drains the
  partial captures (``reason="flush"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import (
    FEATURE_COUNT,
    FEATURE_INDEX,
    FEATURE_NAMES,
    PacketFeatureExtractor,
    batch_feature_matrix,
)
from repro.features.session import SetupPhaseDetector, gap_exceeds_setup_threshold
from repro.net.addresses import MACAddress
from repro.net.batch import PacketBatch
from repro.net.packet import Packet

_DST_IP_COUNTER = FEATURE_INDEX["dst_ip_counter"]
#: Sweeps and flushes emit shard by shard, in capture-start order.
_SHARD_STARTED = attrgetter("shard", "started")

EMIT_BUDGET = "budget"
EMIT_IDLE = "idle"
EMIT_FLUSH = "flush"


def _key_layout() -> tuple[np.ndarray, np.ndarray]:
    """Bit offset and mask of each Table-I column in a packed row key.

    Each binary column takes one bit and each port class two, in column
    order; ``packet_size`` takes the 32 bits above them (pcap frame
    lengths are below 2**32).  The stateful ``dst_ip_counter`` column is
    not packed: its mask is 0.
    """
    shifts = np.zeros(FEATURE_COUNT, dtype=np.int64)
    masks = np.zeros(FEATURE_COUNT, dtype=np.int64)
    offset = 0
    for index, name in enumerate(FEATURE_NAMES):
        if name in ("packet_size", "dst_ip_counter"):
            continue
        width = 2 if name.endswith("_port_class") else 1
        shifts[index], masks[index] = offset, (1 << width) - 1
        offset += width
    size = FEATURE_INDEX["packet_size"]
    shifts[size], masks[size] = offset, (1 << 32) - 1
    return shifts, masks


_KEY_SHIFTS, _KEY_MASKS = _key_layout()
_KEY_WEIGHTS = np.where(_KEY_MASKS != 0, np.left_shift(1, _KEY_SHIFTS), 0)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """One integer key per Table-I row, packing its 22 stateless columns.

    Lossless for every row :func:`~repro.features.packet_features.batch_feature_matrix`
    produces, so two rows with equal counters are equal exactly when
    their keys are; :func:`unpack_rows` restores them:

    >>> rows = np.zeros((2, FEATURE_COUNT), dtype=np.int64)
    >>> rows[0, :20] = 1
    >>> rows[0, 18] = 2**32 - 1  # packet_size: the pcap orig_len ceiling
    >>> rows[0, 21:] = 3  # both port classes dynamic
    >>> rows[1, 20] = 5  # dst_ip_counter, carried beside the key
    >>> restored = unpack_rows(pack_rows(rows), rows[:, 20])
    >>> bool((restored == rows).all()), restored.dtype.name
    (True, 'int64')
    """
    return matrix @ _KEY_WEIGHTS


def unpack_rows(keys, counters) -> np.ndarray:
    """The ``(len(keys), 23)`` Table-I rows of packed ``keys``, with
    ``counters`` written into the ``dst_ip_counter`` column."""
    matrix = (np.asarray(keys, dtype=np.int64)[:, None] >> _KEY_SHIFTS) & _KEY_MASKS
    matrix[:, _DST_IP_COUNTER] = counters
    return matrix


@dataclass(frozen=True)
class ReadyFingerprint:
    """A completed fingerprint leaving the assembly stage."""

    mac: MACAddress
    fingerprint: Fingerprint
    reason: str
    completed_at: float = 0.0

    @property
    def packet_count(self) -> int:
        return self.fingerprint.packet_count


@dataclass
class AssemblerStats:
    """Counters of the assembly stage."""

    packets_observed: int = 0
    fingerprints_emitted: int = 0
    budget_emissions: int = 0
    idle_emissions: int = 0
    flush_emissions: int = 0
    min_signal_drops: int = 0


@dataclass
class _PreparedBatch:
    """One batch's columns as Python lists, ready for the stream-order fold.

    Built once by :meth:`ShardedFingerprintAssembler.prepare_batch`:
    ``keys`` are the packed Table-I rows (:func:`pack_rows`), ``base`` is
    the stream ordinal of the batch's first frame and ``position`` is
    where the next :meth:`~ShardedFingerprintAssembler.observe_prepared`
    window starts.
    """

    timestamps: list
    macs: list
    keys: list
    dst_ips: list
    base: int
    position: int = 0


@dataclass(slots=True)
class _Capture:
    """Incremental fingerprint state of one device capture.

    ``keys`` and ``counters`` hold the kept rows in arrival order: the
    packed stateless columns and the destination counter of each.  Only
    the last kept pair is ever compared (Eq. (1)).  ``shard`` is fixed
    when the capture opens; ``started`` is the stream ordinal of the
    frame that opened it.
    """

    mac: MACAddress
    shard: int
    started: int
    last_seen: float
    extractor: PacketFeatureExtractor = field(default_factory=PacketFeatureExtractor)
    keys: list[int] = field(default_factory=list)
    counters: list[int] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    raw_packets: int = 0

    def to_fingerprint(self) -> Fingerprint:
        # Rows are already consecutive-deduplicated on the fly.
        return Fingerprint(
            vectors=unpack_rows(self.keys, self.counters), device_mac=str(self.mac)
        )


class ShardedFingerprintAssembler:
    """Per-device incremental fingerprint assembly over N shards.

    Attributes:
        shards: number of idle-eviction shards; each capture records
            ``hash((mac_value,)) % shards`` when it opens.
        packet_budget: raw packets per device after which the fingerprint
            is emitted (250 by default).
        min_packets: the cut guard of the end-of-setup rule -- a capture is
            never cut before this many raw packets, exactly as in the
            offline detector.
        min_rows: captures whose deduplicated fingerprint matrix has fewer
            rows than this are discarded instead of emitted.  With the
            default of 1 every non-empty capture is assessed (low-signal
            ones simply come back "unknown"/strict); raise it to shed
            e.g. beacon-only devices that collapse to a single repeated row, at the cost of those
            devices never receiving a verdict.
        idle_timeout: silence, in stream-time seconds, after which an
            :meth:`evict_idle` sweep considers a device's capture complete
            (the device may never speak again, so this needs no median).
        min_idle_seconds / idle_factor: the adaptive end-of-setup rule
            applied when a device's own next packet reveals a gap --
            identical semantics to the offline
            :class:`~repro.features.session.SetupPhaseDetector`, whose
            defaults (and ``min_packets``) are inherited when not given,
            so online fingerprints match what the classifiers were
            trained on even if the detector is retuned.
    """

    def __init__(
        self,
        shards: int = 8,
        packet_budget: int = 250,
        min_packets: Optional[int] = None,
        min_rows: int = 1,
        idle_timeout: float = 15.0,
        min_idle_seconds: Optional[float] = None,
        idle_factor: Optional[float] = None,
    ):
        if shards <= 0:
            raise SimulationError(f"shard count must be positive, got {shards}")
        if packet_budget <= 0:
            raise SimulationError(f"packet budget must be positive, got {packet_budget}")
        self.shards = shards
        self.packet_budget = packet_budget
        self.min_packets = (
            SetupPhaseDetector.min_packets if min_packets is None else min_packets
        )
        self.min_rows = min_rows
        self.idle_timeout = idle_timeout
        self.min_idle_seconds = (
            SetupPhaseDetector.min_idle_seconds if min_idle_seconds is None else min_idle_seconds
        )
        self.idle_factor = SetupPhaseDetector.idle_factor if idle_factor is None else idle_factor
        self.stats = AssemblerStats()
        # Every open capture, keyed by the MAC's integer value, the form
        # the batch columns carry.
        self._captures: dict[int, _Capture] = {}
        # Stream ordinal of the next packet to be prepared.
        self._ordinal = 0
        # Frames announced by frame_may_complete and not yet folded:
        # source MAC -> (timestamp, raw packets of its capture so far).
        self._announced: dict[int, tuple[float, int]] = {}

    # ------------------------------------------------------------------ #
    # Routing.
    # ------------------------------------------------------------------ #
    def shard_of(self, mac: MACAddress) -> int:
        """The shard a device's captures record (stable across calls)."""
        return self._shard(mac.value)

    def _shard(self, mac_value: int) -> int:
        # The one-tuple's hash, not the int's: the shard a capture lands
        # in orders its eviction, which ledgers record, so the mapping
        # stays what it has always been.
        return hash((mac_value,)) % self.shards

    def _by_shard(self, shard: Optional[int] = None) -> list[_Capture]:
        """Open captures of ``shard`` (every shard if None), shard by shard
        in capture-start order."""
        captures = self._captures.values()
        if shard is not None:
            shard %= self.shards
            captures = [capture for capture in captures if capture.shard == shard]
        return sorted(captures, key=_SHARD_STARTED)

    @property
    def active_devices(self) -> int:
        return len(self._captures)

    def shard_sizes(self) -> list[int]:
        """Devices currently assembling, per shard (for load inspection)."""
        sizes = [0] * self.shards
        for capture in self._captures.values():
            sizes[capture.shard] += 1
        return sizes

    def is_assembling(self, mac: MACAddress) -> bool:
        return mac.value in self._captures

    # ------------------------------------------------------------------ #
    # Stream input.
    # ------------------------------------------------------------------ #
    def observe(self, packet: Packet) -> Optional[ReadyFingerprint]:
        """Fold one packet in; returns a fingerprint if one completed.

        A one-packet batch through :meth:`prepare_batch` and
        :meth:`observe_prepared`.  A packet arriving after the device's
        packet rate dropped (the adaptive end-of-setup rule) first
        completes the previous capture, then starts a fresh one -- the
        same device re-running its setup (factory reset, reconnect)
        therefore produces a new fingerprint instead of polluting the old
        matrix.
        """
        emitted = self.observe_prepared(self.prepare_batch(PacketBatch.from_items([packet])), 1)
        return emitted[0] if emitted else None

    def frame_may_complete(self, mac_value: int, timestamp: float) -> bool:
        """Announce one frame ahead of its fold; True if it may complete a capture.

        The capture-end rule of the whole drive: a frame can only complete
        a capture when its device's capture reaches the packet budget with
        it, or when the gap since the device's previous packet exceeds
        ``min_idle_seconds``.  Announced frames are tracked until the next
        :meth:`prepare_batch` or :meth:`observe_prepared`, after which the
        capture index is authoritative again.  Exact as long as nothing
        completes between announced frames -- which holds when the caller
        folds the frames at the first True.

        The third frame reaches a budget of three packets; a 10.5 s gap
        exceeds the default 10 s ``min_idle_seconds``:

        >>> assembler = ShardedFingerprintAssembler(packet_budget=3)
        >>> [assembler.frame_may_complete(0x02AA, t) for t in (0.0, 0.5, 1.0)]
        [False, False, True]
        >>> assembler = ShardedFingerprintAssembler()
        >>> [assembler.frame_may_complete(0x02BB, t) for t in (0.0, 0.5, 11.0)]
        [False, False, True]
        """
        state = self._announced.get(mac_value)
        if state is None:
            capture = self._captures.get(mac_value)
            if capture is None:
                self._announced[mac_value] = (timestamp, 1)
                return self.packet_budget <= 1
            last_seen, raw = capture.last_seen, capture.raw_packets
        else:
            last_seen, raw = state
        raw += 1
        self._announced[mac_value] = (timestamp, raw)
        return raw >= self.packet_budget or timestamp - last_seen > self.min_idle_seconds

    def prepare_batch(self, batch: PacketBatch) -> _PreparedBatch:
        """Run the vectorised per-batch work once, ahead of observation.

        One :func:`~repro.features.packet_features.batch_feature_matrix`
        call, packed into one key per row (:func:`pack_rows`); the
        timestamps, MACs and keys come back as Python lists, which the
        per-frame fold indexes faster than arrays.  A caller interleaving
        observation with eviction sweeps (the pipeline cuts a batch into
        windows) prepares the batch once and then feeds consecutive
        windows to :meth:`observe_prepared`.
        """
        self._announced.clear()
        base = self._ordinal
        self._ordinal += len(batch)
        return _PreparedBatch(
            timestamps=batch.timestamps.tolist(),
            macs=batch.src_macs.tolist(),
            keys=pack_rows(batch_feature_matrix(batch)).tolist(),
            dst_ips=batch.dst_ips,
            base=base,
        )

    def observe_prepared(self, prepared: _PreparedBatch, stop: int) -> list[ReadyFingerprint]:
        """Fold the not-yet-observed frames before index ``stop`` in, in stream order.

        Folding the packets one at a time, exactly: completed fingerprints
        come back in the order of the frames that completed them, with
        bitwise-identical matrices (the differential suite asserts both
        against a per-packet oracle).  Idle *eviction* remains the
        caller's job.  A frame's row is kept unless its packed key and
        destination counter both equal the capture's last kept row's: the
        consecutive-duplicate rule of Eq. (1), so pausing for an eviction
        sweep between windows cannot change any decision.  The window's
        frames leave the :meth:`frame_may_complete` announcements: the
        capture index holds them from here on.
        """
        self._announced.clear()
        position = prepared.position
        if stop <= position:
            return []
        prepared.position = stop
        self.stats.packets_observed += stop - position
        captures = self._captures
        timestamps = prepared.timestamps
        macs = prepared.macs
        keys = prepared.keys
        dst_ips = prepared.dst_ips
        base = prepared.base
        min_packets = self.min_packets
        min_idle = self.min_idle_seconds
        idle_factor = self.idle_factor
        budget = self.packet_budget
        exceeds = gap_exceeds_setup_threshold
        emissions: list[ReadyFingerprint] = []
        for j in range(position, stop):
            mac_value = macs[j]
            timestamp = timestamps[j]
            capture = captures.get(mac_value)
            if capture is not None:
                gap = timestamp - capture.last_seen
                gaps = capture.gaps
                if (
                    gap > min_idle
                    and capture.raw_packets >= min_packets
                    and gaps
                    and exceeds(gap, gaps, min_idle, idle_factor)
                ):
                    ready = self._finalize(capture, EMIT_IDLE, timestamp)
                    if ready is not None:
                        emissions.append(ready)
                    capture = None
                else:
                    # An open capture has folded at least one frame.
                    gaps.append(gap if gap > 0.0 else 0.0)
            if capture is None:
                capture = _Capture(
                    mac=MACAddress(mac_value),
                    shard=self._shard(mac_value),
                    started=base + j,
                    last_seen=timestamp,
                )
                captures[mac_value] = capture
            key = keys[j]
            counter = capture.extractor.counter_for(dst_ips[j])
            kept = capture.keys
            if not kept or kept[-1] != key or capture.counters[-1] != counter:
                kept.append(key)
                capture.counters.append(counter)
            capture.last_seen = timestamp
            capture.raw_packets += 1
            if capture.raw_packets >= budget:
                ready = self._finalize(capture, EMIT_BUDGET, timestamp)
                if ready is not None:
                    emissions.append(ready)
        return emissions

    # ------------------------------------------------------------------ #
    # Eviction and flushing.
    # ------------------------------------------------------------------ #
    def evict_idle(self, now: float, shard: Optional[int] = None) -> list[ReadyFingerprint]:
        """Complete every capture that has been quiet for ``idle_timeout``.

        With ``shard`` given only that shard's captures are swept, letting
        a caller amortise eviction cost round-robin across shards.  Each
        shard emits in capture-start order.
        """
        ready: list[ReadyFingerprint] = []
        for capture in self._by_shard(shard):
            if now - capture.last_seen > self.idle_timeout:
                emitted = self._finalize(capture, EMIT_IDLE, now)
                if emitted is not None:
                    ready.append(emitted)
        return ready

    def sweep_would_evict(self, now: float, shard: int) -> bool:
        """True if :meth:`evict_idle` of ``shard`` at ``now`` would evict a
        capture once the :meth:`frame_may_complete` announcements are folded.

        A device's ``last_seen`` is then its newest announced timestamp if
        it has one, else its folded one; a device with announced frames but
        no capture yet counts with its newest timestamp (folding opens the
        capture).  The comparison is :meth:`evict_idle`'s own, so False
        means that sweep would leave every capture in place, however the
        announced frames are later split into batches.

        >>> assembler = ShardedFingerprintAssembler(shards=1)
        >>> assembler.frame_may_complete(0x02AA, 0.0)
        False
        >>> [assembler.sweep_would_evict(now, shard=0) for now in (15.0, 15.5)]
        [False, True]
        """
        shard %= self.shards
        captures = self._captures
        announced = self._announced
        timeout = self.idle_timeout
        for mac_value, capture in captures.items():
            if capture.shard == shard:
                state = announced.get(mac_value)
                last_seen = capture.last_seen if state is None else state[0]
                if now - last_seen > timeout:
                    return True
        return any(
            now - timestamp > timeout
            and mac_value not in captures
            and self._shard(mac_value) == shard
            for mac_value, (timestamp, _) in announced.items()
        )

    def flush(self, now: float = 0.0) -> list[ReadyFingerprint]:
        """Emit every in-progress capture (stream ended), shard by shard
        in capture-start order."""
        ready: list[ReadyFingerprint] = []
        for capture in self._by_shard():
            emitted = self._finalize(capture, EMIT_FLUSH, now or capture.last_seen)
            if emitted is not None:
                ready.append(emitted)
        return ready

    def _finalize(
        self, capture: _Capture, reason: str, completed_at: float
    ) -> Optional[ReadyFingerprint]:
        del self._captures[capture.mac.value]
        # Signal is measured after consecutive-duplicate suppression: 250
        # identical beacons collapse to one fingerprint row and classify no
        # better than a single packet would, whichever way the capture ended.
        if len(capture.keys) < self.min_rows:
            self.stats.min_signal_drops += 1
            return None
        self.stats.fingerprints_emitted += 1
        if reason == EMIT_BUDGET:
            self.stats.budget_emissions += 1
        elif reason == EMIT_IDLE:
            self.stats.idle_emissions += 1
        else:
            self.stats.flush_emissions += 1
        return ReadyFingerprint(
            mac=capture.mac,
            fingerprint=capture.to_fingerprint(),
            reason=reason,
            completed_at=completed_at,
        )

    def __iter__(self) -> Iterator[MACAddress]:
        for capture in self._by_shard():
            yield capture.mac
