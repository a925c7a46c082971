"""Sharded, incremental assembly of device fingerprints from a packet stream.

The offline path buffers a device's whole setup capture, cuts it with
:class:`~repro.features.session.SetupPhaseDetector` and only then extracts
features (:meth:`~repro.features.fingerprint.Fingerprint.from_packets`).  The
streaming assembler instead folds packet batches into the devices'
fingerprint matrices as they arrive: the batch's Table-I rows come from one
vectorised pass, each device's packets are walked once for the stateful
destination counter, consecutive-duplicate suppression and the emission
decision.  Devices are partitioned into ``hash(mac) % shards`` buckets so
that idle-eviction sweeps touch one bucket at a time and the assembler can
later be split across workers without re-keying.

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

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import (
    FEATURE_COUNT,
    FEATURE_INDEX,
    PacketFeatureExtractor,
    batch_feature_matrix,
)
from repro.features.session import SetupPhaseDetector, gap_exceeds_setup_threshold
from repro.net.addresses import MACAddress
from repro.net.batch import PacketBatch
from repro.net.packet import Packet

_DST_IP_COUNTER = FEATURE_INDEX["dst_ip_counter"]
_STARTED = attrgetter("started")

EMIT_BUDGET = "budget"
EMIT_IDLE = "idle"
EMIT_FLUSH = "flush"


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
    """Per-batch vectorised state shared by consecutive observation windows.

    Built once by :meth:`ShardedFingerprintAssembler.prepare_batch`; the
    ``cursors`` list records, per device group, how far observation has
    advanced, so eviction sweeps can interleave between windows without
    any per-window recomputation.  ``devices`` carries each group's
    capture across the pause: when it survived the sweep, the next window
    resumes the precomputed consecutive-duplicate comparison instead of
    re-comparing against the capture's last kept row.  ``group_of`` maps
    each packet to its device group and ``position`` is where the next
    window starts.  ``candidates`` lists, ascending, the batch index of
    every packet that may complete a capture; ``base`` is the stream
    ordinal of the batch's first packet.
    """

    timestamps: list
    dst_ips: list
    matrix: np.ndarray
    groups: list
    duplicate_by_group: list
    gap_big_by_group: list
    cursors: list
    devices: list
    group_of: list
    candidates: list
    base: int
    position: int = 0

    def next_candidate(self, position: int) -> int:
        """The first packet at or after ``position`` that may complete a
        capture (the batch length when none can)."""
        index = bisect_left(self.candidates, position)
        return self.candidates[index] if index < len(self.candidates) else len(self.timestamps)


@dataclass
class _DeviceAssembler:
    """Incremental fingerprint state of one device.

    ``rows`` holds kept feature data in arrival order as ``(k, 23)``
    chunks (one per observation window); ``row_count`` tracks the total
    row count and ``last_row`` the last *kept* row, which is all the
    consecutive-duplicate rule of Eq. (1) ever compares against.
    ``started`` is the stream ordinal of the packet that opened the
    capture: sweeps and flushes emit in that order.
    """

    mac: MACAddress
    started: int = 0
    extractor: PacketFeatureExtractor = field(default_factory=PacketFeatureExtractor)
    rows: list[np.ndarray] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    raw_packets: int = 0
    last_seen: float = 0.0
    row_count: int = 0
    last_row: Optional[np.ndarray] = None

    def absorb_chunk(self, chunk: np.ndarray) -> None:
        """Append a ``(k, 23)`` block of already-deduplicated kept rows."""
        self.rows.append(chunk)
        self.row_count += len(chunk)
        self.last_row = chunk[-1]

    def to_fingerprint(self) -> Fingerprint:
        # Rows are already consecutive-deduplicated on the fly.
        if not self.rows:
            matrix = np.zeros((0, FEATURE_COUNT), dtype=np.int64)
        else:
            matrix = np.vstack(self.rows)
        return Fingerprint(vectors=matrix, device_mac=str(self.mac))


class ShardedFingerprintAssembler:
    """Per-device incremental fingerprint assembly over N shards.

    Attributes:
        shards: number of hash buckets devices are partitioned into.
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
        self._buckets: list[dict[MACAddress, _DeviceAssembler]] = [{} for _ in range(shards)]
        # Stream ordinal of the next packet to be prepared.
        self._ordinal = 0
        # Frames announced by frame_may_complete and not yet prepared:
        # source MAC -> (timestamp, raw packets of its capture so far).
        self._announced: dict[int, tuple[float, int]] = {}

    # ------------------------------------------------------------------ #
    # Routing.
    # ------------------------------------------------------------------ #
    def shard_of(self, mac: MACAddress) -> int:
        """The bucket index a device is routed to (stable across calls)."""
        return hash(mac) % self.shards

    def _bucket(self, mac: MACAddress) -> dict[MACAddress, _DeviceAssembler]:
        return self._buckets[self.shard_of(mac)]

    @property
    def active_devices(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    def shard_sizes(self) -> list[int]:
        """Devices currently assembling, per shard (for load inspection)."""
        return [len(bucket) for bucket in self._buckets]

    def is_assembling(self, mac: MACAddress) -> bool:
        return mac in self._bucket(mac)

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
        """Announce one frame ahead of its batch; True if it may complete a capture.

        The per-frame half of the capture-end rule (:meth:`prepare_batch`
        holds the batch half): a frame can only complete a capture when
        its device's capture reaches the packet budget with it, or when
        the gap since the device's previous packet exceeds
        ``min_idle_seconds``.  Announced frames are tracked until the
        next :meth:`prepare_batch`, which folds them.  Exact as long as
        nothing completes between announced frames -- which holds when
        the caller hands the batch over at the first True.
        """
        state = self._announced.get(mac_value)
        if state is None:
            mac = MACAddress(mac_value)
            device = self._bucket(mac).get(mac)
            if device is None:
                self._announced[mac_value] = (timestamp, 1)
                return self.packet_budget <= 1
            last_seen, raw = device.last_seen, device.raw_packets
        else:
            last_seen, raw = state
        raw += 1
        self._announced[mac_value] = (timestamp, raw)
        return raw >= self.packet_budget or timestamp - last_seen > self.min_idle_seconds

    def prepare_batch(
        self, batch: PacketBatch, clock_times: Optional[np.ndarray] = None
    ) -> "_PreparedBatch":
        """Run the vectorised per-batch work once, ahead of observation.

        A caller interleaving observation with eviction sweeps (the
        pipeline cuts batches into windows) prepares the batch once and
        then feeds consecutive windows to :meth:`observe_prepared` -- the
        feature matrix, the device grouping and the duplicate-detection
        vectors are not recomputed per window.

        The prepared batch also lists the completion candidates: a
        superset of the packets at which :meth:`observe_prepared` can
        complete a capture.  A capture ends on an idle gap (the gap to
        the device's previous packet exceeds ``min_idle_seconds``) or on
        the budget, which is reached ``packet_budget`` packets after the
        capture started -- so budget candidates are counted from every
        possible capture start: the batch's first packet of each device
        (continuing its open capture, or fresh), every idle-gap packet,
        every packet after a budget candidate and, when ``clock_times``
        (the stream clock at each packet) is given, every packet whose
        device may have been evicted by an idle sweep since its previous
        packet.
        """
        self._announced.clear()
        base = self._ordinal
        self._ordinal += len(batch)
        # The whole batch's Table-I columns in one vectorised pass; only
        # the stateful dst-ip counter column is filled per device during
        # observation.
        matrix = batch_feature_matrix(batch)
        # Python floats, not np.float64 scalars: list indexing is faster in
        # the per-device walk and the gap/completed_at values come out
        # type-identical to per-packet observation.
        timestamps = batch.timestamps.tolist()
        dst_ips = batch.dst_ips
        min_idle = self.min_idle_seconds
        budget = self.packet_budget
        # Every device's packets side by side (stable: stream order within
        # a device); pair k compares sorted packets k and k + 1.
        order = np.argsort(batch.src_macs, kind="stable")
        sorted_macs = batch.src_macs[order]
        same_device = sorted_macs[1:] == sorted_macs[:-1]
        sorted_rows = matrix[order]
        sorted_times = batch.timestamps[order]
        # Consecutive-packet static equality: the counter column is still
        # zero everywhere, so this compares the 22 stateless features; the
        # destination-token comparison below supplies the counter column's
        # verdict (equal counters iff equal tokens under one extractor).
        equal = np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1) & same_device
        # Pairs whose gap can possibly trip the idle rule.
        gap_big = (np.diff(sorted_times) > min_idle) & same_device
        order_list = order.tolist()
        duplicate_flags = [False] + equal.tolist()
        for k in (np.flatnonzero(equal) + 1).tolist():
            if dst_ips[order_list[k]] != dst_ips[order_list[k - 1]]:
                duplicate_flags[k] = False
        # A device's first packet always gets the full idle check: its
        # predecessor (if any) lies in an earlier batch.
        gap_flags = [True] + gap_big.tolist()
        candidates: list[int] = (order[1:][gap_big]).tolist()
        # One run of sorted positions per device, in first-appearance order.
        bounds = (np.flatnonzero(~same_device) + 1).tolist()
        runs = sorted(
            zip([0] + bounds, bounds + [len(order_list)]) if order_list else (),
            key=lambda run: order_list[run[0]],
        )
        prepared_groups = []
        duplicate_by_group = []
        gap_big_by_group = []
        group_of = [0] * len(order_list)
        for first, end in runs:
            mac = MACAddress(int(sorted_macs[first]))
            indices_list = order_list[first:end]
            group = len(prepared_groups)
            for j in indices_list:
                group_of[j] = group
            gap_flags[first] = True
            bucket = self._bucket(mac)
            device = bucket.get(mac)
            if device is not None:
                # The open capture may end idle at the first packet, or
                # reach its budget part-way through the batch.
                if timestamps[indices_list[0]] - device.last_seen > min_idle:
                    candidates.append(indices_list[0])
                candidates.extend(indices_list[budget - device.raw_packets - 1 :: budget])
            count = end - first
            if count >= budget:
                starts = np.array(gap_flags[first:end])
                if clock_times is not None:
                    # An idle sweep needs the stream clock to pass the
                    # previous packet by more than ``idle_timeout``.
                    starts[1:] |= (
                        clock_times[order[first + 1 : end]] - sorted_times[first : end - 1]
                        > self.idle_timeout
                    )
                for start in np.flatnonzero(starts[: count - budget + 1]).tolist():
                    candidates.extend(indices_list[start + budget - 1 :: budget])
            prepared_groups.append((mac, indices_list, bucket))
            duplicate_by_group.append(duplicate_flags[first:end])
            gap_big_by_group.append(gap_flags[first:end])
        candidates.sort()
        return _PreparedBatch(
            timestamps=timestamps,
            dst_ips=dst_ips,
            matrix=matrix,
            groups=prepared_groups,
            duplicate_by_group=duplicate_by_group,
            gap_big_by_group=gap_big_by_group,
            cursors=[0] * len(prepared_groups),
            devices=[None] * len(prepared_groups),
            group_of=group_of,
            candidates=candidates,
            base=base,
        )

    def observe_prepared(
        self, prepared: "_PreparedBatch", stop: int
    ) -> list[ReadyFingerprint]:
        """Fold every not-yet-observed packet before index ``stop`` in.

        Emission-equivalent to folding the packets one at a time:
        completed fingerprints come back ordered by the in-batch index of
        the packet that triggered them, with bitwise-identical matrices
        (the differential suite asserts both against a per-packet
        oracle).  Idle *eviction* remains the caller's job.

        Windows are consumed consecutively (each group keeps a cursor), so
        calling with increasing ``stop`` values walks the batch exactly
        once.  The first packet a window contributes to a capture is
        compared against the capture's last kept row directly -- the same
        rule folding one packet at a time applies -- so pausing for an
        eviction sweep between windows cannot change any dedup decision.
        """
        matrix = prepared.matrix
        timestamps = prepared.timestamps
        dst_ips = prepared.dst_ips
        base = prepared.base
        cursors = prepared.cursors
        min_packets = self.min_packets
        min_idle = self.min_idle_seconds
        idle_factor = self.idle_factor
        budget = self.packet_budget
        counter_column = _DST_IP_COUNTER
        exceeds = gap_exceeds_setup_threshold
        emissions: list[tuple[int, ReadyFingerprint]] = []
        groups = prepared.groups
        window = prepared.group_of[prepared.position : stop]
        prepared.position = max(prepared.position, stop)
        # Only the devices with packets in the window, in order of their
        # first packet there.
        for group in dict.fromkeys(window):
            mac, indices_list, bucket = groups[group]
            cursor = cursors[group]
            end = bisect_left(indices_list, stop, cursor)
            cursors[group] = end
            self.stats.packets_observed += end - cursor
            duplicate_flags = prepared.duplicate_by_group[group]
            gap_big = prepared.gap_big_by_group[group]
            pending: list[int] = []
            device = prepared.devices[group]
            if cursor and device is not None and bucket.get(mac) is device:
                # The capture survived the eviction sweep between windows:
                # resume the consecutive-duplicate comparison exactly where
                # the previous window paused it.
                fresh_capture = False
            else:
                device = bucket.get(mac)
                fresh_capture = True  # no usable in-batch predecessor
            # The capture's counters live in locals during the walk and
            # are written back when it pauses.
            if device is not None:
                raw, last_seen, gaps = device.raw_packets, device.last_seen, device.gaps
            for position in range(cursor, end):
                j = indices_list[position]
                timestamp = timestamps[j]
                if device is not None and (fresh_capture or gap_big[position]):
                    # ``gap_big`` prunes the idle check: whenever the walk
                    # has observed this group's previous packet into the
                    # same capture, ``last_seen`` equals that packet's
                    # timestamp, so the precomputed inter-packet gap
                    # decides ``gap > min_idle`` exactly.
                    gap = timestamp - last_seen
                    if (
                        gap > min_idle
                        and raw >= min_packets
                        and gaps
                        and exceeds(gap, gaps, min_idle, idle_factor)
                    ):
                        if pending:
                            device.absorb_chunk(matrix[pending])
                            pending = []
                        ready = self._finalize(device, EMIT_IDLE, timestamp)
                        if ready is not None:
                            emissions.append((j, ready))
                        device = None
                if device is None:
                    device = _DeviceAssembler(mac=mac, started=base + j, last_seen=timestamp)
                    bucket[mac] = device
                    fresh_capture = True
                    raw, last_seen, gaps = 0, timestamp, device.gaps
                if fresh_capture:
                    # First packet of this capture inside the batch: the
                    # duplicate rule compares against the last kept row of
                    # the capture's pre-batch tail (if any).
                    token = dst_ips[j]
                    if token is not None:
                        matrix[j, counter_column] = device.extractor.counter_for(token)
                    duplicate = device.last_row is not None and np.array_equal(
                        matrix[j], device.last_row
                    )
                    fresh_capture = False
                elif duplicate_flags[position]:
                    # A duplicate's matrix row is never read and its token
                    # equals the previous packet's, so the counter dict is
                    # already settled -- skip both.
                    duplicate = True
                else:
                    duplicate = False
                    token = dst_ips[j]
                    if token is not None:
                        matrix[j, counter_column] = device.extractor.counter_for(token)
                if not duplicate:
                    pending.append(j)
                if raw:
                    gap = timestamp - last_seen
                    gaps.append(gap if gap > 0.0 else 0.0)
                raw += 1
                last_seen = timestamp
                if raw >= budget:
                    if pending:
                        device.absorb_chunk(matrix[pending])
                        pending = []
                    ready = self._finalize(device, EMIT_BUDGET, timestamp)
                    if ready is not None:
                        emissions.append((j, ready))
                    device = None
            if device is not None:
                device.raw_packets = raw
                device.last_seen = last_seen
                if pending:
                    device.absorb_chunk(matrix[pending])
            prepared.devices[group] = device
        emissions.sort(key=lambda pair: pair[0])
        return [ready for _, ready in emissions]

    # ------------------------------------------------------------------ #
    # Eviction and flushing.
    # ------------------------------------------------------------------ #
    def evict_idle(self, now: float, shard: Optional[int] = None) -> list[ReadyFingerprint]:
        """Complete every capture that has been quiet for ``idle_timeout``.

        With ``shard`` given only that bucket is swept, letting a caller
        amortise eviction cost round-robin across shards.  Each bucket
        emits in capture-start order.
        """
        buckets = self._buckets if shard is None else [self._buckets[shard % self.shards]]
        ready: list[ReadyFingerprint] = []
        for bucket in buckets:
            expired = [
                device
                for device in bucket.values()
                if now - device.last_seen > self.idle_timeout
            ]
            for device in sorted(expired, key=_STARTED):
                emitted = self._finalize(device, EMIT_IDLE, now)
                if emitted is not None:
                    ready.append(emitted)
        return ready

    def flush(self, now: float = 0.0) -> list[ReadyFingerprint]:
        """Emit every in-progress capture (stream ended), bucket by bucket
        in capture-start order."""
        ready: list[ReadyFingerprint] = []
        for bucket in self._buckets:
            for device in sorted(bucket.values(), key=_STARTED):
                emitted = self._finalize(device, EMIT_FLUSH, now or device.last_seen)
                if emitted is not None:
                    ready.append(emitted)
        return ready

    def _finalize(
        self, device: _DeviceAssembler, reason: str, completed_at: float
    ) -> Optional[ReadyFingerprint]:
        self._bucket(device.mac).pop(device.mac, None)
        # Signal is measured after consecutive-duplicate suppression: 250
        # identical beacons collapse to one fingerprint row and classify no
        # better than a single packet would, whichever way the capture ended.
        if device.row_count < self.min_rows:
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
            mac=device.mac,
            fingerprint=device.to_fingerprint(),
            reason=reason,
            completed_at=completed_at,
        )

    def __iter__(self) -> Iterator[MACAddress]:
        for bucket in self._buckets:
            yield from bucket
