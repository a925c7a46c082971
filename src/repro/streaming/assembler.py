"""Sharded, incremental assembly of device fingerprints from a packet stream.

The offline pipeline buffers a device's whole setup capture and only then
extracts features (:class:`~repro.gateway.monitoring.DeviceMonitor`).  The
streaming assembler instead folds each packet into the device's fingerprint
matrix the moment it arrives: one stateful
:class:`~repro.features.packet_features.PacketFeatureExtractor` per device,
consecutive-duplicate suppression done on the fly, and an emission decision
per packet.  Devices are partitioned into ``hash(mac) % shards`` buckets so
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

from dataclasses import dataclass, field
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
    re-comparing against the capture's last kept row.
    """

    timestamps: list
    dst_ips: list
    matrix: np.ndarray
    groups: list
    duplicate_by_group: list
    gap_big_by_group: list
    cursors: list
    devices: list
    first_group: int = 0


@dataclass
class _DeviceAssembler:
    """Incremental fingerprint state of one device.

    ``rows`` holds kept feature data in arrival order as a mix of single
    ``(23,)`` rows (per-packet path) and ``(k, 23)`` chunks (batched path
    absorbs one chunk per batch); ``row_count`` tracks the total row count
    and ``last_row`` the last *kept* row, which is all the
    consecutive-duplicate rule of Eq. (1) ever compares against.
    """

    mac: MACAddress
    extractor: PacketFeatureExtractor = field(default_factory=PacketFeatureExtractor)
    rows: list[np.ndarray] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    raw_packets: int = 0
    last_seen: float = 0.0
    row_count: int = 0
    last_row: Optional[np.ndarray] = None

    def observe(self, packet: Packet) -> None:
        row = self.extractor.extract(packet)
        # Consecutive-duplicate suppression of Eq. (1), done incrementally.
        if self.last_row is None or not np.array_equal(row, self.last_row):
            self.rows.append(row)
            self.row_count += 1
            self.last_row = row
        if self.raw_packets:
            self.gaps.append(max(0.0, packet.timestamp - self.last_seen))
        self.raw_packets += 1
        self.last_seen = packet.timestamp

    def absorb_chunk(self, chunk: np.ndarray) -> None:
        """Append a ``(k, 23)`` block of already-deduplicated kept rows."""
        self.rows.append(chunk)
        self.row_count += len(chunk)
        self.last_row = chunk[-1]

    def gap_ends_setup(
        self, gap: float, min_idle_seconds: float, idle_factor: float, min_packets: int
    ) -> bool:
        """The paper's end-of-setup rule: the packet rate dropped.

        Mirrors :class:`~repro.features.session.SetupPhaseDetector`,
        including its guards: the capture is never cut before
        ``min_packets`` packets (an early-setup pause, e.g. a DHCP retry,
        must not truncate the fingerprint), and the threshold itself is the
        shared :func:`~repro.features.session.gap_exceeds_setup_threshold`.
        """
        if self.raw_packets < min_packets:
            return False
        if not self.gaps:
            # Mirrors the offline detector's `and gaps` guard: a single
            # packet gives no rate estimate to compare the silence against.
            return False
        return gap_exceeds_setup_threshold(gap, self.gaps, min_idle_seconds, idle_factor)

    def to_fingerprint(self) -> Fingerprint:
        # Rows are already consecutive-deduplicated on the fly.  vstack
        # accepts the row/chunk mix and reproduces exactly the matrix the
        # row-list construction built, byte for byte.
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
            is emitted (250 in the reproduction's device monitor).
        min_packets: the cut guard of the end-of-setup rule -- a capture is
            never cut before this many raw packets, exactly as in the
            offline detector.
        min_rows: captures whose deduplicated fingerprint matrix has fewer
            rows than this are discarded instead of emitted.  The default
            of 1 matches the offline device monitor (every non-empty
            capture is assessed, low-signal ones simply come back
            "unknown"/strict); raise it to shed e.g. beacon-only devices
            that collapse to a single repeated row, at the cost of those
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

        A packet arriving after the device's packet rate dropped (the
        adaptive end-of-setup rule) first completes the previous capture,
        then starts a fresh one -- the same device re-running its setup
        (factory reset, reconnect) therefore produces a new fingerprint
        instead of polluting the old matrix.
        """
        self.stats.packets_observed += 1
        mac = packet.src_mac
        bucket = self._bucket(mac)
        device = bucket.get(mac)

        completed: Optional[ReadyFingerprint] = None
        if device is not None and device.gap_ends_setup(
            packet.timestamp - device.last_seen,
            self.min_idle_seconds,
            self.idle_factor,
            self.min_packets,
        ):
            completed = self._finalize(device, EMIT_IDLE, packet.timestamp)
            device = None
        if device is None:
            device = _DeviceAssembler(mac=mac, last_seen=packet.timestamp)
            bucket[mac] = device

        device.observe(packet)
        if device.raw_packets >= self.packet_budget:
            budget_ready = self._finalize(device, EMIT_BUDGET, packet.timestamp)
            # An idle completion and a budget completion cannot coincide.
            # `completed` requires a persisting previous capture, which only
            # exists when packet_budget >= 2; `budget_ready` on the same
            # packet then requires raw_packets >= 2, impossible for the
            # fresh capture this packet just started.
            return completed or budget_ready
        return completed

    def observe_batch(self, batch: PacketBatch) -> list[ReadyFingerprint]:
        """Fold a whole :class:`~repro.net.batch.PacketBatch` in.

        Emission-equivalent to calling :meth:`observe` per packet:
        completed fingerprints come back ordered by the packet that
        triggered them, with bitwise-identical matrices (the differential
        suite asserts both).  Idle *eviction* remains the caller's job --
        the pipeline splits batches at eviction boundaries so sweeps fire
        between the same two packets as on the per-packet path.
        """
        if len(batch) == 0:
            return []
        return self.observe_prepared(self.prepare_batch(batch), len(batch))

    def prepare_batch(self, batch: PacketBatch) -> "_PreparedBatch":
        """Run the vectorised per-batch work once, ahead of observation.

        A caller interleaving observation with eviction sweeps (the
        pipeline splits batches at eviction boundaries) prepares the batch
        once and then feeds consecutive windows to
        :meth:`observe_prepared` -- the feature matrix, the device
        grouping and the duplicate-detection vectors are not recomputed
        per window.
        """
        # The whole batch's Table-I columns in one vectorised pass; only
        # the stateful dst-ip counter column is filled per device during
        # observation.
        matrix = batch_feature_matrix(batch)
        groups = batch.device_runs()
        all_timestamps = batch.timestamps
        dst_ips = batch.dst_ips
        min_idle = self.min_idle_seconds
        duplicate_by_group = []
        gap_big_by_group = []
        prepared_groups = []
        for mac_value, indices in groups:
            rows = matrix[indices]
            count = len(indices)
            # Consecutive-packet static equality, vectorised per device:
            # the counter column is still zero everywhere, so this compares
            # the 22 stateless features; the destination-token comparison
            # below supplies the counter column's verdict (equal counters
            # iff equal tokens under one extractor).
            equal_prev = np.empty(count, dtype=bool)
            equal_prev[0] = False
            if count > 1:
                np.all(rows[1:] == rows[:-1], axis=1, out=equal_prev[1:])
            # Plain Python lists for the walk: indexing numpy scalars out
            # of an int64 array costs more than the whole per-packet body.
            indices_list = indices.tolist()
            tokens = [dst_ips[j] for j in indices_list]
            duplicate = equal_prev.tolist()
            for position, equal in enumerate(duplicate):
                if equal and tokens[position] != tokens[position - 1]:
                    duplicate[position] = False
            # Positions whose inter-packet gap can possibly trip the idle
            # rule.  Position 0's predecessor (if any) lies in an earlier
            # batch, so the walk always runs the full check there.
            gap_big = np.empty(count, dtype=bool)
            gap_big[0] = True
            if count > 1:
                group_times = all_timestamps[indices]
                np.greater(np.diff(group_times), min_idle, out=gap_big[1:])
            gap_big_by_group.append(gap_big.tolist())
            duplicate_by_group.append(duplicate)
            prepared_groups.append((MACAddress(mac_value), indices, indices_list))
        # Python floats, not np.float64 scalars: list indexing is faster in
        # the per-device walk and the gap/completed_at values come out
        # type-identical to the per-packet path.
        return _PreparedBatch(
            timestamps=all_timestamps.tolist(),
            dst_ips=dst_ips,
            matrix=matrix,
            groups=prepared_groups,
            duplicate_by_group=duplicate_by_group,
            gap_big_by_group=gap_big_by_group,
            cursors=[0] * len(groups),
            devices=[None] * len(groups),
        )

    def observe_prepared(
        self, prepared: "_PreparedBatch", stop: int
    ) -> list[ReadyFingerprint]:
        """Fold every not-yet-observed packet before index ``stop`` in.

        Completed fingerprints come back ordered by the in-batch index of
        the packet that triggered them.

        Windows are consumed consecutively (each group keeps a cursor), so
        calling with increasing ``stop`` values walks the batch exactly
        once.  The first packet a window contributes to a capture is
        compared against the capture's last kept row directly -- the same
        rule the per-packet path applies -- so pausing for an eviction
        sweep between windows cannot change any dedup decision.
        """
        matrix = prepared.matrix
        timestamps = prepared.timestamps
        dst_ips = prepared.dst_ips
        min_packets = self.min_packets
        min_idle = self.min_idle_seconds
        idle_factor = self.idle_factor
        budget = self.packet_budget
        emissions: list[tuple[int, ReadyFingerprint]] = []
        groups = prepared.groups
        group = prepared.first_group
        while group < len(groups):
            mac, indices, indices_list = groups[group]
            cursor = prepared.cursors[group]
            if cursor >= len(indices_list):
                # Exhausted; a contiguous exhausted prefix is skipped for
                # good by advancing ``first_group``.
                if group == prepared.first_group:
                    prepared.first_group += 1
                group += 1
                continue
            if indices_list[cursor] >= stop:
                if cursor == 0:
                    # Groups are ordered by first packet index, so every
                    # later group also starts at or after ``stop``.
                    break
                group += 1
                continue
            end = int(indices.searchsorted(stop, side="left"))
            prepared.cursors[group] = end
            self.stats.packets_observed += end - cursor
            bucket = self._bucket(mac)
            duplicate_flags = prepared.duplicate_by_group[group]
            gap_big = prepared.gap_big_by_group[group]
            pending: list[int] = []
            if cursor and prepared.devices[group] is not None and (
                bucket.get(mac) is prepared.devices[group]
            ):
                # The capture survived the eviction sweep between windows:
                # resume the consecutive-duplicate comparison exactly where
                # the previous window paused it.
                device = prepared.devices[group]
                fresh_capture = False
            else:
                device = bucket.get(mac)
                fresh_capture = True  # no usable in-batch predecessor
            for position in range(cursor, end):
                j = indices_list[position]
                timestamp = timestamps[j]
                if device is not None and (fresh_capture or gap_big[position]):
                    # ``gap_big`` prunes the idle check: whenever the walk
                    # has observed this group's previous packet into the
                    # same capture, ``device.last_seen`` equals that
                    # packet's timestamp, so the precomputed inter-packet
                    # gap decides ``gap > min_idle`` exactly.
                    gap = timestamp - device.last_seen
                    if (
                        gap > min_idle
                        and device.raw_packets >= min_packets
                        and device.gaps
                        and gap_exceeds_setup_threshold(
                            gap, device.gaps, min_idle, idle_factor
                        )
                    ):
                        if pending:
                            device.absorb_chunk(matrix[pending])
                            pending = []
                        ready = self._finalize(device, EMIT_IDLE, timestamp)
                        if ready is not None:
                            emissions.append((j, ready))
                        device = None
                if device is None:
                    device = _DeviceAssembler(mac=mac, last_seen=timestamp)
                    bucket[mac] = device
                    fresh_capture = True
                if fresh_capture:
                    # First packet of this capture inside the batch: the
                    # duplicate rule compares against the last kept row of
                    # the capture's pre-batch tail (if any).
                    token = dst_ips[j]
                    if token is not None:
                        matrix[j, _DST_IP_COUNTER] = device.extractor.counter_for(token)
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
                        matrix[j, _DST_IP_COUNTER] = device.extractor.counter_for(token)
                if not duplicate:
                    pending.append(j)
                if device.raw_packets:
                    device.gaps.append(max(0.0, timestamp - device.last_seen))
                device.raw_packets += 1
                device.last_seen = timestamp
                if device.raw_packets >= budget:
                    if pending:
                        device.absorb_chunk(matrix[pending])
                        pending = []
                    ready = self._finalize(device, EMIT_BUDGET, timestamp)
                    if ready is not None:
                        emissions.append((j, ready))
                    device = None
            if device is not None and pending:
                device.absorb_chunk(matrix[pending])
            prepared.devices[group] = device
            group += 1
        emissions.sort(key=lambda pair: pair[0])
        return [ready for _, ready in emissions]

    # ------------------------------------------------------------------ #
    # Eviction and flushing.
    # ------------------------------------------------------------------ #
    def evict_idle(self, now: float, shard: Optional[int] = None) -> list[ReadyFingerprint]:
        """Complete every capture that has been quiet for ``idle_timeout``.

        With ``shard`` given only that bucket is swept, letting a caller
        amortise eviction cost round-robin across shards.
        """
        buckets = self._buckets if shard is None else [self._buckets[shard % self.shards]]
        ready: list[ReadyFingerprint] = []
        for bucket in buckets:
            expired = [
                device
                for device in bucket.values()
                if now - device.last_seen > self.idle_timeout
            ]
            for device in expired:
                emitted = self._finalize(device, EMIT_IDLE, now)
                if emitted is not None:
                    ready.append(emitted)
        return ready

    def flush(self, now: float = 0.0) -> list[ReadyFingerprint]:
        """Emit every in-progress capture (stream ended)."""
        ready: list[ReadyFingerprint] = []
        for bucket in self._buckets:
            for device in list(bucket.values()):
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
