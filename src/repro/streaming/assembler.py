"""Incremental assembly of device fingerprints from a packet stream.

The offline path buffers a device's whole setup capture, cuts it with
:class:`~repro.features.session.SetupPhaseDetector` and only then extracts
features (:meth:`~repro.features.fingerprint.Fingerprint.from_packets`).  The
streaming assembler instead folds each frame into its device's capture as
it arrives: a frame comes in as one packed Table-I key
(:func:`~repro.net.batch.table_i_key`), and one walk over the frames in
stream order applies the stateful destination counter,
consecutive-duplicate suppression and the emission decision.  The frames
come from a :class:`PreparedFrames` stream, parsed lazily from stream
items (:meth:`FingerprintAssembler.prepare_items`), and
:meth:`FingerprintAssembler.observe_prepared` folds them until a
window must end.  A capture equal row for row to a recent one (a clone
re-running its model's setup) shares that one's matrix when it is
emitted.  Captures sit in one index keyed by the MAC's integer value,
in capture-start order: a capture enters it when it opens and leaves it
when it ends, so idle-eviction sweeps and the flush emit oldest first
without a sort.

A fingerprint is emitted when

* the paper's setup packet budget is reached (``reason="budget"``),
* the device's packet rate drops (``reason="idle"``) -- the paper's
  end-of-setup criterion, detected online with the same adaptive rule
  :class:`~repro.features.session.SetupPhaseDetector` applies offline: a
  gap exceeding ``max(min_idle_seconds, idle_factor * median gap)`` cuts
  the capture when the device's own next packet reveals it, and an
  explicit :meth:`FingerprintAssembler.evict_idle` sweep driven by
  the pipeline clock catches devices that never speak again, or
* the stream ends and :meth:`FingerprintAssembler.flush` drains the
  partial captures (``reason="flush"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.exceptions import SimulationError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import unpack_rows
from repro.features.session import SetupPhaseDetector, gap_exceeds_setup_threshold
from repro.net.addresses import MACAddress
from repro.net.batch import StreamItem, stream_row
from repro.net.packet import Packet

# The e2e benchmark's tracer patches this module's name as its
# ``features.extract`` layer; nothing calls it.  Delete it once the
# benchmark reads its layer times from the hub (ROADMAP.md).
batch_feature_matrix = unpack_rows

EMIT_BUDGET = "budget"
EMIT_IDLE = "idle"
EMIT_FLUSH = "flush"

#: Ended captures remembered by content, least recently emitted first.  A
#: clone's setup (the same model's setup on another device) repeats a
#: recent capture row for row and then shares its matrix and content key
#: instead of unpacking and hashing them again.  A few times the number
#: of models a stream interleaves (the catalog has 27), and at most a
#: few MiB of matrices.
RECENT_CAPTURES = 64


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


@dataclass
class PreparedFrames:
    """Frames waiting to be folded, as rows in stream order.

    Each row is ``(timestamp, source MAC value, packed Table-I key,
    destination token)``.  :meth:`FingerprintAssembler.observe_prepared`
    folds rows until a window must end and can be called again to go on
    where it stopped: ``latest`` is the stream time so far (the running
    maximum of the folded timestamps, which a caller may raise),
    ``frames`` counts the folded rows and ``done`` turns True once the
    rows run out.
    """

    rows: Iterator[tuple[float, int, int, Optional[str]]]
    latest: float = -math.inf
    frames: int = 0
    done: bool = False


@dataclass(slots=True)
class _Capture:
    """Incremental fingerprint state of one device capture.

    ``keys`` and ``counters`` hold the kept rows in arrival order: the
    packed stateless columns and the destination counter of each; only
    the last kept pair is ever compared (Eq. (1)), so it is kept beside
    them.  ``gaps`` holds the gap before each frame after the first.
    ``destinations`` maps each destination token to its
    first-contact counter, with ``None`` (no IP layer) at 0.  ``reason``
    and ``completed_at`` are set when the capture ends.
    """

    mac: MACAddress
    last_seen: float
    destinations: dict = field(default_factory=lambda: {None: 0})
    keys: list[int] = field(default_factory=list)
    counters: list[int] = field(default_factory=list)
    last_key: int = -1
    last_counter: int = -1
    gaps: list[float] = field(default_factory=list)
    reason: str = ""
    completed_at: float = 0.0

    def to_fingerprint(self) -> Fingerprint:
        # Rows are already consecutive-deduplicated on the fly.
        return Fingerprint(
            vectors=unpack_rows(self.keys, self.counters), device_mac=str(self.mac)
        )


class FingerprintAssembler:
    """Per-device incremental fingerprint assembly.

    Attributes:
        packet_budget: raw packets per device after which the fingerprint
            is emitted (250 by default).
        min_packets: the cut guard of the end-of-setup rule -- a capture is
            never cut before this many raw packets, exactly as in the
            offline detector.
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
        packet_budget: int = 250,
        min_packets: Optional[int] = None,
        idle_timeout: float = 15.0,
        min_idle_seconds: Optional[float] = None,
        idle_factor: Optional[float] = None,
    ):
        if packet_budget <= 0:
            raise SimulationError(f"packet budget must be positive, got {packet_budget}")
        self.packet_budget = packet_budget
        self.min_packets = (
            SetupPhaseDetector.min_packets if min_packets is None else min_packets
        )
        self.idle_timeout = idle_timeout
        self.min_idle_seconds = (
            SetupPhaseDetector.min_idle_seconds if min_idle_seconds is None else min_idle_seconds
        )
        self.idle_factor = SetupPhaseDetector.idle_factor if idle_factor is None else idle_factor
        self.stats = AssemblerStats()
        # Every open capture, keyed by the MAC's integer value, the form
        # stream_row reads, in capture-start order: a capture is inserted
        # when it opens and deleted when it ends.
        self._captures: dict[int, _Capture] = {}
        # (kept keys, kept counters) -> the first fingerprint emitted with
        # them; see RECENT_CAPTURES.
        self._recent: dict[tuple[tuple[int, ...], tuple[int, ...]], Fingerprint] = {}

    @property
    def active_devices(self) -> int:
        return len(self._captures)

    def is_assembling(self, mac: MACAddress) -> bool:
        return mac.value in self._captures

    # ------------------------------------------------------------------ #
    # Stream input.
    # ------------------------------------------------------------------ #
    def observe(self, packet: Packet) -> Optional[ReadyFingerprint]:
        """Fold one packet in; returns a fingerprint if one completed.

        One packet through :meth:`prepare_items`,
        :meth:`observe_prepared` and :meth:`emit`.  A packet arriving
        after the device's packet rate dropped (the adaptive end-of-setup
        rule) first completes the previous capture, then starts a fresh
        one -- the same device re-running its setup (factory reset,
        reconnect) therefore produces a new fingerprint instead of
        polluting the old matrix.
        """
        prepared = self.prepare_items([packet])
        emitted = self.emit(self.observe_prepared(prepared))
        return emitted[0] if emitted else None

    @staticmethod
    def prepare_items(items: Iterable[StreamItem]) -> PreparedFrames:
        """The rows of a stream of frames and/or packets, parsed lazily.

        Each item is parsed by :func:`~repro.net.batch.stream_row` only
        when :meth:`observe_prepared` reaches it, so a stream is folded
        frame by frame as it arrives and no batch is held.  Three
        identical ARP requests end a three-packet capture on the budget,
        and Eq. (1) keeps one row of them:

        >>> from repro.net.pcap import CapturedPacket
        >>> arp_request = bytes.fromhex(
        ...     "ffffffffffff" "020000000001" "0806"  # Ethernet: broadcast, ARP
        ...     "0001" "0800" "06" "04" "0001"  # Ethernet/IPv4 request
        ...     "020000000001" "c0a80002" "000000000000" "c0a80001"
        ... )
        >>> frames = [CapturedPacket(t, arp_request) for t in (0.0, 0.1, 0.2)]
        >>> assembler = FingerprintAssembler(packet_budget=3)
        >>> ended = assembler.observe_prepared(assembler.prepare_items(frames))
        >>> [(str(ready.mac), ready.reason, ready.fingerprint.vectors.shape)
        ...  for ready in assembler.emit(ended)]
        [('02:00:00:00:00:01', 'budget', (1, 23))]
        """
        return PreparedFrames(map(stream_row, items))

    # The e2e benchmark's tracer looks this name up on the assembler.
    # Delete it once the benchmark reads its layer times from the hub
    # (ROADMAP.md).
    prepare_batch = prepare_items

    def observe_prepared(
        self, prepared: PreparedFrames, horizon: float = math.inf
    ) -> list[_Capture]:
        """Fold prepared frames in stream order until a window must end.

        Folding the packets one at a time, exactly: each frame first cuts
        its device's capture if the gap since the device's previous packet
        ends its setup (the adaptive rule of
        :class:`~repro.features.session.SetupPhaseDetector`), then opens
        or extends the capture -- its row is kept unless its packed key and
        destination counter both equal the last kept row's, the
        consecutive-duplicate rule of Eq. (1) -- and ends the capture once
        it holds the packet budget.  The fold stops after the first frame
        that ends a capture, after the first frame at which
        ``prepared.latest`` is at or past ``horizon`` (where the caller's
        eviction or linger deadline may fall due), or when the rows run
        out, and
        returns the captures that frame ended, in order; :meth:`emit`
        turns them into fingerprints.  Idle *eviction* remains the
        caller's job.
        """
        if prepared.done:
            return []
        captures = self._captures
        # A capture's ``gaps`` holds one gap per frame after its first, so
        # it has folded ``len(gaps) + 1`` frames: the cut guard needs at
        # least ``min_packets`` of them and one gap, the budget ends it.
        min_gaps = max(self.min_packets - 1, 1)
        budget_gaps = self.packet_budget - 1
        min_idle = self.min_idle_seconds
        idle_factor = self.idle_factor
        exceeds = gap_exceeds_setup_threshold
        ended: list[_Capture] = []
        latest = prepared.latest
        folded = 0
        try:
            for timestamp, mac_value, key, dst_ip in prepared.rows:
                capture = captures.get(mac_value)
                if capture is None:
                    gaps = None
                else:
                    gaps = capture.gaps
                    gap = timestamp - capture.last_seen
                    if (
                        gap > min_idle
                        and len(gaps) >= min_gaps
                        and exceeds(gap, gaps, min_idle, idle_factor)
                    ):
                        capture.reason, capture.completed_at = EMIT_IDLE, timestamp
                        # Deleted before the fresh capture is inserted, so
                        # that one goes to the end of the index.
                        del captures[mac_value]
                        ended.append(capture)
                        gaps = None
                    else:
                        gaps.append(gap if gap > 0.0 else 0.0)
                if gaps is None:
                    capture = captures[mac_value] = _Capture(
                        mac=MACAddress(mac_value), last_seen=timestamp
                    )
                    gaps = capture.gaps
                folded += 1
                destinations = capture.destinations
                counter = destinations.get(dst_ip)
                if counter is None:
                    # None is seeded at 0, so the first destination reads 1.
                    counter = destinations[dst_ip] = len(destinations)
                if key != capture.last_key or counter != capture.last_counter:
                    capture.keys.append(key)
                    capture.counters.append(counter)
                    capture.last_key = key
                    capture.last_counter = counter
                capture.last_seen = timestamp
                if len(gaps) >= budget_gaps:
                    capture.reason, capture.completed_at = EMIT_BUDGET, timestamp
                    del captures[mac_value]
                    ended.append(capture)
                if timestamp > latest:
                    latest = timestamp
                if ended or latest >= horizon:
                    break
            else:
                prepared.done = True
        finally:
            # Also when the rows raise (a truncated capture): the frames
            # folded so far stay counted.
            prepared.latest = latest
            prepared.frames += folded
            self.stats.packets_observed += folded
        return ended

    def emit(self, ended: list[_Capture]) -> list[ReadyFingerprint]:
        """The fingerprints of captures that ended, in order."""
        ready: list[ReadyFingerprint] = []
        stats = self.stats
        for capture in ended:
            stats.fingerprints_emitted += 1
            if capture.reason == EMIT_BUDGET:
                stats.budget_emissions += 1
            elif capture.reason == EMIT_IDLE:
                stats.idle_emissions += 1
            else:
                stats.flush_emissions += 1
            ready.append(
                ReadyFingerprint(
                    mac=capture.mac,
                    fingerprint=self._fingerprint(capture),
                    reason=capture.reason,
                    completed_at=capture.completed_at,
                )
            )
        return ready

    def _fingerprint(self, capture: _Capture) -> Fingerprint:
        """The capture's fingerprint, sharing the matrix of a recent
        capture with the same rows (:data:`RECENT_CAPTURES`)."""
        content = (tuple(capture.keys), tuple(capture.counters))
        recent = self._recent
        template = recent.pop(content, None)
        if template is None:
            fingerprint = template = capture.to_fingerprint()
            # Shared from now on: nothing may write it in place.
            template.vectors.flags.writeable = False
            if len(recent) >= RECENT_CAPTURES:
                del recent[next(iter(recent))]
        else:
            fingerprint = template.for_device(str(capture.mac))
        recent[content] = template
        return fingerprint

    # ------------------------------------------------------------------ #
    # Eviction and flushing.
    # ------------------------------------------------------------------ #
    def evict_idle(self, now: float, limit: Optional[int] = None) -> list[ReadyFingerprint]:
        """Complete the captures that have been quiet for ``idle_timeout``,
        oldest capture first, at most ``limit`` of them (all if None).

        The rest stay in the index for the next sweep.
        """
        timeout = self.idle_timeout
        idle = [capture for capture in self._captures.values() if now - capture.last_seen > timeout]
        return self._end(idle[:limit], EMIT_IDLE, now)

    def flush(self, now: float = 0.0) -> list[ReadyFingerprint]:
        """Emit every in-progress capture (stream ended), oldest first;
        ``now`` of 0 stamps each with its own last packet."""
        return self._end(list(self._captures.values()), EMIT_FLUSH, now or None)

    def _end(
        self, captures: list[_Capture], reason: str, now: Optional[float]
    ) -> list[ReadyFingerprint]:
        """Take ``captures`` out of the index, ended at ``now`` (at their
        own last packet if None), and emit them."""
        for capture in captures:
            del self._captures[capture.mac.value]
            capture.reason = reason
            capture.completed_at = capture.last_seen if now is None else now
        return self.emit(captures)

    def __iter__(self) -> Iterator[MACAddress]:
        for capture in list(self._captures.values()):
            yield capture.mac
