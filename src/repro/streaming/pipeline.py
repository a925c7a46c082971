"""The streaming identification pipeline: source -> assembler -> dispatcher.

This is the online counterpart of the offline evaluation loop: stream
items are parsed into packet-batch columns as they arrive, folded into
per-device fingerprints, identified in batches, and the verdicts are
pushed to a callback -- typically a :class:`GatewayEnforcementSink` that
turns each identification into an enforcement rule on a
:class:`~repro.gateway.security_gateway.SecurityGateway`.

Stream time (packet timestamps) drives a shared
:class:`~repro.simulation.clock.SimulatedClock`, which in turn drives the
assembler's idle eviction: every :data:`EVICTION_INTERVAL_SECONDS`
stream-seconds one shard is swept round-robin, so eviction cost is
amortised instead of scanning every device on every packet.

The columnar drive keeps the semantics of folding packets one at a time
exactly: one per-frame rule (:meth:`StreamingPipeline._hand_over_rule`)
fires at every frame where something can happen -- a capture may
complete, the due sweep would evict a capture, or the dispatcher's linger
deadline passes.  A due sweep that would evict nothing is replayed inside
the rule (the deadline and the shard cursor move on) instead of ending a
window.  Who ends windows: :meth:`StreamingPipeline.results` walks the
rule once per frame as it parses and hands its batch over at the frame
where the rule fires, so each handed-over batch is one window ending at
its last frame; :meth:`StreamingPipeline.process_batch`, given an
arbitrary batch, walks the rule itself and ends a window at every frame
where it fires.  Each window end runs the stages in the per-packet order
(clock, fold, sweep, submit, poll, deliver), so verdicts, clock stamps
and ledger records do not depend on batch boundaries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE
from repro.identification.lifecycle import LifecycleCoordinator
from repro.net.batch import PacketBatch, PacketBatchBuilder
from repro.security_service.service import IoTSecurityService
from repro.simulation.clock import SimulatedClock
from repro.streaming.assembler import (
    AssemblerStats,
    ReadyFingerprint,
    ShardedFingerprintAssembler,
)
from repro.streaming.dispatcher import (
    MAX_LINGER_SECONDS,
    BatchDispatcher,
    DispatcherStats,
    IdentifiedDevice,
    fingerprint_cache_key,
)
from repro.streaming.sources import PacketSource

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.hub import Observability

#: Stream-seconds between idle-eviction sweeps (one shard per sweep).
EVICTION_INTERVAL_SECONDS = 1.0

#: Most frames parsed into one batch before it is handed over, when no
#: frame in it can yield a verdict earlier.  A capped hand-over never
#: yields a verdict, so the cap only bounds the memory a batch holds.
HANDOVER_FRAMES = 1024


@dataclass
class PipelineStats:
    """End-of-run summary of one pipeline execution.

    Top-level fields cover this run only, even when the dispatcher and its
    cache are shared across runs (warm start); the embedded ``assembler``
    and ``dispatcher`` stats are those components' lifetime counters.
    """

    packets: int = 0
    fingerprints: int = 0
    identified: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    assemble_seconds: float = 0.0
    identify_seconds: float = 0.0
    dropped: int = 0
    assembler: AssemblerStats = field(default_factory=AssemblerStats)
    dispatcher: DispatcherStats = field(default_factory=DispatcherStats)

    @property
    def packets_per_second(self) -> float:
        return self.packets / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> str:
        return (
            f"{self.packets} packets -> {self.fingerprints} fingerprints -> "
            f"{self.identified} identified ({self.cache_hits} from cache) | "
            f"{self.packets_per_second:,.0f} pkt/s, "
            f"assembly {self.assemble_seconds * 1000:.1f} ms, "
            f"identification {self.identify_seconds * 1000:.1f} ms"
        )


class StreamingPipeline:
    """Wires a packet source through assembly and dispatch to a callback.

    Attributes:
        source: where packets come from (pcap replay, simulation, ...).
        assembler: the sharded incremental fingerprint stage.
        dispatcher: the batching/caching identification stage.
        on_identified: invoked once per identified device, in the order
            verdicts become available -- with caching/batching enabled this
            can differ from fingerprint completion order (a cache hit is
            delivered immediately while earlier misses wait for their
            batch).  Exceptions propagate (the pipeline performs
            enforcement, it must not silently lose verdicts).
        clock: shared stream clock; advanced to each packet's timestamp.
        observability: the dispatcher's hub, if it has one; every
            verdict leaving the pipeline then lands in the evidence ledger
            and the assembler counters become snapshot sources.
    """

    def __init__(
        self,
        source: PacketSource,
        dispatcher: BatchDispatcher,
        assembler: Optional[ShardedFingerprintAssembler] = None,
        on_identified: Optional[Callable[[IdentifiedDevice], None]] = None,
        clock: Optional[SimulatedClock] = None,
    ):
        self.source = source
        self.assembler = assembler or ShardedFingerprintAssembler()
        self.dispatcher = dispatcher
        self.on_identified = on_identified
        self.clock = clock or SimulatedClock()
        self.observability = dispatcher.observability
        if self.observability is not None:
            self.observability.register_pipeline(self)
        self.stats = PipelineStats()
        self._next_eviction = self.clock.now() + EVICTION_INTERVAL_SECONDS
        self._eviction_shard = 0
        # A dispatcher (and its cache) may be shared across pipeline runs
        # (warm start); snapshot their lifetime counters so this run's
        # top-level stats report only its own work.  The embedded
        # stats.dispatcher / stats.assembler remain the components'
        # lifetime views.
        cache = dispatcher.cache
        self._cache_hits_before = cache.hits if cache is not None else 0
        self._cache_misses_before = cache.misses if cache is not None else 0
        self._identify_seconds_before = dispatcher.stats.identify_seconds
        self._dropped_before = dispatcher.stats.dropped

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #
    def run(self) -> PipelineStats:
        """Consume the whole source and return the run statistics."""
        for _ in self.results():
            pass  # results() already delivered it to the callback
        return self.stats

    def results(self) -> Iterator[IdentifiedDevice]:
        """Drive the stream, yielding identifications as they happen.

        Items go into one :class:`~repro.net.batch.PacketBatchBuilder` as
        they arrive, and each is walked once by :meth:`_hand_over_rule`.
        The batch is handed over right after the first frame where the
        rule fires, or after :data:`HANDOVER_FRAMES` frames, and folded as
        one window: the window end of :meth:`process_batch` without its
        walk, which this one already did.

        If the consumer stops iterating early, the remaining captures are
        still flushed and their verdicts delivered to ``on_identified``
        when the generator closes -- they just cannot be yielded any more.
        """
        started = time.perf_counter()
        perf_counter = time.perf_counter
        builder = PacketBatchBuilder()
        add = builder.add
        try:
            parse_seconds = 0.0
            frames = 0
            latest = self.clock.now()
            ends, commit = self._hand_over_rule()
            for item in self.source.packets():
                parse_start = perf_counter()
                mac = add(item)
                parse_seconds += perf_counter() - parse_start
                frames += 1
                timestamp = item.timestamp
                if timestamp > latest:
                    latest = timestamp
                if ends(mac, timestamp, latest) or frames >= HANDOVER_FRAMES:
                    yield from self._hand_over(builder.build(), parse_seconds, latest, commit)
                    parse_seconds = 0.0
                    frames = 0
                    # A consumer's inject/drain between yields may have
                    # moved the linger deadline too; like process_batch,
                    # the next batch starts from the clock.
                    latest = self.clock.now()
                    ends, commit = self._hand_over_rule()
            if frames:
                yield from self._hand_over(builder.build(), parse_seconds, latest, commit)
            yield from self.finish()
        finally:
            # No-op after a complete run; on early exit this drains the
            # pipeline so enforcement never silently misses a device.
            self.finish()
            self.stats.wall_seconds = time.perf_counter() - started

    def _hand_over_rule(self) -> tuple[Callable[[int, float, float], bool], Callable[[], None]]:
        """Where a batch or a window ends, as the deadlines stand now.

        The returned ``ends(mac, timestamp, latest)`` announces one frame
        to the assembler and is True when that frame may complete a
        capture (:meth:`~repro.streaming.assembler.ShardedFingerprintAssembler.frame_may_complete`),
        when ``latest`` -- the stream clock once the frame arrived --
        reaches the eviction deadline and the sweep of the due shard would
        evict a capture
        (:meth:`~repro.streaming.assembler.ShardedFingerprintAssembler.sweep_would_evict`),
        or when it lingers the oldest queued fingerprint for
        :data:`MAX_LINGER_SECONDS`: the comparisons :meth:`_sweep_if_due`
        and the dispatcher's ``poll`` make.

        A due sweep that would evict nothing does not end the window: the
        rule moves its own copy of the deadline and the shard cursor as
        :meth:`_sweep_if_due` would.  That is all the per-packet walk does
        at such a frame besides advancing the clock and folding the frame,
        and nothing reads the clock before the next window end.  The
        returned ``commit()`` writes the rule's deadline and cursor back;
        a window end calls it before its sweep.  Only a window end moves
        the linger deadline, so callers take a fresh rule after each.
        """
        may_complete = self.assembler.frame_may_complete
        would_evict = self.assembler.sweep_would_evict
        shards = self.assembler.shards
        next_eviction = self._next_eviction
        shard = self._eviction_shard
        lingering = self.dispatcher.lingering_since()

        def ends(mac: int, timestamp: float, latest: float) -> bool:
            nonlocal next_eviction, shard
            if may_complete(mac, timestamp):
                return True
            if latest >= next_eviction:
                if would_evict(latest, shard):
                    return True
                next_eviction = latest + EVICTION_INTERVAL_SECONDS
                shard = (shard + 1) % shards
            return lingering is not None and latest - lingering >= MAX_LINGER_SECONDS

        def commit() -> None:
            self._next_eviction = next_eviction
            self._eviction_shard = shard

        return ends, commit

    def _hand_over(
        self, batch: PacketBatch, parse_seconds: float, latest: float, commit: Callable[[], None]
    ) -> list[IdentifiedDevice]:
        """Process one batch :meth:`results` built; ``parse_seconds`` is its
        column build, ``latest`` and ``commit`` its walked rule's stream
        time and write-back."""
        if self.observability is not None:
            self.observability.observe_parse_batch(parse_seconds)
        return self._process(batch, (latest, commit))

    def process_batch(self, batch: PacketBatch) -> list[IdentifiedDevice]:
        """Feed one packet batch through every stage (columnar API).

        Exact for any batch boundaries: the batch's frames are walked with
        :meth:`_hand_over_rule`, the rule :meth:`results` hands over on,
        and a window ends at the first frame where it fires.  At each
        window end the clock moves to that frame's stream time -- the
        running maximum of the timestamps, as folding one packet at a time
        would leave it -- then the fold, the sweep, the submits, the poll
        and one delivery run in that order, so every call sees the clock
        value it would see packet by packet.
        """
        return self._process(batch, None)

    def _process(
        self, batch: PacketBatch, walked: Optional[tuple[float, Callable[[], None]]]
    ) -> list[IdentifiedDevice]:
        """:meth:`process_batch`, or with ``walked`` the ``(latest, commit)``
        of a rule that already walked every frame of ``batch`` and fired at
        most at the last: the batch is then one window, not walked again."""
        n = len(batch)
        if n == 0:
            return []
        self.stats.packets += n
        assemble_start = time.perf_counter()
        prepared = self.assembler.prepare_batch(batch)
        macs = prepared.macs
        timestamps = prepared.timestamps
        assemble_seconds = time.perf_counter() - assemble_start
        score_seconds = 0.0
        delivered: list[IdentifiedDevice] = []
        latest = self.clock.now()
        stop = 0
        while stop < n:
            window_start = time.perf_counter()
            if walked is not None:
                (latest, commit), stop = walked, n
            else:
                ends, commit = self._hand_over_rule()
                while stop < n:
                    timestamp = timestamps[stop]
                    if timestamp > latest:
                        latest = timestamp
                    stop += 1
                    if ends(macs[stop - 1], timestamp, latest):
                        break
            if latest > self.clock.now():
                self.clock.advance(latest - self.clock.now())
            completed = self.assembler.observe_prepared(prepared, stop)
            now = self.clock.now()
            commit()
            self._sweep_if_due(now, completed)
            score_start = time.perf_counter()
            assemble_seconds += score_start - window_start
            identified: list[IdentifiedDevice] = []
            for item in completed:
                self.stats.fingerprints += 1
                identified.extend(self.dispatcher.submit(item))
            # Lingering partial batches are flushed on the stream clock, so
            # a trickle of devices is identified promptly instead of
            # waiting for a full batch (or end-of-stream drain) that may
            # never come.
            identified.extend(self.dispatcher.poll(now))
            score_seconds += time.perf_counter() - score_start
            self._deliver(identified)
            delivered.extend(identified)
        self.stats.assemble_seconds += assemble_seconds
        if self.observability is not None:
            self.observability.observe_assemble_batch(assemble_seconds)
            self.observability.observe_score_batch(score_seconds)
        return delivered

    def inject(self, ready: ReadyFingerprint) -> list[IdentifiedDevice]:
        """Feed one pre-assembled fingerprint straight into dispatch.

        Bypasses the assembler (the fingerprint is already complete --
        e.g. handed over by an operator tool or a re-profiling capture)
        but keeps every downstream guarantee: batching, caching, ledger
        records and sink delivery are identical to the packet path.
        """
        self.stats.fingerprints += 1
        identified = self.dispatcher.submit(ready)
        identified.extend(self.dispatcher.poll(self.clock.now()))
        self._deliver(identified)
        return identified

    def drain(self) -> list[IdentifiedDevice]:
        """Identify and deliver every queued fingerprint.

        Captures still being assembled are left alone, so this is safe in
        the middle of a stream; :meth:`finish` also flushes them.
        """
        identified = self.dispatcher.drain()
        self._deliver(identified)
        return identified

    def finish(self) -> list[IdentifiedDevice]:
        """Flush the assembler and drain the dispatcher (end of stream)."""
        identified: list[IdentifiedDevice] = []
        start = time.perf_counter()
        flushed = self.assembler.flush(self.clock.now())
        if flushed and self.observability is not None:
            self.observability.observe_assembler_flush(time.perf_counter() - start)
        for item in flushed:
            self.stats.fingerprints += 1
            identified.extend(self.dispatcher.submit(item))
        identified.extend(self.dispatcher.drain())
        self._deliver(identified)
        self._collect_stats()
        return identified

    def _sweep_if_due(self, now: float, completed: list[ReadyFingerprint]) -> None:
        """Sweep one shard for idle captures once the eviction deadline passes."""
        if now >= self._next_eviction:
            completed.extend(self.assembler.evict_idle(now, shard=self._eviction_shard))
            self._eviction_shard = (self._eviction_shard + 1) % self.assembler.shards
            self._next_eviction = now + EVICTION_INTERVAL_SECONDS

    def _deliver(self, identified: list[IdentifiedDevice]) -> None:
        """Record each verdict in the ledger, then hand each to ``on_identified``.

        With a hub, a non-empty delivery is timed as one
        ``pipeline.deliver_batch_seconds`` observation.
        """
        if not identified:
            return
        started = time.perf_counter()
        self.stats.identified += len(identified)
        observability = self.observability
        if observability is not None:
            cache = self.dispatcher.cache
            epoch = cache.epoch.generation if cache is not None else None
            revision = self.dispatcher.identifier.revision
            now = self.clock.now()
            for item in identified:
                observability.record_verdict(
                    item, revision=revision, epoch=epoch, stream_time=now
                )
        if self.on_identified is not None:
            for item in identified:
                self.on_identified(item)
        if observability is not None:
            observability.observe_deliver_batch(time.perf_counter() - started)

    def _collect_stats(self) -> None:
        self.stats.assembler = self.assembler.stats
        self.stats.dispatcher = self.dispatcher.stats
        self.stats.identify_seconds = (
            self.dispatcher.stats.identify_seconds - self._identify_seconds_before
        )
        self.stats.dropped = self.dispatcher.stats.dropped - self._dropped_before
        cache = self.dispatcher.cache
        if cache is not None:
            self.stats.cache_hits = cache.hits - self._cache_hits_before
            self.stats.cache_misses = cache.misses - self._cache_misses_before


@dataclass
class GatewayEnforcementSink:
    """An ``on_identified`` callback that enforces verdicts on a gateway.

    Each identified device is assessed by the IoT Security Service (the
    identification itself already happened in the dispatcher, so only the
    vulnerability lookup and isolation-level derivation run here) and the
    resulting rule is installed on the Security Gateway.

    A device that keeps talking after setup produces later steady-state
    fingerprints the classifiers were never trained on, which typically
    assess as "unknown".  With ``sticky`` (the default) such an unknown
    verdict never downgrades a device whose record already carries an
    identified type -- only fresh devices and re-identifications to a
    known type change enforcement.  Set ``sticky=False`` to apply every
    verdict verbatim (e.g. when deliberately re-profiling a fleet).

    With a ``lifecycle`` coordinator attached, every verdict the sink
    enforces is also reported to it: unknown devices enter the quarantine
    log (so a later
    :meth:`~repro.identification.lifecycle.LifecycleCoordinator.learn_device_type`
    -- operator-driven or fired by a
    :class:`~repro.identification.autopilot.LifecycleAutopilot` trigger --
    can re-identify them and upgrade their strict rules), successful
    identifications release any quarantine entry for the MAC.  The
    :class:`~repro.identification.autopilot.ReprofileScheduler` flips
    :attr:`sticky` off for the duration of a steady-state pass.
    """

    gateway: SecurityGateway
    security_service: IoTSecurityService
    sticky: bool = True
    lifecycle: Optional[LifecycleCoordinator] = None
    observability: Optional["Observability"] = None
    enforced: int = 0
    skipped_downgrades: int = 0

    def __post_init__(self) -> None:
        if self.observability is not None:
            self.observability.register_sink(self)

    def __call__(self, identified: IdentifiedDevice) -> None:
        if self.sticky and identified.result.is_new_device_type:
            record = self.gateway.devices.get(identified.mac)
            if record is not None and record.device_type not in (None, UNKNOWN_DEVICE_TYPE):
                # Already identified: a steady-state "unknown" is noise,
                # not a fresh device to quarantine.
                self.skipped_downgrades += 1
                return
        assessment = self.security_service.assess_device_type(identified.result.device_type)
        record = self.gateway.apply_assessment(identified.mac, assessment)
        self.enforced += 1
        now = self.gateway.clock.now()
        lifecycle = self.lifecycle
        if self.observability is not None:
            self.observability.record_enforcement(
                mac=str(identified.mac),
                device_type=identified.result.device_type,
                action=record.isolation_level.name,
                revision=lifecycle.identifier.revision if lifecycle is not None else None,
                epoch=lifecycle.epoch.generation if lifecycle is not None else None,
                stream_time=now,
                fingerprint_key_hex=fingerprint_cache_key(identified.fingerprint).hex(),
            )
        if lifecycle is not None:
            lifecycle.note_identified(identified, now=now)
