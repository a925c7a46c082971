"""The streaming identification pipeline: source -> assembler -> dispatcher.

This is the online counterpart of the offline evaluation loop: stream
items are parsed and folded into per-device fingerprints as they arrive,
identified in batches, and the verdicts are pushed to a callback --
typically a :class:`GatewayEnforcementSink` that turns each identification
into an enforcement rule on a
:class:`~repro.gateway.security_gateway.SecurityGateway`.

Stream time (packet timestamps) drives a shared
:class:`~repro.simulation.clock.SimulatedClock`, which in turn drives the
assembler's idle eviction: every :data:`EVICTION_INTERVAL_SECONDS`
stream-seconds one shard is swept round-robin, so eviction cost is
amortised instead of scanning every device on every packet.

One drive entry, :meth:`StreamingPipeline.results` (which ``run`` and
the facade consume), feeds the source's items, parsed lazily, to one
per-frame step (:meth:`StreamingPipeline._drive`).  Each frame is parsed
into one packed Table-I key and folded into its capture immediately.  A window ends only at a frame
that ended a capture, where the due eviction sweep evicted a capture, or
where the dispatcher's linger deadline passed; a due sweep that evicts
nothing only moves the eviction deadline and the shard cursor.  Each
window end runs the stages in the per-packet order (clock, sweep, then
each submit and the poll), and every dispatcher call's verdicts are
delivered before the next call runs, so verdicts, clock stamps and ledger
records do not depend on batch boundaries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE
from repro.identification.lifecycle import LifecycleCoordinator
from repro.security_service.service import IoTSecurityService
from repro.simulation.clock import SimulatedClock
from repro.streaming.assembler import (
    AssemblerStats,
    PreparedFrames,
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

        Each item is parsed into its packed Table-I row and folded into
        its device's capture as it arrives (:meth:`_drive`); no batch is
        built.

        If the consumer stops iterating early, the remaining captures are
        still flushed and their verdicts delivered to ``on_identified``
        when the generator closes -- they just cannot be yielded any more.
        """
        started = time.perf_counter()
        try:
            for identified in self._drive(self.assembler.prepare_items(self.source.packets())):
                yield from identified
            yield from self.finish()
        finally:
            # No-op after a complete run; on early exit this drains the
            # pipeline so enforcement never silently misses a device.
            self.finish()
            self.stats.wall_seconds = time.perf_counter() - started

    def _drive(self, prepared: PreparedFrames) -> Iterator[list[IdentifiedDevice]]:
        """Fold ``prepared`` frame by frame, ending a window wherever one ends.

        :meth:`~repro.streaming.assembler.ShardedFingerprintAssembler.observe_prepared`
        folds frames until one ends a capture or the stream time reaches
        :meth:`_horizon`.  There the clock moves to the stream time -- the
        running maximum of the timestamps, as folding one packet at a time
        would leave it -- and the ended captures become fingerprints and
        the due sweep runs.  A window ends only where a capture ended, the
        sweep evicted one or the dispatcher's linger deadline passed; then
        the submits and the poll follow, in the per-packet order, each
        call's verdicts delivered before the next call runs
        (:meth:`_dispatch`).  Anywhere else nothing is submitted, polled or
        delivered: a sweep that evicted nothing has only moved the
        eviction deadline and the shard cursor, and the fold goes on.
        Yields each window's verdicts, in delivery order.

        The hub observes once per window: ``parse`` (the frame loop:
        framing, parse, Table-I key and fold), ``assemble`` (turning ended captures into
        fingerprints, and the sweeps) and ``score`` (the submits and the
        poll, without the deliveries between them, which
        ``pipeline.deliver_batch_seconds`` times).  Frames after the last
        window end are observed when they run out.
        """
        perf_counter = time.perf_counter
        clock = self.clock
        parse_seconds = assemble_seconds = 0.0
        # One running mark: each stage's time runs from where the last
        # one stopped, so the stages cover the whole loop between them.
        mark = perf_counter()
        window_start = prepared.frames
        while not prepared.done:
            prepared.latest = clock.now()
            horizon = self._horizon()
            frames = prepared.frames
            try:
                ended = self.assembler.observe_prepared(prepared, horizon)
            finally:
                # Also when the rows raise (a truncated capture): the
                # frames folded so far are counted and move the clock.
                self.stats.packets += prepared.frames - frames
                if prepared.latest > clock.now():
                    clock.advance(prepared.latest - clock.now())
            folded = perf_counter()
            parse_seconds += folded - mark
            if prepared.frames == frames:
                break  # the rows ran out: no frame, nothing falls due
            now = clock.now()
            completed = self.assembler.emit(ended)
            emitted = len(completed)
            self._sweep_if_due(now, completed)
            lingering = self.dispatcher.lingering_since()
            mark = perf_counter()
            assemble_seconds += mark - folded
            if not (
                ended
                or len(completed) > emitted
                or (lingering is not None and now - lingering >= MAX_LINGER_SECONDS)
            ):
                continue
            # Lingering partial batches are flushed on the stream clock, so
            # a trickle of devices is identified promptly instead of
            # waiting for a full batch (or end-of-stream drain) that may
            # never come.
            identified, score_seconds = self._dispatch(completed, now)
            self._observe_window(parse_seconds, assemble_seconds, score_seconds)
            parse_seconds = assemble_seconds = 0.0
            yield identified
            mark = perf_counter()
            window_start = prepared.frames
        if prepared.frames > window_start:
            self._observe_window(parse_seconds, assemble_seconds, None)

    def _dispatch(
        self, completed: list[ReadyFingerprint], now: Optional[float]
    ) -> tuple[list[IdentifiedDevice], float]:
        """Submit each of ``completed``, then poll at stream time ``now``
        (``None``: drain), delivering each call's verdicts before the next
        call runs.

        So a cache hit or a batch that ran inside one submit reaches the
        ledger and the sink before the next batch is identified.  Between
        calls the dispatcher's queue holds less than a full batch (a full
        one runs inside ``submit``), so the drain identifies one batch at
        most.  Returns every verdict in delivery order and the seconds
        spent in the dispatcher calls (the deliveries excluded).
        """
        dispatcher = self.dispatcher
        perf_counter = time.perf_counter
        delivered: list[IdentifiedDevice] = []
        score_seconds = 0.0
        start = perf_counter()
        for ready in [*completed, None]:
            if ready is not None:
                self.stats.fingerprints += 1
                identified = dispatcher.submit(ready)
            elif now is not None:
                identified = dispatcher.poll(now)
            else:
                identified = dispatcher.drain()
            if identified:
                delivering = perf_counter()
                score_seconds += delivering - start
                self._deliver(identified)
                delivered.extend(identified)
                start = perf_counter()
        return delivered, score_seconds + perf_counter() - start

    def _horizon(self) -> float:
        """The stream time at which the fold must stop for a deadline.

        The eviction deadline, or -- if earlier -- a hair before the
        dispatcher's linger deadline: ``poll`` makes the exact comparison
        (``now - lingering >= MAX_LINGER_SECONDS``), whose rounding can
        put it a few units in the last place either side of the sum, and
        stopping early only costs a look.
        """
        horizon = self._next_eviction
        lingering = self.dispatcher.lingering_since()
        if lingering is not None:
            margin = 4 * math.ulp(abs(lingering) + MAX_LINGER_SECONDS)
            horizon = min(horizon, lingering + MAX_LINGER_SECONDS - margin)
        return horizon

    def _observe_window(
        self, parse_seconds: float, assemble_seconds: float, score_seconds: Optional[float]
    ) -> None:
        self.stats.assemble_seconds += parse_seconds + assemble_seconds
        observability = self.observability
        if observability is not None:
            observability.observe_parse_batch(parse_seconds)
            observability.observe_assemble_batch(assemble_seconds)
            if score_seconds is not None:
                observability.observe_score_batch(score_seconds)

    def inject(self, ready: ReadyFingerprint) -> list[IdentifiedDevice]:
        """Feed one pre-assembled fingerprint straight into dispatch.

        Bypasses the assembler (the fingerprint is already complete --
        e.g. handed over by an operator tool or a re-profiling capture)
        but keeps every downstream guarantee: batching, caching, ledger
        records and sink delivery are identical to the packet path.
        """
        return self._dispatch([ready], self.clock.now())[0]

    def drain(self) -> list[IdentifiedDevice]:
        """Identify and deliver every queued fingerprint.

        Captures still being assembled are left alone, so this is safe in
        the middle of a stream; :meth:`finish` also flushes them.
        """
        return self._dispatch([], None)[0]

    def finish(self) -> list[IdentifiedDevice]:
        """Flush the assembler and drain the dispatcher (end of stream).

        Each flushed capture is submitted and then the queue drained, and
        each of those calls' verdicts is delivered before the next call
        runs (:meth:`_dispatch`), so the first verdicts of the flush do
        not wait for the last batch.  With a hub, a flush that emits is one
        ``pipeline.assembler_flush_seconds`` observation, and the submits
        and drain that identify something are one
        ``pipeline.score_batch_seconds`` observation (the deliveries
        between them excluded).
        """
        start = time.perf_counter()
        flushed = self.assembler.flush(self.clock.now())
        flush_seconds = time.perf_counter() - start
        identified, score_seconds = self._dispatch(flushed, None)
        if self.observability is not None:
            if flushed:
                self.observability.observe_assembler_flush(flush_seconds)
            if identified:
                self.observability.observe_score_batch(score_seconds)
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

        ``identified`` is what one dispatcher call returned (a cache hit,
        one batch), delivered before the next call runs.  With a hub, a
        non-empty delivery is timed as one
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
