"""The streaming identification pipeline: source -> assembler -> dispatcher.

This is the online counterpart of the offline evaluation loop: packets are
consumed one at a time, folded into per-device fingerprints, identified in
batches, and the verdicts are pushed to a callback -- typically a
:class:`GatewayEnforcementSink` that turns each identification into an
enforcement rule on a :class:`~repro.gateway.security_gateway.SecurityGateway`.

Stream time (packet timestamps) drives a shared
:class:`~repro.simulation.clock.SimulatedClock`, which in turn drives the
assembler's idle eviction: every ``eviction_interval`` stream-seconds one
shard is swept round-robin, so eviction cost is amortised instead of
scanning every device on every packet.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE, DeviceTypeIdentifier
from repro.identification.lifecycle import LifecycleCoordinator
from repro.security_service.service import IoTSecurityService
from repro.simulation.clock import SimulatedClock
from repro.streaming.assembler import (
    AssemblerStats,
    ReadyFingerprint,
    ShardedFingerprintAssembler,
)
from repro.streaming.dispatcher import (
    BatchDispatcher,
    DispatcherStats,
    IdentifiedDevice,
    fingerprint_cache_key,
)
from repro.streaming.sources import PacketSource, iter_packet_batches

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.net.batch import PacketBatch
    from repro.obs.hub import Observability


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
        eviction_interval: stream-seconds between idle-eviction sweeps
            (one shard per sweep, round-robin).
        observability: optional hub; when attached (here or on the
            dispatcher), every verdict leaving the pipeline lands in the
            evidence ledger and the assembler/dispatcher counters become
            snapshot sources.
    """

    def __init__(
        self,
        source: PacketSource,
        dispatcher: BatchDispatcher,
        assembler: Optional[ShardedFingerprintAssembler] = None,
        on_identified: Optional[Callable[[IdentifiedDevice], None]] = None,
        clock: Optional[SimulatedClock] = None,
        eviction_interval: float = 1.0,
        observability: Optional["Observability"] = None,
    ):
        self.source = source
        self.assembler = assembler or ShardedFingerprintAssembler()
        self.dispatcher = dispatcher
        self.on_identified = on_identified
        self.clock = clock or SimulatedClock()
        self.eviction_interval = eviction_interval
        self.observability = (
            observability if observability is not None else dispatcher.observability
        )
        if self.observability is not None:
            # A hub handed to the pipeline covers its dispatcher too (and
            # vice versa): the identify-batch histogram must fire whichever
            # constructor the hub was attached through.  Adoption order
            # (pinned by the streaming regression suite): a dispatcher-only
            # hub is adopted by the pipeline, a pipeline-only hub is handed
            # down to the dispatcher, and two *different* hubs are refused
            # outright -- split-brain observability would scatter one
            # gateway's evidence across two ledgers.  The build_gateway()
            # facade sidesteps the question by single-sourcing the hub.
            if dispatcher.observability is None:
                dispatcher.observability = self.observability
            elif dispatcher.observability is not self.observability:
                raise SimulationError(
                    "pipeline and dispatcher were given two different "
                    "observability hubs; wire one hub through both "
                    "(or use repro.api.build_gateway, which single-sources it)"
                )
            self.observability.register_pipeline(self)
        self.stats = PipelineStats()
        self._next_eviction = self.clock.now() + eviction_interval
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

        If the consumer stops iterating early, the remaining captures are
        still flushed and their verdicts delivered to ``on_identified``
        when the generator closes -- they just cannot be yielded any more.
        """
        started = time.perf_counter()
        try:
            for packet in self.source.packets():
                yield from self.process_packet(packet)
            for item in self.finish():
                yield item
        finally:
            # No-op after a complete run; on early exit this drains the
            # pipeline so enforcement never silently misses a device.
            self.finish()
            self.stats.wall_seconds = time.perf_counter() - started

    def process_packet(self, packet) -> list[IdentifiedDevice]:
        """Feed a single packet through every stage (single-step API)."""
        self.stats.packets += 1
        if packet.timestamp > self.clock.now():
            self.clock.advance(packet.timestamp - self.clock.now())

        start = time.perf_counter()
        ready = self.assembler.observe(packet)
        completed = [ready] if ready is not None else []
        now = self.clock.now()
        if now >= self._next_eviction:
            completed.extend(self.assembler.evict_idle(now, shard=self._eviction_shard))
            self._eviction_shard = (self._eviction_shard + 1) % self.assembler.shards
            self._next_eviction = now + self.eviction_interval
        self.stats.assemble_seconds += time.perf_counter() - start

        identified: list[IdentifiedDevice] = []
        for item in completed:
            self.stats.fingerprints += 1
            identified.extend(self.dispatcher.submit(item))
        # Lingering partial batches are flushed on the stream clock, so a
        # trickle of devices is identified promptly instead of waiting for
        # a full batch (or end-of-stream drain) that may never come.
        identified.extend(self.dispatcher.poll(now))
        self._deliver(identified)
        return identified

    def run_batched(self, batch_size: int = 256) -> PipelineStats:
        """Consume the whole source through the columnar datapath.

        Verdict-equivalent to :meth:`run` -- each device receives the same
        identification, built from a bitwise-identical fingerprint -- but
        packets move as :class:`~repro.net.batch.PacketBatch` columns, so
        parsing, feature extraction and distance scoring are array
        operations instead of per-packet Python.  Delivery *order* across
        devices can differ from the per-packet path (dispatcher batches
        compose differently when fingerprints complete in bursts).
        """
        started = time.perf_counter()
        batches = iter_packet_batches(self.source, batch_size)
        while True:
            # Time the parse stage around next(): for frame-backed sources
            # this is where the struct-batched field extraction runs.
            parse_start = time.perf_counter()
            try:
                batch = next(batches)
            except StopIteration:
                break
            if self.observability is not None:
                self.observability.observe_parse_batch(time.perf_counter() - parse_start)
            self.process_batch(batch)
        self.finish()
        self.stats.wall_seconds = time.perf_counter() - started
        return self.stats

    def process_batch(self, batch: "PacketBatch") -> list[IdentifiedDevice]:
        """Feed one packet batch through every stage (columnar API).

        Emission parity with :meth:`process_packet` is kept by splitting
        the batch at eviction boundaries: the assembler folds packets in
        bulk up to (and including) the first packet whose timestamp
        crosses ``_next_eviction``, then the idle sweep fires with exactly
        the clock value the per-packet path would have used -- so sweeps
        land between the same two packets on both paths.
        """
        n = len(batch)
        if n == 0:
            return []
        self.stats.packets += n
        timestamps = batch.timestamps
        # The vectorised per-batch work runs once; each window between
        # eviction sweeps then walks its slice of the prepared batch.
        prepared = self.assembler.prepare_batch(batch)
        assemble_start = time.perf_counter()
        completed: list[ReadyFingerprint] = []
        position = 0
        while position < n:
            cut = int(timestamps.searchsorted(self._next_eviction, side="left"))
            stop = min(n, max(cut + 1, position + 1))

            end_time = float(timestamps[stop - 1])
            if end_time > self.clock.now():
                self.clock.advance(end_time - self.clock.now())
            completed.extend(self.assembler.observe_prepared(prepared, stop))
            now = self.clock.now()
            if now >= self._next_eviction:
                completed.extend(self.assembler.evict_idle(now, shard=self._eviction_shard))
                self._eviction_shard = (self._eviction_shard + 1) % self.assembler.shards
                self._next_eviction = now + self.eviction_interval
            position = stop
        assemble_elapsed = time.perf_counter() - assemble_start
        self.stats.assemble_seconds += assemble_elapsed
        if self.observability is not None:
            self.observability.observe_assemble_batch(assemble_elapsed)

        score_start = time.perf_counter()
        identified: list[IdentifiedDevice] = []
        for item in completed:
            self.stats.fingerprints += 1
            identified.extend(self.dispatcher.submit(item))
        identified.extend(self.dispatcher.poll(self.clock.now()))
        if self.observability is not None:
            self.observability.observe_score_batch(time.perf_counter() - score_start)
        self._deliver(identified)
        return identified

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

    def swap_identifier(
        self, identifier: DeviceTypeIdentifier, epoch: Optional[int] = None
    ) -> DeviceTypeIdentifier:
        """Hot-swap the serving model between batches (fleet push apply).

        Delegates to :meth:`BatchDispatcher.swap_identifier` -- in-flight
        fingerprints stay queued and are identified by the new model --
        and, when ``epoch`` is given, advances the dispatcher cache's
        generation to the pushed bundle's watermark so every pre-swap
        verdict becomes unreachable (the PR 3 invalidation path).  The
        returned value is the replaced identifier.  Callers with a
        lifecycle coordinator should prefer
        :meth:`repro.api.GatewayHandle.swap_bundle`, which also adopts
        the epoch into the coordinator and records the apply event.
        """
        previous = self.dispatcher.swap_identifier(identifier)
        cache = self.dispatcher.cache
        if epoch is not None and cache is not None:
            cache.epoch.advance_to(epoch)
        return previous

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

    def _deliver(self, identified: list[IdentifiedDevice]) -> None:
        self.stats.identified += len(identified)
        if self.observability is not None:
            cache = self.dispatcher.cache
            epoch = cache.epoch.generation if cache is not None else None
            revision = self.dispatcher.identifier.revision
            now = self.clock.now()
            for item in identified:
                self.observability.record_verdict(
                    item, revision=revision, epoch=epoch, stream_time=now
                )
        if self.on_identified is not None:
            for item in identified:
                self.on_identified(item)

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
    :attr:`sticky` off for the duration of a steady-state pass (it
    toggles the attribute directly so any sink exposing ``sticky``
    works); :meth:`reprofiling` offers the same escape hatch as a
    context manager for manual operator use.
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

    @contextmanager
    def reprofiling(self):
        """Apply every verdict verbatim for the duration of the block.

        The deliberate-re-profiling escape hatch from sticky enforcement:
        inside the block, an "unknown" verdict on an already-identified
        device downgrades it (fingerprint drift is acted on) instead of
        being dropped as steady-state noise.
        """
        was_sticky = self.sticky
        self.sticky = False
        try:
            yield self
        finally:
            self.sticky = was_sticky

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
        if self.observability is not None:
            lifecycle = self.lifecycle
            self.observability.record_enforcement(
                mac=str(identified.mac),
                device_type=identified.result.device_type,
                action=record.isolation_level.name,
                revision=lifecycle.identifier.revision if lifecycle is not None else None,
                epoch=lifecycle.epoch.generation if lifecycle is not None else None,
                stream_time=self.gateway.clock.now(),
                fingerprint_key_hex=fingerprint_cache_key(identified.fingerprint).hex(),
            )
        if self.lifecycle is not None:
            self.lifecycle.note_identified(identified, now=self.gateway.clock.now())
