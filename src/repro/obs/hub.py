"""The observability hub: one object the serving path reports through.

:class:`Observability` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
with an optional :class:`~repro.obs.ledger.VerdictLedger` and knows how to
wire itself into every verdict-producing subsystem.  Components accept the
hub as an optional constructor argument and (a) register their existing
counters as pull-model metric *sources* and (b) report durable facts --
verdicts, enforcement changes, quarantine transitions, learns, promotions
-- as ledger records.  With no hub attached, nothing changes: every call
site guards on ``observability is not None`` and the hot path pays one
``is None`` test.

The hub is deliberately the *only* module that knows both worlds: the
evidence schema never imports serving-path types, and the serving path
never builds evidence records by hand.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Optional

from repro.features.fingerprint import fingerprint_key
from repro.obs.evidence import (
    EVIDENCE_KINDS,
    KIND_APPLY,
    KIND_ENFORCEMENT,
    KIND_LEARN,
    KIND_PROMOTION,
    KIND_PUSH,
    KIND_QUARANTINE,
    KIND_VERDICT,
    UNASSIGNED_SEQUENCE,
    EvidenceRecord,
    LineFragments,
)
from repro.obs.evidence import (
    QUARANTINE_DISCARDED as QUARANTINE_DISCARDED,
)
from repro.obs.evidence import (
    QUARANTINE_RECORDED as QUARANTINE_RECORDED,
)
from repro.obs.evidence import (
    QUARANTINE_RELEASED as QUARANTINE_RELEASED,
)
from repro.obs.ledger import VerdictLedger
from repro.obs.metrics import MetricsRegistry, Scalar

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.identification.autopilot import LifecycleAutopilot
    from repro.identification.identifier import IdentificationResult
    from repro.identification.lifecycle import LifecycleCoordinator, RelearnReport
    from repro.streaming.dispatcher import BatchDispatcher, IdentifiedDevice
    from repro.streaming.pipeline import GatewayEnforcementSink, StreamingPipeline


#: Validated templates of the records a verdict can write; each record
#: is derived from its template (:meth:`EvidenceRecord.derive`).
_VERDICT = EvidenceRecord(kind=KIND_VERDICT)
_ENFORCEMENT = EvidenceRecord(kind=KIND_ENFORCEMENT)
_QUARANTINE = EvidenceRecord(kind=KIND_QUARANTINE)


def verdict_fragments(result: "IdentificationResult") -> LineFragments:
    """The ledger fragments of every verdict served from ``result``.

    Rendered on first use and cached on the result, the way
    :func:`~repro.features.fingerprint.fingerprint_key` caches a
    fingerprint's content key: the dispatcher cache hands the same result
    to every device of a model, so each verdict record after the first
    reuses the text, and the fragments go when the result goes.
    """
    fragments = getattr(result, "_ledger_fragments", None)
    if fragments is None:
        provenance = {
            device_type: {
                "reference_indices": list(indices),
                "selection_seed": seed,
            }
            for device_type, (indices, seed) in result.provenance.items()
        }
        fragments = LineFragments.render(
            result.device_type, tuple(result.matched_types), provenance
        )
        object.__setattr__(result, "_ledger_fragments", fragments)
    return fragments


class Observability:
    """Metrics registry + evidence ledger behind one object.

    Attributes:
        metrics: the registry every wired subsystem reports through.
        ledger: optional durable evidence sink; ``None`` keeps metrics
            only (no disk I/O anywhere on the serving path).

    Example:
        >>> hub = Observability()
        >>> sorted(k for k in hub.snapshot() if k.startswith("ledger."))[:2]
        ['ledger.apply_records', 'ledger.enforcement_records']
    """

    def __init__(
        self,
        ledger: Optional[VerdictLedger] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ledger = ledger
        # Pre-created so the snapshot's key set is stable from record
        # zero (the determinism suite compares snapshots byte for byte).
        self._kind_counters = {
            kind: self.metrics.counter(f"ledger.{kind}_records") for kind in EVIDENCE_KINDS
        }
        self._identify_batch_seconds = self.metrics.histogram(
            "dispatcher.identify_batch_seconds"
        )
        # The batch's two identification stages (the paper's Table IV split).
        self._classify_batch_seconds = self.metrics.histogram(
            "dispatcher.classify_batch_seconds"
        )
        self._discriminate_batch_seconds = self.metrics.histogram(
            "dispatcher.discriminate_batch_seconds"
        )
        self._assembler_flush_seconds = self.metrics.histogram(
            "pipeline.assembler_flush_seconds"
        )
        # Per-stage latency of the drive (one observe per window, one
        # per delivery) so the *next* bottleneck is visible in snapshot().
        self._parse_batch_seconds = self.metrics.histogram("pipeline.parse_batch_seconds")
        self._assemble_batch_seconds = self.metrics.histogram(
            "pipeline.assemble_batch_seconds"
        )
        self._score_batch_seconds = self.metrics.histogram("pipeline.score_batch_seconds")
        self._deliver_batch_seconds = self.metrics.histogram(
            "pipeline.deliver_batch_seconds"
        )

    # ------------------------------------------------------------------ #
    # The one read API.
    # ------------------------------------------------------------------ #
    def snapshot(self, include_timings: bool = True) -> dict:
        """Every wired metric, flat, sorted, JSON-serialisable."""
        return self.metrics.snapshot(include_timings=include_timings)

    def snapshot_json(self, include_timings: bool = True) -> str:
        """The snapshot as canonical JSON (sorted keys, stable bytes)."""
        return json.dumps(
            self.snapshot(include_timings=include_timings), sort_keys=True, indent=2
        )

    # ------------------------------------------------------------------ #
    # Timing instruments (hot path: one histogram observe, no alloc).
    # ------------------------------------------------------------------ #
    def observe_identify_batch(
        self, seconds: float, classify_seconds: float, discriminate_seconds: float
    ) -> None:
        """One dispatcher identify call: its latency and its two stage times."""
        self._identify_batch_seconds.observe(seconds)
        self._classify_batch_seconds.observe(classify_seconds)
        self._discriminate_batch_seconds.observe(discriminate_seconds)

    def observe_assembler_flush(self, seconds: float) -> None:
        """One end-of-stream assembler flush."""
        self._assembler_flush_seconds.observe(seconds)

    def observe_parse_batch(self, seconds: float) -> None:
        """One window's frame loop: framing, parse, Table-I key and fold."""
        self._parse_batch_seconds.observe(seconds)

    def observe_assemble_batch(self, seconds: float) -> None:
        """One window end's assembly: fingerprints of ended captures, sweeps."""
        self._assemble_batch_seconds.observe(seconds)

    def observe_score_batch(self, seconds: float) -> None:
        """One dispatch round (submit + poll) of a window, or the final drain."""
        self._score_batch_seconds.observe(seconds)

    def observe_deliver_batch(self, seconds: float) -> None:
        """One delivery of verdicts: their ledger records and the sink calls."""
        self._deliver_batch_seconds.observe(seconds)

    # ------------------------------------------------------------------ #
    # Source wiring (pull model; registration is idempotent per prefix).
    # ------------------------------------------------------------------ #
    def register_dispatcher(self, dispatcher: "BatchDispatcher") -> None:
        """Absorb the dispatcher's counters, its queue's and its cache's.

        Every field of the stage's stats dataclass is exported, so a new
        counter reaches the snapshot without touching this method.
        """
        stats = dispatcher.stats
        queue = dispatcher.queue

        def dispatcher_source() -> dict[str, Scalar]:
            return dataclasses.asdict(stats)

        def queue_source() -> dict[str, Scalar]:
            return {
                **dataclasses.asdict(queue.stats),
                "depth": len(queue),
                "capacity": queue.capacity,
            }

        self.metrics.register_source("dispatcher", dispatcher_source)
        self.metrics.register_source("dispatcher.queue", queue_source)
        cache = dispatcher.cache
        if cache is not None:

            def cache_source() -> dict[str, Scalar]:
                return {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "stale_rejections": cache.stale_rejections,
                    "size": len(cache),
                    "capacity": cache.capacity,
                    "epoch_generation": cache.epoch.generation,
                }

            self.metrics.register_source("identification_cache", cache_source)

    def register_pipeline(self, pipeline: "StreamingPipeline") -> None:
        """Absorb the assembler's counters and the dispatcher's (chained)."""
        stats = pipeline.assembler.stats

        def assembler_source() -> dict[str, Scalar]:
            return dataclasses.asdict(stats)

        self.metrics.register_source("assembler", assembler_source)
        self.register_dispatcher(pipeline.dispatcher)

    def register_sink(self, sink: "GatewayEnforcementSink") -> None:
        """Absorb the counters of the enforcement sink, the rule cache and the switch."""

        def sink_source() -> dict[str, Scalar]:
            return {
                "enforced": sink.enforced,
                "skipped_downgrades": sink.skipped_downgrades,
                "sticky": sink.sticky,
            }

        rule_cache = sink.gateway.rule_cache

        def rule_cache_source() -> dict[str, Scalar]:
            return {
                "lookups": rule_cache.lookups,
                "hits": rule_cache.hits,
                "insertions": rule_cache.insertions,
                "replacements": rule_cache.replacements,
                "evictions": rule_cache.evictions,
                "size": len(rule_cache),
            }

        switch = sink.gateway.switch

        def switch_source() -> dict[str, Scalar]:
            return {
                "rules": switch.rule_count,
                "packets_processed": switch.packets_processed,
                "packets_dropped": switch.packets_dropped,
                "packets_to_controller": switch.packets_to_controller,
            }

        self.metrics.register_source("enforcement_sink", sink_source)
        self.metrics.register_source("rule_cache", rule_cache_source)
        self.metrics.register_source("switch", switch_source)

    def register_lifecycle(self, coordinator: "LifecycleCoordinator") -> None:
        """Absorb the quarantine log, epoch and coordinator counters."""

        def lifecycle_source() -> dict[str, Scalar]:
            return {
                "relearns": coordinator.relearns,
                "disconnects": coordinator.disconnects,
                "registered_caches": len(coordinator.registered_caches),
            }

        def quarantine_source() -> dict[str, Scalar]:
            log = coordinator.quarantine  # re-read: learns may replace it
            return {
                "recorded": log.recorded,
                "evicted": log.evicted,
                "released": log.released,
                "size": len(log),
                "capacity": log.capacity,
            }

        def epoch_source() -> dict[str, Scalar]:
            return {
                "generation": coordinator.epoch.generation,
                "invalidations": coordinator.epoch.invalidations,
            }

        self.metrics.register_source("lifecycle", lifecycle_source)
        self.metrics.register_source("quarantine", quarantine_source)
        self.metrics.register_source("cache_epoch", epoch_source)

    def register_autopilot(self, autopilot: "LifecycleAutopilot") -> None:
        """Absorb the autopilot's trigger counters."""

        def autopilot_source() -> dict[str, Scalar]:
            return {
                "triggers_fired": autopilot.triggers_fired,
                "learned": autopilot.learned,
                "rejected": autopilot.rejected,
                "cancelled": autopilot.cancelled,
                "pending": len(autopilot.pending),
            }

        self.metrics.register_source("autopilot", autopilot_source)

    # ------------------------------------------------------------------ #
    # Evidence records (the durable half).
    # ------------------------------------------------------------------ #
    def _emit(self, record: EvidenceRecord) -> Optional[EvidenceRecord]:
        # Count only once the record has landed: a failed append must not
        # leave the snapshot reporting a record the ledger never got.
        appended = self.ledger.append(record) if self.ledger is not None else None
        self._kind_counters[record.kind].inc()
        return appended

    def record_verdict(
        self,
        identified: "IdentifiedDevice",
        revision: int,
        epoch: Optional[int],
        stream_time: float,
    ) -> None:
        """One identification leaving the pipeline, provenance included."""
        fragments = verdict_fragments(identified.result)
        ledger = self.ledger
        self._emit(
            _VERDICT.derive(
                # The sequence the ledger stamps next, so it need not copy
                # the record to stamp it.
                sequence=ledger.next_sequence if ledger is not None else UNASSIGNED_SEQUENCE,
                stream_time=stream_time,
                mac=str(identified.mac),
                fingerprint_key=fingerprint_key(identified.fingerprint).hex(),
                verdict=fragments.verdict,
                matched_types=fragments.matched_types,
                provenance=fragments.provenance,
                identifier_revision=revision,
                cache_epoch=epoch,
                from_cache=identified.from_cache,
                completion_reason=identified.completion_reason,
                fragments=fragments,
            )
        )

    def record_enforcement(
        self,
        mac: str,
        device_type: str,
        action: str,
        revision: Optional[int],
        epoch: Optional[int],
        stream_time: float,
        fingerprint_key_hex: Optional[str] = None,
    ) -> None:
        """A gateway rule installed or replaced for one device."""
        ledger = self.ledger
        self._emit(
            _ENFORCEMENT.derive(
                sequence=ledger.next_sequence if ledger is not None else UNASSIGNED_SEQUENCE,
                stream_time=stream_time,
                mac=mac,
                fingerprint_key=fingerprint_key_hex,
                verdict=device_type,
                enforcement_action=action,
                identifier_revision=revision,
                cache_epoch=epoch,
            )
        )

    def record_quarantine(
        self,
        mac: str,
        transition: str,
        revision: Optional[int],
        epoch: Optional[int],
        stream_time: float,
        fingerprint_key_hex: Optional[str] = None,
        completion_reason: str = "",
    ) -> None:
        """An unknown device parked (``recorded``), ``released`` by a
        successful identification, or ``discarded`` on departure."""
        ledger = self.ledger
        self._emit(
            _QUARANTINE.derive(
                sequence=ledger.next_sequence if ledger is not None else UNASSIGNED_SEQUENCE,
                stream_time=stream_time,
                mac=mac,
                fingerprint_key=fingerprint_key_hex,
                identifier_revision=revision,
                cache_epoch=epoch,
                completion_reason=completion_reason,
                detail={"transition": transition},
            )
        )

    def record_learn(
        self,
        report: "RelearnReport",
        revision: int,
        stream_time: float = 0.0,
    ) -> None:
        """A runtime type registration and its fleet re-identification."""
        self._emit(
            EvidenceRecord(
                kind=KIND_LEARN,
                stream_time=stream_time,
                verdict=report.device_type,
                identifier_revision=revision,
                cache_epoch=report.generation,
                detail={
                    "quarantined": report.quarantined,
                    "upgraded": [str(mac) for mac in report.upgraded],
                    "still_unknown": [str(mac) for mac in report.still_unknown],
                    "snapshot_path": str(report.snapshot_path)
                    if report.snapshot_path is not None
                    else None,
                },
            )
        )

    def record_push(
        self,
        push_id: int,
        bundle_path: str,
        epoch: int,
        revision: int,
        duplicate: bool = False,
        note: str = "",
        stream_time: float = 0.0,
    ) -> None:
        """A model bundle published to the fleet distribution channel."""
        self._emit(
            EvidenceRecord(
                kind=KIND_PUSH,
                stream_time=stream_time,
                identifier_revision=revision,
                cache_epoch=epoch,
                detail={
                    "push_id": push_id,
                    "bundle_path": bundle_path,
                    "duplicate": duplicate,
                    "note": note,
                },
            )
        )

    def record_apply(
        self,
        gateway: str,
        epoch: int,
        revision: int,
        applied: bool,
        push_id: Optional[int] = None,
        reason: str = "",
        stream_time: float = 0.0,
    ) -> None:
        """One gateway installing (or idempotently skipping) a pushed bundle.

        ``applied=False`` marks the counted no-op of a replayed/duplicate
        push -- the record is still emitted so the ledger shows the
        gateway *saw* the push, which is what a convergence audit needs.
        """
        self._emit(
            EvidenceRecord(
                kind=KIND_APPLY,
                stream_time=stream_time,
                identifier_revision=revision,
                cache_epoch=epoch,
                detail={
                    "gateway": gateway,
                    "push_id": push_id,
                    "applied": applied,
                    "reason": reason,
                },
            )
        )

    def record_promotion(
        self,
        label: str,
        upgraded: int,
        revision: Optional[int],
        epoch: Optional[int],
        stream_time: float = 0.0,
    ) -> None:
        """A provisional label cleared (and its fleet re-assessed)."""
        self._emit(
            EvidenceRecord(
                kind=KIND_PROMOTION,
                stream_time=stream_time,
                verdict=label,
                identifier_revision=revision,
                cache_epoch=epoch,
                detail={"upgraded": upgraded},
            )
        )
