"""The gateway-construction facade: one config, one call, one handle.

Standing up a gateway used to mean hand-wiring seven constructors --
``PacketSource`` -> :class:`~repro.streaming.assembler.FingerprintAssembler`
-> :class:`~repro.streaming.dispatcher.BatchDispatcher`
-> :class:`~repro.streaming.pipeline.StreamingPipeline`
-> :class:`~repro.streaming.pipeline.GatewayEnforcementSink`
-> :class:`~repro.identification.lifecycle.LifecycleCoordinator`
-> :class:`~repro.identification.autopilot.LifecycleAutopilot` -- each
threading ``observability=`` / ``lifecycle=`` / ``clock=`` keyword
arguments, with half a dozen cross-references (sink to coordinator,
coordinator back to sink, gateway to lifecycle, cache to epoch) that are
easy to forget and silent when missed.  An N-gateway fleet multiplied
that pain by N.

This module replaces the hand-wiring with a declarative
:class:`GatewayConfig` and a :func:`build_gateway` call that assembles
the whole stack -- validated, fully cross-wired, the observability hub
single-sourced through every layer.  The existing constructors are
unchanged underneath: anything the facade builds can still be built (or
post-tweaked) by hand, and the returned :class:`GatewayHandle` exposes
every component it assembled.

The handle is also the *fleet unit*: :meth:`GatewayHandle.swap_bundle`
is the hot model swap a :class:`~repro.fleet.FleetCoordinator` push
lands on, installing a new identifier between batches without dropping
in-flight fingerprints and adopting the bundle's epoch watermark across
the dispatcher cache, the lifecycle coordinator and the security
service in one atomic step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.exceptions import ConfigError, FleetError
from repro.features.fingerprint import Fingerprint
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.autopilot import LifecycleAutopilot, TriggerPolicy
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.lifecycle import CacheEpoch, LifecycleCoordinator
from repro.identification.model_store import load_identifier_with_epoch
from repro.net.addresses import MACAddress
from repro.obs.hub import Observability
from repro.obs.ledger import VerdictLedger
from repro.security_service.service import IoTSecurityService
from repro.simulation.clock import SimulatedClock
from repro.streaming.assembler import FingerprintAssembler, ReadyFingerprint
from repro.streaming.backpressure import BackpressurePolicy
from repro.streaming.dispatcher import BatchDispatcher, IdentificationCache, IdentifiedDevice
from repro.streaming.pipeline import GatewayEnforcementSink, PipelineStats, StreamingPipeline
from repro.streaming.sources import IterableSource, PacketSource


@dataclass
class GatewayConfig:
    """Everything :func:`build_gateway` needs, validated before wiring.

    Exactly one model source must be set: ``identifier`` (an in-memory
    trained identifier), ``bundle_path`` (load from a model-store
    bundle, adopting its epoch stamp), or ``resume=True`` with
    ``store_path`` (rebuild lifecycle state persisted by a previous
    process, quarantine log included).

    Attributes:
        identifier: a trained two-stage identifier to serve.
        bundle_path: a model-store bundle to load and serve; its epoch
            stamp becomes the gateway's starting cache generation.
        resume: rebuild from ``store_path`` (+ ``quarantine_path``) via
            :meth:`LifecycleCoordinator.resume` -- the restart path.
        name: the gateway's name (ledger apply records and fleet health
            rows are keyed by it).
        max_batch: fingerprints per classifier-bank invocation.
        queue_capacity: bounded staging queue in front of the dispatcher.
        backpressure: ``"block"`` or ``"drop"`` (or a
            :class:`~repro.streaming.backpressure.BackpressurePolicy`).
        cache_capacity: LRU verdict-cache entries (positive).
        store_path: model snapshots land here after every learn (and
            ``resume`` reads from here).
        quarantine_path: write-through quarantine persistence.
        autopilot: build a :class:`LifecycleAutopilot` over the
            coordinator.
        trigger_policy: autopilot trigger knobs (defaults to
            :class:`TriggerPolicy`'s defaults).
        ledger_path: when set, evidence records are written to this
            NDJSON ledger.
        ledger_max_bytes: ledger rotation threshold.
        ledger_max_files: rotated ledger files kept beside the live one.
        clock: shared stream clock for the pipeline *and* the gateway
            (one clock means verdict and enforcement ledger stamps
            agree); a fresh one is created when omitted.
    """

    identifier: Optional[DeviceTypeIdentifier] = None
    bundle_path: Optional[Union[str, Path]] = None
    resume: bool = False
    name: str = "gateway"
    # Dispatch stage.
    max_batch: int = 16
    queue_capacity: int = 64
    backpressure: Union[str, BackpressurePolicy] = BackpressurePolicy.BLOCK
    cache_capacity: int = 512
    # Lifecycle.
    store_path: Optional[Union[str, Path]] = None
    quarantine_path: Optional[Union[str, Path]] = None
    # Autopilot.
    autopilot: bool = False
    trigger_policy: Optional[TriggerPolicy] = None
    # Observability.
    ledger_path: Optional[Union[str, Path]] = None
    ledger_max_bytes: int = 4 * 1024 * 1024
    ledger_max_files: int = 4
    clock: Optional[SimulatedClock] = None

    def resolved_policy(self) -> BackpressurePolicy:
        if isinstance(self.backpressure, BackpressurePolicy):
            return self.backpressure
        try:
            return BackpressurePolicy[str(self.backpressure).upper()]
        except KeyError:
            raise ConfigError(
                f"backpressure: unknown policy {self.backpressure!r} "
                f"(expected one of {[p.name.lower() for p in BackpressurePolicy]})"
            ) from None

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming every offending field."""
        problems: list[str] = []
        model_sources = [
            self.identifier is not None,
            self.bundle_path is not None,
            self.resume,
        ]
        if sum(model_sources) == 0:
            problems.append(
                "identifier/bundle_path/resume: set exactly one model source "
                "(an identifier, a bundle to load, or resume=True)"
            )
        elif sum(model_sources) > 1:
            problems.append(
                "identifier/bundle_path/resume: these are mutually exclusive; "
                "set exactly one model source"
            )
        if self.resume and self.store_path is None:
            problems.append("store_path: resume=True reads the bundle from store_path")
        if not self.name:
            problems.append("name: must be non-empty")
        if self.max_batch <= 0:
            problems.append(f"max_batch: must be positive, got {self.max_batch}")
        if self.queue_capacity <= 0:
            problems.append(f"queue_capacity: must be positive, got {self.queue_capacity}")
        if self.cache_capacity <= 0:
            problems.append(f"cache_capacity: must be positive, got {self.cache_capacity}")
        if self.trigger_policy is not None and not self.autopilot:
            problems.append("trigger_policy: set autopilot=True to use it")
        if self.ledger_max_bytes <= 0:
            problems.append(f"ledger_max_bytes: must be positive, got {self.ledger_max_bytes}")
        if self.ledger_max_files <= 0:
            problems.append(f"ledger_max_files: must be positive, got {self.ledger_max_files}")
        if not isinstance(self.backpressure, BackpressurePolicy):
            try:
                self.resolved_policy()
            except ConfigError as error:
                problems.append(str(error))
        if problems:
            raise ConfigError("invalid GatewayConfig: " + "; ".join(problems))


@dataclass(frozen=True)
class SwapReport:
    """What one :meth:`GatewayHandle.swap_bundle` call did."""

    applied: bool
    epoch: int
    revision: int
    previous_epoch: int
    previous_revision: int
    reason: str = ""


@dataclass
class GatewayHandle:
    """One assembled gateway: every component, plus the operating surface.

    Built only by :func:`build_gateway`.  The operating surface is four
    calls -- :meth:`run_until_idle`, :meth:`swap_bundle`,
    :meth:`snapshot`, :meth:`close` -- with :meth:`stream` and
    :meth:`identify` as finer-grained variants; the assembled components
    stay reachable as attributes for tests and advanced tooling.
    """

    config: GatewayConfig
    identifier: DeviceTypeIdentifier
    gateway: SecurityGateway
    security_service: IoTSecurityService
    sink: GatewayEnforcementSink
    dispatcher: BatchDispatcher
    assembler: FingerprintAssembler
    clock: SimulatedClock
    cache: IdentificationCache
    lifecycle: LifecycleCoordinator
    observability: Observability
    autopilot: Optional[LifecycleAutopilot] = None
    pipeline: StreamingPipeline = field(init=False, repr=False)
    applied_swaps: int = 0
    duplicate_swaps: int = 0
    _closed: bool = field(default=False, repr=False)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def epoch(self) -> int:
        """The cache generation this gateway is serving at."""
        return self.lifecycle.epoch.generation

    @property
    def revision(self) -> int:
        """The identifier revision this gateway is serving (the draw salt)."""
        return self.dispatcher.identifier.revision

    # ------------------------------------------------------------------ #
    # Running.
    # ------------------------------------------------------------------ #
    def _build_pipeline(self, source: PacketSource) -> StreamingPipeline:
        self.pipeline = StreamingPipeline(
            source=source,
            dispatcher=self.dispatcher,
            assembler=self.assembler,
            on_identified=self.sink,
            clock=self.clock,
        )
        return self.pipeline

    def run_until_idle(self, source: PacketSource) -> PipelineStats:
        """Consume a packet source to exhaustion and drain every verdict.

        Each call runs a fresh :class:`StreamingPipeline` over the shared
        warm components (assembler, dispatcher + cache, sink, clock, hub),
        so per-run stats start clean while caches stay hot -- the
        multi-run warm start the pipeline layer already supports, without
        the caller re-wiring anything.
        """
        return self._build_pipeline(source).run()

    def stream(self, source: PacketSource) -> Iterator[IdentifiedDevice]:
        """Like :meth:`run_until_idle` but yielding verdicts as they happen."""
        return self._build_pipeline(source).results()

    def identify(
        self,
        mac: MACAddress,
        fingerprint: Fingerprint,
        reason: str = "budget",
        flush: bool = True,
    ) -> list[IdentifiedDevice]:
        """Identify one pre-assembled fingerprint through the full path.

        The operator-tool entry point: the fingerprint skips assembly but
        flows through dispatch, caching, the ledger and enforcement
        exactly like a streamed one.  With ``flush`` (default) the
        dispatcher is drained so the verdict is returned immediately
        instead of waiting for a full batch; captures still being
        assembled are left alone, so this is safe during :meth:`stream`.
        """
        ready = ReadyFingerprint(
            mac=mac, fingerprint=fingerprint, reason=reason, completed_at=self.clock.now()
        )
        identified = self.pipeline.inject(ready)
        if flush:
            identified = identified + self.pipeline.drain()
        return identified

    # ------------------------------------------------------------------ #
    # Hot model swap (the fleet push lands here).
    # ------------------------------------------------------------------ #
    def swap_bundle(
        self,
        bundle_path: Union[str, Path],
        epoch: Optional[int] = None,
        push_id: Optional[int] = None,
    ) -> SwapReport:
        """Install a pushed model bundle between batches (hot swap).

        Loads the bundle, then -- in one step from the serving path's
        point of view -- swaps the identifier into the dispatcher
        (in-flight fingerprints stay queued and are identified by the
        *new* model), adopts the epoch watermark into the lifecycle
        coordinator (every registered cache cleared, stale entries
        unreachable via the generation stamp) and repoints the security
        service, and records an epoch-stamped ``apply`` event in the
        evidence ledger.

        Idempotent: re-applying the bundle the gateway already serves
        (same epoch *and* same identifier revision) is a counted no-op
        (:attr:`duplicate_swaps`) -- a replayed push changes nothing.
        ``epoch`` overrides the bundle's own stamp (the rollback path
        re-publishes an old bundle under a fresh higher watermark).
        """
        identifier, stamped = load_identifier_with_epoch(bundle_path)
        target = epoch if epoch is not None else (stamped if stamped is not None else 0)
        previous_epoch = self.epoch
        previous_revision = self.revision

        if target == previous_epoch and identifier.revision == previous_revision:
            self.duplicate_swaps += 1
            self._record_apply(target, identifier.revision, applied=False,
                               push_id=push_id, reason="duplicate")
            return SwapReport(
                applied=False,
                epoch=previous_epoch,
                revision=previous_revision,
                previous_epoch=previous_epoch,
                previous_revision=previous_revision,
                reason="duplicate",
            )
        if target < previous_epoch:
            raise FleetError(
                f"gateway {self.name!r} serves epoch {previous_epoch}; bundle "
                f"{bundle_path} carries older epoch {target} -- roll back by "
                "re-publishing it under a fresh higher watermark "
                "(FleetCoordinator.rollback)"
            )
        if target == previous_epoch:
            raise FleetError(
                f"bundle {bundle_path} carries epoch {target}, which gateway "
                f"{self.name!r} already serves, but a different identifier "
                f"revision ({identifier.revision} vs {previous_revision}); "
                "re-stamp the bundle with a fresh epoch before pushing"
            )

        self.dispatcher.swap_identifier(identifier)
        self.lifecycle.adopt_identifier(identifier, target)
        self.security_service.identifier = identifier
        self.identifier = identifier
        self.applied_swaps += 1
        self._record_apply(target, identifier.revision, applied=True, push_id=push_id)
        return SwapReport(
            applied=True,
            epoch=target,
            revision=identifier.revision,
            previous_epoch=previous_epoch,
            previous_revision=previous_revision,
        )

    def adopt_epoch(self, generation: int) -> int:
        """Advance this gateway's cache generation to a fleet watermark.

        Routed through the lifecycle coordinator, which owns the epoch;
        refuses to move backwards.
        """
        return self.lifecycle.adopt_epoch(generation)

    def _record_apply(
        self,
        epoch: int,
        revision: int,
        applied: bool,
        push_id: Optional[int],
        reason: str = "",
    ) -> None:
        self.observability.record_apply(
            gateway=self.name,
            epoch=epoch,
            revision=revision,
            applied=applied,
            push_id=push_id,
            reason=reason,
            stream_time=self.clock.now(),
        )

    # ------------------------------------------------------------------ #
    # Reading and shutdown.
    # ------------------------------------------------------------------ #
    def snapshot(self, include_timings: bool = True) -> dict:
        """The gateway's unified metrics snapshot."""
        return self.observability.snapshot(include_timings=include_timings)

    def close(self) -> None:
        """Flush and release durable resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.observability.ledger is not None:
            self.observability.ledger.close()


def build_gateway(config: GatewayConfig) -> GatewayHandle:
    """Assemble the seven-object gateway stack from one declarative config.

    Validates the config (:class:`ConfigError` names every bad field),
    then wires assembler -> dispatcher -> pipeline -> sink -> lifecycle
    -> autopilot with the observability hub single-sourced through every
    constructor -- the cross-references the hand-wired path was prone to
    missing (sink <-> coordinator, gateway lifecycle attachment, cache
    <-> epoch) are always made.  Every gateway has the same shape: a hub,
    a lifecycle coordinator and a verdict cache.  The underlying
    constructors are unchanged; the facade only removes the wiring
    burden.
    """
    config.validate()
    policy = config.resolved_policy()

    ledger = None
    if config.ledger_path is not None:
        ledger = VerdictLedger(
            config.ledger_path,
            max_bytes=config.ledger_max_bytes,
            max_files=config.ledger_max_files,
        )
    hub = Observability(ledger=ledger)

    clock = config.clock if config.clock is not None else SimulatedClock()

    if config.resume:
        coordinator = LifecycleCoordinator.resume(
            config.store_path, quarantine_path=config.quarantine_path
        )
        coordinator.observability = hub
        hub.register_lifecycle(coordinator)
    else:
        if config.bundle_path is not None:
            identifier, stamped = load_identifier_with_epoch(config.bundle_path)
            epoch = CacheEpoch(stamped if stamped is not None else 0)
        else:
            identifier = config.identifier
            epoch = CacheEpoch()
        coordinator = LifecycleCoordinator(
            identifier=identifier,
            epoch=epoch,
            store_path=config.store_path,
            quarantine_path=config.quarantine_path,
            observability=hub,
        )
    identifier = coordinator.identifier

    security_service = IoTSecurityService(identifier=identifier)
    gateway = SecurityGateway(clock=clock)
    sink = GatewayEnforcementSink(
        gateway=gateway,
        security_service=security_service,
        lifecycle=coordinator,
        observability=hub,
    )
    coordinator.sink = sink
    gateway.attach_lifecycle(coordinator)

    cache = coordinator.make_cache(capacity=config.cache_capacity)
    dispatcher = BatchDispatcher(
        identifier,
        max_batch=config.max_batch,
        queue_capacity=config.queue_capacity,
        policy=policy,
        cache=cache,
        observability=hub,
    )
    assembler = FingerprintAssembler()

    autopilot: Optional[LifecycleAutopilot] = None
    if config.autopilot:
        autopilot = LifecycleAutopilot(
            coordinator,
            policy=config.trigger_policy,
            security_service=security_service,
            observability=hub,
        )

    handle = GatewayHandle(
        config=config,
        identifier=identifier,
        gateway=gateway,
        security_service=security_service,
        sink=sink,
        dispatcher=dispatcher,
        assembler=assembler,
        clock=clock,
        cache=cache,
        lifecycle=coordinator,
        observability=hub,
        autopilot=autopilot,
    )
    # Built eagerly so the hub's pipeline/assembler sources are
    # registered from construction (snapshot key-set stability) and
    # identify() has a pipeline before the first run.
    handle._build_pipeline(IterableSource([]))
    return handle
