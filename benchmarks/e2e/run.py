"""One benchmark run: set up, measure for ``--seconds``, check, report.

A run is one process driving one workload through the operator facade
(:func:`repro.api.build_gateway`).  Every workload is a closed loop: one
caller replays the capture as fast as it can, and the next packet enters
only after the previous call returned.  The measured window is a series
of short *repetitions*, each replaying one input segment on a fresh
gateway built from the same bundle.  Every time metric but set-up is a
trimmed mean over the segments of the median over each segment's
repetitions.  The host is shared and its speed drifts,
so the whole run goes under the host-speed sampler of
:mod:`benchmarks.e2e.hostspeed`, and each reported time is corrected to
its reference speed by the slowness sampled while that time ran; the
uncorrected wall-clock metrics go to the ``--out`` details.

Untraced runs report the end-to-end metrics and carry only three latency
probes: the source proxy stamps each packet it hands over, a
``dispatcher.submit`` wrapper maps each fingerprint to the stamp of the
packet that completed it, and ``handle.sink`` is swapped for a wrapper
that records the verdict's latency before delegating.  Traced runs
measure the same window untraced first (the baseline of
``trace.overhead``), then repeat set-up and one repetition under the
span tracer of :mod:`benchmarks.e2e.trace` and report per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.api import GatewayConfig, GatewayHandle, build_gateway
from repro.datasets.storage import load_fingerprints
from repro.features.packet_features import PacketFeatureExtractor
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import save_identifier
from repro.net.pcap import PcapReader
from repro.obs.evidence import KIND_ENFORCEMENT, KIND_QUARANTINE, KIND_VERDICT
from repro.obs.ledger import ledger_files, replay_ledger
from repro.streaming import assembler as assembler_module
from repro.streaming import dispatcher as dispatcher_module
from repro.streaming.sources import PcapReplaySource

from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.inputs import Segment, WorkloadInput, training_registry_path
from benchmarks.e2e.trace import LAYERS, Tracer

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pps": "pkt/s",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("self_s", "s"), ("calls", "count"))
    },
    "streaming.cache.hit_rate": "fraction",
    "identification.mean_batch": "count",
    "identification.accuracy": "fraction",
    "distance.discriminate.frac": "fraction",
    "sdn.flow_rules": "count",
    "sdn.controller_frac": "fraction",
    "obs.ledger_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "fraction",
    "trace.overhead": "ratio",
}

#: The ledger check counts every record, so the ledger must never rotate.
LEDGER_MAX_BYTES = 1 << 30
#: Devices whose enforcement is checked on the datapath after onboarding.
ENFORCEMENT_PROBES = 64
#: Below this identification accuracy the model or the verdict path is
#: broken, not merely imperfect: seeded runs score 0.6-0.85 (the paper's
#: Table III reports ~0.8).
ACCURACY_FLOOR = 0.5

clock = time.perf_counter


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# --------------------------------------------------------------------- #
# Latency probes.
# --------------------------------------------------------------------- #
@dataclass
class Probes:
    """What one onboarding recorded at its three probes."""

    items: int = 0
    handover: float = 0.0
    pending: dict[int, float] = field(default_factory=dict)
    verdict_latency: list[float] = field(default_factory=list)
    verdicts: list[tuple[str, str]] = field(default_factory=list)

    def install(self, handle: GatewayHandle) -> None:
        submit, sink = handle.dispatcher.submit, handle.sink
        pending, latency, verdicts = self.pending, self.verdict_latency, self.verdicts

        def probed_submit(ready):
            pending[id(ready.fingerprint)] = self.handover
            return submit(ready)

        def probed_sink(identified):
            received = clock()
            latency.append(received - pending.pop(id(identified.fingerprint)))
            verdicts.append((str(identified.mac), identified.result.device_type))
            return sink(identified)

        handle.dispatcher.submit = probed_submit
        handle.sink = probed_sink


class ProbedSource:
    """A packet-source proxy stamping every handover (the parse boundary).

    Both the per-packet and the batched entry points are proxied, so the
    stamps (and, traced, the ``net.parse`` spans) stay attributed
    whichever drive the facade uses.
    """

    def __init__(self, inner: PcapReplaySource, probes: Probes, tracer: Optional[Tracer]):
        self.inner = inner
        self.probes = probes
        self.tracer = tracer

    def _replay(self, iterator):
        step = iterator.__next__
        if self.tracer is not None:
            step = self.tracer.wrap("net.parse", step)
        probes = self.probes
        while True:
            requested = clock()
            try:
                item = step()
            except StopIteration:
                # The end of the stream is what triggers the final flush.
                probes.handover = requested
                return
            probes.handover = clock()
            probes.items += 1
            yield item

    def packets(self):
        return self._replay(self.inner.packets())

    def packet_batches(self, batch_size: int = 256):
        return self._replay(self.inner.packet_batches(batch_size))


# --------------------------------------------------------------------- #
# Tracing: which public call belongs to which layer.
# --------------------------------------------------------------------- #
def instrument(tracer: Tracer, handle: GatewayHandle) -> None:
    """Wrap every layer's public calls on one assembled gateway."""
    tracer.patch(PacketFeatureExtractor, "extract", "features.extract")
    tracer.patch(assembler_module, "batch_feature_matrix", "features.extract")
    tracer.patch(dispatcher_module, "fingerprint_cache_key", "streaming.cache")
    for name in ("observe", "prepare_batch", "observe_prepared", "evict_idle", "flush"):
        tracer.patch(handle.assembler, name, "streaming.assemble")
    for name in ("submit", "poll", "drain"):
        tracer.patch(handle.dispatcher, name, "streaming.dispatch")
    for name in ("get", "peek", "put"):
        tracer.patch(handle.cache, name, "streaming.cache")
    tracer.patch(handle.identifier.bank, "score_fingerprints", "identification.classify")
    for name in ("discriminate", "score_type"):
        tracer.patch(handle.identifier.discriminator, name, "distance.discriminate")
    tracer.patch(handle, "sink", "gateway.sink")
    tracer.patch(handle.security_service, "assess_device_type", "security_service.assess")
    tracer.patch(handle.gateway, "apply_assessment", "gateway.enforce")
    tracer.patch(handle.gateway.rule_cache, "store", "gateway.rule_cache")
    tracer.patch(handle.lifecycle, "note_identified", "identification.lifecycle")
    for name in ("install_rule", "remove_rules"):
        tracer.patch(handle.gateway.switch, name, "sdn.flow_table")
    tracer.patch(handle.gateway.switch, "lookup", "sdn.lookup")
    tracer.patch(handle.gateway, "authorize", "gateway.authorize")
    tracer.patch(handle.gateway.rule_cache, "lookup", "gateway.rule_cache_lookup")
    for name in ("record_verdict", "record_enforcement", "record_quarantine"):
        tracer.patch(handle.observability, name, "obs.record")
    tracer.patch(handle.observability.ledger, "append", "obs.ledger_append")


# --------------------------------------------------------------------- #
# Repetitions.
# --------------------------------------------------------------------- #
@dataclass
class Repetition:
    """One pass over one segment's timed loop, summarised and checked.

    ``wall``/``packets`` describe the timed loop: the facade replay, or
    for ``forward`` the ``handle_packet`` loop that follows its (untimed)
    onboarding.  Verdict fields describe the onboarding.  Times are
    wall-clock; ``slowness`` is the host's during the timed loop and
    ``verdict_slowness`` during the onboarding
    (:mod:`benchmarks.e2e.hostspeed`).
    """

    segment: int
    wall: float
    packets: int
    slowness: float
    verdict_latency: list[float]
    verdict_slowness: float
    digest: str
    checks: dict[str, bool]
    first_verdicts: dict[str, str]


class Replay:
    """One segment, with the packets its checks and forwarding loop use."""

    def __init__(self, segment: Segment, forward_packets: int):
        self.capture = segment.capture
        self.truth = segment.truth
        self.probe_packets = self._probe_packets()
        self.forwarding = self._forwarding_packets(forward_packets) if forward_packets else []

    def _probe_packets(self) -> dict[str, Any]:
        """The first captured packet of each enforcement-probed device."""
        macs = sorted(self.truth)
        wanted = {
            bytes.fromhex(mac.replace(":", "")): mac
            for mac in macs[:: max(1, len(macs) // ENFORCEMENT_PROBES)][:ENFORCEMENT_PROBES]
        }
        found: dict[str, Any] = {}
        for captured in PcapReader(self.capture):
            mac = wanted.pop(captured.data[6:12], None)
            if mac is not None:
                found[mac] = captured.dissect()
            if not wanted:
                break
        return found

    def _forwarding_packets(self, count: int) -> list:
        """``count`` pre-dissected packets spread evenly over the capture."""
        frames = list(PcapReader(self.capture))
        stride = max(1, len(frames) // count)
        return [frame.dissect() for frame in frames[::stride][:count]]


class Run:
    """The segments, model bundle and scratch ledgers of one workload run."""

    def __init__(self, workload: WorkloadInput, workdir: Path, forward_packets: int):
        self.input = workload
        self.workdir = workdir
        (workdir / "runs").mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=workdir / "runs"))
        self.bundle = self.scratch / "model.npz"
        self.dataset = load_fingerprints(training_registry_path(workdir))
        forwarding = forward_packets if workload.workload == "forward" else 0
        self.replays = [Replay(segment, forwarding) for segment in workload.segments]
        self._ledgers = 0

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- set-up -------------------------------------------------------- #
    def _config(self) -> GatewayConfig:
        # A fresh ledger per gateway: the ledger reads an existing file on
        # open to recover its sequence, which would charge a previous
        # gateway's ledger to set-up time.
        self._ledgers += 1
        return GatewayConfig(
            bundle_path=self.bundle,
            ledger_path=self.scratch / f"ledger-{self._ledgers}" / "ledger.ndjson",
            ledger_max_bytes=LEDGER_MAX_BYTES,
        )

    def setup(self, wrap: Callable[[str, Callable], Callable]) -> GatewayHandle:
        """Train, save the bundle, build a gateway from it."""
        registry = self.dataset.to_registry()
        identifier = wrap("ml.train", DeviceTypeIdentifier.train)(registry, random_state=0)
        wrap("model_store.save", save_identifier)(self.bundle, identifier)
        return wrap("api.build_gateway", build_gateway)(self._config())

    def timed_setups(self, repeats: int, host: HostSpeed) -> list[tuple[float, float]]:
        """``(wall seconds, host slowness)`` of each set-up."""
        times = []
        for _ in range(repeats):
            gc.collect()
            mark = host.mark()
            started = clock()
            handle = self.setup(lambda _layer, function: function)
            times.append((clock() - started, host.slowness(mark)))
            handle.close()
        return times

    def gateway(self) -> GatewayHandle:
        """A fresh gateway from the saved bundle (not timed)."""
        return build_gateway(self._config())

    # -- one repetition ------------------------------------------------ #
    def repetition(
        self,
        handle: GatewayHandle,
        segment: int,
        host: HostSpeed,
        tracer: Optional[Tracer] = None,
    ) -> Repetition:
        """Onboard one segment through ``handle.run_until_idle``, then (for
        ``forward``) run the forwarding loop on the onboarded gateway."""
        replay = self.replays[segment]
        probes = Probes()
        probes.install(handle)
        if tracer is not None:
            instrument(tracer, handle)
        source = ProbedSource(PcapReplaySource(replay.capture), probes, tracer)
        mark = host.mark()
        started = clock()
        stats = handle.run_until_idle(source)
        wall = clock() - started
        slowness = verdict_slowness = host.slowness(mark)
        checks = {
            "every_packet_consumed": stats.packets == probes.items,
            "enforcement_rules": _enforcement_holds(handle, replay.probe_packets),
        }
        by_mac: dict[str, list[str]] = {}
        for mac, verdict in probes.verdicts:
            by_mac.setdefault(mac, []).append(verdict)
        outcome: Any = sorted(by_mac.items())
        packets = stats.packets
        if replay.forwarding:
            if tracer is None:
                gc.collect()
            mark = host.mark()
            wall, counts = _forward(handle, replay.forwarding)
            slowness = host.slowness(mark)
            packets = len(replay.forwarding)
            outcome = [outcome, counts]
        return Repetition(
            segment=segment,
            wall=wall,
            packets=packets,
            slowness=slowness,
            verdict_latency=probes.verdict_latency,
            verdict_slowness=verdict_slowness,
            digest=_digest(outcome),
            checks=checks,
            first_verdicts={mac: verdicts[0] for mac, verdicts in by_mac.items()},
        )

    def verify(self, rep: Repetition, handle: GatewayHandle) -> None:
        """Close the gateway and check its ledger against what was emitted."""
        handle.close()
        replay = replay_ledger(handle.config.ledger_path)
        kinds: dict[str, int] = {}
        for record in replay.records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        snapshot = handle.snapshot(include_timings=False)
        enforced = snapshot["enforcement_sink.enforced"]
        quarantine = snapshot[f"ledger.{KIND_QUARANTINE}_records"]
        rep.checks["ledger_reconciles"] = (
            kinds.get(KIND_VERDICT, 0) == len(rep.verdict_latency)
            and kinds.get(KIND_ENFORCEMENT, 0) == enforced
            and len(replay.records) == len(rep.verdict_latency) + enforced + quarantine
        )

    def missing(self, rep: Repetition) -> int:
        """Devices on the wire whose verdict never reached the sink."""
        return sum(mac not in rep.first_verdicts for mac in self.replays[rep.segment].truth)

    def identified(self, rep: Repetition) -> int:
        """Devices whose first verdict is their simulated type."""
        truth = self.replays[rep.segment].truth
        return sum(rep.first_verdicts.get(mac) == kind for mac, kind in truth.items())


def _forward(handle: GatewayHandle, packets: list) -> tuple[float, dict[str, int]]:
    """Push pre-dissected packets through ``gateway.handle_packet``."""
    handle_packet = handle.gateway.handle_packet
    forwarded = to_controller = 0
    started = clock()
    for packet in packets:
        decision = handle_packet(packet)
        forwarded += decision.forwarded
        to_controller += decision.sent_to_controller
    wall = clock() - started
    counts = {
        "forwarded": forwarded,
        "blocked": len(packets) - forwarded,
        "to_controller": to_controller,
    }
    return wall, counts


def _enforcement_holds(handle: GatewayHandle, probe_packets: dict[str, Any]) -> bool:
    """Each probed device's traffic hits its own installed rule."""
    for mac, packet in sorted(probe_packets.items()):
        decision = handle.gateway.handle_packet(packet)
        if decision.rule is None or decision.rule.cookie != f"enforce-{mac}":
            return False
    return True


# --------------------------------------------------------------------- #
# The run.
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """Everything one run reports: the result line plus its details."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    checks: dict[str, bool]
    verdict_digest: str
    repetitions: list[dict[str, float]]
    #: The end-to-end metrics without the host-speed correction.
    wall_clock: dict[str, dict[str, Any]]
    trace_dir: Optional[str] = None

    def result(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def execute(
    workload: WorkloadInput,
    workdir: Path,
    seconds: float,
    trace: bool,
    setup_repeats: int,
    forward_packets: int,
) -> Outcome:
    """Run one workload for ``seconds`` and return what it measured."""
    run = Run(workload, workdir, forward_packets)
    try:
        return _execute(run, seconds, trace, setup_repeats)
    finally:
        run.close()


def _execute(run: Run, seconds: float, trace: bool, setup_repeats: int) -> Outcome:
    segments = len(run.replays)
    with HostSpeed() as host:
        setups = run.timed_setups(1 if trace else setup_repeats, host)

        def repetition(segment: int) -> Repetition:
            handle = run.gateway()
            gc.collect()
            rep = run.repetition(handle, segment, host)
            run.verify(rep, handle)
            return rep

        # One repetition before the window, checked but not measured: the
        # first pass over a capture pays allocator growth the rest reuse.
        warmup = repetition(0)
        # The window replays the segments in turn and covers each at least once.
        reps: list[Repetition] = []
        window = clock()
        while True:
            reps.append(repetition(len(reps) % segments))
            elapsed = clock() - window
            if len(reps) >= segments and elapsed + elapsed / len(reps) > seconds:
                break

        first = reps[:segments]
        accuracy = sum(run.identified(rep) for rep in first) / sum(
            len(replay.truth) for replay in run.replays
        )
        traced: list[Repetition] = []
        wall_clock: dict[str, dict[str, Any]] = {}
        if trace:
            rep, metrics, trace_dir = _traced(run, reps, accuracy, host)
            traced.append(rep)
        else:
            metrics, trace_dir = _end_to_end(reps, setups, corrected=True), None
            wall_clock = _end_to_end(reps, setups, corrected=False)

    checked = [warmup, *reps, *traced]
    checks: dict[str, bool] = {}
    for rep in checked:
        for name, passed in rep.checks.items():
            checks[name] = checks.get(name, True) and passed
    # Same inputs, same model: every replay of a segment reaches the same verdicts.
    checks["digest_stable"] = all(
        len({rep.digest for rep in checked if rep.segment == segment}) == 1
        for segment in range(segments)
    )
    checks["accuracy_floor"] = accuracy >= ACCURACY_FLOOR
    failed = sum(run.missing(rep) for rep in reps)
    attempted = sum(len(run.replays[rep.segment].truth) for rep in reps)
    attempted += sum(len(run.replays[rep.segment].forwarding) for rep in reps)
    return Outcome(
        correct=all(checks.values()) and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        checks=checks,
        verdict_digest=_digest([rep.digest for rep in first]),
        repetitions=[
            {"segment": rep.segment, "wall_s": rep.wall, "packets": rep.packets,
             "slowness": rep.slowness, "verdicts": len(rep.verdict_latency),
             "verdict_p90_ms": _p90_ms(rep), "verdict_slowness": rep.verdict_slowness}
            for rep in reps
        ],
        wall_clock=wall_clock,
        trace_dir=trace_dir,
    )


def _p90_ms(rep: Repetition) -> float:
    return float(np.percentile(rep.verdict_latency, 90)) * 1e3


def _per_segment(reps: list[Repetition], value: Callable[[Repetition], float]) -> float:
    """Trimmed mean over segments of the median over each segment's repetitions.

    Every segment weighs the same however often the window replayed it:
    segments differ in content far more than replays of one segment
    differ in time, so an unbalanced mix would move the metric.  The
    highest and lowest sixth of the segment values are left out: a slow
    phase of the host that the sampler does not see (memory contention
    leaves the cache-warm calibration unit untouched) lasts a few
    seconds and so spoils a few segments, not all of them.
    """
    by_segment: dict[int, list[float]] = {}
    for rep in reps:
        by_segment.setdefault(rep.segment, []).append(value(rep))
    values = sorted(statistics.median(values) for values in by_segment.values())
    trim = len(values) // 6
    return statistics.fmean(values[trim:len(values) - trim])


def _end_to_end(
    reps: list[Repetition], setups: list[tuple[float, float]], corrected: bool
) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics: times at the reference host speed when
    ``corrected``, else as the wall clock read them."""

    def speed(slowness: float) -> float:
        return slowness if corrected else 1.0

    values = {
        "setup_s": statistics.median(wall / speed(slowness) for wall, slowness in setups),
        "pps": _per_segment(reps, lambda rep: rep.packets / rep.wall * speed(rep.slowness)),
        "verdict_p90_ms": _per_segment(
            reps, lambda rep: _p90_ms(rep) / speed(rep.verdict_slowness)
        ),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _traced(
    run: Run, untraced: list[Repetition], accuracy: float, host: HostSpeed
) -> tuple[Repetition, dict[str, dict[str, Any]], str]:
    """Set-up plus one repetition of segment 0 under the tracer; per-layer metrics."""
    tracer = Tracer()
    gc.collect()
    started = clock()
    handle = run.setup(tracer.wrap)
    traced = run.repetition(handle, 0, host, tracer)
    tracer.wall = clock() - started
    tracer.restore()

    table = tracer.layer_table()
    unattributed = tracer.unattributed()
    snapshot = handle.snapshot()
    switch = handle.gateway.switch
    batched, batches = snapshot["dispatcher.batched"], snapshot["dispatcher.batches"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = table[layer]["self_s"]
        values[f"{layer}.calls"] = table[layer]["calls"]
    values.update({
        "streaming.cache.hit_rate": snapshot["identification_cache.hit_rate"],
        "identification.mean_batch": batched / batches if batches else 0.0,
        "identification.accuracy": accuracy,
        "distance.discriminate.frac": (
            table["distance.discriminate"]["calls"] / batched if batched else 0.0
        ),
        "sdn.flow_rules": switch.rule_count,
        "sdn.controller_frac": (
            switch.packets_to_controller / switch.packets_processed
            if switch.packets_processed else 0.0
        ),
        "obs.ledger_bytes": sum(
            path.stat().st_size for path in ledger_files(handle.config.ledger_path)
        ),
        "trace.wall_s": tracer.wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_frac": unattributed / tracer.wall,
        "trace.overhead": traced.wall / statistics.median(
            rep.wall for rep in untraced if rep.segment == traced.segment
        ),
    })
    run.verify(traced, handle)
    directory = run.workdir / "traces" / f"{run.input.workload}__seed-{run.input.seed}"
    tracer.write(directory)
    self_total = sum(table[layer]["self_s"] for layer in LAYERS)
    traced.checks["trace_reconciles"] = (
        abs(self_total + unattributed - tracer.wall) <= 1e-6 * tracer.wall
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return traced, metrics, str(directory)
