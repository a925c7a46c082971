"""Streaming pipeline throughput: online identification of a device fleet.

A fleet of devices joins the network at staggered times; a third of them
are duplicate models (identical setup behaviour, different MACs), the
workload the dispatcher's LRU result cache targets.  The whole stream is
pushed through source -> assembler -> batch dispatcher and three
properties are checked:

* the stream is identified end to end (every device gets a verdict and the
  verdicts match the ground-truth profiles almost everywhere);
* the result cache hits on the duplicate models (>0% hit rate);
* cached batch dispatch spends less time in identification than
  identifying the same fingerprints one call at a time with no cache.
  (The saving comes from the cache hits skipping the classifier bank;
  batching itself shapes latency and overload behaviour, not CPU.)
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.devices.catalog import profile_of
from repro.devices.simulator import SetupTrafficSimulator
from repro.distance.discrimination import (
    DETERMINISTIC_SELECTION,
    RANDOM_SELECTION,
    EditDistanceDiscriminator,
)
from repro.net.addresses import MACAddress
from repro.obs import Observability, VerdictLedger, replay_ledger
from repro.streaming import (
    BatchDispatcher,
    IdentificationCache,
    IterableSource,
    FingerprintAssembler,
    SimulatedSource,
    StreamingPipeline,
    replay_trace,
)

from benchmarks.conftest import BENCH_QUICK, make_section_reporter
from tests.conftest import PerPacketAssembler, per_packet_run

STREAM_TYPES = ("Aria", "HueBridge", "EdnetCam", "WeMoSwitch", "TP-LinkPlugHS110", "D-LinkCam")
FRESH_DEVICES = 18
REPLAYS_PER_DUPLICATED_DEVICE = 2
DUPLICATED_DEVICES = 6

#: The sustained stream for the datapath comparison: every fresh device
#: gets replayed many times, so the drive sees long stretches of
#: steady-state traffic instead of the short mostly-cold stream above.
#: Quick mode keeps enough replays that the drive-vs-scalar speedup is
#: near its sustained-stream asymptote -- the CI regression guard compares
#: the quick-mode ratio against the committed full-mode one.
SUSTAINED_REPLAYS = 12 if BENCH_QUICK else 60

#: The benchmarks in this file merge their sections into
#: BENCH_streaming_throughput.json.
_report = make_section_reporter("streaming_throughput")


def build_stream(
    seed: int = 7,
    duplicated: int = DUPLICATED_DEVICES,
    replays: int = REPLAYS_PER_DUPLICATED_DEVICE,
) -> SimulatedSource:
    """A fleet: fresh devices first, duplicate models joining later."""
    simulator = SetupTrafficSimulator(seed=seed)
    traces = []
    for index in range(FRESH_DEVICES):
        profile = profile_of(STREAM_TYPES[index % len(STREAM_TYPES)])
        traces.append(simulator.simulate(profile, start_time=index * 2.0))
    fleet_end = max(packet.timestamp for trace in traces for packet in trace.packets)
    clone = 0
    for trace in traces[:duplicated]:
        for _ in range(replays):
            mac = MACAddress.from_string(f"02:00:5e:00:{clone >> 8:02x}:{clone & 0xFF:02x}")
            # Clones join one idle-timeout after the fleet has gone quiet, so
            # the original fingerprints are already assembled and cached.
            traces.append(replay_trace(trace, mac, fleet_end + 30.0 + clone * 2.0))
            clone += 1
    return SimulatedSource(traces=traces)


def run_stream(identifier, source: SimulatedSource, observability=None):
    dispatcher = BatchDispatcher(
        identifier,
        max_batch=8,
        queue_capacity=64,
        cache=IdentificationCache(capacity=256),
        observability=observability,
    )
    pipeline = StreamingPipeline(
        source=source,
        dispatcher=dispatcher,
        assembler=FingerprintAssembler(),
    )
    identified = []
    pipeline.on_identified = identified.append
    stats = pipeline.run()
    return stats, identified


def test_streaming_throughput(benchmark, bench_identifier, bench_report):
    source = build_stream()
    total_devices = len(source.traces)

    stats, identified = benchmark.pedantic(
        run_stream,
        kwargs={"identifier": bench_identifier, "source": source},
        rounds=1,
        iterations=1,
    )

    # Baseline: the same fingerprints identified one call at a time, no
    # batching, no cache -- the shape every consumer used before this
    # subsystem existed.
    start = time.perf_counter()
    baseline_results = [bench_identifier.identify(item.fingerprint) for item in identified]
    baseline_seconds = time.perf_counter() - start

    print()
    print("Streaming identification throughput")
    print(f"  devices on the wire            {total_devices}")
    print(f"  packets streamed               {stats.packets}")
    print(f"  fingerprints assembled         {stats.fingerprints}")
    print(f"  throughput                     {stats.packets_per_second:,.0f} packets/s")
    print(f"  assembly time                  {stats.assemble_seconds * 1000:.1f} ms")
    print(f"  identification time (batched)  {stats.identify_seconds * 1000:.1f} ms")
    print(f"  identification time (per-fp)   {baseline_seconds * 1000:.1f} ms")
    print(f"  batches                        {stats.dispatcher.batches} "
          f"(mean size {stats.dispatcher.mean_batch_size:.1f})")
    print(f"  cache hit rate                 {stats.cache_hit_rate:.0%}")

    # Every device on the wire got a verdict, and the stream's verdicts
    # agree with the one-at-a-time baseline on the same fingerprints.
    assert stats.identified >= total_devices
    agreements = sum(
        1
        for item, base in zip(identified, baseline_results)
        if item.result.device_type == base.device_type
    )
    assert agreements >= int(0.9 * len(identified))

    # The duplicate models hit the result cache.
    assert stats.cache_hits > 0
    assert stats.cache_hit_rate > 0.0

    # Batch dispatch + caching beats per-fingerprint identification on the
    # very same stream (cache hits skip the classifier bank entirely).
    assert stats.identify_seconds < baseline_seconds

    # Throughput is sane: the pipeline keeps up with thousands of packets
    # per second even with identification inline.
    assert stats.packets_per_second > 500

    _report(
        bench_report,
        "stream",
        {
            "devices": total_devices,
            "packets": stats.packets,
            "fingerprints": stats.fingerprints,
            "packets_per_second": stats.packets_per_second,
            "assemble_seconds": stats.assemble_seconds,
            "identify_seconds_batched": stats.identify_seconds,
            "identify_seconds_per_fingerprint_baseline": baseline_seconds,
            "batches": stats.dispatcher.batches,
            "mean_batch_size": stats.dispatcher.mean_batch_size,
            "cache_hit_rate": stats.cache_hit_rate,
        },
        identifier=bench_identifier,
    )


# --------------------------------------------------------------------- #
# Datapath: the pipeline's own drive vs the per-packet oracle walk.
# --------------------------------------------------------------------- #
def test_columnar_datapath_speedup(bench_identifier, bench_report):
    """``pipeline.run()`` vs the per-packet oracle walk on one sustained,
    pre-captured stream.

    The stream is materialised once and both drives replay the very same
    pre-dissected packet list, so the comparison isolates the datapath:
    the per-packet walk of ``tests.conftest.per_packet_run`` (object flow,
    one feature row and one stage pass per packet) against ``run()``
    (one packed Table-I key and fold per packet, windows only where one
    ends, batched discrimination).  Frame parsing from bytes is timed end
    to end by ``benchmarks.e2e``.  Verdict parity per device is asserted
    alongside the timing -- the speedup only counts if the drive says
    exactly what the per-packet walk says.  (The section keeps its
    ``columnar_datapath`` name: the CI regression guard keys on it.)

    ``packets_per_second`` of this section is the headline number for the
    >=10x throughput target; ``speedup_over_scalar`` is the
    machine-independent ratio the CI regression guard keys on.
    """
    source = build_stream(duplicated=FRESH_DEVICES, replays=SUSTAINED_REPLAYS)
    total_devices = len(source.traces)
    packets = list(source.packets())

    def run_once(driven: bool):
        dispatcher = BatchDispatcher(
            bench_identifier,
            max_batch=8,
            queue_capacity=64,
            cache=IdentificationCache(capacity=256),
        )
        pipeline = StreamingPipeline(
            source=IterableSource(list(packets)),
            dispatcher=dispatcher,
            assembler=(FingerprintAssembler if driven else PerPacketAssembler)(),
        )
        identified = []
        pipeline.on_identified = identified.append
        # Collect before timing: earlier benchmarks in this file leave
        # allocator/GC debt behind that would otherwise be charged to
        # whichever path runs first.
        gc.collect()
        start = time.perf_counter()
        if driven:
            stats = pipeline.run()
        else:
            stats = per_packet_run(pipeline)
        wall = time.perf_counter() - start
        return wall, stats, identified

    run_once(True)  # warmup: numpy/classifier code paths, allocator
    rounds = 2 if BENCH_QUICK else 3
    # Alternate the two drives round by round and keep each side's best:
    # host drift during the measurement then lands on both sides alike,
    # not on whichever block of rounds ran second.
    scalar_runs, driven_runs = [], []
    for _ in range(rounds):
        scalar_runs.append(run_once(False))
        driven_runs.append(run_once(True))
    scalar_wall, scalar_stats, scalar_identified = min(scalar_runs, key=lambda run: run[0])
    driven_wall, driven_stats, driven_identified = min(driven_runs, key=lambda run: run[0])

    scalar_pps = scalar_stats.packets / scalar_wall
    driven_pps = driven_stats.packets / driven_wall
    speedup = driven_pps / scalar_pps

    print()
    print("Datapath speedup over the per-packet walk")
    print(f"  devices on the wire            {total_devices}")
    print(f"  packets streamed               {driven_stats.packets}")
    print(f"  fingerprints assembled         {driven_stats.fingerprints}")
    print(f"  throughput (per-packet)        {scalar_pps:,.0f} packets/s")
    print(f"  throughput (drive)             {driven_pps:,.0f} packets/s")
    print(f"  speedup over scalar            {speedup:.2f}x")
    print(f"  assembly   scalar/drive        {scalar_stats.assemble_seconds * 1000:.1f}"
          f" / {driven_stats.assemble_seconds * 1000:.1f} ms")
    print(f"  identify   scalar/drive        {scalar_stats.identify_seconds * 1000:.1f}"
          f" / {driven_stats.identify_seconds * 1000:.1f} ms")

    # Both paths did identical work and reached identical verdicts.
    assert driven_stats.packets == scalar_stats.packets == len(packets)
    assert driven_stats.fingerprints == scalar_stats.fingerprints
    scalar_verdicts = {
        item.mac: (item.result.device_type, item.fingerprint.vectors.tobytes())
        for item in scalar_identified
    }
    driven_verdicts = {
        item.mac: (item.result.device_type, item.fingerprint.vectors.tobytes())
        for item in driven_identified
    }
    assert driven_verdicts == scalar_verdicts
    assert len(driven_verdicts) >= total_devices

    # The drive is strictly the faster one; the full 10x claim
    # lives in the committed BENCH json (this machine) and is guarded by
    # tools/check_bench_regression.py on the machine-independent ratio.
    assert speedup > 1.5
    assert driven_pps > 1000

    _report(
        bench_report,
        "columnar_datapath",
        {
            "devices": total_devices,
            "packets": driven_stats.packets,
            "fingerprints": driven_stats.fingerprints,
            "rounds": rounds,
            "scalar_packets_per_second": scalar_pps,
            "packets_per_second": driven_pps,
            "speedup_over_scalar": speedup,
            "scalar_assemble_seconds": scalar_stats.assemble_seconds,
            "assemble_seconds": driven_stats.assemble_seconds,
            "scalar_identify_seconds": scalar_stats.identify_seconds,
            "identify_seconds": driven_stats.identify_seconds,
            "cache_hit_rate": driven_stats.cache_hit_rate,
        },
        identifier=bench_identifier,
    )


# --------------------------------------------------------------------- #
# Deterministic discrimination: reproducibility + hot-path cost.
# --------------------------------------------------------------------- #
def test_deterministic_discrimination_hot_path(benchmark, bench_identifier, bench_report):
    """The seeded reference draw costs ~one SHA-256 per candidate type.

    Confirms (a) repeated identification of the same stream returns
    bit-identical verdicts under the deterministic draw and (b) the
    deterministic draw adds no material hot-path cost over the retired
    random draw (the timing ratio is trajectory data; only a very
    generous bound is asserted to stay robust on noisy CI runners).
    """
    source = build_stream()
    _, identified = run_stream(bench_identifier, source)
    fingerprints = [item.fingerprint for item in identified]
    references_per_type = bench_identifier.discriminator.references_per_type
    original_discriminator = bench_identifier.discriminator
    try:
        bench_identifier.discriminator = EditDistanceDiscriminator(
            references_per_type=references_per_type, selection=DETERMINISTIC_SELECTION
        )
        start = time.perf_counter()
        first = benchmark.pedantic(
            bench_identifier.identify_many, args=(fingerprints,), rounds=1, iterations=1
        )
        deterministic_seconds = time.perf_counter() - start
        second = bench_identifier.identify_many(fingerprints)

        bench_identifier.discriminator = EditDistanceDiscriminator(
            references_per_type=references_per_type,
            selection=RANDOM_SELECTION,
            rng=np.random.default_rng(0),
        )
        start = time.perf_counter()
        bench_identifier.identify_many(fingerprints)
        random_seconds = time.perf_counter() - start
    finally:
        bench_identifier.discriminator = original_discriminator

    # Bit-identical verdicts: type, scores and reference provenance.
    for one, two in zip(first, second):
        assert one.device_type == two.device_type
        assert one.matched_types == two.matched_types
        assert one.discrimination_scores == two.discrimination_scores

    ratio = deterministic_seconds / random_seconds if random_seconds else 1.0
    print()
    print("Deterministic discrimination hot path")
    print(f"  fingerprints                   {len(fingerprints)}")
    print(f"  identify (deterministic draw)  {deterministic_seconds * 1000:.1f} ms")
    print(f"  identify (random draw)         {random_seconds * 1000:.1f} ms")
    print(f"  deterministic / random         {ratio:.2f}x")

    # No hot-path regression: the seeding cost must stay within noise of
    # the random draw (generous bound -- shared CI runners are noisy).
    assert deterministic_seconds <= random_seconds * 2.5 + 0.05

    _report(
        bench_report,
        "deterministic_discrimination",
        {
            "fingerprints": len(fingerprints),
            "identify_seconds_deterministic": deterministic_seconds,
            "identify_seconds_random": random_seconds,
            "deterministic_over_random_ratio": ratio,
        },
        identifier=bench_identifier,
    )


# --------------------------------------------------------------------- #
# Observability overhead: the ledger + metrics must be near-free.
# --------------------------------------------------------------------- #
def test_observability_overhead(bench_identifier, bench_report, tmp_path):
    """A fully wired hub (ledger included) stays within 1.1x of disabled.

    The hot path pays one ``is None`` test per packet-stage call, one
    histogram observe per identify batch, and one ``os.write`` per
    *verdict* (tens per stream, not per packet) -- so wall-clock with
    observability enabled must track the disabled baseline.  The 1.1x
    bound carries a small absolute floor to stay robust on noisy CI
    runners where a sub-second run's jitter exceeds 10%.
    """
    run_stream(bench_identifier, build_stream())  # warmup: caches, JIT-ish paths

    def run_once(ledger_path):
        hub = Observability(ledger=VerdictLedger(ledger_path)) if ledger_path else None
        gc.collect()
        start = time.perf_counter()
        stats, identified = run_stream(bench_identifier, build_stream(), observability=hub)
        wall = time.perf_counter() - start
        if hub is not None:
            hub.ledger.close()
        return wall, stats, identified, hub, ledger_path

    rounds = 2 if BENCH_QUICK else 3
    # Alternate hub-off and hub-on rounds and keep each side's best, as
    # the columnar speedup bench does: one timing per side measures host
    # noise, not the hub.
    base_runs, obs_runs = [], []
    for index in range(rounds):
        base_runs.append(run_once(None))
        obs_runs.append(run_once(tmp_path / f"ledger-{index}.ndjson"))
    base_wall, _, base_identified, _, _ = min(base_runs, key=lambda run: run[0])
    obs_wall, obs_stats, obs_identified, hub, ledger_path = min(obs_runs, key=lambda run: run[0])

    ratio = obs_wall / base_wall if base_wall else 1.0
    print()
    print("Observability overhead")
    print(f"  wall (observability off)       {base_wall * 1000:.1f} ms")
    print(f"  wall (ledger + metrics on)     {obs_wall * 1000:.1f} ms")
    print(f"  overhead ratio                 {ratio:.2f}x")

    # Identical work was done, every verdict landed in the ledger, and
    # the metrics surface saw the batches the dispatcher ran.
    assert len(obs_identified) == len(base_identified)
    replay = replay_ledger(ledger_path)
    verdicts = [record for record in replay.records if record.kind == "verdict"]
    assert len(verdicts) == len(obs_identified)
    snapshot = hub.snapshot()
    assert snapshot["dispatcher.identify_batch_seconds.count"] == obs_stats.dispatcher.batches

    # The acceptance bound: observability must be near-free.
    assert obs_wall <= base_wall * 1.1 + 0.05

    _report(
        bench_report,
        "observability_overhead",
        {
            "wall_seconds_disabled": base_wall,
            "wall_seconds_enabled": obs_wall,
            "overhead_ratio": ratio,
            "ledger_records": len(replay.records),
            "verdict_records": len(verdicts),
        },
        identifier=bench_identifier,
        cache_epoch=0,
    )
