"""Observability surface: evidence schema, ledger, metrics and wiring."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import GatewayConfig, build_gateway
from repro.datasets import generate_fingerprint_dataset
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.exceptions import LedgerError, ObservabilityError
from repro.identification.identifier import DeviceTypeIdentifier
from repro.gateway.security_gateway import SecurityGateway
from repro.identification.autopilot import LifecycleAutopilot, TriggerPolicy
from repro.identification.lifecycle import LifecycleCoordinator
from repro.net.addresses import MACAddress
from repro.obs import (
    EVIDENCE_SCHEMA_VERSION,
    QUARANTINE_RECORDED,
    QUARANTINE_RELEASED,
    EvidenceRecord,
    MetricsRegistry,
    Observability,
    VerdictLedger,
    decode_line,
    encode_line,
    ledger_files,
    replay_ledger,
)
from repro.security_service.service import IoTSecurityService
from repro.simulation.clock import SimulatedClock
from repro.streaming import (
    BatchDispatcher,
    FingerprintAssembler,
    GatewayEnforcementSink,
    IterableSource,
    SimulatedSource,
    StreamingPipeline,
    replay_trace,
)

from tests.conftest import rerun_stream

CHECK_LEDGER = Path(__file__).resolve().parent.parent / "tools" / "check_ledger.py"


# --------------------------------------------------------------------- #
# Evidence schema.
# --------------------------------------------------------------------- #
class TestEvidenceSchema:
    def test_round_trip_every_field(self):
        record = EvidenceRecord(
            kind="verdict",
            sequence=7,
            stream_time=12.5,
            mac="02:00:00:00:00:01",
            fingerprint_key="ab" * 20,
            verdict="HueBridge",
            matched_types=("HueBridge", "EdnetCam"),
            provenance={"HueBridge": {"reference_indices": [0, 3], "selection_seed": 42}},
            identifier_revision=2,
            cache_epoch=1,
            enforcement_action="RESTRICTED",
            from_cache=True,
            completion_reason="idle",
            detail={"note": "x"},
        )
        assert decode_line(encode_line(record)) == record

    def test_canonical_encoding_is_byte_stable(self):
        record = EvidenceRecord(kind="learn", verdict="Aria", sequence=0)
        assert encode_line(record) == encode_line(record)
        payload = json.loads(encode_line(record))
        assert list(payload) == sorted(payload)
        assert payload["schema"] == EVIDENCE_SCHEMA_VERSION

    def test_unknown_kind_rejected(self):
        with pytest.raises(LedgerError, match="unknown evidence kind"):
            EvidenceRecord(kind="gossip")

    def test_unknown_keys_rejected(self):
        line = encode_line(EvidenceRecord(kind="verdict", sequence=0))
        payload = json.loads(line)
        payload["surprise"] = 1
        with pytest.raises(LedgerError, match="unknown keys"):
            decode_line(json.dumps(payload))

    def test_wrong_schema_version_rejected(self):
        payload = json.loads(encode_line(EvidenceRecord(kind="verdict", sequence=0)))
        payload["schema"] = 2
        with pytest.raises(LedgerError, match="unsupported evidence schema"):
            decode_line(json.dumps(payload))

    def test_non_integer_sequence_rejected(self):
        payload = json.loads(encode_line(EvidenceRecord(kind="verdict", sequence=0)))
        payload["sequence"] = True
        with pytest.raises(LedgerError, match="sequence"):
            decode_line(json.dumps(payload))


# --------------------------------------------------------------------- #
# The ledger: rotation, crash recovery, replay validation.
# --------------------------------------------------------------------- #
class TestLedger:
    def test_sequences_are_monotonic_and_replayable(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with VerdictLedger(path) as ledger:
            written = [ledger.append(EvidenceRecord(kind="verdict")) for _ in range(5)]
        assert [record.sequence for record in written] == [0, 1, 2, 3, 4]
        replay = replay_ledger(path)
        assert [record.sequence for record in replay.records] == [0, 1, 2, 3, 4]
        assert replay.truncated_lines == 0

    def test_append_stamps_exactly_what_with_sequence_builds(self, tmp_path):
        # The ledger stamps the sequence without re-validating the record:
        # the result must still equal the validated copy, byte for byte.
        path = tmp_path / "ledger.ndjson"
        record = EvidenceRecord(
            kind="verdict",
            stream_time=3.5,
            mac="02:00:00:00:00:07",
            verdict="HueBridge",
            matched_types=("HueBridge", "HueSwitch"),
            provenance={"HueBridge": {"reference_indices": [0, 3], "selection_seed": 11}},
            identifier_revision=2,
        )
        with VerdictLedger(path) as ledger:
            ledger.append(EvidenceRecord(kind="verdict"))
            stamped = ledger.append(record)
        assert stamped == record.with_sequence(1)
        assert stamped is not record and record.sequence == -1
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[1] == encode_line(record.with_sequence(1)).encode("utf-8")

    def test_rotation_boundary_never_splits_a_record(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        line_size = len(encode_line(EvidenceRecord(kind="verdict", sequence=0)))
        # Room for exactly two records per file: the third append rotates.
        with VerdictLedger(path, max_bytes=2 * line_size + 1, max_files=10) as ledger:
            for _ in range(7):
                ledger.append(EvidenceRecord(kind="verdict"))
            assert ledger.rotations == 3
        files = ledger_files(path)
        assert [file.name for file in files] == [
            "ledger.ndjson.3",
            "ledger.ndjson.2",
            "ledger.ndjson.1",
            "ledger.ndjson",
        ]
        # Every file holds whole lines; the chain replays in order.
        for file in files:
            assert file.read_text().endswith("\n")
        replay = replay_ledger(path)
        assert [record.sequence for record in replay.records] == list(range(7))

    def test_max_files_retires_the_oldest_generation(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        line_size = len(encode_line(EvidenceRecord(kind="verdict", sequence=0)))
        with VerdictLedger(path, max_bytes=line_size + 1, max_files=2) as ledger:
            for _ in range(5):
                ledger.append(EvidenceRecord(kind="verdict"))
        names = [file.name for file in ledger_files(path)]
        assert names == ["ledger.ndjson.2", "ledger.ndjson.1", "ledger.ndjson"]
        # Oldest records gone, survivors still strictly increasing.
        replay = replay_ledger(path)
        assert [record.sequence for record in replay.records] == [2, 3, 4]

    def test_oversized_record_still_lands_whole(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with VerdictLedger(path, max_bytes=64, max_files=4) as ledger:
            big = EvidenceRecord(kind="verdict", detail={"blob": "x" * 500})
            ledger.append(big)
        assert replay_ledger(path).records[0].detail["blob"] == "x" * 500

    def test_truncated_final_line_is_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with VerdictLedger(path) as ledger:
            for _ in range(3):
                ledger.append(EvidenceRecord(kind="verdict"))
        # Simulate a crash mid-append: chop the final line's tail.
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        replay = replay_ledger(path)
        assert [record.sequence for record in replay.records] == [0, 1]
        assert replay.truncated_lines == 1

    def test_reopen_repairs_tail_and_continues_sequence(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with VerdictLedger(path) as ledger:
            for _ in range(3):
                ledger.append(EvidenceRecord(kind="verdict"))
        path.write_bytes(path.read_bytes()[:-10])
        with VerdictLedger(path) as ledger:
            # Sequences 0 and 1 survive; the torn 2 is superseded by a new
            # 2 -- and the torn tail was truncated on open, so the new
            # record lands on its own line, not appended to the junk.
            assert ledger.next_sequence == 2
            ledger.append(EvidenceRecord(kind="enforcement"))
        replay = replay_ledger(path)
        assert [record.sequence for record in replay.records] == [0, 1, 2]
        assert replay.truncated_lines == 0

    def test_corrupt_complete_line_raises(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with VerdictLedger(path) as ledger:
            ledger.append(EvidenceRecord(kind="verdict"))
        with path.open("a") as handle:
            handle.write("not json\n")
            handle.write(encode_line(EvidenceRecord(kind="verdict", sequence=1)))
        with pytest.raises(LedgerError, match="invalid ledger record"):
            replay_ledger(path)

    def test_non_monotonic_sequence_raises(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with path.open("w") as handle:
            handle.write(encode_line(EvidenceRecord(kind="verdict", sequence=5)))
            handle.write(encode_line(EvidenceRecord(kind="verdict", sequence=5)))
        with pytest.raises(LedgerError, match="monotonically"):
            replay_ledger(path)

    def test_append_after_close_raises(self, tmp_path):
        ledger = VerdictLedger(tmp_path / "ledger.ndjson")
        ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            ledger.append(EvidenceRecord(kind="verdict"))

    def test_failed_append_is_not_counted(self, tmp_path):
        hub = Observability(ledger=VerdictLedger(tmp_path / "ledger.ndjson"))
        hub.ledger.close()
        with pytest.raises(LedgerError, match="closed"):
            hub.record_apply(gateway="gw", epoch=1, revision=0, applied=True)
        assert hub.snapshot()["ledger.apply_records"] == 0


# --------------------------------------------------------------------- #
# Metrics registry.
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_hit_rate_derived_from_counters(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.counter("cache.misses").inc(1)
        registry.register_source("rules", lambda: {"hits": 2, "lookups": 8})
        snapshot = registry.snapshot()
        assert snapshot["cache.hit_rate"] == 0.75
        assert snapshot["rules.hit_rate"] == 0.25
        # Derived, never stored: only snapshot output carries the ratio.
        assert "cache.hit_rate" not in registry._instruments

    def test_snapshot_is_sorted_and_json_serialisable(self):
        registry = MetricsRegistry()
        registry.gauge("z.depth").set(3)
        registry.counter("a.count").inc()
        registry.histogram("m.seconds").observe(0.002)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)

    def test_include_timings_false_drops_wall_clock_keys(self):
        registry = MetricsRegistry()
        registry.histogram("dispatcher.identify_batch_seconds").observe(0.01)
        registry.counter("dispatcher.batches").inc()
        registry.register_source("s", lambda: {"identify_seconds": 1.23, "count": 2})
        filtered = registry.snapshot(include_timings=False)
        assert "s.count" in filtered and "dispatcher.batches" in filtered
        assert not any("seconds" in key for key in filtered)

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.seconds", buckets=(0.001, 0.01))
        for value in (0.0005, 0.005, 5.0):
            histogram.observe(value)
        snapshot = registry.snapshot()
        assert snapshot["h.seconds.count"] == 3
        assert snapshot["h.seconds.le_0.001"] == 1
        assert snapshot["h.seconds.le_0.01"] == 1
        assert snapshot["h.seconds.le_inf"] == 1
        assert snapshot["h.seconds.max"] == 5.0

    def test_instrument_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("x")

    def test_counter_cannot_decrease(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_non_scalar_source_value_rejected(self):
        registry = MetricsRegistry()
        registry.register_source("bad", lambda: {"value": [1, 2]})
        with pytest.raises(ObservabilityError, match="non-scalar"):
            registry.snapshot()


# --------------------------------------------------------------------- #
# Wired end to end: one small stream through the full serving path.
# --------------------------------------------------------------------- #
TRAINED_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch"]
UNKNOWN_MODEL = "TP-LinkPlugHS110"  # never trained: gets quarantined


@pytest.fixture(scope="module")
def obs_dataset():
    return generate_fingerprint_dataset(
        runs_per_type=10, device_names=TRAINED_TYPES, seed=0
    )


def build_wired_gateway(identifier, tmp_path, seed=42):
    """A fully observed serving path plus a 3-device unknown-model fleet."""
    ledger = VerdictLedger(tmp_path / "ledger.ndjson")
    hub = Observability(ledger=ledger)
    clock = SimulatedClock()
    gateway = SecurityGateway(clock=clock)
    service = IoTSecurityService(identifier=identifier)
    sink = GatewayEnforcementSink(
        gateway=gateway, security_service=service, observability=hub
    )
    coordinator = LifecycleCoordinator(
        identifier=identifier, sink=sink, observability=hub
    )
    sink.lifecycle = coordinator
    gateway.attach_lifecycle(coordinator)
    autopilot = LifecycleAutopilot(
        coordinator, policy=TriggerPolicy(min_cluster_size=3), security_service=service
    )

    simulator = SetupTrafficSimulator(seed=seed)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(TRAINED_TYPES)
    ]
    quiet = max(packet.timestamp for trace in traces for packet in trace.packets)
    unknown = simulator.simulate(DEVICE_CATALOG[UNKNOWN_MODEL], start_time=quiet + 10.0)
    traces.append(unknown)
    for index in range(2):
        mac = MACAddress.from_string(f"02:11:22:00:00:{index + 1:02x}")
        traces.append(replay_trace(unknown, mac, quiet + 20.0 + index * 2.0))

    pipeline = StreamingPipeline(
        source=SimulatedSource(traces=traces),
        dispatcher=BatchDispatcher(
            identifier, max_batch=4, cache=coordinator.make_cache(), observability=hub
        ),
        assembler=FingerprintAssembler(),
        on_identified=sink,
        clock=clock,
    )
    return hub, pipeline, autopilot, coordinator


#: Every counter a fresh facade gateway exports (timings excluded).  A
#: stage's stats dataclass is the one list of its counters, so adding or
#: dropping a field shows up here.
FACADE_SNAPSHOT_KEYS = [
    "assembler.budget_emissions", "assembler.fingerprints_emitted",
    "assembler.flush_emissions", "assembler.idle_emissions", "assembler.packets_observed",
    "cache_epoch.generation", "cache_epoch.invalidations",
    "dispatcher.batched", "dispatcher.batches", "dispatcher.dropped",
    "dispatcher.identified", "dispatcher.largest_batch", "dispatcher.linger_flushes",
    "dispatcher.queue.accepted", "dispatcher.queue.blocked", "dispatcher.queue.capacity",
    "dispatcher.queue.depth", "dispatcher.queue.dropped",
    "dispatcher.queue.high_watermark", "dispatcher.queue.offered", "dispatcher.submitted",
    "dispatcher.swaps",
    "enforcement_sink.enforced", "enforcement_sink.skipped_downgrades",
    "enforcement_sink.sticky",
    "identification_cache.capacity", "identification_cache.epoch_generation",
    "identification_cache.hit_rate", "identification_cache.hits",
    "identification_cache.misses", "identification_cache.size",
    "identification_cache.stale_rejections",
    "ledger.apply_records", "ledger.enforcement_records", "ledger.learn_records",
    "ledger.promotion_records", "ledger.push_records", "ledger.quarantine_records",
    "ledger.verdict_records",
    "lifecycle.disconnects", "lifecycle.registered_caches", "lifecycle.relearns",
    "quarantine.capacity", "quarantine.evicted", "quarantine.recorded",
    "quarantine.released", "quarantine.size",
    "rule_cache.hit_rate", "rule_cache.hits",
    "rule_cache.insertions", "rule_cache.lookups", "rule_cache.replacements",
    "rule_cache.size",
    "switch.packets_dropped", "switch.packets_processed", "switch.packets_to_controller",
    "switch.rules",
]


class TestWiring:
    @pytest.fixture()
    def wired(self, obs_dataset, tmp_path):
        # A private identifier per test: learns mutate the bank.
        identifier = DeviceTypeIdentifier.train(
            obs_dataset.to_registry(), random_state=0
        )
        return build_wired_gateway(identifier, tmp_path)

    def test_every_event_lands_in_the_ledger(self, wired):
        hub, pipeline, autopilot, coordinator = wired
        pipeline.run()
        decisions = autopilot.poll(now=pipeline.clock.now())
        learned = [d for d in decisions if d.action == "learned"]
        assert learned, "the unknown-model cluster must trigger an auto-learn"
        autopilot.promote(learned[0].proposal.label)
        hub.ledger.close()

        replay = replay_ledger(hub.ledger.path)
        kinds = {record.kind for record in replay.records}
        assert kinds == {"verdict", "enforcement", "quarantine", "learn", "promotion"}
        sequences = [record.sequence for record in replay.records]
        assert sequences == sorted(sequences) and len(set(sequences)) == len(sequences)

        # Verdict records carry everything needed to reconstruct them.
        for record in replay.records:
            if record.kind == "verdict":
                assert record.fingerprint_key and record.identifier_revision is not None
                assert record.cache_epoch is not None
        # The learn bumped revision and epoch; the promotion carries them.
        promotions = [r for r in replay.records if r.kind == "promotion"]
        assert promotions[0].identifier_revision >= 1
        assert promotions[0].cache_epoch >= 1

    def test_quarantine_transitions_recorded_and_released(self, wired):
        hub, pipeline, autopilot, coordinator = wired
        pipeline.run()
        autopilot.poll(now=pipeline.clock.now())
        hub.ledger.close()
        transitions = [
            record.detail["transition"]
            for record in replay_ledger(hub.ledger.path).records
            if record.kind == "quarantine"
        ]
        assert transitions.count(QUARANTINE_RECORDED) == 3
        # The auto-learn released the whole cluster.
        assert transitions.count(QUARANTINE_RELEASED) == 3

    def test_snapshot_covers_every_subsystem(self, wired):
        hub, pipeline, autopilot, _ = wired
        pipeline.run()
        snapshot = hub.snapshot()
        for key in (
            "assembler.packets_observed",
            "dispatcher.submitted",
            "dispatcher.queue.offered",
            "identification_cache.hits",
            "identification_cache.hit_rate",
            "enforcement_sink.enforced",
            "rule_cache.lookups",
            "switch.rules",
            "lifecycle.relearns",
            "quarantine.recorded",
            "cache_epoch.generation",
            "autopilot.triggers_fired",
            "ledger.verdict_records",
            "dispatcher.identify_batch_seconds.count",
            "dispatcher.classify_batch_seconds.count",
            "dispatcher.discriminate_batch_seconds.count",
        ):
            assert key in snapshot, key
        batches = snapshot["dispatcher.identify_batch_seconds.count"]
        assert batches > 0
        # One observation per stage per batch: the Table IV split.
        assert snapshot["dispatcher.classify_batch_seconds.count"] == batches
        assert snapshot["dispatcher.discriminate_batch_seconds.count"] == batches
        assert 0 < snapshot["dispatcher.classify_batch_seconds.sum"]
        assert (
            snapshot["dispatcher.classify_batch_seconds.sum"]
            + snapshot["dispatcher.discriminate_batch_seconds.sum"]
            <= snapshot["dispatcher.identify_batch_seconds.sum"] * 1.000001
        )
        hub.ledger.close()

    def test_facade_snapshot_key_list_is_pinned(self, trained_identifier):
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        assert list(handle.observability.snapshot(include_timings=False)) == (
            FACADE_SNAPSHOT_KEYS
        )

    @staticmethod
    def _windows(handle, pipeline):
        """The stream position of every window end: each makes one poll."""
        windows = []
        poll = handle.dispatcher.poll

        def recorded(now):
            windows.append(pipeline.stats.packets)
            return poll(now)

        handle.dispatcher.poll = recorded
        return windows

    def test_facade_run_feeds_the_datapath_stage_timers(self, trained_identifier):
        """Each window observes parse, assemble and score once; the frames
        after the last window end are one more parse and assemble
        observation, and the end-of-stream flush and drain, which identify
        the devices still assembling, one more score observation."""
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        pipeline = handle._build_pipeline(SimulatedSource(devices=4, seed=3))
        windows = self._windows(handle, pipeline)
        pipeline.run()
        snapshot = handle.snapshot()
        for stage in ("parse", "assemble", "score"):
            assert snapshot[f"pipeline.{stage}_batch_seconds.count"] == len(windows) + 1, stage
            assert snapshot[f"pipeline.{stage}_batch_seconds.sum"] > 0, stage

    def test_facade_stage_timers_record_once_per_window(self, trained_identifier):
        """Every frame consumed is counted once, and each stage timer
        observes each window once: none skipped, none counted twice, and
        no frame is timed on its own."""
        packets = rerun_stream(seed=5)
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        pipeline = handle._build_pipeline(IterableSource(packets))
        windows = self._windows(handle, pipeline)
        stats = pipeline.run()
        snapshot = handle.snapshot()
        assert stats.packets == len(packets)
        assert 10 < len(windows) < len(packets) / 10
        for stage in ("parse", "assemble", "score"):
            assert snapshot[f"pipeline.{stage}_batch_seconds.count"] == len(windows) + 1, stage

    def test_hub_stage_timers_add_up_to_the_drive_wall_time(self, trained_identifier):
        """Parse, assemble, score, deliver and the end-of-stream flush
        cover a facade run's wall time to within 5%.  The collector is
        paused: a full collection of the test session's heap landing in
        the few untimed lines would say nothing about the timers."""
        import gc

        for source in (
            IterableSource(rerun_stream(seed=5)),
            SimulatedSource(devices=14, seed=6, arrival_gap=9.0),
        ):
            handle = build_gateway(GatewayConfig(identifier=trained_identifier))
            gc.disable()
            try:
                stats = handle.run_until_idle(source)
            finally:
                gc.enable()
            snapshot = handle.snapshot()
            timed = sum(
                snapshot[f"pipeline.{stage}_seconds.sum"]
                for stage in (
                    "parse_batch",
                    "assemble_batch",
                    "score_batch",
                    "deliver_batch",
                    "assembler_flush",
                )
            )
            assert timed <= stats.wall_seconds
            assert timed == pytest.approx(stats.wall_seconds, rel=0.05)

    def test_deliver_timer_records_once_per_delivery(self, trained_identifier):
        """``pipeline.deliver_batch_seconds`` observes each non-empty
        delivery once, and the time it sums lies inside the drive."""
        handle = build_gateway(GatewayConfig(identifier=trained_identifier))
        pipeline = handle._build_pipeline(IterableSource(rerun_stream(seed=5)))
        deliveries = []
        deliver = pipeline._deliver

        def counting(identified):
            if identified:
                deliveries.append(len(identified))
            return deliver(identified)

        pipeline._deliver = counting
        stats = pipeline.run()
        snapshot = handle.snapshot()
        assert len(deliveries) > 1
        assert sum(deliveries) == stats.identified
        assert snapshot["pipeline.deliver_batch_seconds.count"] == len(deliveries)
        assert 0.0 < snapshot["pipeline.deliver_batch_seconds.sum"] < stats.wall_seconds

    def test_check_ledger_tool_passes_on_wired_output(self, wired):
        hub, pipeline, autopilot, _ = wired
        pipeline.run()
        autopilot.poll(now=pipeline.clock.now())
        hub.ledger.close()
        completed = subprocess.run(
            [sys.executable, str(CHECK_LEDGER), str(hub.ledger.path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "OK" in completed.stdout

    def test_check_ledger_tool_flags_non_canonical_lines(self, wired):
        hub, pipeline, _, _ = wired
        pipeline.run()
        hub.ledger.close()
        path = hub.ledger.path
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        # Each line still parses and validates; only its form is off.
        respaced = json.dumps(first, sort_keys=True) + "\n"
        unsorted = json.dumps(dict(reversed(list(first.items()))), separators=(",", ":")) + "\n"
        path.write_text(respaced + unsorted + "".join(lines[2:]))
        completed = subprocess.run(
            [sys.executable, str(CHECK_LEDGER), str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 1
        assert completed.stdout.count("not in canonical JSON form") == 2
        assert "ledger.ndjson:1:" in completed.stdout and "ledger.ndjson:2:" in completed.stdout

    def test_check_ledger_tool_flags_corruption(self, wired, tmp_path):
        hub, pipeline, _, _ = wired
        pipeline.run()
        hub.ledger.close()
        path = hub.ledger.path
        lines = path.read_text().splitlines(keepends=True)
        # Break monotonicity by duplicating a complete line.
        path.write_text("".join(lines) + lines[0])
        completed = subprocess.run(
            [sys.executable, str(CHECK_LEDGER), str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 1
        assert "does not increase" in completed.stdout
