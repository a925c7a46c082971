"""Reproducibility suite: verdicts are deterministic across calls,
save/load round-trips, processes and ``PYTHONHASHSEED`` values.

This is the regression net for the borderline-fingerprint bug: the
discrimination stage used to sample references from a shared mutable
generator, so a fingerprint near the novelty threshold could flip between
``unknown`` and a near-miss type across calls (and two gateways serving
one bundle disagreed after divergent traffic histories).  CI runs this
file twice under different ``PYTHONHASHSEED`` values (the determinism
gate); the subprocess tests below additionally compare verdicts across
*fresh interpreters* with differing hash seeds inside a single run, and
train a bundle in two such interpreters to compare their bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import load_identifier, save_identifier
from tests.conftest import (
    SMALL_DEVICE_SET,
    PerPacketAssembler,
    assert_scores_match_scalar_oracle,
    chatter_stream,
    multi_delivery_stream,
    per_packet_gateway_run,
    rerun_stream,
    skewed,
)

REPEATED_CALLS = 100

#: The replay script a fresh interpreter runs: load the bundle, identify
#: the scripted probe traffic, print one canonical JSON document of every
#: verdict (type, matched types, scores, provenance).  Any
#: hash-seed-dependent ordering or selection anywhere in the pipeline
#: shows up as a byte diff between two subprocess runs.
REPLAY_SCRIPT = """
import json, sys
import numpy as np
from repro.features.fingerprint import Fingerprint
from repro.identification.model_store import load_identifier

bundle_path, probes_path = sys.argv[1], sys.argv[2]
archive = np.load(probes_path)
vectors, lengths = archive["vectors"], archive["lengths"]
probes, offset = [], 0
for length in lengths:
    probes.append(Fingerprint(vectors=vectors[offset : offset + int(length)]))
    offset += int(length)

identifier = load_identifier(bundle_path)
verdicts = []
for result in identifier.identify_many(probes):
    verdicts.append(
        {
            "device_type": result.device_type,
            "matched_types": list(result.matched_types),
            "scores": [
                [
                    score.device_type,
                    score.score,
                    score.comparisons,
                    list(score.reference_indices),
                    score.selection_seed,
                ]
                for score in result.discrimination_scores
            ],
        }
    )
print(json.dumps(verdicts, sort_keys=True))
"""


#: The training script a fresh interpreter runs: simulate a small
#: registry, train an identifier on it, save the bundle and print the
#: bundle's sha256.  Any hash-seed-dependent ordering in data generation,
#: negative sampling or forest growth shows up as a digest diff.
TRAIN_SCRIPT = """
import hashlib, sys
from repro.datasets.builder import DatasetBuilder
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import save_identifier

bundle_path, device_types = sys.argv[1], sys.argv[2].split(",")
dataset = DatasetBuilder(runs_per_type=4, seed=99).build_synthetic(device_types)
identifier = DeviceTypeIdentifier.train(dataset.to_registry(), n_estimators=4, random_state=3)
save_identifier(bundle_path, identifier)
with open(bundle_path, "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""


def _verdict_signature(result):
    """Everything a verdict consumer can observe, as a comparable value."""
    return (
        result.device_type,
        result.matched_types,
        result.discrimination_scores,
    )


@pytest.fixture(scope="module")
def probes(small_dataset):
    """Scripted replay traffic: every fingerprint of the small dataset.

    Includes the confusable-family fingerprints (multi-match, borderline)
    alongside clean single-match and unknown cases.
    """
    return list(small_dataset.fingerprints)


class TestRepeatedCalls:
    def test_hundred_calls_identical(self, trained_identifier, probes):
        """The acceptance headline: 100 repeated identify() calls agree."""
        baseline = [_verdict_signature(r) for r in trained_identifier.identify_many(probes)]
        # Borderline coverage: the replay must include multi-match
        # fingerprints, otherwise this test proves nothing about the
        # discrimination stage.
        assert any(len(matched) > 1 for _, matched, _ in baseline)

        borderline = [
            index for index, (_, matched, _) in enumerate(baseline) if len(matched) > 1
        ]
        for _ in range(REPEATED_CALLS):
            for index in borderline:
                result = trained_identifier.identify(probes[index])
                assert _verdict_signature(result) == baseline[index]

    def test_batch_and_single_paths_agree(self, trained_identifier, probes):
        batched = trained_identifier.identify_many(probes)
        for probe, from_batch in zip(probes, batched):
            single = trained_identifier.identify(probe)
            assert _verdict_signature(single) == _verdict_signature(from_batch)

    def test_call_order_does_not_leak_between_fingerprints(
        self, trained_identifier, probes
    ):
        """Identifying A must not change B's verdict (no shared rng state)."""
        forward = [_verdict_signature(r) for r in trained_identifier.identify_many(probes)]
        backward = [
            _verdict_signature(trained_identifier.identify(probe))
            for probe in reversed(probes)
        ]
        assert forward == list(reversed(backward))


class TestSaveLoadRoundTrip:
    def test_v3_round_trip_verdicts_bit_identical(
        self, trained_identifier, probes, tmp_path
    ):
        bundle = tmp_path / "identifier.npz"
        save_identifier(bundle, trained_identifier)
        loaded = load_identifier(bundle)

        original = trained_identifier.identify_many(probes)
        reloaded = loaded.identify_many(probes)
        for first, second in zip(original, reloaded):
            assert _verdict_signature(first) == _verdict_signature(second)

    def test_round_trip_after_incremental_learning(self, small_dataset, tmp_path):
        """The persisted revision keeps the draw salt aligned after reload."""
        registry = small_dataset.to_registry()
        identifier = DeviceTypeIdentifier.train(registry, n_estimators=5, random_state=0)
        donor_type = identifier.known_device_types[0]
        donors = [
            np.asarray(fingerprint.vectors)
            for fingerprint in small_dataset.fingerprints
            if fingerprint.device_type == donor_type
        ][:3]
        from repro.features.fingerprint import Fingerprint

        renamed = [
            Fingerprint(vectors=vectors, device_type="RelabelledDevice")
            for vectors in donors
        ]
        identifier.add_device_type("RelabelledDevice", renamed)
        assert identifier.revision == 1

        bundle = tmp_path / "learned.npz"
        save_identifier(bundle, identifier)
        loaded = load_identifier(bundle)
        assert loaded.revision == 1

        probes = small_dataset.fingerprints[::4]
        for first, second in zip(
            identifier.identify_many(probes), loaded.identify_many(probes)
        ):
            assert _verdict_signature(first) == _verdict_signature(second)


class TestCrossProcess:
    def _replay(self, bundle: Path, probes_file: Path, hash_seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", REPLAY_SCRIPT, str(bundle), str(probes_file)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    @pytest.fixture(scope="class")
    def replay_inputs(self, trained_identifier, probes, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("replay")
        bundle = tmp_path / "identifier.npz"
        save_identifier(bundle, trained_identifier)
        vectors = np.concatenate([probe.vectors for probe in probes], axis=0)
        lengths = np.array([probe.packet_count for probe in probes], dtype=np.int64)
        probes_file = tmp_path / "probes.npz"
        np.savez(probes_file, vectors=vectors, lengths=lengths)
        return bundle, probes_file

    def test_two_processes_two_hash_seeds_byte_identical(self, replay_inputs):
        """The seed matrix: fresh interpreters with different hash seeds
        must print byte-identical verdict streams."""
        bundle, probes_file = replay_inputs
        first = self._replay(bundle, probes_file, hash_seed="0")
        second = self._replay(bundle, probes_file, hash_seed="4242")
        assert first == second
        verdicts = json.loads(first)
        assert len(verdicts) > 0
        # Borderline coverage crossed the process boundary too.
        assert any(len(verdict["matched_types"]) > 1 for verdict in verdicts)

    def test_subprocess_agrees_with_in_process_verdicts(
        self, replay_inputs, trained_identifier, probes
    ):
        bundle, probes_file = replay_inputs
        replayed = json.loads(self._replay(bundle, probes_file, hash_seed="1"))
        local = trained_identifier.identify_many(probes)
        assert len(replayed) == len(local)
        for remote, result in zip(replayed, local):
            assert remote["device_type"] == result.device_type
            assert tuple(remote["matched_types"]) == result.matched_types
            assert len(remote["scores"]) == len(result.discrimination_scores)
            for row, score in zip(remote["scores"], result.discrimination_scores):
                assert row[0] == score.device_type
                assert row[1] == score.score
                assert tuple(row[3]) == score.reference_indices
                assert row[4] == score.selection_seed


class TestCrossProcessTraining:
    """Training is inside the determinism contract: the same seed gives a
    byte-identical bundle in any interpreter, under any hash seed."""

    DEVICE_TYPES = ("Aria", "HueBridge", "EdnetCam", "WeMoSwitch", "D-LinkCam")

    def _train(self, bundle: Path, hash_seed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", TRAIN_SCRIPT, str(bundle), ",".join(self.DEVICE_TYPES)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout.strip()

    def test_two_hash_seeds_train_byte_identical_bundles(self, tmp_path):
        first = self._train(tmp_path / "first.npz", hash_seed="0")
        second = self._train(tmp_path / "second.npz", hash_seed="4242")
        assert len(first) == 64
        assert first == second
        assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "second.npz").read_bytes()


# --------------------------------------------------------------------- #
# The columnar datapath is inside the determinism contract too: the
# vectorised distance kernel, the splitmix reference draw and the batched
# pipeline must reproduce the scalar path's verdicts under any hash seed
# (CI runs this file under two PYTHONHASHSEED values).
# --------------------------------------------------------------------- #
class TestBatchKernelDeterminism:
    def test_batched_kernel_bitwise_equals_scalar_kernel(self, trained_identifier, probes):
        """Every production score re-derives bitwise from the scalar
        dynamic program over its recorded references (the provenance)."""
        checked = 0
        for probe, result in zip(probes, trained_identifier.identify_many(probes)):
            checked += assert_scores_match_scalar_oracle(trained_identifier, probe, result)
        assert checked > 0

    def test_splitmix_draw_is_pinned(self):
        """The draw is a specification, not an implementation detail:
        these literals must survive every numpy and Python upgrade
        (schema-v4 bundles replay against them)."""
        from repro.distance.damerau_levenshtein import splitmix64, splitmix_subset

        assert splitmix64(1)[1] == 10451216379200822465
        assert splitmix_subset(12345, population=10, size=5) == (1, 2, 3, 4, 7)
        assert splitmix_subset(0, population=40, size=5) == (1, 15, 19, 21, 35)

    def test_batched_pipeline_replays_byte_identical(self, trained_identifier):
        from repro.streaming import (
            BatchDispatcher,
            FingerprintAssembler,
            IdentificationCache,
            SimulatedSource,
            StreamingPipeline,
        )

        def drive():
            delivered = []
            StreamingPipeline(
                source=SimulatedSource(devices=10, seed=31),
                dispatcher=BatchDispatcher(
                    trained_identifier, max_batch=4, cache=IdentificationCache(capacity=64)
                ),
                assembler=FingerprintAssembler(),
                on_identified=delivered.append,
            ).run()
            return [
                (str(item.mac), _verdict_signature(item.result), item.fingerprint.vectors.tobytes())
                for item in delivered
            ]

        assert drive() == drive()


# --------------------------------------------------------------------- #
# The observability surface is part of the determinism contract: two
# identically-driven gateways must produce byte-identical evidence
# ledgers and byte-identical (timing-free) metric snapshots.
# --------------------------------------------------------------------- #
class TestObservabilityDeterminism:
    @staticmethod
    def _drive_observed_pipeline(identifier, ledger_path):
        from repro.devices.catalog import DEVICE_CATALOG
        from repro.devices.simulator import SetupTrafficSimulator
        from repro.net.addresses import MACAddress
        from repro.obs import Observability, VerdictLedger
        from repro.streaming import (
            BatchDispatcher,
            FingerprintAssembler,
            IdentificationCache,
            SimulatedSource,
            StreamingPipeline,
            replay_trace,
        )

        simulator = SetupTrafficSimulator(seed=5)
        traces = [
            simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
            for index, name in enumerate(("Aria", "HueBridge", "EdnetCam"))
        ]
        quiet = max(p.timestamp for trace in traces for p in trace.packets)
        # A replayed clone so the LRU cache path (from_cache records) runs.
        clone_mac = MACAddress.from_string("02:0d:e7:00:00:01")
        traces.append(replay_trace(traces[0], clone_mac, quiet + 40.0))

        hub = Observability(ledger=VerdictLedger(ledger_path))
        pipeline = StreamingPipeline(
            source=SimulatedSource(traces=traces),
            # max_batch=1: each fingerprint is identified (and cached) the
            # moment it emits, so the clone's lookup always finds the
            # original regardless of emission order -- the cache-hit
            # path (from_cache verdict records) is part of the compared
            # bytes.
            dispatcher=BatchDispatcher(
                identifier,
                max_batch=1,
                cache=IdentificationCache(capacity=32),
                observability=hub,
            ),
            assembler=FingerprintAssembler(),
            on_identified=lambda item: None,
        )
        pipeline.run()
        snapshot = hub.snapshot(include_timings=False)
        hub.ledger.close()
        return snapshot

    def test_snapshots_and_ledgers_byte_identical(self, trained_identifier, tmp_path):
        """Two identically-driven pipelines: same snapshot bytes, same
        ledger bytes (timings excluded -- wall clock is the one
        legitimately nondeterministic input)."""
        first_path = tmp_path / "one" / "ledger.ndjson"
        second_path = tmp_path / "two" / "ledger.ndjson"
        first = self._drive_observed_pipeline(trained_identifier, first_path)
        second = self._drive_observed_pipeline(trained_identifier, second_path)

        first_json = json.dumps(first, sort_keys=True)
        second_json = json.dumps(second, sort_keys=True)
        assert first_json == second_json
        # The filter left real work visible and no wall-clock keys behind.
        assert first["ledger.verdict_records"] == 4
        assert first["identification_cache.hits"] >= 1
        assert not any("seconds" in key for key in first)

        assert first_path.read_bytes() == second_path.read_bytes()


# --------------------------------------------------------------------- #
# The facade's columnar drive against the per-packet oracle walk: the
# evidence ledger -- every verdict and enforcement record, with its
# stream-clock stamp, in order -- must come out byte-identical whatever
# the batch boundaries, the pacing of the stream or its timestamp skew.
# --------------------------------------------------------------------- #
class TestColumnarDriveParity:
    @staticmethod
    def _ledger(identifier, directory, source, drive, knobs, config=None):
        """The ledger bytes of one drive, and each fingerprint submission
        with the stream clock it saw."""
        from repro.api import GatewayConfig, build_gateway
        from repro.streaming import FingerprintAssembler

        path = directory / "ledger.ndjson"
        handle = build_gateway(
            GatewayConfig(identifier=identifier, ledger_path=path, **(config or {}))
        )
        if knobs:
            handle.assembler = FingerprintAssembler(**knobs)
        submits = []
        submit = handle.dispatcher.submit

        def recorded_submit(ready):
            submits.append((handle.clock.now(), str(ready.mac), ready.reason, ready.completed_at))
            return submit(ready)

        handle.dispatcher.submit = recorded_submit
        drive(handle, source)
        handle.close()
        return path.read_bytes(), submits

    def _assert_parity(self, identifier, tmp_path, make_source, drives, config=None, **knobs):
        oracle, oracle_submits = self._ledger(
            identifier, tmp_path / "oracle", make_source(), per_packet_gateway_run, knobs, config
        )
        assert oracle.count(b'"kind":"verdict"') >= 10
        for name, drive in drives.items():
            got, submits = self._ledger(
                identifier, tmp_path / name, make_source(), drive, knobs, config
            )
            assert got == oracle, name
            assert submits == oracle_submits, name

    @staticmethod
    def _facade(handle, source):
        handle.run_until_idle(source)

    @staticmethod
    def _stream(handle, source):
        for _ in handle.stream(source):
            pass

    def test_pcap_capture_ledger_matches_per_packet_walk(self, trained_identifier, tmp_path):
        from repro.net.pcap import write_pcap
        from repro.streaming import PcapReplaySource

        capture = tmp_path / "reruns.pcap"
        write_pcap(capture, rerun_stream(seed=3))
        self._assert_parity(
            trained_identifier, tmp_path, lambda: PcapReplaySource(capture),
            {"facade": self._facade},
        )

    def test_sparse_stream_crossing_linger_and_eviction_deadlines(
        self, trained_identifier, tmp_path
    ):
        from repro.streaming import SimulatedSource

        # Devices join 9 s apart: most verdicts leave through linger polls
        # and idle sweeps, not through full dispatcher batches.
        self._assert_parity(
            trained_identifier, tmp_path,
            lambda: SimulatedSource(devices=14, seed=6, arrival_gap=9.0),
            {"facade": self._facade},
        )

    def test_skewed_timestamps_ledger_matches_per_packet_walk(self, trained_identifier, tmp_path):
        from repro.streaming import IterableSource

        packets = skewed(rerun_stream(seed=5), seed=5)
        self._assert_parity(
            trained_identifier, tmp_path, lambda: IterableSource(packets),
            {"facade": self._facade, "stream": self._stream},
        )

    def test_epoch_timestamps_ledger_matches_per_packet_walk(self, trained_identifier, tmp_path):
        """Capture-clock timestamps (seconds since 1970) leave few bits
        for the fraction; deadlines still fall at the same frames."""
        import dataclasses

        from repro.streaming import IterableSource

        packets = [
            dataclasses.replace(packet, timestamp=packet.timestamp + 1_700_000_000.0)
            for packet in skewed(rerun_stream(seed=5), seed=5)
        ]
        self._assert_parity(
            trained_identifier, tmp_path, lambda: IterableSource(packets),
            {"facade": self._facade, "stream": self._stream},
        )

    def test_short_captures_ledger_matches_per_packet_walk(self, trained_identifier, tmp_path):
        """Captures cut every few packets, and idle sweeps that end
        captures whose next packet shows no idle gap: the facade and
        ``stream`` ledgers still equal the per-packet walk's."""
        from repro.streaming import IterableSource

        packets = skewed(rerun_stream(seed=5), seed=5)
        self._assert_parity(
            trained_identifier, tmp_path, lambda: IterableSource(packets),
            {"facade": self._facade, "stream": self._stream},
            packet_budget=8, idle_timeout=3.0,
        )

    def test_no_op_eviction_deadlines_match_the_per_packet_walk(
        self, trained_identifier, tmp_path, monkeypatch
    ):
        """Most deadlines find nothing to evict, so the drive ends no
        window there; the ledger still matches the per-packet walk, which
        runs every sweep, whether the stream is run or streamed."""
        from repro.streaming import IterableSource

        packets = chatter_stream(seed=4)
        sweeps = []
        evict_idle = PerPacketAssembler.evict_idle

        def recorded(assembler, now, limit=None):
            before = assembler.active_devices
            ready = evict_idle(assembler, now, limit)
            sweeps.append(assembler.active_devices < before)
            return ready

        monkeypatch.setattr(PerPacketAssembler, "evict_idle", recorded)
        drives = {"facade": self._facade, "stream": self._stream}
        self._assert_parity(trained_identifier, tmp_path, lambda: IterableSource(packets), drives)
        assert sweeps.count(False) > 0.8 * len(sweeps) and any(sweeps)

    def test_windows_that_deliver_more_than_once_match_the_per_packet_walk(
        self, trained_identifier, tmp_path
    ):
        """Each dispatcher call's verdicts reach the ledger and the sink
        before the next call runs, so a window that identifies twice
        records ``V(A) E(A) V(B) E(B)``.  The stream has such windows: a
        cache hit followed by a miss batch, and the end-of-stream flush
        plus drain; and more captures go quiet together than a pending
        batch has room for, so a sweep leaves idle captures to the next.
        The facade and ``stream`` ledgers equal the per-packet walk's."""
        from repro.api import GatewayConfig, build_gateway
        from repro.streaming import IterableSource

        config = {"max_batch": 4}
        packets = multi_delivery_stream(seed=3)

        handle = build_gateway(GatewayConfig(identifier=trained_identifier, **config))
        pipeline = handle._build_pipeline(IterableSource(packets))
        # Deliveries by window: its end frame, and whether the stream ended.
        windows: dict[tuple[int, bool], list[list]] = {}
        finishing = []
        deliver, flush = pipeline._deliver, pipeline.assembler.flush
        evict_idle = pipeline.assembler.evict_idle
        # Per sweep: how many it ended, and how many idle captures it left.
        sweeps = []

        def recorded_deliver(identified):
            windows.setdefault((pipeline.stats.packets, bool(finishing)), []).append(identified)
            return deliver(identified)

        def recorded_flush(now=0.0):
            finishing.append(now)
            return flush(now)

        def recorded_sweep(now, limit=None):
            ready = evict_idle(now, limit)
            timeout = pipeline.assembler.idle_timeout
            left = pipeline.assembler._captures.values()
            sweeps.append((len(ready), sum(now - c.last_seen > timeout for c in left)))
            return ready

        pipeline._deliver = recorded_deliver
        pipeline.assembler.flush = recorded_flush
        pipeline.assembler.evict_idle = recorded_sweep
        pipeline.run()
        streamed = [calls for (_, flushed), calls in windows.items() if not flushed]
        assert any(
            all(item.from_cache for item in calls[0])
            and any(not item.from_cache for later in calls[1:] for item in later)
            for calls in streamed
        ), "a cache hit followed by a miss batch"
        assert any(
            ended == config["max_batch"] and left and following == left
            for (ended, left), (following, _) in zip(sweeps, sweeps[1:])
        ), "a full sweep leaving idle captures that the next sweep ends"
        flush = [calls for (_, flushed), calls in windows.items() if flushed]
        assert len(flush) == 1 and len(flush[0]) >= 3, "the flush, a submit batch and the drain"
        assert flush[0][0][0].from_cache

        self._assert_parity(
            trained_identifier, tmp_path, lambda: IterableSource(packets),
            {"facade": self._facade, "stream": self._stream},
            config=config,
        )


# --------------------------------------------------------------------- #
# Lumps: many devices go quiet together, and the stream resumes after more
# than the idle timeout.  Each sweep ends at most what the dispatcher's
# pending batch has room for, so the lump leaves over several sweeps; the
# facade still matches the per-packet walk record for record.
# --------------------------------------------------------------------- #
def _lump_stream(counts, ports, resuming, silence, talk):
    """Device ``i`` sends ``counts[i]`` packets to ``ports[i]``-derived
    ports from ``0.05 * i`` on; then nothing for ``silence`` seconds after
    the last of them, after which the devices in ``resuming`` (and a fresh
    one) talk every 0.3 s for ``talk`` seconds."""
    from repro.net.addresses import MACAddress
    from tests.conftest import make_device_mac, make_udp_packet

    def packet(mac, timestamp, port):
        built = make_udp_packet(
            mac, MACAddress.broadcast(), "192.168.0.50", "192.168.0.1", dst_port=port
        )
        built.timestamp = timestamp
        return built

    macs = [make_device_mac(index + 1) for index in range(len(counts))]
    packets = [
        packet(mac, 0.05 * index + 0.4 * step, ports[index] + step % 2)
        for index, (mac, count) in enumerate(zip(macs, counts))
        for step in range(count)
    ]
    resume = max(item.timestamp for item in packets) + silence
    talkers = [macs[index] for index in sorted(resuming)] + [make_device_mac(200)]
    steps = int(talk / 0.3)
    packets += [
        packet(mac, resume + 0.3 * step + 0.01 * index, 53 + step % 3)
        for step in range(steps)
        for index, mac in enumerate(talkers)
    ]
    return sorted(packets, key=lambda item: item.timestamp)


class TestQuietLumps:
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=16),
        ports=st.data(),
        max_batch=st.integers(min_value=1, max_value=6),
        silence=st.floats(min_value=15.5, max_value=60.0),
        talk=st.floats(min_value=0.3, max_value=8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_lumps_match_the_per_packet_walk_and_fit_the_batch(
        self, trained_identifier, counts, ports, max_batch, silence, talk
    ):
        import tempfile
        from unittest import mock

        from repro.streaming import IterableSource, StreamingPipeline

        device_ports = ports.draw(
            st.lists(
                st.sampled_from((53, 80, 123, 443, 1900)),
                min_size=len(counts),
                max_size=len(counts),
            )
        )
        resuming = ports.draw(st.sets(st.integers(min_value=0, max_value=len(counts) - 1)))
        packets = _lump_stream(counts, device_ports, resuming, silence, talk)
        sweeps = []  # (room, captures the sweep ended)
        sweep_if_due = StreamingPipeline._sweep_if_due

        def recorded(pipeline, now, completed):
            dispatcher = pipeline.dispatcher
            room = dispatcher.max_batch - len(dispatcher.queue) - len(completed)
            before = len(completed)
            sweep_if_due(pipeline, now, completed)
            sweeps.append((room, len(completed) - before))

        config = {"max_batch": max_batch}
        ledger = TestColumnarDriveParity._ledger
        with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
            StreamingPipeline, "_sweep_if_due", recorded
        ):
            directory = Path(scratch)
            oracle = ledger(
                trained_identifier, directory / "oracle", IterableSource(packets),
                per_packet_gateway_run, {}, config,
            )
            facade = ledger(
                trained_identifier, directory / "facade", IterableSource(packets),
                TestColumnarDriveParity._facade, {}, config,
            )
        assert facade == oracle
        assert oracle[0].count(b'"kind":"verdict"') >= len(counts)
        assert all(ended <= max(1, room) for room, ended in sweeps)


# --------------------------------------------------------------------- #
# Batch boundaries are verdict-neutral: how a probe list is cut into
# identify_many calls -- which the dispatcher's linger and max_batch
# decide -- moves no verdict, score or draw.  The edit-distance kernel's
# lane width and step count depend on what else shares the call, so this
# is a property of the kernel, not only of the bookkeeping around it.
# --------------------------------------------------------------------- #
PARTITION_PROBES = 14


@pytest.fixture(scope="module")
def partition_probes():
    """Fresh captures of the trained models (confusable families among
    them), two models the identifier never saw, two setups run back to
    back (longer than every reference) and a one-packet capture."""
    from repro.datasets.builder import DatasetBuilder
    from repro.devices.catalog import DEVICE_CATALOG
    from repro.features.fingerprint import Fingerprint

    def one_run_each(names):
        runs = DatasetBuilder(runs_per_type=2, seed=4321).build_synthetic(names)
        return list({run.device_type: run for run in runs.fingerprints}.values())

    unseen = [name for name in sorted(DEVICE_CATALOG) if name not in SMALL_DEVICE_SET][:2]
    captures = one_run_each(SMALL_DEVICE_SET) + one_run_each(unseen)
    long_runs = [
        Fingerprint(vectors=np.vstack([first.vectors, second.vectors]))
        for first, second in zip(captures[:2], captures[2:4])
    ]
    probes = captures + long_runs + [Fingerprint(vectors=captures[0].vectors[:1])]
    assert len(probes) == PARTITION_PROBES
    return probes


def _field_for_field(result):
    """A verdict's observable fields, timings excluded."""
    return (
        result.device_type,
        result.matched_types,
        [
            (
                score.device_type,
                score.score,
                score.comparisons,
                score.reference_indices,
                score.selection_seed,
            )
            for score in result.discrimination_scores
        ],
    )


class TestBatchBoundaries:
    @given(cuts=st.sets(st.integers(min_value=1, max_value=PARTITION_PROBES - 1)))
    @example(cuts=set())
    @example(cuts=set(range(1, PARTITION_PROBES)))
    @settings(max_examples=25, deadline=None)
    def test_identify_many_over_any_partition_equals_one_call(
        self, trained_identifier, partition_probes, cuts
    ):
        whole = trained_identifier.identify_many(partition_probes)
        kinds = [len(result.matched_types) for result in whole]
        # The list covers every stage-2 shape: unknown, guarded, discriminated.
        assert 0 in kinds and 1 in kinds and max(kinds) > 1
        bounds = [0, *sorted(cuts), PARTITION_PROBES]
        parts = [
            result
            for start, stop in zip(bounds, bounds[1:])
            for result in trained_identifier.identify_many(partition_probes[start:stop])
        ]
        assert [_field_for_field(result) for result in parts] == [
            _field_for_field(result) for result in whole
        ]


#: Seconds between device arrivals, cycled; and the offsets at which
#: clones of the first devices re-run their setups under new MACs.
ARRIVAL_GAPS = (6.0, 9.0, 12.0, 7.0)
CLONE_OFFSETS = (3.0, 16.0, 33.0, 90.0)


class TestLingerInvariance:
    """The dispatcher's linger moves batch boundaries and verdict timing,
    never a verdict: the facade's verdict records are the same multiset
    at a 5 s and a 1 s linger (``sequence``, ``stream_time`` and
    ``from_cache`` may differ)."""

    @staticmethod
    def _verdict_records(identifier, directory, linger, monkeypatch):
        from repro.api import GatewayConfig, build_gateway
        from repro.devices.catalog import DEVICE_CATALOG
        from repro.devices.simulator import SetupTrafficSimulator
        from repro.net.addresses import MACAddress
        from repro.obs.evidence import KIND_VERDICT
        from repro.obs.ledger import replay_ledger
        from repro.streaming import SimulatedSource, dispatcher, pipeline, replay_trace

        monkeypatch.setattr(dispatcher, "MAX_LINGER_SECONDS", linger)
        monkeypatch.setattr(pipeline, "MAX_LINGER_SECONDS", linger)
        # Devices join 6-12 s apart, so their captures end over a minute of
        # stream time: a 5 s linger gathers some of them into one batch
        # that a 1 s linger flushes as two, and a clone meets the cache
        # at one linger and its still-queued original at the other.
        simulator = SetupTrafficSimulator(seed=11)
        unseen = [name for name in sorted(DEVICE_CATALOG) if name not in SMALL_DEVICE_SET][:2]
        names = [*SMALL_DEVICE_SET, *unseen]
        gaps = [ARRIVAL_GAPS[index % len(ARRIVAL_GAPS)] for index in range(len(names) - 1)]
        traces = [
            simulator.simulate(DEVICE_CATALOG[name], start_time=float(start))
            for name, start in zip(names, np.cumsum([0.0, *gaps]))
        ]
        traces += [
            replay_trace(trace, MACAddress.from_string(f"02:11:00:00:00:{index:02x}"), offset)
            for index, (trace, offset) in enumerate(zip(traces, CLONE_OFFSETS))
        ]
        path = directory / "ledger.ndjson"
        handle = build_gateway(GatewayConfig(identifier=identifier, ledger_path=path))
        handle.run_until_idle(SimulatedSource(traces=traces))
        stats = handle.dispatcher.stats
        handle.close()
        verdicts = [
            record for record in replay_ledger(path).records if record.kind == KIND_VERDICT
        ]
        records = Counter(
            (
                record.mac,
                record.verdict,
                tuple(record.matched_types),
                json.dumps(record.provenance, sort_keys=True),
            )
            for record in verdicts
        )
        cached = sum(record.from_cache for record in verdicts)
        return records, (stats.batches, stats.linger_flushes, cached)

    def test_verdict_records_do_not_depend_on_the_linger(
        self, trained_identifier, tmp_path, monkeypatch
    ):
        slow, (slow_batches, slow_flushes, slow_cached) = self._verdict_records(
            trained_identifier, tmp_path / "five", 5.0, monkeypatch
        )
        fast, (fast_batches, fast_flushes, fast_cached) = self._verdict_records(
            trained_identifier, tmp_path / "one", 1.0, monkeypatch
        )
        assert sum(slow.values()) == 15
        # The two lingers really cut the stream differently.
        assert fast_batches > slow_batches and fast_flushes > slow_flushes
        assert fast_cached != slow_cached
        assert fast == slow
