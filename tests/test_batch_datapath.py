"""Differential and property tests of the columnar (batch-first) datapath.

Every batch component has a scalar reference oracle kept in-tree, and this
file is the contract between them: the vectorised edit-distance kernel must
be bitwise-equal to the per-pair dynamic program, a :class:`PacketBatch`
must carry exactly the columns the per-packet parser would have produced,
the batched assembler must emit the same fingerprints as per-packet
observation, and the batched pipeline must hand every device the same
verdict as the per-packet run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.distance.damerau_levenshtein import (
    GLOBAL_INTERNER,
    damerau_levenshtein,
    damerau_levenshtein_matrix,
    normalized_damerau_levenshtein,
    normalized_distances,
)
from repro.exceptions import FingerprintError, SimulationError
from repro.features.packet_features import (
    FEATURE_INDEX,
    PacketFeatureExtractor,
    batch_feature_matrix,
)
from repro.net.batch import PacketBatch
from repro.net.pcap import PcapReader, read_pcap, write_pcap
from repro.streaming import (
    BatchDispatcher,
    IdentificationCache,
    ShardedFingerprintAssembler,
    SimulatedSource,
    StreamingPipeline,
    iter_packet_batches,
)
from tests.conftest import assert_scores_match_scalar_oracle

_COUNTER = FEATURE_INDEX["dst_ip_counter"]


def _random_words(rng: random.Random, count: int, alphabet: int = 6, max_len: int = 9):
    """Short words over a small alphabet: dense in edit/transposition cases."""
    words = []
    for _ in range(count):
        length = rng.randrange(0, max_len + 1)
        words.append(tuple(rng.randrange(alphabet) for _ in range(length)))
    return words


# --------------------------------------------------------------------- #
# Distance layer: the vectorised kernel against the per-pair oracle.
# --------------------------------------------------------------------- #
class TestBatchDistanceKernel:
    def test_matrix_matches_scalar_on_random_words(self):
        rng = random.Random(1234)
        queries = _random_words(rng, 40)
        references = _random_words(rng, 25)
        encoded_refs = [GLOBAL_INTERNER.encode(ref) for ref in references]
        for query in queries:
            expected = np.array(
                [damerau_levenshtein(query, ref) for ref in references], dtype=np.int64
            )
            got = damerau_levenshtein_matrix(GLOBAL_INTERNER.encode(query), encoded_refs)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, expected)

    def test_normalized_is_bitwise_equal_to_scalar(self):
        rng = random.Random(99)
        queries = _random_words(rng, 20)
        references = [word for word in _random_words(rng, 20) if word]
        encoded_refs = [GLOBAL_INTERNER.encode(ref) for ref in references]
        for query in queries:
            got = normalized_distances(
                GLOBAL_INTERNER.encode(query), len(query), encoded_refs
            )
            for value, reference in zip(got, references):
                # Same division of the same two machine numbers: `==`, not
                # approx -- bitwise float parity is the whole point.
                assert value == normalized_damerau_levenshtein(query, reference)

    def test_empty_sequence_contract_matches_scalar(self):
        word = GLOBAL_INTERNER.encode(("a", "b"))
        empty = GLOBAL_INTERNER.encode(())
        # One empty side: distance is the other side's length, norm is 1.0.
        np.testing.assert_array_equal(
            damerau_levenshtein_matrix(word, [empty]), np.array([2])
        )
        np.testing.assert_array_equal(
            damerau_levenshtein_matrix(empty, [word]), np.array([2])
        )
        assert normalized_distances(word, 2, [empty]) == [1.0]
        assert normalized_distances(empty, 0, [word]) == [1.0]
        # Both sides empty: the scalar function raises, so must the batch.
        with pytest.raises(FingerprintError):
            normalized_damerau_levenshtein((), ())
        with pytest.raises(FingerprintError):
            normalized_distances(empty, 0, [word, empty])

    def test_reference_set_edges(self):
        word = GLOBAL_INTERNER.encode(("x", "y", "z"))
        assert damerau_levenshtein_matrix(word, []).shape == (0,)
        empties = [GLOBAL_INTERNER.encode(()) for _ in range(3)]
        np.testing.assert_array_equal(
            damerau_levenshtein_matrix(word, empties), np.full(3, 3)
        )


# --------------------------------------------------------------------- #
# Net layer: batch columns vs the per-packet parser and extractor.
# --------------------------------------------------------------------- #
def _setup_packets(seed: int = 21, names=("Aria", "HueBridge", "EdnetCam", "WeMoSwitch")):
    simulator = SetupTrafficSimulator(seed=seed)
    packets = []
    for index, name in enumerate(names):
        trace = simulator.simulate(DEVICE_CATALOG[name], start_time=index * 1.5)
        packets.extend(trace.packets)
    packets.sort(key=lambda packet: packet.timestamp)
    return packets


def _expected_columns(packets):
    """Per-packet oracle: one fresh extractor per packet, counter zeroed."""
    extractor = PacketFeatureExtractor()
    rows = []
    for packet in packets:
        extractor.reset()
        row = extractor.extract(packet)
        row[_COUNTER] = 0  # stateful column is the assembler's job
        rows.append(row)
    return np.stack(rows)


class TestPacketBatchColumns:
    def test_from_packets_matches_per_packet_extractor(self):
        packets = _setup_packets()
        batch = PacketBatch.from_packets(packets)
        assert len(batch) == len(packets)
        np.testing.assert_array_equal(batch_feature_matrix(batch), _expected_columns(packets))
        for index, packet in enumerate(packets):
            assert batch.dst_ips[index] == packet.dst_ip
            assert batch.src_macs[index] == packet.ethernet.src.value
            assert batch.timestamps[index] == packet.timestamp
            assert batch.src_ports[index] == (
                packet.src_port if packet.src_port is not None else -1
            )
            assert batch.dst_ports[index] == (
                packet.dst_port if packet.dst_port is not None else -1
            )

    def test_from_frames_pcap_matches_per_packet_dissection(self, tmp_path):
        """The struct-batched frame parser against Packet.dissect, via a
        real pcap round trip (LLC, EAPOL, ARP, options and DHCP frames all
        exercise the fast parser's fallback decisions)."""
        path = tmp_path / "setup.pcap"
        write_pcap(path, _setup_packets())
        frames = list(PcapReader(path))
        assert frames
        from_frames = PacketBatch.from_frames(frames)
        from_packets = PacketBatch.from_packets(read_pcap(path))
        np.testing.assert_array_equal(from_frames.flags, from_packets.flags)
        np.testing.assert_array_equal(from_frames.src_macs, from_packets.src_macs)
        np.testing.assert_array_equal(from_frames.src_ports, from_packets.src_ports)
        np.testing.assert_array_equal(from_frames.dst_ports, from_packets.dst_ports)
        np.testing.assert_array_equal(from_frames.sizes, from_packets.sizes)
        np.testing.assert_array_equal(from_frames.timestamps, from_packets.timestamps)
        assert from_frames.dst_ips == from_packets.dst_ips
        # The thin per-packet view dissects lazily to the same packets.
        assert from_frames.packet(0).to_bytes() == frames[0].data

    def test_simulator_stream_batches_match_source_packets(self):
        source = SimulatedSource(devices=6, seed=3)
        packets = list(source.packets())
        batches = list(iter_packet_batches(SimulatedSource(devices=6, seed=3), 32))
        assert sum(len(batch) for batch in batches) == len(packets)
        stitched = np.concatenate([batch_feature_matrix(batch) for batch in batches])
        np.testing.assert_array_equal(stitched, _expected_columns(packets))

    def test_batch_size_edges(self):
        packets = _setup_packets(seed=4, names=("Aria",))
        empty = PacketBatch.from_packets([])
        assert len(empty) == 0
        assert empty.device_runs() == []
        assert batch_feature_matrix(empty).shape == (0, 23)

        single = PacketBatch.from_packets(packets[:1])
        assert len(single) == 1
        np.testing.assert_array_equal(
            batch_feature_matrix(single), _expected_columns(packets[:1])
        )

        whole = PacketBatch.from_packets(packets)  # one max-size batch
        view = whole.slice(0, len(whole))
        np.testing.assert_array_equal(view.flags, whole.flags)

    def test_device_runs_preserve_stream_order(self):
        packets = _setup_packets(seed=8, names=("Aria", "HueBridge"))
        batch = PacketBatch.from_packets(packets)
        seen = []
        for mac_value, indices in batch.device_runs():
            assert (np.diff(indices) > 0).all() or len(indices) == 1
            assert (batch.src_macs[indices] == mac_value).all()
            seen.extend(int(i) for i in indices)
        assert sorted(seen) == list(range(len(batch)))

    def test_iter_packet_batches_rejects_bad_size(self):
        with pytest.raises(SimulationError):
            list(iter_packet_batches(SimulatedSource(devices=1, seed=0), 0))


# --------------------------------------------------------------------- #
# Assembler and pipeline: emission and verdict parity across paths.
# --------------------------------------------------------------------- #
def _emission_map(emissions):
    return {
        str(item.mac): (
            item.reason,
            item.completed_at,
            item.fingerprint.vectors.shape,
            item.fingerprint.vectors.tobytes(),
        )
        for item in emissions
    }


def _drive_per_packet(source):
    assembler = ShardedFingerprintAssembler(shards=4)
    emissions = [
        ready for packet in source.packets() if (ready := assembler.observe(packet))
    ]
    emissions.extend(assembler.flush(10_000.0))
    return emissions, assembler.stats


class TestBatchedAssembler:
    @pytest.mark.parametrize("batch_size", [1, 17, 100_000])
    def test_observe_batch_equals_per_packet_observe(self, batch_size):
        baseline, base_stats = _drive_per_packet(SimulatedSource(devices=12, seed=5))
        assembler = ShardedFingerprintAssembler(shards=4)
        emissions = []
        for batch in iter_packet_batches(SimulatedSource(devices=12, seed=5), batch_size):
            emissions.extend(assembler.observe_batch(batch))
        emissions.extend(assembler.flush(10_000.0))
        assert _emission_map(emissions) == _emission_map(baseline)
        assert assembler.stats == base_stats


class TestBatchedPipeline:
    @staticmethod
    def _verdicts(identifier, batch_size=None):
        delivered = []
        pipeline = StreamingPipeline(
            source=SimulatedSource(devices=12, seed=11),
            dispatcher=BatchDispatcher(
                identifier, max_batch=4, cache=IdentificationCache(capacity=64)
            ),
            assembler=ShardedFingerprintAssembler(shards=4),
            on_identified=delivered.append,
        )
        if batch_size is None:
            stats = pipeline.run()
        else:
            stats = pipeline.run_batched(batch_size=batch_size)
        return delivered, stats

    def test_batched_run_gives_every_device_the_same_verdict(self, trained_identifier):
        baseline, base_stats = self._verdicts(trained_identifier)
        expected = {
            str(item.mac): (
                item.result.device_type,
                item.result.matched_types,
                item.result.discrimination_scores,
                item.fingerprint.vectors.tobytes(),
            )
            for item in baseline
        }
        for batch_size in (1, 33, 100_000):
            delivered, stats = self._verdicts(trained_identifier, batch_size=batch_size)
            got = {
                str(item.mac): (
                    item.result.device_type,
                    item.result.matched_types,
                    item.result.discrimination_scores,
                    item.fingerprint.vectors.tobytes(),
                )
                for item in delivered
            }
            assert got == expected
            assert stats.packets == base_stats.packets
            assert stats.fingerprints == base_stats.fingerprints
            assert stats.identified == base_stats.identified

    def test_batched_and_scalar_distance_kernels_agree_end_to_end(
        self, small_dataset, trained_identifier
    ):
        """Whole verdict streams score exactly as the scalar dynamic
        program does over each verdict's recorded references."""
        probes = small_dataset.fingerprints[::3]
        checked = 0
        for probe, result in zip(probes, trained_identifier.identify_many(probes)):
            checked += assert_scores_match_scalar_oracle(trained_identifier, probe, result)
        assert checked > 0

# --------------------------------------------------------------------- #
# Fuzz: the struct-batched frame parser vs Packet.dissect on hostile
# input -- truncated, byte-flipped and garbage frames (the wire the
# scenario harness stresses must parse identically either way).
# --------------------------------------------------------------------- #
class TestFromFramesFuzz:
    ROUNDS = 4

    def _base_frames(self, seed):
        from repro.net.pcap import CapturedPacket

        packets = _setup_packets(seed=seed)
        return [
            CapturedPacket(packet.timestamp, packet.to_bytes(), 0)
            for packet in packets
        ]

    def _mutate(self, rng, frame):
        from repro.net.pcap import CapturedPacket

        data = bytearray(frame.data)
        choice = rng.randrange(5)
        if choice == 0:  # truncation anywhere, including sub-Ethernet
            data = data[: rng.randrange(len(data))]
        elif choice == 1:  # random byte flips in place
            for _ in range(rng.randrange(1, 8)):
                data[rng.randrange(len(data))] = rng.randrange(256)
        elif choice == 2:  # pure garbage (possibly empty)
            data = bytearray(rng.randbytes(rng.randrange(0, 80)))
        elif choice == 3:  # Ethernet header kept, upper layers cut short
            data = data[: rng.randrange(14, len(data) + 1)]
        else:  # trailing garbage appended
            data = data + bytearray(rng.randbytes(rng.randrange(1, 40)))
        return CapturedPacket(frame.timestamp, bytes(data), 0)

    def test_fast_parse_matches_full_dissect_on_mutated_frames(self):
        from repro.exceptions import PacketDecodeError
        from repro.net.packet import Packet

        rng = random.Random(20260808)
        for round_index in range(self.ROUNDS):
            frames = self._base_frames(seed=60 + round_index)
            mutants = [self._mutate(rng, frame) for frame in frames]
            parseable, rejected = [], []
            oracle_packets = []
            for frame in frames + mutants:
                try:
                    oracle_packets.append(
                        Packet.dissect(frame.data, timestamp=frame.timestamp)
                    )
                    parseable.append(frame)
                except PacketDecodeError:
                    rejected.append(frame)

            # Frames the full dissector rejects must not slip through the
            # fast path either (silently mis-parsed hostile frames would
            # poison fingerprints downstream).
            for frame in rejected:
                with pytest.raises(PacketDecodeError):
                    PacketBatch.from_frames([frame])

            batch = PacketBatch.from_frames(parseable)
            oracle = PacketBatch.from_packets(oracle_packets)
            assert len(batch) == len(parseable)
            np.testing.assert_array_equal(batch.flags, oracle.flags)
            np.testing.assert_array_equal(batch.src_macs, oracle.src_macs)
            np.testing.assert_array_equal(batch.src_ports, oracle.src_ports)
            np.testing.assert_array_equal(batch.dst_ports, oracle.dst_ports)
            np.testing.assert_array_equal(batch.sizes, oracle.sizes)
            np.testing.assert_array_equal(batch.timestamps, oracle.timestamps)
            assert batch.dst_ips == oracle.dst_ips
            np.testing.assert_array_equal(
                batch_feature_matrix(batch), batch_feature_matrix(oracle)
            )

    def test_truncated_ethernet_header_raises_like_dissect(self):
        from repro.exceptions import PacketDecodeError
        from repro.net.packet import Packet
        from repro.net.pcap import CapturedPacket

        for size in (0, 1, 7, 13):
            raw = bytes(range(size))
            with pytest.raises(PacketDecodeError):
                Packet.dissect(raw)
            with pytest.raises(PacketDecodeError):
                PacketBatch.from_frames([CapturedPacket(0.0, raw, 0)])
