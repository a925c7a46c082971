"""Differential and property tests of the columnar (batch-first) datapath.

Every batch component has a scalar reference oracle kept in-tree, and this
file is the contract between them: the vectorised edit-distance kernel must
be bitwise-equal to the per-pair dynamic program, a :class:`PacketBatch`
must carry exactly the columns the per-packet parser would have produced,
the batched assembler must emit the same fingerprints as per-packet
observation, and the columnar pipeline must hand every device the same
verdict as the per-packet oracle walk (``tests.conftest.per_packet_run``)
whatever the batch boundaries.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.distance.damerau_levenshtein import (
    GLOBAL_INTERNER,
    UNSEEN_SYMBOL,
    SymbolInterner,
    damerau_levenshtein_pairs,
    normalized_pair_distances,
)
from repro.exceptions import FingerprintError, PacketDecodeError
from repro.features.packet_features import (
    FEATURE_INDEX,
    PacketFeatureExtractor,
    batch_feature_matrix,
)
from repro.net.addresses import MACAddress
from repro.net.batch import PacketBatch
from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import http as http_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tls as tls_mod
from repro.net.layers.dhcp import DHCPMessage
from repro.net.layers.dns import DNSMessage
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.http import HTTPMessage
from repro.net.layers.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Header
from repro.net.layers.ntp import NTPMessage
from repro.net.layers.ssdp import SSDPMessage
from repro.net.layers.tcp import TCPSegment
from repro.net.layers.tls import TLSRecord
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket, PcapReader, read_pcap, write_pcap
from repro.streaming import (
    BatchDispatcher,
    IdentificationCache,
    IterableSource,
    ShardedFingerprintAssembler,
    SimulatedSource,
    StreamingPipeline,
)
from tests.conftest import (
    PerPacketAssembler,
    assert_scores_match_scalar_oracle,
    damerau_levenshtein,
    normalized_damerau_levenshtein,
    per_packet_run,
    rerun_stream,
)

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
def _cross_pairs(queries, references):
    """Every (query, reference) combination as two aligned, encoded lists."""
    encoded_queries = [GLOBAL_INTERNER.encode(query) for query in queries]
    encoded_refs = [GLOBAL_INTERNER.encode(ref) for ref in references]
    return (
        [query for query in encoded_queries for _ in encoded_refs],
        [ref for _ in encoded_queries for ref in encoded_refs],
    )


class TestBatchDistanceKernel:
    def test_matrix_matches_scalar_on_random_words(self):
        rng = random.Random(1234)
        queries = _random_words(rng, 40)
        references = _random_words(rng, 25)
        got = damerau_levenshtein_pairs(*_cross_pairs(queries, references))
        expected = np.array(
            [damerau_levenshtein(query, ref) for query in queries for ref in references],
            dtype=np.int64,
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_ragged_pairs_match_scalar(self):
        # Mixed query lengths in one call, empty queries and empty
        # references included: rows leave the stacked DP at different steps.
        rng = random.Random(7)
        for _ in range(60):
            count = rng.randrange(1, 14)
            queries = _random_words(rng, count, max_len=12)
            references = _random_words(rng, count, max_len=12)
            got = damerau_levenshtein_pairs(
                [GLOBAL_INTERNER.encode(query) for query in queries],
                [GLOBAL_INTERNER.encode(ref) for ref in references],
            )
            expected = [damerau_levenshtein(q, r) for q, r in zip(queries, references)]
            np.testing.assert_array_equal(got, expected)

    def test_normalized_is_bitwise_equal_to_scalar(self):
        rng = random.Random(99)
        queries = _random_words(rng, 20)
        references = [word for word in _random_words(rng, 20) if word]
        got = normalized_pair_distances(*_cross_pairs(queries, references))
        expected = [
            normalized_damerau_levenshtein(query, ref) for query in queries for ref in references
        ]
        # Same division of the same two machine numbers: `==`, not approx
        # -- bitwise float parity is the whole point.
        assert got.tolist() == expected

    def test_empty_sequence_contract_matches_scalar(self):
        word = GLOBAL_INTERNER.encode(("a", "b"))
        empty = GLOBAL_INTERNER.encode(())
        # One empty side: distance is the other side's length, norm is 1.0.
        np.testing.assert_array_equal(
            damerau_levenshtein_pairs([word, empty], [empty, word]), np.array([2, 2])
        )
        assert normalized_pair_distances([word], [empty]).tolist() == [1.0]
        assert normalized_pair_distances([empty], [word]).tolist() == [1.0]
        # Both sides empty: the scalar function raises, so must the batch,
        # even when the two-empty pair hides among valid ones.
        with pytest.raises(FingerprintError):
            normalized_damerau_levenshtein((), ())
        with pytest.raises(FingerprintError):
            normalized_pair_distances([empty, word, empty], [word, word, empty])

    def test_reference_set_edges(self):
        word = GLOBAL_INTERNER.encode(("x", "y", "z"))
        assert damerau_levenshtein_pairs([], []).shape == (0,)
        empties = [GLOBAL_INTERNER.encode(()) for _ in range(3)]
        np.testing.assert_array_equal(
            damerau_levenshtein_pairs([word] * 3, empties), np.full(3, 3)
        )
        with pytest.raises(ValueError):
            damerau_levenshtein_pairs([word], [])

    def test_lookup_only_queries_keep_distances_exact(self):
        interner = SymbolInterner()
        reference = interner.encode(("a", "b", "c"))
        query = interner.lookup(("new", "b", "other", "a"))
        assert len(interner) == 3
        assert query.tolist() == [UNSEEN_SYMBOL, 1, UNSEEN_SYMBOL, 0]
        assert damerau_levenshtein_pairs([query], [reference]).tolist() == [
            damerau_levenshtein(("new", "b", "other", "a"), ("a", "b", "c"))
        ]


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


def _batches(items, size):
    """``items`` cut into consecutive PacketBatches of ``size`` items."""
    items = list(items)
    return [PacketBatch.from_items(items[start : start + size]) for start in range(0, len(items), size)]


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
        batch = PacketBatch.from_items(packets)
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
        from_frames = PacketBatch.from_items(frames)
        from_packets = PacketBatch.from_items(read_pcap(path))
        np.testing.assert_array_equal(from_frames.flags, from_packets.flags)
        np.testing.assert_array_equal(from_frames.src_macs, from_packets.src_macs)
        np.testing.assert_array_equal(from_frames.src_ports, from_packets.src_ports)
        np.testing.assert_array_equal(from_frames.dst_ports, from_packets.dst_ports)
        np.testing.assert_array_equal(from_frames.sizes, from_packets.sizes)
        np.testing.assert_array_equal(from_frames.timestamps, from_packets.timestamps)
        assert from_frames.dst_ips == from_packets.dst_ips
        # The frames the columns came from dissect back to the same bytes.
        first = frames[0]
        assert Packet.dissect(first.data, first.timestamp, first.original_length).to_bytes() == (
            first.data
        )

    def test_simulator_stream_batches_match_source_packets(self):
        source = SimulatedSource(devices=6, seed=3)
        packets = list(source.packets())
        batches = _batches(SimulatedSource(devices=6, seed=3).packets(), 32)
        assert sum(len(batch) for batch in batches) == len(packets)
        stitched = np.concatenate([batch_feature_matrix(batch) for batch in batches])
        np.testing.assert_array_equal(stitched, _expected_columns(packets))

    def test_batch_size_edges(self):
        packets = _setup_packets(seed=4, names=("Aria",))
        empty = PacketBatch.from_items([])
        assert len(empty) == 0
        assert ShardedFingerprintAssembler().prepare_batch(empty).groups == []
        assert batch_feature_matrix(empty).shape == (0, 23)

        single = PacketBatch.from_items(packets[:1])
        assert len(single) == 1
        np.testing.assert_array_equal(
            batch_feature_matrix(single), _expected_columns(packets[:1])
        )

        whole = PacketBatch.from_items(packets)  # one max-size batch
        frames = [CapturedPacket(p.timestamp, p.to_bytes(), p.wire_length) for p in packets]
        np.testing.assert_array_equal(PacketBatch.from_items(frames).flags, whole.flags)

    def test_device_runs_preserve_stream_order(self):
        packets = _setup_packets(seed=8, names=("Aria", "HueBridge"))
        batch = PacketBatch.from_items(packets)
        seen = []
        firsts = []
        for mac, indices, _ in ShardedFingerprintAssembler().prepare_batch(batch).groups:
            assert (np.diff(indices) > 0).all() or len(indices) == 1
            assert (batch.src_macs[indices] == mac.value).all()
            firsts.append(indices[0])
            seen.extend(indices)
        # Devices are walked in order of first appearance.
        assert firsts == sorted(firsts)
        assert sorted(seen) == list(range(len(batch)))


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
    assembler = PerPacketAssembler(shards=4)
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
        for batch in _batches(SimulatedSource(devices=12, seed=5).packets(), batch_size):
            emissions.extend(assembler.observe_prepared(assembler.prepare_batch(batch), len(batch)))
        emissions.extend(assembler.flush(10_000.0))
        assert _emission_map(emissions) == _emission_map(baseline)
        assert assembler.stats == base_stats


class TestBatchedPipeline:
    @staticmethod
    def _verdicts(identifier, batch_size=None):
        """Delivered verdicts of the oracle walk (``batch_size`` of 0), the
        pipeline's own drive (None), or ``process_batch`` fed fixed-size
        batches."""
        delivered = []
        source = SimulatedSource(devices=12, seed=11)
        pipeline = StreamingPipeline(
            source=source,
            dispatcher=BatchDispatcher(
                identifier, max_batch=4, cache=IdentificationCache(capacity=64)
            ),
            assembler=(PerPacketAssembler if batch_size == 0 else ShardedFingerprintAssembler)(
                shards=4
            ),
            on_identified=delivered.append,
        )
        if batch_size == 0:
            stats = per_packet_run(pipeline)
        elif batch_size is None:
            stats = pipeline.run()
        else:
            for batch in _batches(source.packets(), batch_size):
                pipeline.process_batch(batch)
            pipeline.finish()
            stats = pipeline.stats
        return delivered, stats

    def test_batched_run_gives_every_device_the_same_verdict(self, trained_identifier):
        def signature(items):
            return [
                (
                    str(item.mac),
                    item.result.device_type,
                    item.result.matched_types,
                    item.result.discrimination_scores,
                    item.fingerprint.vectors.tobytes(),
                )
                for item in items
            ]

        baseline, base_stats = self._verdicts(trained_identifier, batch_size=0)
        for batch_size in (None, 1, 33, 100_000):
            delivered, stats = self._verdicts(trained_identifier, batch_size=batch_size)
            # Same verdicts in the same delivery order, batch boundaries
            # notwithstanding.
            assert signature(delivered) == signature(baseline)
            assert stats.packets == base_stats.packets
            assert stats.fingerprints == base_stats.fingerprints
            assert stats.identified == base_stats.identified

    def test_batches_are_handed_over_at_the_frame_that_can_yield_a_verdict(
        self, trained_identifier
    ):
        """Every capture completes on the last frame of its batch: the
        drive never holds a completing frame back behind later ones."""
        pipeline = StreamingPipeline(
            source=IterableSource(rerun_stream(seed=5)),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=4),
            assembler=ShardedFingerprintAssembler(shards=4),
        )
        batch_ends = []
        process_batch = pipeline.process_batch

        def recorded(batch):
            batch_ends.append(float(batch.timestamps[-1]))
            return process_batch(batch)

        submitted = []
        submit = pipeline.dispatcher.submit

        def recorded_submit(ready):
            submitted.append((ready.reason, ready.completed_at, batch_ends[-1]))
            return submit(ready)

        pipeline.process_batch = recorded
        pipeline.dispatcher.submit = recorded_submit
        stats = pipeline.run()
        streamed = [item for item in submitted if item[0] != "flush"]
        assert {"budget", "idle"} <= {reason for reason, _, _ in streamed}
        assert len(batch_ends) < stats.packets
        assert all(completed_at == end for _, completed_at, end in streamed)

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


def _set_based_application(src_port, dst_port, payload):
    """Oracle: the per-payload set-based parser choice the port table replaced."""
    ports = {src_port, dst_port}
    parsers = []
    if ports & {dhcp_mod.SERVER_PORT, dhcp_mod.CLIENT_PORT}:
        parsers.append(DHCPMessage.from_bytes)
    if ports & {dns_mod.PORT_DNS, dns_mod.PORT_MDNS}:
        parsers.append(DNSMessage.from_bytes)
    if ssdp_mod.PORT_SSDP in ports:
        parsers.append(SSDPMessage.from_bytes)
    if ntp_mod.PORT_NTP in ports:
        parsers.append(NTPMessage.from_bytes)
    if ports & {tls_mod.PORT_HTTPS, tls_mod.PORT_HTTPS_ALT}:
        parsers.append(TLSRecord.from_bytes)
    if ports & {http_mod.PORT_HTTP, http_mod.PORT_HTTP_ALT}:
        parsers.append(HTTPMessage.from_bytes)
    for parser in parsers + [HTTPMessage.from_bytes, TLSRecord.from_bytes]:
        try:
            return parser(payload)[0]
        except PacketDecodeError:
            continue
    return None


@functools.lru_cache(maxsize=None)
def _catalog_frames():
    """Every frame one setup run of each catalog device sends."""
    simulator = SetupTrafficSimulator(seed=5)
    return tuple(
        packet.to_bytes()
        for name in sorted(DEVICE_CATALOG)
        for packet in simulator.simulate(DEVICE_CATALOG[name]).packets
    )


@functools.lru_cache(maxsize=None)
def _catalog_payloads():
    """The distinct non-empty transport payloads of the catalog's frames."""
    payloads = {
        Packet.dissect(frame).transport_payload for frame in _catalog_frames()
    }
    payloads.discard(b"")
    return tuple(sorted(payloads))


def _transport_frame(src_port, dst_port, payload, tcp=False):
    """An Ethernet/IPv4 frame carrying ``payload`` in one TCP or UDP segment."""
    segment = (TCPSegment if tcp else UDPDatagram)(src_port, dst_port, payload=payload)
    return Packet(
        ethernet=EthernetFrame(MACAddress(2), MACAddress(1), ETHERTYPE.IPV4),
        ipv4=IPv4Header("10.0.0.2", "10.0.0.1", PROTO_TCP if tcp else PROTO_UDP),
        tcp=segment if tcp else None,
        udp=None if tcp else segment,
    ).to_bytes()


#: Every port the parser table names.
_NAMED_PORTS = (53, 67, 68, 80, 123, 443, 1900, 5353, 8080, 8443)
_APPLICATION_PORTS = st.one_of(
    st.sampled_from(_NAMED_PORTS), st.integers(min_value=0, max_value=65535)
)


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
                    PacketBatch.from_items([frame])

            batch = PacketBatch.from_items(parseable)
            oracle = PacketBatch.from_items(oracle_packets)
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

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.sampled_from(_catalog_payloads()),
        cut=st.integers(min_value=0, max_value=400),
        flips=st.lists(st.tuples(st.integers(0, 399), st.integers(0, 255)), max_size=3),
        src_port=_APPLICATION_PORTS,
        dst_port=_APPLICATION_PORTS,
        tcp=st.booleans(),
    )
    def test_application_matches_set_based_parser_choice(
        self, payload, cut, flips, src_port, dst_port, tcp
    ):
        mutant = bytearray(payload[: max(1, cut)])
        for index, value in flips:
            mutant[index % len(mutant)] = value
        mutant = bytes(mutant)
        packet = Packet.dissect(_transport_frame(src_port, dst_port, mutant, tcp))
        assert (packet.tcp if tcp else packet.udp).payload == mutant
        assert packet.application == _set_based_application(src_port, dst_port, mutant)

    def test_application_matches_set_based_choice_on_every_named_port_pair(self):
        ports = _NAMED_PORTS + (9999,)
        for payload in _catalog_payloads():
            for src_port in ports:
                for dst_port in ports:
                    packet = Packet.dissect(_transport_frame(src_port, dst_port, payload))
                    expected = _set_based_application(src_port, dst_port, payload)
                    assert packet.application == expected, (src_port, dst_port, payload)

    @settings(max_examples=100, deadline=None)
    @given(
        frame=st.sampled_from(_catalog_frames()),
        keep=st.integers(min_value=14, max_value=1600),
        extra=st.integers(min_value=0, max_value=64),
    )
    def test_wire_length_argument_matches_overriding_after_dissect(self, frame, keep, extra):
        # A snaplen-truncated capture: the record keeps ``keep`` bytes of a
        # frame that was ``len(frame) + extra`` bytes long on the wire.
        data, original = frame[:keep], len(frame) + extra
        expected = Packet.dissect(data, timestamp=1.5)
        expected.wire_length = original
        assert Packet.dissect(data, 1.5, original) == expected
        assert CapturedPacket(1.5, data, original).dissect() == expected
        batch = PacketBatch.from_items([CapturedPacket(1.5, data, original)])
        assert batch.sizes[0] == original
        dissected = PacketBatch.from_items([expected])
        np.testing.assert_array_equal(batch.flags, dissected.flags)
        np.testing.assert_array_equal(batch.sizes, dissected.sizes)

    def test_truncated_ethernet_header_raises_like_dissect(self):
        from repro.exceptions import PacketDecodeError
        from repro.net.packet import Packet
        from repro.net.pcap import CapturedPacket

        for size in (0, 1, 7, 13):
            raw = bytes(range(size))
            with pytest.raises(PacketDecodeError):
                Packet.dissect(raw)
            with pytest.raises(PacketDecodeError):
                PacketBatch.from_items([CapturedPacket(0.0, raw, 0)])
