"""Differential and property tests of the datapath against its oracles.

Every fast component has a scalar reference oracle kept in-tree, and this
file is the contract between them: the vectorised edit-distance kernel must
be bitwise-equal to the per-pair dynamic program, each item's
:func:`~repro.net.batch.stream_row` must carry exactly the row the
per-field extractor would have produced, the folding assembler must emit
the same fingerprints as per-packet observation, and the pipeline must hand
every device the same verdict as the per-packet oracle walk
(``tests.conftest.per_packet_run``) however it is driven.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.distance import damerau_levenshtein as dl_module
from repro.distance.damerau_levenshtein import (
    GLOBAL_INTERNER,
    UNSEEN_SYMBOL,
    SymbolInterner,
    damerau_levenshtein_pairs,
    normalized_pair_distances,
)
from repro.exceptions import FingerprintError, PacketDecodeError, PcapFormatError
from repro.features.fingerprint import fingerprint_key
from repro.features.packet_features import (
    FEATURE_COUNT,
    FEATURE_INDEX,
    INTEGER_FEATURES,
    unpack_rows,
)
from repro.net.addresses import MACAddress
from repro.net.batch import (
    _F_APP_NOT_DHCP,
    _F_EAPOL,
    _F_IP,
    KEY_LAYOUT,
    _packet_fields,
    stream_row,
    table_i_key,
)
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
from repro.net.layers.icmp import TYPE_ECHO_REQUEST, ICMPMessage
from repro.net.layers.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Header
from repro.net.layers.ipv6 import NEXT_HEADER_UDP, IPv6Header
from repro.net.layers.ntp import NTPMessage
from repro.net.layers.ssdp import SSDPMessage
from repro.net.layers.tcp import TCPSegment
from repro.net.layers.tls import TLSRecord
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net import batch as batch_module
from repro.net import pcap as pcap_module
from repro.net.pcap import CapturedPacket, PcapReader, PcapWriter, read_pcap, write_pcap
from repro.obs.hub import Observability
from repro.streaming import (
    BatchDispatcher,
    FingerprintAssembler,
    IdentificationCache,
    IterableSource,
    PcapReplaySource,
    SimulatedSource,
    StreamingPipeline,
)
from repro.streaming.assembler import RECENT_CAPTURES
from tests.conftest import (
    PerPacketAssembler,
    ScalarFeatureExtractor,
    assert_scores_match_scalar_oracle,
    damerau_levenshtein,
    fast_frame_fields,
    make_device_mac,
    make_udp_packet,
    normalized_damerau_levenshtein,
    numpy_feature_matrix,
    oracle_item_fields,
    oracle_stream_row,
    per_packet_run,
    rerun_stream,
    skewed,
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
        # references included: pairs finish at different steps.
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

    def test_both_orientations_in_one_batch_match_scalar(self):
        # Each pair steps over its shorter side, so one call mixes long
        # queries against short references (chatter captures against
        # setup references), the reverse, equal lengths and empty sides.
        # Unseen query symbols land on the column axis when the query is
        # the longer side and on the step axis when it is the shorter.
        rng = random.Random(2026)
        interner = SymbolInterner()
        alphabet = [f"s{index}" for index in range(5)]
        interner.encode(alphabet)
        unseen = [f"u{index}" for index in range(3)]

        def word(length, pool):
            return tuple(rng.choice(pool) for _ in range(length))

        shapes = [(200, 20), (20, 200), (150, 3), (3, 150), (22, 22), (0, 40), (40, 0), (0, 0)]
        shapes += [(rng.randrange(0, 60), rng.randrange(0, 60)) for _ in range(20)]
        rng.shuffle(shapes)
        raw_queries = [word(length, alphabet + unseen) for length, _ in shapes]
        raw_references = [word(length, alphabet) for _, length in shapes]
        queries = [interner.lookup(query) for query in raw_queries]
        references = [interner.encode(reference) for reference in raw_references]
        assert any(UNSEEN_SYMBOL in query for query in queries if len(query) == 200)
        got = damerau_levenshtein_pairs(queries, references)
        assert got.dtype == np.int64
        expected = [damerau_levenshtein(q, r) for q, r in zip(raw_queries, raw_references)]
        np.testing.assert_array_equal(got, expected)
        # Reversing every pair reads the same distances.
        np.testing.assert_array_equal(damerau_levenshtein_pairs(references, queries), expected)


# --------------------------------------------------------------------- #
# Distance layer: differential suite of the bit-parallel lanes.
# --------------------------------------------------------------------- #
#: Lengths that put a lane's top row, or a lane boundary, on either side
#: of a 64-bit word boundary of the packed integer.
_WORD_EDGES = (1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 300)
_LONG = st.one_of(st.integers(min_value=0, max_value=300), st.sampled_from(_WORD_EDGES))
_SHORT = st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from((63, 64, 65)))


@st.composite
def _pair_batches(draw):
    """Encoded (queries, references) over an alphabet of 1-3 symbols.

    Tiny alphabets make matches, runs and adjacent transpositions
    common.  Queries may carry ``UNSEEN_SYMBOL``; each pair's query is
    the longer or the shorter side at random, and empty sides mix with
    long ones in one batch.
    """
    alphabet = draw(st.integers(min_value=1, max_value=3))
    query_symbols = st.sampled_from((UNSEEN_SYMBOL, *range(alphabet)))
    reference_symbols = st.integers(min_value=0, max_value=alphabet - 1)
    queries, references = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        long_length, short_length = draw(_LONG), draw(_SHORT)
        query_length, reference_length = (
            (long_length, short_length) if draw(st.booleans()) else (short_length, long_length)
        )
        queries.append(draw(st.lists(query_symbols, min_size=query_length, max_size=query_length)))
        references.append(
            draw(st.lists(reference_symbols, min_size=reference_length, max_size=reference_length))
        )
    return queries, references


def _assert_kernel_matches_oracle(queries, references):
    encoded = [np.array(word, dtype=np.int64) for word in queries]
    encoded_references = [np.array(word, dtype=np.int64) for word in references]
    got = damerau_levenshtein_pairs(encoded, encoded_references)
    assert got.dtype == np.int64
    expected = [damerau_levenshtein(query, ref) for query, ref in zip(queries, references)]
    assert got.tolist() == expected
    # Either argument order: the query may sit on the lane or the step axis.
    assert damerau_levenshtein_pairs(encoded_references, encoded).tolist() == expected


class TestBitParallelKernel:
    @given(_pair_batches())
    @settings(max_examples=60, deadline=None)
    def test_batches_match_the_scalar_oracle(self, batch):
        _assert_kernel_matches_oracle(*batch)

    @given(_pair_batches(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_an_all_matching_longest_lane_keeps_its_carry(self, batch, position):
        # Equal one-symbol words: every step matches every row, so the
        # carry of (PM & VP) + VP runs through the whole lane.  As the
        # batch's longest lane it has one guard bit; a carry past it
        # would land in the neighbouring lane above.
        queries, references = batch
        longest = max(len(word) for word in queries + references) + 1
        position = min(position, len(queries))
        queries.insert(position, [0] * longest)
        references.insert(position, [0] * (longest - 1))
        _assert_kernel_matches_oracle(queries, references)

    def test_unseen_query_symbols_on_either_axis(self):
        unseen = UNSEEN_SYMBOL
        queries = [[0, unseen, 1, 0] * 20, [unseen, 1], [unseen] * 70, []]
        references = [[0, 1, 1, 0] * 5, [1, 0, 1] * 30, [0] * 3, [1] * 65]
        _assert_kernel_matches_oracle(queries, references)

    def test_match_masks_built_in_several_blocks(self, monkeypatch):
        # Huge batches build their match masks a block of steps at a time.
        rng = random.Random(3)
        queries = [[rng.randrange(3) for _ in range(rng.randrange(0, 90))] for _ in range(9)]
        references = [[rng.randrange(3) for _ in range(rng.randrange(0, 90))] for _ in range(9)]
        monkeypatch.setattr(dl_module, "_MATCH_BLOCK_CELLS", 500)
        _assert_kernel_matches_oracle(queries, references)


# --------------------------------------------------------------------- #
# Net layer: stream rows vs the per-packet parser and extractor.
# --------------------------------------------------------------------- #
def _setup_packets(seed: int = 21, names=("Aria", "HueBridge", "EdnetCam", "WeMoSwitch")):
    simulator = SetupTrafficSimulator(seed=seed)
    packets = []
    for index, name in enumerate(names):
        trace = simulator.simulate(DEVICE_CATALOG[name], start_time=index * 1.5)
        packets.extend(trace.packets)
    packets.sort(key=lambda packet: packet.timestamp)
    return packets


def _chunks(items, size):
    """``items`` cut into consecutive lists of ``size`` items."""
    items = list(items)
    return [items[start : start + size] for start in range(0, len(items), size)]


def _rows(items):
    """The Table-I rows the drive reads off ``items``, counter zeroed."""
    return unpack_rows([stream_row(item)[2] for item in items], 0)


def _fold_all(assembler, prepared):
    """Fold every prepared frame; the fingerprints the frames completed."""
    emitted = []
    while not prepared.done:
        emitted.extend(assembler.emit(assembler.observe_prepared(prepared)))
    return emitted


def _expected_columns(packets):
    """Per-packet oracle: one fresh scalar extractor per packet, counter zeroed."""
    extractor = ScalarFeatureExtractor()
    rows = []
    for packet in packets:
        extractor.reset()
        row = extractor.extract(packet)
        row[_COUNTER] = 0  # stateful column is the assembler's job
        rows.append(row)
    return np.stack(rows)


class TestStreamRows:
    def test_packets_match_per_packet_extractor(self):
        packets = _setup_packets()
        np.testing.assert_array_equal(_rows(packets), _expected_columns(packets))
        for packet in packets:
            timestamp, mac, _, dst_ip = stream_row(packet)
            _, _, _, src_port, dst_port, _, _ = oracle_item_fields(packet)
            assert dst_ip == packet.dst_ip
            assert mac == packet.ethernet.src.value
            assert timestamp == packet.timestamp
            assert src_port == (packet.src_port if packet.src_port is not None else -1)
            assert dst_port == (packet.dst_port if packet.dst_port is not None else -1)

    def test_pcap_frames_match_per_packet_dissection(self, tmp_path):
        """The byte-offset frame parser against Packet.dissect, via a real
        pcap round trip (LLC, EAPOL, ARP, options and DHCP frames all
        exercise the fast parser's fallback decisions)."""
        path = tmp_path / "setup.pcap"
        write_pcap(path, _setup_packets())
        frames = list(PcapReader(path))
        assert frames
        packets = read_pcap(path)
        assert [oracle_item_fields(frame) for frame in frames] == [
            oracle_item_fields(packet) for packet in packets
        ]
        assert [stream_row(frame) for frame in frames] == [
            stream_row(packet) for packet in packets
        ]
        # The frames the rows came from dissect back to the same bytes.
        first = frames[0]
        assert Packet.dissect(first.data, first.timestamp, first.original_length).to_bytes() == (
            first.data
        )

    def test_simulator_stream_rows_match_source_packets(self):
        packets = list(SimulatedSource(devices=6, seed=3).packets())
        prepared = FingerprintAssembler.prepare_items(
            SimulatedSource(devices=6, seed=3).packets()
        )
        rows = list(prepared.rows)
        assert len(rows) == len(packets)
        np.testing.assert_array_equal(
            unpack_rows([key for _, _, key, _ in rows], 0), _expected_columns(packets)
        )

    def test_empty_and_one_item_streams(self):
        packets = _setup_packets(seed=4, names=("Aria",))
        assembler = FingerprintAssembler()
        assert _fold_all(assembler, assembler.prepare_items([])) == []
        assert assembler.active_devices == 0 and assembler.stats.packets_observed == 0
        assert _rows([]).shape == (0, 23)

        np.testing.assert_array_equal(_rows(packets[:1]), _expected_columns(packets[:1]))
        # A one-frame stream folds into a one-row fingerprint: the scalar
        # row, with the first destination's counter.
        assert _fold_all(assembler, assembler.prepare_items(packets[:1])) == []
        (ready,) = assembler.flush(10_000.0)
        expected = ScalarFeatureExtractor().extract(packets[0])
        np.testing.assert_array_equal(ready.fingerprint.vectors, expected[None, :])

        frames = [CapturedPacket(p.timestamp, p.to_bytes(), p.wire_length) for p in packets]
        assert [oracle_item_fields(frame)[2] for frame in frames] == [
            oracle_item_fields(packet)[2] for packet in packets
        ]

    def test_device_runs_preserve_stream_order(self):
        """Each device's kept rows come out in its stream order, and devices
        open (hence flush) in order of first appearance."""
        packets = _setup_packets(seed=8, names=("Aria", "HueBridge"))
        macs = [stream_row(packet)[1] for packet in packets]
        assert sum(a != b for a, b in zip(macs, macs[1:])) > 2  # interleaved
        assembler = FingerprintAssembler(packet_budget=100_000)
        assert _fold_all(assembler, assembler.prepare_items(packets)) == []
        assert assembler.stats.packets_observed == len(packets)
        emitted = assembler.flush(10_000.0)
        oracle = PerPacketAssembler(packet_budget=100_000)
        for packet in packets:
            assert oracle.observe(packet) is None
        expected = oracle.flush(10_000.0)
        assert [item.mac.value for item in emitted] == list(dict.fromkeys(macs))
        assert _emission_map(emitted) == _emission_map(expected)


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
    assembler = PerPacketAssembler()
    emissions = [
        ready for packet in source.packets() if (ready := assembler.observe(packet))
    ]
    emissions.extend(assembler.flush(10_000.0))
    return emissions, assembler.stats


def _packed(rows):
    """Oracle packer: each row's columns shifted to their ``KEY_LAYOUT`` place."""
    weights = np.array([1 << shift if mask else 0 for shift, mask in KEY_LAYOUT], dtype=np.int64)
    return rows @ weights


class TestPackedRows:
    """The assembler keys each row's 22 stateless columns as one integer;
    the packing must lose nothing, or Eq. (1) would drop distinct rows."""

    @staticmethod
    def _extreme_rows():
        binary = [
            index for index, name in enumerate(FEATURE_INDEX) if name not in INTEGER_FEATURES
        ]
        assert len(binary) == 19
        size = FEATURE_INDEX["packet_size"]
        ports = [FEATURE_INDEX["src_port_class"], FEATURE_INDEX["dst_port_class"]]
        rows = []
        for packet_size in (0, 1, 2**31, 2**32 - 1):
            for flags in [[], binary] + [[index] for index in binary]:
                for classes in ((0, 0), (3, 0), (0, 3), (3, 3), (1, 2)):
                    row = np.zeros(FEATURE_COUNT, dtype=np.int64)
                    row[flags] = 1
                    row[size] = packet_size
                    row[ports] = classes
                    rows.append(row)
        return np.stack(rows)

    def test_extreme_rows_round_trip(self):
        rows = self._extreme_rows()
        keys = _packed(rows)
        # Distinct rows, distinct keys; none overflows into the sign bit.
        assert len(set(keys.tolist())) == len(rows) == len(np.unique(rows, axis=0))
        assert int(keys.min()) >= 0
        counters = np.arange(len(rows)) % 7
        expected = rows.copy()
        expected[:, FEATURE_INDEX["dst_ip_counter"]] = counters
        restored = unpack_rows(keys.tolist(), counters.tolist())
        assert restored.dtype == np.int64
        np.testing.assert_array_equal(restored, expected)

    def test_kernel_rows_round_trip(self):
        packets = _setup_packets()
        keys = [stream_row(packet)[2] for packet in packets]
        rows = _expected_columns(packets)
        assert keys == _packed(rows).tolist()
        zeros = np.zeros(len(rows), dtype=np.int64)
        np.testing.assert_array_equal(unpack_rows(keys, zeros), rows)
        assert unpack_rows([], []).shape == (0, FEATURE_COUNT)


#: Ports at every port-class threshold, "no port", and every named port.
_KEY_PORTS = (-1, 0, 1023, 1024, 49151, 49152, 65535, 53, 67, 68, 80, 123, 443, 1900, 5353, 8080, 8443)


def _oracle_rows(rows):
    """The vectorised oracle's rows of ``(flags, src_port, dst_port, size)`` rows."""
    return numpy_feature_matrix(*zip(*rows))


def _unpacked(keys):
    return unpack_rows(list(keys), 0)


class TestTableIKey:
    """The scalar packer against the vectorised oracle of
    ``tests.conftest.numpy_feature_matrix``."""

    def test_every_flag_word_matches_the_oracle(self):
        rows = [
            (flags, src_port, dst_port, size)
            for flags in range(1 << 12)
            for src_port, dst_port, size in ((-1, -1, 0), (67, 5353, 2**32 - 1), (49152, 443, 1))
        ]
        expected = _oracle_rows(rows)
        np.testing.assert_array_equal(_unpacked(table_i_key(*row) for row in rows), expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 12) - 1),
                st.sampled_from(_KEY_PORTS),
                st.sampled_from(_KEY_PORTS),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_rows_match_the_oracle(self, rows):
        expected = _oracle_rows(rows)
        np.testing.assert_array_equal(_unpacked(table_i_key(*row) for row in rows), expected)

    def test_every_port_pair_named_or_at_a_threshold(self):
        rows = [
            (flags, src_port, dst_port, 60)
            for flags in (_F_IP | 1 << 6, _F_IP | 1 << 7, _F_IP | 1 << 7 | _F_APP_NOT_DHCP, 0)
            for src_port in _KEY_PORTS
            for dst_port in _KEY_PORTS
        ]
        expected = _oracle_rows(rows)
        np.testing.assert_array_equal(_unpacked(table_i_key(*row) for row in rows), expected)

    def test_layout_packs_each_column_apart(self):
        """Every packed column has its own bits: the masks never overlap
        and nothing reaches the int64 sign bit."""
        assert len(KEY_LAYOUT) == FEATURE_COUNT
        used = 0
        for shift, mask in KEY_LAYOUT:
            assert used & (mask << shift) == 0
            used |= mask << shift
        assert used < 2**63

    def test_every_frame_of_a_simulator_capture(self, tmp_path):
        """Each captured frame's key, as the streaming drive reads it, is the
        oracle's row and the per-field extractor's."""
        path = tmp_path / "catalog.pcap"
        packets = _setup_packets(seed=9, names=tuple(sorted(DEVICE_CATALOG))[:12])
        write_pcap(path, packets)
        frames = list(PcapReader(path))
        rows = [stream_row(frame) for frame in frames]
        fields = [oracle_item_fields(frame) for frame in frames]
        assert [row[0] for row in rows] == [field[0] for field in fields]
        assert [row[1] for row in rows] == [field[1] for field in fields]
        assert [row[3] for row in rows] == [field[6] for field in fields]
        keys = _unpacked(row[2] for row in rows)
        np.testing.assert_array_equal(keys, _oracle_rows([field[2:6] for field in fields]))
        np.testing.assert_array_equal(keys, _expected_columns(read_pcap(path)))
        # The frames dissected into packets give the same rows.
        assert [stream_row(packet) for packet in read_pcap(path)] == rows


class TestFoldingAssembler:
    @pytest.mark.parametrize("chunk", [1, 17, 100_000])
    def test_prepared_items_equal_per_packet_observe(self, chunk):
        """The fold carries its state from one prepared stream to the next:
        the stream cut into ``chunk``-item pieces folds like the oracle."""
        baseline, base_stats = _drive_per_packet(SimulatedSource(devices=12, seed=5))
        assembler = FingerprintAssembler()
        emissions = []
        for items in _chunks(SimulatedSource(devices=12, seed=5).packets(), chunk):
            emissions.extend(_fold_all(assembler, assembler.prepare_items(items)))
        emissions.extend(assembler.flush(10_000.0))
        assert _emission_map(emissions) == _emission_map(baseline)
        assert assembler.stats == base_stats


    def test_a_clone_capture_shares_the_earlier_matrix(self):
        """Two devices running the same setup emit equal fingerprints; the
        second shares the first one's matrix, which nothing may write,
        while a different setup gets its own."""
        assembler = FingerprintAssembler(packet_budget=3)
        first, clone, other = (make_device_mac(index) for index in (1, 2, 3))
        setups = ((first, 0.0, (53, 80, 123)), (clone, 1.0, (53, 80, 123)), (other, 2.0, (53, 123, 80)))
        packets = [
            _chatter_packet(mac, start + step * 0.1, port=port)
            for mac, start, ports in setups
            for step, port in enumerate(ports)
        ]
        ready = _fold_all(assembler, assembler.prepare_items(packets))
        assert [(item.mac, item.reason) for item in ready] == [
            (first, "budget"), (clone, "budget"), (other, "budget")
        ]
        a, b, c = (item.fingerprint for item in ready)
        assert b.vectors is a.vectors and b == a
        assert (a.device_mac, b.device_mac) == (str(first), str(clone))
        assert c.vectors is not a.vectors and fingerprint_key(c) != fingerprint_key(a)
        with pytest.raises(ValueError, match="read-only"):
            a.vectors[0, 0] = 1

    def test_equal_keys_to_other_destinations_are_not_shared(self):
        """Equal packed keys with another destination-counter sequence are
        a different capture."""
        assembler = FingerprintAssembler(packet_budget=3)
        packets = []
        for index, destinations in enumerate((("10.0.0.1", "10.0.0.2", "10.0.0.1"),
                                              ("10.0.0.1", "10.0.0.2", "10.0.0.3"))):
            for step, dst_ip in enumerate(destinations):
                packet = make_udp_packet(
                    make_device_mac(index + 1), MACAddress.broadcast(), "192.168.0.50", dst_ip
                )
                packet.timestamp = index + step * 0.1
                packets.append(packet)
        a, b = (
            item.fingerprint
            for item in _fold_all(assembler, assembler.prepare_items(packets))
        )
        assert b.vectors is not a.vectors
        assert a.vectors[:, _COUNTER].tolist() == [1, 2, 1]
        assert b.vectors[:, _COUNTER].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("others", [RECENT_CAPTURES - 1, RECENT_CAPTURES])
    def test_only_recent_captures_are_shared(self, others):
        """A capture is shared while fewer than ``RECENT_CAPTURES`` other
        setups ended after the last capture with its rows."""
        assembler = FingerprintAssembler(packet_budget=1)
        # One-frame captures, told apart by their packet size (payloads
        # past the Ethernet minimum frame).
        sizes = [64, *range(65, others + 65), 64]
        packets = []
        for index, size in enumerate(sizes):
            packet = make_udp_packet(
                make_device_mac(index + 1), MACAddress.broadcast(), "192.168.0.50",
                "192.168.0.1", payload=bytes(size),
            )
            packet.timestamp = float(index)
            packets.append(packet)
        ready = _fold_all(assembler, assembler.prepare_items(packets))
        assert len(ready) == len(sizes)
        first, last = ready[0].fingerprint, ready[-1].fingerprint
        assert last == first
        assert (last.vectors is first.vectors) is (others < RECENT_CAPTURES)


def _chatter_packet(mac, timestamp, port=53):
    packet = make_udp_packet(
        mac, MACAddress.broadcast(), "192.168.0.50", "192.168.0.1", dst_port=port
    )
    packet.timestamp = timestamp
    return packet


class TestIdleSweep:
    """``evict_idle`` ends the captures whose device has been quiet for
    more than ``idle_timeout``, once every frame before the sweep is
    folded: oldest capture first, at most ``limit`` of them, and the rest
    stay for the next sweep."""

    @staticmethod
    def _fold(assembler, packets):
        assert _fold_all(assembler, assembler.prepare_items(packets)) == []

    def test_exactly_idle_timeout_of_silence_does_not_evict(self):
        for now, expected in ((25.0, False), (25.000001, True)):
            assembler = FingerprintAssembler(idle_timeout=15.0)
            mac = make_device_mac(1)
            self._fold(assembler, [_chatter_packet(mac, 10.0)])
            evicted = assembler.evict_idle(now)
            assert [item.mac for item in evicted] == ([mac] if expected else [])
            assert assembler.is_assembling(mac) is not expected

    def test_a_folded_frame_refreshes_a_stale_capture(self):
        assembler = FingerprintAssembler(idle_timeout=15.0)
        mac = make_device_mac(1)
        self._fold(assembler, [_chatter_packet(mac, 0.0), _chatter_packet(mac, 1.0)])
        # Quiet for 19 s at the sweep, had the last two frames not arrived.
        self._fold(assembler, [_chatter_packet(mac, 2.0), _chatter_packet(mac, 9.0, port=80)])
        assert assembler.evict_idle(20.0) == []
        (ready,) = assembler.evict_idle(24.5)
        assert (ready.reason, ready.completed_at, ready.packet_count) == ("idle", 24.5, 2)

    def test_talking_devices_never_count_against_the_limit(self):
        """Stale captures interleaved with talking ones: a sweep limited to
        the stale count ends exactly the stale ones, oldest first."""
        macs = [make_device_mac(index) for index in (7, 2, 9, 4, 1, 8)]
        stale, talking = macs[::2], macs[1::2]
        assembler = FingerprintAssembler(idle_timeout=15.0)
        self._fold(
            assembler,
            [_chatter_packet(mac, 0.1 * index) for index, mac in enumerate(macs)]
            + [_chatter_packet(mac, 20.0) for mac in talking],
        )
        evicted = [item.mac for item in assembler.evict_idle(30.0, limit=len(stale))]
        assert evicted == stale
        assert list(assembler) == talking

    def test_the_limit_leaves_the_rest_to_the_next_sweep(self):
        """Ten devices go quiet together: sweeps of limit 4 end them four,
        four and two at a time, in the order their captures opened --
        which a capture the idle rule cut and re-opened joins at the end."""
        macs = [make_device_mac(index) for index in (12, 3, 17, 5, 9, 1, 14, 6, 11, 2)]
        assembler = FingerprintAssembler(min_packets=1, idle_timeout=15.0)
        self._fold(
            assembler,
            [
                _chatter_packet(mac, 0.1 * index + step)
                for step in (0, 1)
                for index, mac in enumerate(macs)
            ],
        )
        # The first device's capture is cut by its own silence and opens
        # again: now the youngest capture.
        first = _chatter_packet(macs[0], 40.0)
        assert [item.mac for item in _fold_all(assembler, assembler.prepare_items([first]))] == [
            macs[0]
        ]
        order = [*macs[1:], macs[0]]
        swept = [
            [item.mac for item in assembler.evict_idle(now, limit=4)]
            for now in (60.0, 61.0, 62.0, 63.0)
        ]
        assert swept == [order[:4], order[4:8], order[8:], []]
        assert assembler.active_devices == 0

    def test_the_pipeline_sweep_hands_over_at_most_the_batch_room(self, trained_identifier):
        """The drive's sweep ends at most ``max(1, max_batch - queued -
        completed)`` captures: a fleet that goes quiet together leaves over
        successive sweeps, oldest capture first, and the queue is never
        handed a second batch in one window."""
        # Eleven devices fall quiet at 2 s, three more at 5 s.
        quiet = [
            make_device_mac(index) for index in (12, 3, 17, 5, 9, 1, 14, 6, 11, 2, 8, 4, 7, 15)
        ]
        ticker = make_device_mac(40)
        packets = sorted(
            [_chatter_packet(mac, 0.05 * index) for index, mac in enumerate(quiet)]
            + [
                _chatter_packet(mac, (2.0 if index < 11 else 5.0) + 0.05 * index, port=80)
                for index, mac in enumerate(quiet)
            ]
            + [_chatter_packet(ticker, 0.3 * step, port=53 + step % 3) for step in range(100)],
            key=lambda packet: packet.timestamp,
        )
        pipeline = StreamingPipeline(
            source=IterableSource(packets),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=4),
            assembler=FingerprintAssembler(packet_budget=100_000),
        )
        sweeps = []  # (room, captures ended)
        sweep_if_due = pipeline._sweep_if_due

        def recorded(now, completed):
            room = pipeline.dispatcher.max_batch - len(pipeline.dispatcher.queue) - len(completed)
            before = len(completed)
            sweep_if_due(now, completed)
            sweeps.append((room, [item.mac for item in completed[before:]]))

        pipeline._sweep_if_due = recorded
        pipeline.run()
        assert all(len(ended) <= max(1, room) for room, ended in sweeps)
        evicting = [(room, ended) for room, ended in sweeps if ended]
        assert [mac for _, ended in evicting for mac in ended] == quiet
        assert len(evicting) >= 3
        # A sweep whose room the queue had narrowed.
        assert any(room < 4 and ended for room, ended in evicting)

def _window_ends(pipeline):
    """Record where ``pipeline`` ends its windows: the stream position
    (frames consumed) of every ``poll``, which each window end makes once."""
    ends = []
    poll = pipeline.dispatcher.poll

    def recorded(now):
        ends.append(pipeline.stats.packets)
        return poll(now)

    pipeline.dispatcher.poll = recorded
    return ends


def _acting_frames(pipeline):
    """Record the frames where the per-packet walk of ``pipeline`` acts:
    a capture completes or is evicted (a submit), or the linger deadline
    passes (a poll that identifies).  Submits of the end-of-stream flush
    are not frames."""
    acting = set()
    finishing = []
    submit = pipeline.dispatcher.submit
    poll = pipeline.dispatcher.poll
    flush = pipeline.assembler.flush

    def recorded_submit(ready):
        if not finishing:
            acting.add(pipeline.stats.packets)
        return submit(ready)

    def recorded_poll(now):
        identified = poll(now)
        if identified:
            acting.add(pipeline.stats.packets)
        return identified

    def recorded_flush(now=0.0):
        finishing.append(now)
        return flush(now)

    pipeline.dispatcher.submit = recorded_submit
    pipeline.dispatcher.poll = recorded_poll
    pipeline.assembler.flush = recorded_flush
    return acting


class TestPipelineDrive:
    @staticmethod
    def _verdicts(identifier, drive):
        """Delivered verdicts of the oracle walk (``"oracle"``), ``run()``
        (``"run"``) or ``results()`` consumed to the end (``"results"``)."""
        delivered = []
        pipeline = StreamingPipeline(
            source=SimulatedSource(devices=12, seed=11),
            dispatcher=BatchDispatcher(
                identifier, max_batch=4, cache=IdentificationCache(capacity=64)
            ),
            assembler=(PerPacketAssembler if drive == "oracle" else FingerprintAssembler)(),
            on_identified=delivered.append,
        )
        if drive == "oracle":
            stats = per_packet_run(pipeline)
        elif drive == "run":
            stats = pipeline.run()
        else:
            yielded = list(pipeline.results())
            assert [id(item) for item in yielded] == [id(item) for item in delivered]
            stats = pipeline.stats
        return delivered, stats

    def test_every_drive_gives_every_device_the_same_verdict(self, trained_identifier):
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

        baseline, base_stats = self._verdicts(trained_identifier, "oracle")
        for drive in ("run", "results"):
            delivered, stats = self._verdicts(trained_identifier, drive)
            # Same verdicts in the same delivery order, however driven.
            assert signature(delivered) == signature(baseline)
            assert stats.packets == base_stats.packets
            assert stats.fingerprints == base_stats.fingerprints
            assert stats.identified == base_stats.identified

    @staticmethod
    def _pipeline(identifier, packets, knobs, assembler=FingerprintAssembler):
        return StreamingPipeline(
            source=IterableSource(packets),
            dispatcher=BatchDispatcher(identifier, max_batch=4),
            assembler=assembler(**knobs),
        )

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"packet_budget": 8, "idle_timeout": 3.0}],
        ids=["defaults", "short-captures"],
    )
    def test_windows_end_exactly_where_the_per_packet_walk_acts(self, trained_identifier, knobs):
        """A window ends at a frame that completes a capture, where the due
        sweep evicts one, or where the linger deadline passes -- the frames
        where the per-packet walk submits or identifies -- and nowhere
        else, whether the stream is driven by ``run()`` or consumed through
        ``results()``."""
        packets = skewed(rerun_stream(seed=5), seed=5)
        oracle = self._pipeline(trained_identifier, packets, knobs, PerPacketAssembler)
        acting = _acting_frames(oracle)
        per_packet_run(oracle)
        assert len(acting) > 20

        driven = self._pipeline(trained_identifier, packets, knobs)
        ends = _window_ends(driven)
        driven.run()
        assert ends == sorted(acting)

        streamed = self._pipeline(trained_identifier, packets, knobs)
        ends = _window_ends(streamed)
        assert len(list(streamed.results())) == streamed.stats.identified
        assert ends == sorted(acting)

    def test_an_empty_stream_changes_nothing(self, trained_identifier):
        """No frame, no step: even with the eviction deadline long past,
        an empty stream runs no sweep, counts no packet and times nothing."""
        hub = Observability()
        pipeline = StreamingPipeline(
            source=IterableSource([]),
            dispatcher=BatchDispatcher(trained_identifier, observability=hub),
        )
        pipeline.clock.advance(100.0)
        sweeps = []
        evict_idle = pipeline.assembler.evict_idle

        def recorded(now, limit=None):
            sweeps.append(now)
            return evict_idle(now, limit)

        pipeline.assembler.evict_idle = recorded
        assert list(pipeline.results()) == []
        assert sweeps == [] and pipeline.stats.packets == 0
        assert pipeline.stats.assemble_seconds == 0.0
        snapshot = hub.snapshot()
        for stage in ("parse", "assemble", "score"):
            assert snapshot[f"pipeline.{stage}_batch_seconds.count"] == 0, stage

    def test_a_completing_frame_ends_its_window_at_once(self, trained_identifier):
        """Every capture a frame completes is submitted at the window that
        ends on that frame, stamped with that frame's stream time: the
        drive never holds a completing frame back behind later ones."""
        packets = rerun_stream(seed=5)
        pipeline = self._pipeline(trained_identifier, packets, {})
        ends = _window_ends(pipeline)
        submitted = []
        submit = pipeline.dispatcher.submit

        def recorded_submit(ready):
            submitted.append((ready.reason, ready.completed_at, pipeline.stats.packets))
            return submit(ready)

        pipeline.dispatcher.submit = recorded_submit
        stats = pipeline.run()
        streamed = [item for item in submitted if item[0] != "flush"]
        assert {"budget", "idle"} <= {reason for reason, _, _ in streamed}
        stream_time = list(itertools.accumulate(
            (packet.timestamp for packet in packets), max
        ))
        for _, completed_at, position in streamed:
            assert position in ends
            assert completed_at == stream_time[position - 1]
        assert len(ends) < stats.packets

    def test_only_an_evicting_sweep_ends_a_window_in_quiet_stream_seconds(
        self, trained_identifier
    ):
        """Six devices talk steadily for 200 stream-seconds, then fall
        silent one by one while a seventh talks on: an eviction deadline
        passes every stream-second, but the due sweep can evict nothing
        until a device has been quiet for ``idle_timeout``.  No capture
        ends otherwise (the budget is out of reach, no gap is idle, and
        ``max_batch=1`` leaves nothing to linger), so windows end exactly
        at the sweeps that evict a capture, and at no other due sweep."""
        macs = [make_device_mac(index) for index in range(1, 8)]
        packets = [
            _chatter_packet(mac, step * 0.25 + index * 0.01, port=53 + step % 3)
            for step in range(1600)
            for index, mac in enumerate(macs)
            if index == 6 or step * 0.25 < 200.0 + 20.0 * index
        ]
        pipeline = StreamingPipeline(
            source=IterableSource(packets),
            dispatcher=BatchDispatcher(trained_identifier, max_batch=1),
            assembler=FingerprintAssembler(packet_budget=100_000),
        )
        ends = _window_ends(pipeline)
        sweeps = []  # (stream position, captures evicted)
        evict_idle = pipeline.assembler.evict_idle

        def recorded_sweep(now, limit=None):
            ready = evict_idle(now, limit)
            sweeps.append((pipeline.stats.packets, len(ready)))
            return ready

        pipeline.assembler.evict_idle = recorded_sweep
        stats = pipeline.run()
        assert stats.fingerprints == len(macs)
        assert pipeline.assembler.stats.idle_emissions == len(macs) - 1
        assert ends == [position for position, evicted in sweeps if evicted]
        assert len(ends) == len(macs) - 1
        assert sum(not evicted for _, evicted in sweeps) > 300

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
                    stream_row(frame)

            assert [oracle_item_fields(frame) for frame in parseable] == [
                oracle_item_fields(packet) for packet in oracle_packets
            ]
            assert [stream_row(frame) for frame in parseable] == [
                stream_row(packet) for packet in oracle_packets
            ]

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
        fields = oracle_item_fields(CapturedPacket(1.5, data, original))
        assert fields[5] == original
        assert fields == oracle_item_fields(expected)

    def test_truncated_ethernet_header_raises_like_dissect(self):
        from repro.exceptions import PacketDecodeError
        from repro.net.packet import Packet
        from repro.net.pcap import CapturedPacket

        for size in (0, 1, 7, 13):
            raw = bytes(range(size))
            with pytest.raises(PacketDecodeError):
                Packet.dissect(raw)
            with pytest.raises(PacketDecodeError):
                stream_row(CapturedPacket(0.0, raw, 0))


# --------------------------------------------------------------------- #
# Fast frame parser boundaries: BOOTP-port UDP and EAPoL frames parse
# from byte offsets, and must read exactly what Packet.dissect reads.
# --------------------------------------------------------------------- #
def _fast_and_dissected(frame):
    """(oracle fast-path fields, dissector fields) of one frame, sizes
    dropped; the block pass must give the frame the oracle's row."""
    flags, src_port, dst_port, _size, dst_ip = _packet_fields(Packet.dissect(frame))
    captured = CapturedPacket(0.0, frame, 0)
    assert stream_row(captured) == oracle_stream_row(captured)
    return fast_frame_fields(frame), (flags, src_port, dst_port, dst_ip)


def _dissected_by_block_pass(monkeypatch, frame):
    """Whether the block pass hands ``frame`` to :meth:`Packet.dissect`; the
    frame's row must be the oracle's (or both must reject it) either way."""
    dissected = _count_dissections(monkeypatch)
    captured = CapturedPacket(0.0, frame, 0)
    try:
        expected = oracle_stream_row(captured)
    except PacketDecodeError:
        with pytest.raises(PacketDecodeError):
            stream_row(captured)
    else:
        assert stream_row(captured) == expected
    return bool(dissected)


def _ipv4_frame(transport):
    """An Ethernet/IPv4 frame of one kind of transport, without IP options."""
    layers = {
        "udp": {"udp": UDPDatagram(5353, 5353, payload=b"\x00" * 12)},
        "tcp": {"tcp": TCPSegment(51000, 443, payload=b"hello")},
        "icmp": {"icmp": ICMPMessage(TYPE_ECHO_REQUEST, payload=b"ping")},
        "raw": {"payload": b"\x11" * 8},
    }[transport]
    protocol = {"udp": PROTO_UDP, "tcp": PROTO_TCP, "icmp": 1, "raw": 2}[transport]
    return Packet(
        ethernet=EthernetFrame(MACAddress(2), MACAddress(1), ETHERTYPE.IPV4),
        ipv4=IPv4Header("10.0.0.2", "224.0.0.22", protocol),
        **layers,
    ).to_bytes()


def _with_ipv4_options(frame, options):
    """``frame`` with ``options`` (a multiple of 4 bytes) after its IPv4 header."""
    assert len(options) % 4 == 0 and frame[14] == 0x45
    head = bytearray(frame[:34])
    head[14] = 0x40 | (5 + len(options) // 4)
    head[16:18] = (((frame[16] << 8) | frame[17]) + len(options)).to_bytes(2, "big")
    return bytes(head) + options + frame[34:]


def _ipv6_frame(next_header):
    """An Ethernet/IPv6 frame whose header names ``next_header``, with a UDP body."""
    udp = UDPDatagram(5353, 5353, payload=b"\x00" * 12).to_bytes()
    ipv6 = IPv6Header("fe80::2", "ff02::16", next_header).to_bytes(udp)
    return EthernetFrame(MACAddress(1), MACAddress(2), ETHERTYPE.IPV6).to_bytes() + ipv6


def _with_hop_by_hop(frame, inner, body):
    """``frame`` with a hop-by-hop header (``body`` after its two-byte prefix)
    between the IPv6 header and the transport, which ``inner`` names."""
    assert (len(body) + 2) % 8 == 0
    head = bytearray(frame[:54])
    head[20] = 0
    header = bytes([inner, (len(body) + 2) // 8 - 1]) + body
    return bytes(head) + header + frame[54:]


def _bootp_payload(length, hlen=6, cookie=dhcp_mod.MAGIC_COOKIE):
    """``length`` bytes of a BOOTP message with ``cookie`` after the fixed part."""
    payload = bytearray(max(length, dhcp_mod.FIXED_LEN + len(cookie)))
    payload[0:3] = bytes([dhcp_mod.OP_REQUEST, 1, hlen])
    payload[dhcp_mod.FIXED_LEN : dhcp_mod.FIXED_LEN + len(cookie)] = cookie
    return bytes(payload[:length])


def _with_udp_length(frame, udp_length):
    """An Ethernet/IPv4/UDP frame with its UDP length field overwritten."""
    return frame[:38] + udp_length.to_bytes(2, "big") + frame[40:]


def _eapol_frame(length_field, body_len, padding):
    header = EthernetFrame(MACAddress(2), MACAddress(1), ETHERTYPE.EAPOL).to_bytes()
    eapol = bytes([2, 3]) + length_field.to_bytes(2, "big") + bytes(range(body_len))
    return header + eapol + b"\x00" * padding


class TestFastFrameParser:
    def test_bootp_frames_match_dissect_at_every_boundary(self):
        discover = dhcp_mod.discover(MACAddress(1)).to_bytes()
        flipped = bytes([dhcp_mod.MAGIC_COOKIE[0] ^ 1]) + dhcp_mod.MAGIC_COOKIE[1:]
        payloads = {
            "235": _bootp_payload(235, cookie=b""),
            "236": _bootp_payload(236, cookie=b""),
            "239-cookie-prefix": _bootp_payload(239),
            "240-cookie": _bootp_payload(240),
            "240-no-cookie": _bootp_payload(240, cookie=b"\x01\x02\x03\x04"),
            "240-flipped-cookie": _bootp_payload(240, cookie=flipped),
            "hlen-16": _bootp_payload(240, hlen=16, cookie=b""),
            "dhcp-discover": discover,
            # The cookie parses but an option is cut short: DHCP fails
            # and the next parsers in the chain get the payload.
            "truncated-option": _bootp_payload(240) + bytes([dhcp_mod.OPTION_HOSTNAME, 9, 1]),
            "empty": b"",
        }
        frames = {}
        for name, payload in payloads.items():
            for src_port, dst_port in ((68, 67), (67, 68), (67, 53), (53, 67), (40000, 68)):
                frames[name, src_port, dst_port] = _transport_frame(src_port, dst_port, payload)
        # A UDP length that clamps the payload below the cookie: the
        # bytes past the datagram must not read as a cookie.
        full = _transport_frame(68, 67, _bootp_payload(240))
        for kept in (235, 236, 239, 240):
            frames["udp-clamp", kept] = _with_udp_length(full, 8 + kept)
        # Bytes past the IPv4 total length (Ethernet trailer) likewise.
        frames["ip-trailer"] = _transport_frame(68, 67, _bootp_payload(236)) + dhcp_mod.MAGIC_COOKIE
        frames["ipv6"] = Packet(
            ethernet=EthernetFrame(MACAddress(2), MACAddress(1), ETHERTYPE.IPV6),
            ipv6=IPv6Header("fe80::2", "fe80::1", NEXT_HEADER_UDP),
            udp=UDPDatagram(68, 67, payload=_bootp_payload(236)),
        ).to_bytes()

        seen_not_dhcp = set()
        for key, frame in frames.items():
            fast, expected = _fast_and_dissected(frame)
            assert fast == expected, key
            if fast[0] & _F_APP_NOT_DHCP:
                seen_not_dhcp.add(key[0] if isinstance(key, tuple) else key)
        assert seen_not_dhcp == {
            "236",
            "239-cookie-prefix",
            "240-no-cookie",
            "240-flipped-cookie",
            "udp-clamp",
            "ip-trailer",
            "ipv6",
        }

    def test_tcp_on_bootp_ports_still_falls_back(self, monkeypatch):
        frame = _transport_frame(68, 67, _bootp_payload(236), tcp=True)
        assert fast_frame_fields(frame) is None
        assert oracle_item_fields(CapturedPacket(0.0, frame, 0))[2] == (
            _packet_fields(Packet.dissect(frame))[0]
        )
        # The block pass reads TCP on any port without the dissector.
        assert not _dissected_by_block_pass(monkeypatch, frame)

    @pytest.mark.parametrize(
        "length_field, body_len, padding",
        [
            (95, 95, 0),  # body fills the frame exactly
            (95, 95, 1),  # one trailing byte after the body
            (95, 95, 7),  # trailing padding after the body
            (0, 0, 42),  # empty body, minimum-size frame
            (500, 95, 0),  # length field runs past the frame
            (500, 16, 0),  # ... on a frame just at the 34-byte fast-path minimum
            (4, 4, 12),  # short body, Ethernet padding behind it
        ],
    )
    def test_eapol_frames_match_dissect(self, length_field, body_len, padding):
        frame = _eapol_frame(length_field, body_len, padding)
        fast, expected = _fast_and_dissected(frame)
        assert fast == expected
        assert fast[0] & _F_EAPOL

    def test_eapol_runt_falls_back_and_matches(self, monkeypatch):
        frame = _eapol_frame(4, 4, 0)
        assert len(frame) < 34
        assert fast_frame_fields(frame) is None
        flags = oracle_item_fields(CapturedPacket(0.0, frame, 0))[2]
        assert flags == _packet_fields(Packet.dissect(frame))[0]
        # The block pass needs only the 4-byte EAPoL header.
        assert not _dissected_by_block_pass(monkeypatch, frame)

    @pytest.mark.parametrize(
        "options",
        [
            bytes([148, 4, 0, 0]),  # router alert, as IGMP sends it
            bytes([1, 1, 1, 1]),  # No-Operation padding
            bytes([148, 4, 0, 0, 1, 0, 0, 0]),  # router alert, NOP, End-of-List
            bytes([7, 4, 1, 2]),  # record-route-like option filling the list exactly
            bytes([0, 255, 255, 255]),  # End-of-List first: the rest is never read
            bytes([7, 8, 0, 0, 0, 0, 0, 0]) + bytes([148, 4, 0, 0]) * 8,  # 40-byte list
        ],
    )
    @pytest.mark.parametrize("transport", ["udp", "tcp", "icmp", "raw"])
    def test_ipv4_option_lists_take_the_fast_path(self, options, transport):
        frame = _with_ipv4_options(_ipv4_frame(transport), options)
        fast, expected = _fast_and_dissected(frame)
        assert fast is not None
        assert fast == expected
        assert fast[0] & _F_IP

    @pytest.mark.parametrize(
        "options",
        [
            bytes([7, 1, 0, 0]),  # length below 2
            bytes([7, 9, 0, 0]),  # length past the list
            bytes([1, 1, 1, 7]),  # length byte missing
            bytes([148, 4, 0, 0, 7, 0, 0, 0]),  # a valid option, then a bad one
        ],
    )
    def test_malformed_ipv4_option_lists_fall_back(self, monkeypatch, options):
        frame = _with_ipv4_options(_ipv4_frame("udp"), options)
        assert fast_frame_fields(frame) is None
        flags = oracle_item_fields(CapturedPacket(0.0, frame, 0))[2]
        assert flags == _packet_fields(Packet.dissect(frame))[0]
        assert _dissected_by_block_pass(monkeypatch, frame)

    def test_ipv4_header_lengths_the_dissector_rejects_fall_back(self, monkeypatch):
        for frame in _bad_version_ihl_frames():
            assert fast_frame_fields(frame) is None, hex(frame[14])
            assert _dissected_by_block_pass(monkeypatch, frame), hex(frame[14])

    @pytest.mark.parametrize(
        "body",
        [
            bytes([5, 2, 0, 0, 1, 0]),  # router alert + PadN, as MLD sends it
            bytes([0] * 6),  # Pad1 only
            bytes([1, 4, 0, 0, 0, 0]),  # one PadN
            bytes([0x3E, 4, 1, 2, 3, 4]),  # an option nobody reads
            bytes([5, 2, 0, 0, 0x3E, 9]),  # a length running past the header ends the walk
            bytes([5, 2, 0, 0, 1, 8]) + bytes(8),  # a 16-byte header
        ],
    )
    @pytest.mark.parametrize("inner", [17, 58, 0, 59])
    def test_ipv6_hop_by_hop_headers_take_the_fast_path(self, body, inner):
        frame = _with_hop_by_hop(_ipv6_frame(inner), inner, body)
        fast, expected = _fast_and_dissected(frame)
        assert fast is not None
        assert fast == expected

    def test_truncated_hop_by_hop_headers_fall_back(self, monkeypatch):
        frame = _with_hop_by_hop(_ipv6_frame(17), 17, bytes([5, 2, 0, 0, 1, 0]))
        longer = bytearray(frame)
        longer[55] = 30  # the header claims 248 bytes
        for cut in (frame[:54], frame[:58], frame[:61], bytes(longer)):  # 54-61: below 8 bytes
            assert fast_frame_fields(cut) is None, len(cut)
            assert _dissected_by_block_pass(monkeypatch, cut), len(cut)

    def test_llc_frames_stay_on_the_dissector(self, monkeypatch):
        frame = _llc_frame()
        assert Packet.dissect(frame).llc is not None
        assert fast_frame_fields(frame) is None
        assert _dissected_by_block_pass(monkeypatch, frame)

    @settings(max_examples=300, deadline=None)
    @given(
        options=st.lists(st.integers(0, 255), min_size=1, max_size=40),
        transport=st.sampled_from(["udp", "tcp", "icmp", "raw"]),
        total_delta=st.integers(-8, 8),
    )
    def test_random_ipv4_option_lists_match_dissect(self, options, transport, total_delta):
        raw = bytes(options) + bytes(-len(options) % 4)
        frame = bytearray(_with_ipv4_options(_ipv4_frame(transport), raw))
        total = ((frame[16] << 8) | frame[17]) + total_delta
        frame[16:18] = max(0, total).to_bytes(2, "big")
        fast, expected = _fast_and_dissected(bytes(frame))
        assert fast is None or fast == expected

    @settings(max_examples=300, deadline=None)
    @given(
        body=st.lists(st.integers(0, 255), min_size=0, max_size=30),
        inner=st.sampled_from([17, 6, 58, 0, 59]),
        cut=st.integers(0, 16),
    )
    def test_random_hop_by_hop_headers_match_dissect(self, body, inner, cut):
        raw = bytes(body) + bytes(-(len(body) + 2) % 8)
        frame = _with_hop_by_hop(_ipv6_frame(inner), inner, raw)
        frame = frame[: len(frame) - cut] if cut else frame
        fast, expected = _fast_and_dissected(frame)
        assert fast is None or fast == expected

    def test_catalog_option_frames_take_the_fast_path(self):
        options = 0
        for frame in _catalog_frames():
            packet = Packet.dissect(frame)
            ipv4_options = packet.ipv4 is not None and packet.ipv4.options
            hop_by_hop = packet.ipv6 is not None and packet.ipv6.hop_by_hop_options
            if not (ipv4_options or hop_by_hop):
                continue
            options += 1
            fast, expected = _fast_and_dissected(frame)
            assert fast is not None, packet.summary()
            assert fast == expected
        assert options > 0

    def test_catalog_dhcp_and_eapol_frames_take_the_fast_path(self):
        dhcp = eapol = 0
        for frame in _catalog_frames():
            packet = Packet.dissect(frame)
            if packet.eapol is not None:
                eapol += 1
            elif isinstance(packet.application, DHCPMessage):
                dhcp += 1
            else:
                continue
            fast, expected = _fast_and_dissected(frame)
            assert fast is not None, packet.summary()
            assert fast == expected
        assert dhcp > 0 and eapol > 0


# --------------------------------------------------------------------- #
# The block pass: every frame of a pcap read block, parsed in one numpy
# pass, must carry exactly the row the per-frame oracle gives it, and
# only LLC and malformed frames may reach the dissector.
# --------------------------------------------------------------------- #
_RECORD_GAP = bytes([0xA5]) * 16  # stands where a record header would


def _block_rows(frames, original_lengths=None, gap=_RECORD_GAP):
    """The block pass's rows of ``frames``, laid out as one read block."""
    data, starts, stops = b"", [], []
    for frame in frames:
        data += gap
        starts.append(len(data))
        data += frame
        stops.append(len(data))
    originals = original_lengths or [0] * len(frames)
    return list(
        batch_module._frame_rows(
            data,
            np.array(starts, np.int64),
            np.array(stops, np.int64),
            [0.5 * index for index in range(len(frames))],
            np.array(originals, np.int64),
        )
    )


def _oracle_block_rows(frames, original_lengths=None):
    """The oracle's row of each frame; ``None`` where the dissector rejects it."""
    rows = []
    for index, frame in enumerate(frames):
        original = original_lengths[index] if original_lengths else 0
        try:
            rows.append(oracle_stream_row(CapturedPacket(0.5 * index, frame, original)))
        except PacketDecodeError:
            rows.append(None)
    return rows


def _count_dissections(monkeypatch):
    """The frames the block pass hands to the dissector, as they go."""
    dissected = []
    dissected_fields = batch_module._dissected_fields

    def counted(data, original_length):
        dissected.append(data)
        return dissected_fields(data, original_length)

    monkeypatch.setattr(batch_module, "_dissected_fields", counted)
    return dissected


def _llc_or_malformed(frame):
    """Whether :meth:`Packet.dissect` reads ``frame`` as LLC, rejects it, or
    gives up on one of its layers (keeping the bytes as raw payload)."""
    try:
        packet = Packet.dissect(frame)
    except PacketDecodeError:
        return True
    ethernet = packet.ethernet
    if ethernet.is_llc:
        return True
    network = {
        ETHERTYPE.IPV4: packet.ipv4,
        ETHERTYPE.IPV6: packet.ipv6,
        ETHERTYPE.ARP: packet.arp,
        ETHERTYPE.EAPOL: packet.eapol,
    }
    if ethernet.ethertype in network and network[ethernet.ethertype] is None:
        return True
    if packet.ipv4 is not None:
        protocol, transports = packet.ipv4.protocol, {1: packet.icmp}
    elif packet.ipv6 is not None:
        protocol, transports = packet.ipv6.next_header, {58: packet.icmpv6}
    else:
        return False
    transports.update({6: packet.tcp, 17: packet.udp})
    return protocol in transports and transports[protocol] is None


def _llc_frame():
    return EthernetFrame(MACAddress(2), MACAddress(1), 40).to_bytes() + bytes(
        [0x42, 0x42, 0x03]
    ) + bytes(43)


def _bad_version_ihl_frames():
    """IPv4/UDP frames whose version/IHL byte the dissector rejects: IHL 4
    and 0, a 60-byte header past the frame's end, and version 6."""
    frame = bytearray(_ipv4_frame("udp"))
    frames = []
    for version_ihl in (0x44, 0x40, 0x4F, 0x65):
        frame[14] = version_ihl
        frames.append(bytes(frame[:60]))
    return frames


@functools.lru_cache(maxsize=None)
def _every_frame_kind():
    """Frames of every kind the parse meets, well-formed and not."""
    arp = Packet.dissect(
        bytes.fromhex(
            "ffffffffffff" "020000000001" "0806" "0001" "0800" "06" "04" "0001"
            "020000000001" "c0a80002" "000000000000" "c0a80001"
        )
    ).to_bytes()
    bad_arp = bytearray(arp)
    bad_arp[18] = 8
    flipped = bytes([dhcp_mod.MAGIC_COOKIE[0] ^ 1]) + dhcp_mod.MAGIC_COOKIE[1:]
    bootp = [
        _bootp_payload(235, cookie=b""),
        _bootp_payload(236, cookie=b""),
        _bootp_payload(239),
        _bootp_payload(240),
        _bootp_payload(240, cookie=flipped),
        _bootp_payload(240, hlen=16, cookie=b""),
        dhcp_mod.discover(MACAddress(1)).to_bytes(),
        b"",
    ]
    frames = [arp, bytes(bad_arp), arp[:41], arp + bytes(18)]
    for payload in bootp:
        for ports in ((68, 67), (67, 68), (53, 67), (40000, 68)):
            frames.append(_transport_frame(*ports, payload))  # BOOTP, with and without cookie
            frames.append(_transport_frame(*ports, payload, tcp=True))  # TCP on BOOTP ports
    full = _transport_frame(68, 67, _bootp_payload(240))
    frames += [_with_udp_length(full, 8 + kept) for kept in (0, 3, 235, 236, 239, 240, 900)]
    frames.append(_with_udp_length(full, 7))
    for eapol in ((95, 95, 0), (95, 95, 7), (0, 0, 42), (500, 16, 0), (4, 4, 0)):
        frames.append(_eapol_frame(*eapol))
    frames += [_eapol_frame(0, 0, 0)[:cut] for cut in (14, 17, 18)]
    for transport in ("udp", "tcp", "icmp", "raw"):
        frame = _ipv4_frame(transport)
        frames += [frame, frame[:37], frame[:41]]
        for options in (
            bytes([148, 4, 0, 0]),
            bytes([1, 1, 1, 1]),
            bytes([0, 255, 255, 255]),
            bytes([7, 1, 0, 0]),
            bytes([148, 4, 0, 0, 7, 0, 0, 0]),
        ):
            frames.append(_with_ipv4_options(frame, options))
    for inner in (17, 6, 58, 0, 59, 1):
        frame = _ipv6_frame(inner)
        frames += [frame, frame[:55], frame[:57]]
        for body in (bytes([5, 2, 0, 0, 1, 0]), bytes(6), bytes([5, 2, 0, 0, 0x3E, 9])):
            with_hop = _with_hop_by_hop(frame, inner, body)
            frames += [with_hop, with_hop[:61]]
        longer = bytearray(_with_hop_by_hop(frame, inner, bytes(6)))
        longer[55] = 30  # the header claims 248 bytes
        frames.append(bytes(longer))
    frames += _bad_version_ihl_frames()
    frames += [_llc_frame(), _llc_frame()[:16]]
    unknown = EthernetFrame(MACAddress(2), MACAddress(1), 0x88CC).to_bytes()
    frames += [unknown, unknown + b"\x01", unknown + bytes(50)]
    frames += [bytes(range(size)) for size in (0, 1, 13, 14, 20, 33)]  # runts
    return tuple(frames)


class TestBlockPass:
    def test_every_frame_kind_matches_the_oracle(self, monkeypatch):
        frames = list(_every_frame_kind())
        dissected = _count_dissections(monkeypatch)
        assert _block_rows(frames) == _oracle_block_rows(frames)
        assert dissected == [frame for frame in frames if _llc_or_malformed(frame)]

    def test_each_frame_alone_is_a_block_of_one(self):
        for frame in _every_frame_kind():
            captured = CapturedPacket(2.5, frame, 0)
            try:
                expected = oracle_stream_row(captured)
            except PacketDecodeError:
                with pytest.raises(PacketDecodeError):
                    stream_row(captured)
                continue
            assert stream_row(captured) == expected, frame.hex()

    def test_catalog_frames_other_than_llc_take_the_vector_path(self, monkeypatch):
        frames = list(_catalog_frames())
        dissected = _count_dissections(monkeypatch)
        assert _block_rows(frames, gap=b"") == _oracle_block_rows(frames)
        assert dissected and all(Packet.dissect(frame).llc is not None for frame in dissected)

    def test_original_lengths_set_the_size(self):
        frames = list(_every_frame_kind())
        originals = [0 if index % 3 else len(frame) + index for index, frame in enumerate(frames)]
        assert _block_rows(frames, originals) == _oracle_block_rows(frames, originals)

    @pytest.mark.parametrize("block", [64, 100, 257, 1 << 16])
    def test_records_across_block_edges_and_longer_than_a_block(
        self, tmp_path, monkeypatch, block
    ):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
        frames = [frame for frame in _every_frame_kind() if len(frame) >= 14]
        frames.insert(7, _transport_frame(40000, 53, bytes(range(256)) * 12))  # > a block
        path = tmp_path / "kinds.pcap"
        with PcapWriter(path) as writer:
            for index, frame in enumerate(frames):
                writer.write(CapturedPacket(index * 0.25, frame, len(frame) + index % 2))
        replayed = list(PcapReplaySource(path).packets())
        read = list(PcapReader(path))
        assert [frame.data for frame in replayed] == frames
        assert replayed == read
        assert [frame.row for frame in replayed] == [oracle_stream_row(frame) for frame in read]
        assert [stream_row(frame) for frame in replayed] == [frame.row for frame in replayed]

    @pytest.mark.parametrize("block", [64, 300, 1 << 16])
    def test_a_cut_record_keeps_every_whole_frame_before_it(
        self, tmp_path, monkeypatch, trained_identifier, block
    ):
        """A capture cut inside its last record: the whole frames before the
        cut are folded and counted, and the flush is stamped at the last
        whole frame, wherever the read blocks end."""
        monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
        path = tmp_path / "cut.pcap"
        write_pcap(path, SimulatedSource(devices=3, seed=4).packets())
        frames = list(PcapReader(path))
        path.write_bytes(path.read_bytes()[:-5])
        pipeline = StreamingPipeline(
            source=PcapReplaySource(path), dispatcher=BatchDispatcher(trained_identifier)
        )
        flushed = []
        submit = pipeline.dispatcher.submit

        def recorded_submit(ready):
            if ready.reason == "flush":
                flushed.append(ready.completed_at)
            return submit(ready)

        pipeline.dispatcher.submit = recorded_submit
        with pytest.raises(PcapFormatError, match="truncated pcap record body"):
            pipeline.run()
        assert pipeline.stats.packets == len(frames) - 1
        assert pipeline.assembler.stats.packets_observed == len(frames) - 1
        stream_time = max(frame.timestamp for frame in frames[:-1])
        assert pipeline.clock.now() == stream_time
        assert flushed and all(completed_at == stream_time for completed_at in flushed)

    def test_a_malformed_frame_raises_when_it_is_handed_over(self, tmp_path):
        path = tmp_path / "runt.pcap"
        frames = [_ipv4_frame("udp"), bytes([1]) * 9, _ipv4_frame("tcp")]
        with PcapWriter(path) as writer:
            for index, frame in enumerate(frames):
                writer.write(frame, timestamp=float(index))
        items = PcapReplaySource(path).packets()
        assert stream_row(next(items)) == oracle_stream_row(CapturedPacket(0.0, frames[0]))
        with pytest.raises(PacketDecodeError):
            stream_row(next(items))
        assert stream_row(next(items)) == oracle_stream_row(CapturedPacket(2.0, frames[2]))

    def test_table_i_over_arrays_matches_table_i_key(self):
        ports = sorted({*_NAMED_PORTS, -1, 0, 1, 1023, 1024, 40000, 49151, 49152, 65535})
        pairs = list(itertools.product(ports, ports))
        src = np.array([pair[0] for pair in pairs])
        dst = np.array([pair[1] for pair in pairs])
        sizes = np.arange(len(pairs)) * 977
        for flags in range(1 << 12):
            expected = [
                table_i_key(flags, *pair, size) for pair, size in zip(pairs, sizes.tolist())
            ]
            keys = batch_module._table_i_keys(np.full(len(pairs), flags), src, dst, sizes)
            assert keys.tolist() == expected, flags


    def test_table_i_over_arrays_on_random_rows_from_fresh_tables(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_PORT_TABLES", batch_module._PortTables())
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = 300
            flags = rng.integers(0, 1 << 12, rows)
            src = rng.choice([*_NAMED_PORTS, -1, *rng.integers(0, 1 << 16, 40)], rows)
            dst = rng.choice([*_NAMED_PORTS, -1, *rng.integers(0, 1 << 16, 40)], rows)
            sizes = rng.integers(0, 1 << 32, rows)
            keys = batch_module._table_i_keys(flags, src, dst, sizes)
            assert keys.tolist() == [
                table_i_key(*row) for row in zip(*(a.tolist() for a in (flags, src, dst, sizes)))
            ]

    def test_token_table_starts_over_when_full(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_TOKEN_ENTRIES", 4)
        tokens = batch_module._IPv4Tokens()
        for addresses in ([-1, 0x0A000001, 0x0A000002], [0xC0A80001, -1, 0x0A000001], [7, 7]):
            expected = [
                None if address < 0 else ".".join(str(address >> s & 0xFF) for s in (24, 16, 8, 0))
                for address in addresses
            ]
            assert tokens(np.array(addresses)) == expected
        assert len(tokens.addresses) <= 4


class TestCarryingRows:
    """Frames handed over without a row (an :class:`IterableSource` over
    frames, training captures) are parsed a run at a time."""

    def test_runs_of_frames_carry_the_oracle_rows(self, monkeypatch):
        monkeypatch.setattr(batch_module, "READ_BLOCK", 300)  # runs of a few frames
        frames = [
            CapturedPacket(0.5 * index, frame, len(frame) + index % 3 if index % 2 else 0)
            for index, frame in enumerate(_every_frame_kind())
        ]
        packets = _setup_packets()[:5]
        items = frames[:40] + packets[:2] + frames[40:] + packets[2:]
        handed = list(IterableSource(items).packets())
        assert handed == items
        for item, original in zip(handed, items):
            if isinstance(original, Packet):
                assert item is original
                continue
            try:
                expected = oracle_stream_row(original)
            except PacketDecodeError:
                assert item.row is None
                with pytest.raises(PacketDecodeError):
                    stream_row(item)
                continue
            assert item.row == expected

    def test_frames_that_carry_a_row_pass_as_they_are(self, tmp_path):
        path = tmp_path / "kinds.pcap"
        write_pcap(path, [CapturedPacket(0.0, frame) for frame in _every_frame_kind()[:30]])
        replayed = list(PcapReplaySource(path).packets())
        handed = list(IterableSource(replayed).packets())
        assert all(item is frame for item, frame in zip(handed, replayed))

    def test_frames_before_a_raise_are_handed_over_first(self):
        frames = [CapturedPacket(float(index), _ipv4_frame("udp")) for index in range(3)]

        def cut():
            yield from frames
            raise PcapFormatError("truncated pcap record body")

        items = IterableSource(cut()).packets()
        assert [stream_row(next(items)) for _ in frames] == [
            oracle_stream_row(frame) for frame in frames
        ]
        with pytest.raises(PcapFormatError):
            next(items)


def _mutated_frame(frame, cut, flips, extra):
    data = bytearray(frame[: max(0, len(frame) - cut)])
    for index, value in flips:
        if data:
            data[index % len(data)] = value
    return bytes(data) + extra


_random_frames = st.one_of(
    st.builds(
        _mutated_frame,
        st.sampled_from(_catalog_frames() + _every_frame_kind()),
        st.integers(0, 60),
        st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=3),
        st.binary(max_size=8),
    ),
    st.binary(min_size=14, max_size=90),
)


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(_random_frames, min_size=1, max_size=12),
    extra=st.lists(st.integers(0, 64), min_size=12, max_size=12),
    gap=st.binary(max_size=20),
)
def test_random_blocks_match_the_oracle(frames, extra, gap):
    originals = [len(frame) + more if more % 2 else 0 for frame, more in zip(frames, extra)]
    assert _block_rows(frames, originals, gap) == _oracle_block_rows(frames, originals)
