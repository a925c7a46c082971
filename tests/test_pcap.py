"""Tests for pcap reading and writing."""

import struct

import pytest

from repro.exceptions import PcapFormatError
from repro.net.addresses import MACAddress
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_UDP
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net import pcap as pcap_module
from repro.net.pcap import (
    MAGIC_MICROSECONDS,
    CapturedPacket,
    MAGIC_NANOSECONDS,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)

SRC = MACAddress.from_string("02:00:00:00:00:01")
DST = MACAddress.from_string("02:00:00:00:00:02")


def _sample_packets(count: int = 3) -> list[Packet]:
    packets = []
    for index in range(count):
        packets.append(
            Packet(
                ethernet=EthernetFrame(dst=DST, src=SRC, ethertype=ETHERTYPE.IPV4),
                ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
                udp=UDPDatagram(src_port=1000 + index, dst_port=53, payload=b"q" * index),
                timestamp=1.0 + index * 0.25,
            )
        )
    return packets


class TestPcapRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "capture.pcap"
        written = write_pcap(path, _sample_packets())
        packets = read_pcap(path)
        assert written == 3
        assert len(packets) == 3
        assert [packet.src_port for packet in packets] == [1000, 1001, 1002]

    def test_timestamps_preserved(self, tmp_path):
        path = tmp_path / "capture.pcap"
        write_pcap(path, _sample_packets())
        packets = read_pcap(path)
        assert packets[0].timestamp == pytest.approx(1.0, abs=1e-5)
        assert packets[2].timestamp == pytest.approx(1.5, abs=1e-5)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert read_pcap(path) == []

    def test_writer_context_manager(self, tmp_path):
        path = tmp_path / "ctx.pcap"
        with PcapWriter(path) as writer:
            for packet in _sample_packets(2):
                writer.write(packet)
        assert len(read_pcap(path)) == 2

    def test_write_raw_bytes(self, tmp_path):
        path = tmp_path / "raw.pcap"
        frame = _sample_packets(1)[0].to_bytes()
        with PcapWriter(path) as writer:
            writer.write(frame, timestamp=7.0)
        captured = list(PcapReader(path))
        assert captured[0].data == frame
        assert captured[0].timestamp == pytest.approx(7.0, abs=1e-5)

    def test_snaplen_truncation_records_original_length(self, tmp_path):
        path = tmp_path / "snap.pcap"
        packet = _sample_packets(1)[0]
        with PcapWriter(path, snaplen=40) as writer:
            writer.write(packet)
        captured = list(PcapReader(path))
        assert len(captured[0].data) == 40
        assert captured[0].original_length == len(packet.to_bytes())
        assert captured[0].dissect().wire_length == len(packet.to_bytes())

    def test_original_lengths_round_trip(self, tmp_path):
        # A frame captured short keeps its wire length through a rewrite,
        # and so does a dissected packet's; bare bytes record their own.
        path = tmp_path / "lengths.pcap"
        arp = bytes.fromhex(
            "ffffffffffff" "020000000001" "0806" "0001" "0800" "06" "04" "0001"
            "020000000001" "c0a80002" "000000000000" "c0a80001"
        )
        packet = _sample_packets(1)[0]
        packet.wire_length = 1400
        with PcapWriter(path) as writer:
            writer.write(CapturedPacket(1.0, arp, original_length=1514))
            writer.write(CapturedPacket(2.0, arp))
            writer.write(packet)
            writer.write(arp, timestamp=3.0)
        frames = list(PcapReader(path))
        assert [frame.original_length for frame in frames] == [1514, len(arp), 1400, len(arp)]
        assert [frame.data for frame in frames] == [arp, arp, packet.to_bytes(), arp]
        assert read_pcap(path)[0].size == 1514

    def test_subsecond_rounding_carries_into_seconds(self, tmp_path):
        # 1.9999996 s rounds to 2 s; the microsecond field must stay < 10**6.
        path = tmp_path / "carry.pcap"
        with PcapWriter(path) as writer:
            writer.write(b"\x00" * 60, timestamp=1.9999996)
        seconds, microseconds = struct.unpack_from("<II", path.read_bytes(), 24)
        assert (seconds, microseconds) == (2, 0)
        assert next(iter(PcapReader(path))).timestamp == 2.0


class TestPcapErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_truncated_global_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        header = struct.pack("<IHHiIII", MAGIC_MICROSECONDS, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 0, 0, 100, 100) + b"\x00" * 10
        path.write_bytes(header + record)
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_unsupported_link_type(self, tmp_path):
        path = tmp_path / "wifi.pcap"
        header = struct.pack("<IHHiIII", MAGIC_MICROSECONDS, 2, 4, 0, 0, 65535, 105)
        path.write_bytes(header)
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_write_without_open(self, tmp_path):
        writer = PcapWriter(tmp_path / "x.pcap")
        with pytest.raises(PcapFormatError):
            writer.write(b"\x00")


def _raw_capture(records, endian="<", nanoseconds=False):
    """A classic pcap file's bytes holding ``(seconds, subseconds, data)`` records."""
    magic = MAGIC_NANOSECONDS if nanoseconds else MAGIC_MICROSECONDS
    out = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for seconds, subseconds, data in records:
        out += struct.pack(endian + "IIII", seconds, subseconds, len(data), len(data) + 4) + data
    return out


#: Record bodies of every length around the 16-byte record header.
_BODIES = [bytes([index]) * length for index, length in enumerate((0, 1, 15, 16, 17, 60, 300, 7))]
_RECORDS = [(index, 250_000 * index, body) for index, body in enumerate(_BODIES)]


class TestPcapBlocks:
    """Records are cut out of read blocks: wherever a block ends, each
    record reads whole and truncation reports what it always has."""

    BLOCKS = (1, 5, 16, 17, 33, 64, 1 << 16)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_records_read_whole_at_any_block_size(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
        path = tmp_path / "records.pcap"
        path.write_bytes(_raw_capture(_RECORDS))
        frames = list(PcapReader(path))
        assert [frame.data for frame in frames] == _BODIES
        assert [frame.original_length for frame in frames] == [len(b) + 4 for b in _BODIES]
        assert [frame.timestamp for frame in frames] == [i + 0.25 * i for i in range(len(_BODIES))]

    def test_a_record_longer_than_a_block_reads_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", 64)
        path = tmp_path / "long.pcap"
        body = bytes(range(256)) * 20
        path.write_bytes(_raw_capture([(1, 0, b"x" * 40), (2, 0, body), (3, 0, b"y")]))
        assert [frame.data for frame in PcapReader(path)] == [b"x" * 40, body, b"y"]

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kept", range(1, 16))
    def test_truncated_record_header_across_blocks(self, tmp_path, monkeypatch, block, kept):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
        whole = _raw_capture(_RECORDS[:3])
        path = tmp_path / "header.pcap"
        path.write_bytes(whole + struct.pack("<IIII", 9, 0, 8, 8)[:kept])
        with pytest.raises(PcapFormatError, match="^truncated pcap record header$"):
            list(PcapReader(path))

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("kept", (0, 1, 59))
    def test_truncated_record_body_across_blocks(self, tmp_path, monkeypatch, block, kept):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
        whole = _raw_capture(_RECORDS[:3])
        path = tmp_path / "body.pcap"
        path.write_bytes(whole + struct.pack("<IIII", 9, 0, 60, 60) + b"z" * kept)
        read = []
        with pytest.raises(PcapFormatError, match="^truncated pcap record body$"):
            for frame in PcapReader(path):
                read.append(frame.data)
        assert read == _BODIES[:3]

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("nanoseconds", [False, True])
    def test_byte_orders_and_timestamp_resolutions(self, tmp_path, monkeypatch, endian, nanoseconds):
        monkeypatch.setattr(pcap_module, "READ_BLOCK", 17)
        path = tmp_path / "order.pcap"
        scale = 1000 if nanoseconds else 1
        records = [(7 + i, 125_000 * i * scale, body) for i, body in enumerate(_BODIES)]
        path.write_bytes(_raw_capture(records, endian=endian, nanoseconds=nanoseconds))
        frames = list(PcapReader(path))
        assert [frame.data for frame in frames] == _BODIES
        assert [frame.timestamp for frame in frames] == [7 + i + 0.125 * i for i in range(len(_BODIES))]
