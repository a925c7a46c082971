"""Tests for pcap reading and writing."""

import struct

import pytest

from repro.exceptions import PcapFormatError
from repro.net.addresses import MACAddress
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_UDP
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net.pcap import (
    MAGIC_MICROSECONDS,
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
