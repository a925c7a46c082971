"""Tests for the layered Packet model and the top-level dissector."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

from repro.net.addresses import MACAddress
from repro.net.batch import PacketBatch
from repro.net.flow import FlowKey
from repro.net.layers import dhcp, dns, http, ssdp, tls
from repro.net.layers.arp import OP_REQUEST, ARPPacket
from repro.net.layers.eapol import EAPOLFrame, TYPE_KEY
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.layers.ipv6 import IPv6Header, NEXT_HEADER_ICMPV6
from repro.net.layers.icmpv6 import ICMPv6Message, TYPE_ROUTER_SOLICITATION
from repro.net.layers.llc import LLCHeader
from repro.net.layers.tcp import FLAG_ACK, FLAG_PSH, TCPSegment
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket

SRC = MACAddress.from_string("02:00:00:00:00:aa")
DST = MACAddress.from_string("02:00:00:00:00:bb")


def _eth(ethertype: int = ETHERTYPE.IPV4) -> EthernetFrame:
    return EthernetFrame(dst=DST, src=SRC, ethertype=ethertype)


class TestDissection:
    def test_arp_roundtrip(self):
        packet = Packet(
            ethernet=_eth(ETHERTYPE.ARP),
            arp=ARPPacket(OP_REQUEST, SRC, "0.0.0.0", MACAddress.zero(), "192.168.0.9"),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert parsed.arp is not None
        assert parsed.arp.target_ip == "192.168.0.9"
        assert parsed.src_mac == SRC
        assert not parsed.has_ip
        assert parsed.src_ip is None
        assert parsed.src_port is None

    def test_eapol_roundtrip(self):
        packet = Packet(ethernet=_eth(ETHERTYPE.EAPOL), eapol=EAPOLFrame(packet_type=TYPE_KEY, body=b"\x00" * 95))
        parsed = Packet.dissect(packet.to_bytes())
        assert parsed.eapol is not None
        assert parsed.eapol.is_key

    def test_llc_roundtrip(self):
        packet = Packet(ethernet=_eth(0x0026), llc=LLCHeader(dsap=0x42, ssap=0x42), payload=b"\x00" * 35)
        parsed = Packet.dissect(packet.to_bytes())
        assert parsed.llc is not None
        assert parsed.llc.dsap == 0x42

    def test_udp_dhcp_roundtrip(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="0.0.0.0", dst="255.255.255.255", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=68, dst_port=67),
            application=dhcp.discover(SRC, hostname="sensor"),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert isinstance(parsed.application, dhcp.DHCPMessage)
        assert parsed.application.hostname == "sensor"
        assert parsed.has_raw_data

    def test_udp_dns_roundtrip(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="192.168.0.9", dst="192.168.0.1", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=50000, dst_port=53),
            application=dns.query("api.vendor.example"),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert isinstance(parsed.application, dns.DNSMessage)
        assert parsed.application.question_names == ["api.vendor.example"]

    def test_udp_ssdp_roundtrip(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="192.168.0.9", dst="239.255.255.250", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=50001, dst_port=1900),
            application=ssdp.msearch(),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert isinstance(parsed.application, ssdp.SSDPMessage)
        assert parsed.application.is_msearch

    def test_tcp_http_roundtrip(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="192.168.0.9", dst="52.1.1.1", protocol=PROTO_TCP),
            tcp=TCPSegment(src_port=51000, dst_port=80, flags=FLAG_PSH | FLAG_ACK),
            application=http.get("/fw", "fw.vendor.example"),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert isinstance(parsed.application, http.HTTPMessage)
        assert parsed.application.host == "fw.vendor.example"
        assert parsed.dst_port == 80

    def test_tcp_tls_roundtrip(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="192.168.0.9", dst="52.1.1.2", protocol=PROTO_TCP),
            tcp=TCPSegment(src_port=51000, dst_port=443, flags=FLAG_PSH | FLAG_ACK),
            application=tls.client_hello("cloud.vendor.example"),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert isinstance(parsed.application, tls.TLSRecord)
        assert parsed.application.is_client_hello

    def test_ipv6_icmpv6_roundtrip(self):
        packet = Packet(
            ethernet=_eth(ETHERTYPE.IPV6),
            ipv6=IPv6Header(src="fe80::1", dst="ff02::2", next_header=NEXT_HEADER_ICMPV6, hop_limit=1),
            icmpv6=ICMPv6Message(icmp_type=TYPE_ROUTER_SOLICITATION, body=b"\x00" * 8),
        )
        parsed = Packet.dissect(packet.to_bytes())
        assert parsed.icmpv6 is not None
        assert parsed.ipv6.dst == "ff02::2"

    def test_unknown_ethertype_keeps_payload(self):
        raw = _eth(0x88CC).to_bytes() + b"\x01\x02\x03" + b"\x00" * 50
        parsed = Packet.dissect(raw)
        assert parsed.payload.startswith(b"\x01\x02\x03")
        assert parsed.application is None

    def test_malformed_upper_layer_does_not_raise(self):
        # An IPv4 ethertype with a garbage (non-IP) payload must not raise.
        raw = _eth(ETHERTYPE.IPV4).to_bytes() + b"\xff" * 10
        parsed = Packet.dissect(raw)
        assert parsed.ipv4 is None
        assert parsed.payload


class TestPacketProperties:
    def test_minimum_frame_padding(self):
        packet = Packet(
            ethernet=_eth(ETHERTYPE.ARP),
            arp=ARPPacket(OP_REQUEST, SRC, "0.0.0.0", MACAddress.zero(), "10.0.0.1"),
        )
        assert len(packet.to_bytes()) == 60
        assert packet.size == 60

    def test_wire_length_preserved_on_dissect(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=1, dst_port=2, payload=b"x" * 100),
        )
        raw = packet.to_bytes()
        parsed = Packet.dissect(raw, timestamp=12.5)
        assert parsed.wire_length == len(raw)
        assert parsed.size == len(raw)
        assert parsed.timestamp == 12.5

    def test_raw_data_flag(self):
        with_data = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_TCP),
            tcp=TCPSegment(src_port=1, dst_port=2, payload=b"data"),
        )
        without_data = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_TCP),
            tcp=TCPSegment(src_port=1, dst_port=2),
        )
        assert with_data.has_raw_data
        assert not without_data.has_raw_data

    def test_summary_mentions_layers(self):
        packet = Packet(
            ethernet=_eth(),
            ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=5353, dst_port=5353),
            application=dns.mdns_announcement("_x._tcp.local", "host"),
        )
        summary = packet.summary
        assert "UDP 5353->5353" in summary
        assert "DNSMessage" in summary


class TestSlottedObjects:
    def test_every_per_packet_net_dataclass_defines_slots(self):
        import repro.net

        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.net.__path__, "repro.net.")
        ]
        classes = {
            value
            for module in modules
            for value in vars(module).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and value.__module__.startswith("repro.net.")
        }
        classes.discard(PacketBatch)  # one per batch of packets, not per packet
        assert {Packet, CapturedPacket, MACAddress, FlowKey, EthernetFrame} <= classes
        unslotted = sorted(cls.__name__ for cls in classes if "__slots__" not in vars(cls))
        assert unslotted == []

    def test_dissected_packet_pickles_and_deep_copies(self):
        packet = Packet.dissect(
            Packet(
                ethernet=_eth(),
                ipv4=IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
                udp=UDPDatagram(src_port=68, dst_port=67),
                application=dhcp.discover(SRC, hostname="cam"),
            ).to_bytes(),
            timestamp=3.25,
        )
        assert not hasattr(packet, "__dict__")
        assert pickle.loads(pickle.dumps(packet)) == packet
        clone = copy.deepcopy(packet)
        assert clone == packet
        assert clone.ethernet.src == SRC and hash(clone.ethernet.src) == hash(SRC)
