"""Tests for the 23 Table-I packet features."""

import numpy as np
import pytest

from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import (
    FEATURE_COUNT,
    FEATURE_INDEX,
    FEATURE_NAMES,
    PacketFeatureExtractor,
    port_class,
)
from repro.net.addresses import MACAddress
from repro.net.layers import dhcp, dns
from repro.net.layers.arp import OP_REQUEST, ARPPacket
from repro.net.layers.eapol import EAPOLFrame, TYPE_KEY
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPOption, IPv4Header, OPTION_NOP, OPTION_ROUTER_ALERT, PROTO_UDP
from repro.net.layers.llc import LLCHeader
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet

from tests.conftest import make_tcp_packet, make_udp_packet

SRC = MACAddress.from_string("02:00:00:00:00:01")
DST = MACAddress.from_string("02:00:00:00:00:02")


def feature(vector: np.ndarray, name: str) -> int:
    return int(vector[FEATURE_INDEX[name]])


class TestPortClass:
    def test_no_port(self):
        assert port_class(None) == 0

    def test_well_known(self):
        assert port_class(0) == 1
        assert port_class(80) == 1
        assert port_class(1023) == 1

    def test_registered(self):
        assert port_class(1024) == 2
        assert port_class(49151) == 2

    def test_dynamic(self):
        assert port_class(49152) == 3
        assert port_class(65535) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            port_class(70000)


class TestFeatureLayout:
    def test_23_features(self):
        assert FEATURE_COUNT == 23
        assert len(FEATURE_NAMES) == 23
        assert len(set(FEATURE_NAMES)) == 23

    def test_vector_shape(self):
        extractor = PacketFeatureExtractor()
        packet = make_tcp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
        vector = extractor.extract(packet)
        assert vector.shape == (FEATURE_COUNT,)
        assert vector.dtype == np.int64


class TestProtocolFeatures:
    def test_arp_packet(self):
        extractor = PacketFeatureExtractor()
        packet = Packet(
            ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=SRC, ethertype=ETHERTYPE.ARP),
            arp=ARPPacket(OP_REQUEST, SRC, "0.0.0.0", MACAddress.zero(), "10.0.0.9"),
        )
        vector = extractor.extract(packet)
        assert feature(vector, "arp") == 1
        assert feature(vector, "ip") == 0
        assert feature(vector, "raw_data") == 0
        assert feature(vector, "dst_ip_counter") == 0
        assert feature(vector, "src_port_class") == 0

    def test_llc_packet(self):
        extractor = PacketFeatureExtractor()
        packet = Packet(
            ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=SRC, ethertype=0x0026),
            llc=LLCHeader(dsap=0x42, ssap=0x42),
            payload=b"\x00" * 35,
        )
        vector = extractor.extract(packet)
        assert feature(vector, "llc") == 1
        assert feature(vector, "arp") == 0

    def test_eapol_packet(self):
        extractor = PacketFeatureExtractor()
        packet = Packet(
            ethernet=EthernetFrame(dst=DST, src=SRC, ethertype=ETHERTYPE.EAPOL),
            eapol=EAPOLFrame(packet_type=TYPE_KEY, body=b"\x00" * 95),
        )
        vector = extractor.extract(packet)
        assert feature(vector, "eapol") == 1
        assert feature(vector, "ip") == 0

    def test_https_feature(self):
        extractor = PacketFeatureExtractor()
        vector = extractor.extract(make_tcp_packet(SRC, DST, "10.0.0.1", "52.1.1.1", dst_port=443))
        assert feature(vector, "https") == 1
        assert feature(vector, "http") == 0
        assert feature(vector, "tcp") == 1
        assert feature(vector, "udp") == 0

    def test_http_feature(self):
        extractor = PacketFeatureExtractor()
        vector = extractor.extract(make_tcp_packet(SRC, DST, "10.0.0.1", "52.1.1.1", dst_port=80))
        assert feature(vector, "http") == 1
        assert feature(vector, "https") == 0

    def test_dns_vs_mdns(self):
        extractor = PacketFeatureExtractor()
        dns_vector = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2", dst_port=53))
        mdns_vector = extractor.extract(
            make_udp_packet(SRC, DST, "10.0.0.1", "224.0.0.251", dst_port=5353, src_port=5353)
        )
        assert feature(dns_vector, "dns") == 1
        assert feature(dns_vector, "mdns") == 0
        assert feature(mdns_vector, "mdns") == 1
        assert feature(mdns_vector, "dns") == 0

    def test_ssdp_and_ntp(self):
        extractor = PacketFeatureExtractor()
        ssdp_vector = extractor.extract(
            make_udp_packet(SRC, DST, "10.0.0.1", "239.255.255.250", dst_port=1900)
        )
        ntp_vector = extractor.extract(
            make_udp_packet(SRC, DST, "10.0.0.1", "129.250.35.250", dst_port=123, src_port=123)
        )
        assert feature(ssdp_vector, "ssdp") == 1
        assert feature(ntp_vector, "ntp") == 1

    def test_dhcp_and_bootp(self):
        extractor = PacketFeatureExtractor()
        dhcp_packet = Packet(
            ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=SRC, ethertype=ETHERTYPE.IPV4),
            ipv4=IPv4Header(src="0.0.0.0", dst="255.255.255.255", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=68, dst_port=67),
            application=dhcp.discover(SRC),
        )
        bootp_packet = Packet(
            ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=SRC, ethertype=ETHERTYPE.IPV4),
            ipv4=IPv4Header(src="0.0.0.0", dst="255.255.255.255", protocol=PROTO_UDP),
            udp=UDPDatagram(src_port=68, dst_port=67),
            application=dhcp.DHCPMessage(op=dhcp.OP_REQUEST, client_mac=SRC, is_dhcp=False),
        )
        dhcp_vector = extractor.extract(dhcp_packet)
        bootp_vector = extractor.extract(bootp_packet)
        assert feature(dhcp_vector, "dhcp") == 1
        assert feature(dhcp_vector, "bootp") == 1
        assert feature(bootp_vector, "dhcp") == 0
        assert feature(bootp_vector, "bootp") == 1

    def test_ip_options(self):
        extractor = PacketFeatureExtractor()
        packet = Packet(
            ethernet=EthernetFrame(dst=DST, src=SRC, ethertype=ETHERTYPE.IPV4),
            ipv4=IPv4Header(
                src="10.0.0.1",
                dst="224.0.0.22",
                protocol=2,
                options=[IPOption(kind=OPTION_ROUTER_ALERT, data=b"\x00\x00"), IPOption(kind=OPTION_NOP)],
            ),
            payload=b"\x22" * 16,
        )
        vector = extractor.extract(packet)
        assert feature(vector, "ip_option_router_alert") == 1
        assert feature(vector, "ip_option_padding") == 1


class TestStatefulFeatures:
    def test_destination_counter_increments_per_new_ip(self):
        extractor = PacketFeatureExtractor()
        first = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1"))
        second = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "2.2.2.2"))
        repeat = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1"))
        third = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "3.3.3.3"))
        assert feature(first, "dst_ip_counter") == 1
        assert feature(second, "dst_ip_counter") == 2
        assert feature(repeat, "dst_ip_counter") == 1
        assert feature(third, "dst_ip_counter") == 3
        assert extractor.seen_destinations == 3

    def test_reset_clears_counter(self):
        extractor = PacketFeatureExtractor()
        extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1"))
        extractor.reset()
        vector = extractor.extract(make_udp_packet(SRC, DST, "10.0.0.1", "9.9.9.9"))
        assert feature(vector, "dst_ip_counter") == 1

    def test_packet_size_feature(self):
        extractor = PacketFeatureExtractor()
        small = make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1", payload=b"")
        large = make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1", payload=b"x" * 400)
        assert feature(extractor.extract(large), "packet_size") > feature(
            extractor.extract(small), "packet_size"
        )

    def test_port_class_features(self):
        extractor = PacketFeatureExtractor()
        vector = extractor.extract(
            make_tcp_packet(SRC, DST, "10.0.0.1", "1.1.1.1", dst_port=443, src_port=50001)
        )
        assert feature(vector, "src_port_class") == 3
        assert feature(vector, "dst_port_class") == 1

    def test_from_packets_counts_destinations_in_order(self):
        packets = [
            make_udp_packet(SRC, DST, "10.0.0.1", "1.1.1.1"),
            make_udp_packet(SRC, DST, "10.0.0.1", "2.2.2.2"),
        ]
        matrix = Fingerprint.from_packets(packets).vectors
        assert matrix.shape == (2, FEATURE_COUNT)
        assert matrix[0, FEATURE_INDEX["dst_ip_counter"]] == 1
        assert matrix[1, FEATURE_INDEX["dst_ip_counter"]] == 2

    def test_from_packets_empty(self):
        assert Fingerprint.from_packets([]).vectors.shape == (0, FEATURE_COUNT)

    def test_no_payload_inspection_needed(self):
        """Features must be computable from an encrypted-looking packet."""
        extractor = PacketFeatureExtractor()
        packet = make_tcp_packet(
            SRC, DST, "10.0.0.1", "52.0.0.1", dst_port=443, payload=bytes(range(64))
        )
        vector = extractor.extract(packet)
        assert feature(vector, "https") == 1
        assert feature(vector, "raw_data") == 1
