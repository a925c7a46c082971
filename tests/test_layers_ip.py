"""Tests for IPv4/IPv6/ICMP/ICMPv6 dissectors."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PacketDecodeError
from repro.net.addresses import ipv4_from_bytes
from repro.net.layers.icmp import ICMPMessage, TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST
from repro.net.layers.icmpv6 import (
    ICMPv6Message,
    TYPE_MLDV2_REPORT,
    TYPE_NEIGHBOR_SOLICITATION,
    TYPE_ROUTER_SOLICITATION,
)
from repro.net.layers.ipv4 import (
    IPOption,
    IPv4Header,
    OPTION_NOP,
    OPTION_ROUTER_ALERT,
    PROTO_TCP,
    PROTO_UDP,
    checksum,
)
from repro.net.layers.ipv6 import HBH_OPTION_ROUTER_ALERT, IPv6Header, NEXT_HEADER_UDP


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=4, max_size=4))
def test_ipv4_from_bytes_matches_ipaddress_text(raw):
    # Oracle: the ipaddress round trip the decoder used before inet_ntoa.
    assert ipv4_from_bytes(raw) == str(ipaddress.IPv4Address(raw))


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=20, max_size=20), st.binary(max_size=20))
def test_ipv4_header_addresses_match_ipaddress_text(header, payload):
    raw = bytes([0x45]) + header[1:] + payload
    parsed, _ = IPv4Header.from_bytes(raw)
    assert parsed.src == str(ipaddress.IPv4Address(raw[12:16]))
    assert parsed.dst == str(ipaddress.IPv4Address(raw[16:20]))


class TestIPv4Header:
    def test_roundtrip_without_options(self):
        header = IPv4Header(src="192.168.0.10", dst="8.8.8.8", protocol=PROTO_TCP, ttl=63)
        parsed, payload = IPv4Header.from_bytes(header.to_bytes(b"hello"))
        assert parsed.src == "192.168.0.10"
        assert parsed.dst == "8.8.8.8"
        assert parsed.protocol == PROTO_TCP
        assert parsed.ttl == 63
        assert payload == b"hello"

    def test_roundtrip_with_options(self):
        header = IPv4Header(
            src="10.0.0.1",
            dst="224.0.0.22",
            protocol=2,
            options=[IPOption(kind=OPTION_ROUTER_ALERT, data=b"\x00\x00"), IPOption(kind=OPTION_NOP)],
        )
        parsed, _ = IPv4Header.from_bytes(header.to_bytes(b""))
        assert parsed.has_router_alert_option
        assert parsed.has_padding_option

    def test_no_options_flags_false(self):
        header = IPv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP)
        assert not header.has_router_alert_option
        assert not header.has_padding_option

    def test_checksum_is_valid(self):
        header = IPv4Header(src="1.2.3.4", dst="5.6.7.8", protocol=PROTO_UDP)
        raw = header.to_bytes()[:20]
        assert checksum(raw) == 0

    def test_rejects_ipv6_payload(self):
        ipv6_raw = IPv6Header(src="::1", dst="::2", next_header=NEXT_HEADER_UDP).to_bytes()
        with pytest.raises(PacketDecodeError):
            IPv4Header.from_bytes(ipv6_raw)

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            IPv4Header.from_bytes(b"\x45\x00")

    def test_total_length_bounds_payload(self):
        header = IPv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_UDP, total_length=20 + 4)
        raw = header.to_bytes(b"abcdXXXX")  # trailing Ethernet padding
        parsed, payload = IPv4Header.from_bytes(raw)
        assert payload == b"abcd"


class TestIPv6Header:
    def test_roundtrip_basic(self):
        header = IPv6Header(src="fe80::1", dst="ff02::fb", next_header=NEXT_HEADER_UDP, hop_limit=1)
        parsed, payload = IPv6Header.from_bytes(header.to_bytes(b"data"))
        assert parsed.src == "fe80::1"
        assert parsed.dst == "ff02::fb"
        assert parsed.next_header == NEXT_HEADER_UDP
        assert payload == b"data"

    def test_hop_by_hop_router_alert_roundtrip(self):
        header = IPv6Header(
            src="fe80::1",
            dst="ff02::16",
            next_header=58,
            hop_by_hop_options=[HBH_OPTION_ROUTER_ALERT],
        )
        parsed, payload = IPv6Header.from_bytes(header.to_bytes(b"mld"))
        assert parsed.has_router_alert_option
        assert parsed.next_header == 58
        assert payload == b"mld"

    def test_rejects_ipv4(self):
        ipv4_raw = IPv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_UDP).to_bytes(b"x" * 30)
        with pytest.raises(PacketDecodeError):
            IPv6Header.from_bytes(ipv4_raw)

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            IPv6Header.from_bytes(b"\x60" + b"\x00" * 10)


class TestICMP:
    def test_roundtrip(self):
        message = ICMPMessage(icmp_type=TYPE_ECHO_REQUEST, identifier=7, sequence=3, payload=b"ping")
        parsed, _ = ICMPMessage.from_bytes(message.to_bytes())
        assert parsed.icmp_type == TYPE_ECHO_REQUEST
        assert parsed.identifier == 7
        assert parsed.sequence == 3
        assert parsed.payload == b"ping"

    def test_flags(self):
        assert ICMPMessage(icmp_type=TYPE_ECHO_REQUEST).is_echo_request
        assert ICMPMessage(icmp_type=TYPE_ECHO_REPLY).is_echo_reply

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            ICMPMessage.from_bytes(b"\x08\x00")


class TestICMPv6:
    def test_roundtrip(self):
        message = ICMPv6Message(icmp_type=TYPE_NEIGHBOR_SOLICITATION, body=b"\x00" * 20)
        parsed, _ = ICMPv6Message.from_bytes(message.to_bytes())
        assert parsed.icmp_type == TYPE_NEIGHBOR_SOLICITATION
        assert parsed.body == b"\x00" * 20

    def test_classification_helpers(self):
        assert ICMPv6Message(icmp_type=TYPE_ROUTER_SOLICITATION).is_neighbor_discovery
        assert ICMPv6Message(icmp_type=TYPE_MLDV2_REPORT).is_mld
        assert not ICMPv6Message(icmp_type=TYPE_MLDV2_REPORT).is_neighbor_discovery

    def test_truncated(self):
        with pytest.raises(PacketDecodeError):
            ICMPv6Message.from_bytes(b"\x87")
