"""Tests for MAC/IP address helpers."""

import ipaddress

import pytest

from repro.exceptions import PacketDecodeError
from repro.net import addresses
from repro.net.addresses import (
    MACAddress,
    ip_to_int,
    ipv4_from_bytes,
    ipv4_to_bytes,
    ipv6_from_bytes,
    ipv6_to_bytes,
    is_ipv4,
    is_ipv6,
    is_multicast_ip,
    is_private_ipv4,
)


class TestMACAddress:
    def test_parse_colon_notation(self):
        mac = MACAddress.from_string("b0:c5:54:01:02:03")
        assert str(mac) == "b0:c5:54:01:02:03"

    def test_parse_dash_notation(self):
        mac = MACAddress.from_string("13-73-74-7E-A9-C2")
        assert str(mac) == "13:73:74:7e:a9:c2"

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError):
            MACAddress.from_string("not-a-mac")

    def test_bytes_roundtrip(self):
        mac = MACAddress.from_string("de:ad:be:ef:00:01")
        assert MACAddress.from_bytes(mac.to_bytes()) == mac

    def test_from_bytes_wrong_length(self):
        with pytest.raises(PacketDecodeError):
            MACAddress.from_bytes(b"\x00\x01\x02")

    def test_from_bytes_accepts_any_bytes_like(self):
        raw = bytes.fromhex("deadbeef0001")
        expected = MACAddress.from_string("de:ad:be:ef:00:01")
        for view in (raw, bytearray(raw), memoryview(raw)):
            assert MACAddress.from_bytes(view) == expected
        with pytest.raises(PacketDecodeError):
            MACAddress.from_bytes(bytearray(7))

    def test_from_bytes_memo_stays_bounded(self):
        # A spoofed-MAC flood: every frame a new source address.
        for value in range(2 * addresses._MAC_MEMO_LIMIT + 3):
            assert MACAddress.from_bytes(value.to_bytes(6, "big")) == MACAddress(value)
            assert len(addresses._MAC_MEMO) <= addresses._MAC_MEMO_LIMIT

    def test_str_memo_stays_bounded(self):
        # A spoofed-MAC flood: every verdict a new device to format.
        for value in range(2 * addresses._MAC_TEXT_MEMO_LIMIT + 3):
            mac = MACAddress((value * 0x9E3779B97F4A7C15) & ((1 << 48) - 1))
            expected = ":".join(f"{byte:02x}" for byte in mac.to_bytes())
            assert str(mac) == expected
            assert str(mac) == expected  # memo hit
            assert len(addresses._MAC_TEXT_MEMO) <= addresses._MAC_TEXT_MEMO_LIMIT

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            MACAddress(1 << 48)

    def test_broadcast(self):
        assert MACAddress.broadcast().is_broadcast
        assert MACAddress.broadcast().is_multicast

    def test_zero_is_not_broadcast(self):
        assert not MACAddress.zero().is_broadcast

    def test_multicast_bit(self):
        assert MACAddress.from_string("01:00:5e:00:00:01").is_multicast
        assert not MACAddress.from_string("00:00:5e:00:00:01").is_multicast

    def test_locally_administered_bit(self):
        assert MACAddress.from_string("02:00:00:00:00:01").is_locally_administered
        assert not MACAddress.from_string("00:17:88:00:00:01").is_locally_administered

    def test_oui_prefix(self):
        assert MACAddress.from_string("00:17:88:aa:bb:cc").oui == "00:17:88"

    def test_usable_as_dict_key(self):
        mac = MACAddress.from_string("aa:bb:cc:dd:ee:ff")
        table = {mac: "rule"}
        assert table[MACAddress.from_string("AA-BB-CC-DD-EE-FF")] == "rule"

    def test_ordering(self):
        low = MACAddress.from_string("00:00:00:00:00:01")
        high = MACAddress.from_string("00:00:00:00:00:02")
        assert low < high


class TestIPHelpers:
    def test_is_ipv4(self):
        assert is_ipv4("192.168.0.1")
        assert not is_ipv4("999.1.1.1")
        assert not is_ipv4("fe80::1")

    def test_is_ipv6(self):
        assert is_ipv6("fe80::1")
        assert not is_ipv6("192.168.0.1")

    def test_ip_to_int(self):
        assert ip_to_int("0.0.0.1") == 1
        assert ip_to_int("::2") == 2

    def test_ipv4_bytes_roundtrip(self):
        assert ipv4_from_bytes(ipv4_to_bytes("10.1.2.3")) == "10.1.2.3"

    def test_ipv4_from_bytes_wrong_length(self):
        with pytest.raises(PacketDecodeError):
            ipv4_from_bytes(b"\x01\x02")

    def test_ipv6_bytes_roundtrip(self):
        assert ipv6_from_bytes(ipv6_to_bytes("fe80::abcd")) == "fe80::abcd"

    def test_ipv6_from_bytes_wrong_length(self):
        with pytest.raises(PacketDecodeError):
            ipv6_from_bytes(b"\x01" * 5)

    def test_ipv6_from_bytes_memo_stays_bounded(self):
        # An address flood: every frame a new destination.
        for value in range(2 * addresses._IPV6_MEMO_LIMIT + 3):
            raw = (value * 0x9E3779B97F4A7C15).to_bytes(16, "big")
            assert ipv6_from_bytes(raw) == str(ipaddress.IPv6Address(raw))
            assert ipv6_from_bytes(raw) == str(ipaddress.IPv6Address(raw))  # memo hit
            assert len(addresses._IPV6_MEMO) <= addresses._IPV6_MEMO_LIMIT

    def test_private_and_multicast(self):
        assert is_private_ipv4("192.168.1.5")
        assert not is_private_ipv4("8.8.8.8")
        assert is_multicast_ip("239.255.255.250")
        assert is_multicast_ip("ff02::fb")
        assert not is_multicast_ip("1.2.3.4")
