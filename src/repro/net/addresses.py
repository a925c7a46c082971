"""MAC and IP address helpers used throughout the packet substrate."""

from __future__ import annotations

import ipaddress
import re
import socket
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}$")

#: Wire bytes -> shared :class:`MACAddress`.  Every frame carries two MACs
#: and a network has few distinct ones, so decoded frames share instances;
#: the memo is emptied when full, so a spoofed-MAC flood cannot grow it.
_MAC_MEMO: dict[bytes, "MACAddress"] = {}
_MAC_MEMO_LIMIT = 4096

#: Wire bytes -> canonical IPv6 text, bounded the same way: ``ipaddress``
#: formatting costs far more than a lookup, and a network has few hosts.
_IPV6_MEMO: dict[bytes, str] = {}
_IPV6_MEMO_LIMIT = 4096

#: MAC value -> ``aa:bb:..`` text, bounded the same way: one verdict
#: formats its device's MAC for the ledger, the sink and the rule names.
_MAC_TEXT_MEMO: dict[int, str] = {}
_MAC_TEXT_MEMO_LIMIT = 4096


@dataclass(frozen=True, order=True, slots=True)
class MACAddress:
    """A 48-bit IEEE 802 MAC address.

    Instances are immutable, hashable and comparable, so they can be used as
    dictionary keys (the Security Gateway keys its enforcement rules and
    device records by MAC address, as the paper does).
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 48:
            raise ValueError(f"MAC address out of range: {self.value!r}")

    @classmethod
    def from_string(cls, text: str) -> "MACAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` or ``AA-BB-CC-DD-EE-FF`` notation."""
        if not _MAC_RE.match(text):
            raise ValueError(f"invalid MAC address string: {text!r}")
        digits = text.replace("-", ":").split(":")
        return cls(int("".join(digits), 16))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MACAddress":
        """Parse a 6-byte big-endian MAC address.

        >>> MACAddress.from_bytes(bytes.fromhex("b0c554123456"))
        MACAddress('b0:c5:54:12:34:56')
        """
        try:
            return _MAC_MEMO[raw]
        except (KeyError, TypeError):  # not seen yet, or an unhashable bytearray
            pass
        if len(raw) != 6:
            raise PacketDecodeError(f"MAC address must be 6 bytes, got {len(raw)}")
        if len(_MAC_MEMO) >= _MAC_MEMO_LIMIT:
            _MAC_MEMO.clear()
        # Six bytes always lie in range: skip ``__post_init__``'s check.
        mac = object.__new__(cls)
        object.__setattr__(mac, "value", int.from_bytes(raw, "big"))
        _MAC_MEMO[bytes(raw)] = mac
        return mac

    @classmethod
    def broadcast(cls) -> "MACAddress":
        """The all-ones broadcast address ``ff:ff:ff:ff:ff:ff``."""
        return cls((1 << 48) - 1)

    @classmethod
    def zero(cls) -> "MACAddress":
        """The all-zero address ``00:00:00:00:00:00``."""
        return cls(0)

    def to_bytes(self) -> bytes:
        """Serialise to the 6-byte wire format."""
        return self.value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (least significant bit of first octet) is set."""
        return bool((self.value >> 40) & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        """True when the locally-administered bit of the first octet is set."""
        return bool((self.value >> 41) & 0x01)

    @property
    def oui(self) -> str:
        """The vendor OUI prefix, e.g. ``"b0:c5:54"``."""
        return str(self)[:8]

    def __str__(self) -> str:
        try:
            return _MAC_TEXT_MEMO[self.value]
        except KeyError:
            pass
        if len(_MAC_TEXT_MEMO) >= _MAC_TEXT_MEMO_LIMIT:
            _MAC_TEXT_MEMO.clear()
        text = _MAC_TEXT_MEMO[self.value] = self.value.to_bytes(6, "big").hex(":")
        return text

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"

    def __hash__(self) -> int:
        # Hash the int: a one-field tuple costs an allocation per call,
        # and MACs key every per-device table on the serving path.
        return hash(self.value)


def is_ipv4(text: str) -> bool:
    """Return True when ``text`` is a valid dotted-quad IPv4 address."""
    try:
        ipaddress.IPv4Address(text)
    except (ipaddress.AddressValueError, ValueError):
        return False
    return True


def is_ipv6(text: str) -> bool:
    """Return True when ``text`` is a valid IPv6 address."""
    try:
        ipaddress.IPv6Address(text)
    except (ipaddress.AddressValueError, ValueError):
        return False
    return True


def ip_to_int(text: str) -> int:
    """Convert an IPv4 or IPv6 address string to its integer representation."""
    return int(ipaddress.ip_address(text))


def ipv4_to_bytes(text: str) -> bytes:
    """Serialise a dotted-quad IPv4 address to 4 bytes."""
    return ipaddress.IPv4Address(text).packed


def ipv4_from_bytes(raw: bytes) -> str:
    """Parse 4 bytes into a dotted-quad IPv4 address string.

    >>> ipv4_from_bytes(bytes([192, 168, 1, 20]))
    '192.168.1.20'
    """
    if len(raw) != 4:
        raise PacketDecodeError(f"IPv4 address must be 4 bytes, got {len(raw)}")
    return socket.inet_ntoa(raw)


def ipv6_to_bytes(text: str) -> bytes:
    """Serialise an IPv6 address to 16 bytes."""
    return ipaddress.IPv6Address(text).packed


def ipv6_from_bytes(raw: bytes) -> str:
    """Parse 16 bytes into a canonical IPv6 address string.

    >>> ipv6_from_bytes(bytes.fromhex("fe80" + "00" * 12 + "abcd"))
    'fe80::abcd'
    """
    try:
        return _IPV6_MEMO[raw]
    except KeyError:
        pass
    if len(raw) != 16:
        raise PacketDecodeError(f"IPv6 address must be 16 bytes, got {len(raw)}")
    if len(_IPV6_MEMO) >= _IPV6_MEMO_LIMIT:
        _IPV6_MEMO.clear()
    text = _IPV6_MEMO[raw] = str(ipaddress.IPv6Address(raw))
    return text


def is_private_ipv4(text: str) -> bool:
    """True when the IPv4 address lies in an RFC 1918 private range."""
    return ipaddress.IPv4Address(text).is_private


def is_multicast_ip(text: str) -> bool:
    """True when the address (v4 or v6) is a multicast address."""
    return ipaddress.ip_address(text).is_multicast
