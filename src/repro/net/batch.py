"""Packet parsing into Table-I rows: frames a block at a time, packets one by one.

Building a :class:`Packet` object tree per frame and reading ~20
attributes off it per feature row is what dominates a per-packet
datapath, so the streaming pipeline reads just the fields the Table-I
feature set and the assembler consume -- timestamp, source MAC, protocol
flags, ports, size, destination-IP token -- straight off each stream
item, as one row ``(timestamp, source MAC, packed Table-I key,
destination token)``.  Two parsers cover both item shapes:

* raw :class:`~repro.net.pcap.CapturedPacket` frames are parsed a block
  at a time (:func:`_frame_rows`): one numpy pass gathers the header
  bytes Table I needs from every frame of a 64 KiB pcap read block and
  computes the rows as arrays.  IPv4 option lists and IPv6 hop-by-hop
  headers are walked per frame; only frames the pass cannot prove it
  reads exactly like :meth:`Packet.dissect` (LLC, malformed layers,
  runts) are dissected, so the rows are *always* equal to what
  dissecting every frame would have produced (the differential suite
  asserts this against the per-frame oracle in ``tests/conftest.py``).
  :func:`parsed_frames` hands a pcap replay's frames over one at a time,
  each carrying its row; :func:`carrying_rows` parses each run of frames
  another source hands over bare as one block; a frame passed in on its
  own is parsed as a block of one;
* an already-dissected :class:`Packet` (simulator traces, training
  captures, generic sources) is read with one tight attribute pass.

:func:`table_i_key` -- the one definition of Table I -- packs one
packet's fields into its feature row as one integer; the block pass
packs its keys through tables filled from it (:func:`_table_i_keys`).
:func:`stream_row` reads an item's row.  The streaming drive takes it from each item as it arrives;
training maps it over a capture and unpacks the keys with
:func:`~repro.features.packet_features.unpack_rows`.  The fold stays
per frame.
"""

from __future__ import annotations

import functools
import itertools
import socket
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.exceptions import PacketDecodeError
from repro.net.addresses import ipv6_from_bytes
from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import http as http_mod
from repro.net.layers import ipv4 as ipv4_mod
from repro.net.layers import ipv6 as ipv6_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tls as tls_mod
from repro.net.layers.dhcp import FIXED_LEN as _BOOTP_FIXED_LEN
from repro.net.layers.dhcp import MAGIC_COOKIE, DHCPMessage
from repro.net.packet import Packet
from repro.net.pcap import READ_BLOCK, CapturedPacket, RecordBlock, byte_windows

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_ARP = 0x0806
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_EAPOL = 0x888E
_MAX_8023_LENGTH = 0x05DC

# Bit positions of the packed per-packet flag word built by both item parsers.
_F_ARP = 1 << 0
_F_LLC = 1 << 1
_F_IP = 1 << 2
_F_ICMP = 1 << 3
_F_ICMPV6 = 1 << 4
_F_EAPOL = 1 << 5
_F_TCP = 1 << 6
_F_UDP = 1 << 7
_F_PADDING = 1 << 8
_F_ROUTER_ALERT = 1 << 9
_F_RAW_DATA = 1 << 10
_F_APP_NOT_DHCP = 1 << 11

# Option types whose presence sets the padding / router-alert columns.
_IPV4_OPTION_END = ipv4_mod.OPTION_END
_IPV4_OPTION_NOP = ipv4_mod.OPTION_NOP
_IPV4_OPTION_ROUTER_ALERT = ipv4_mod.OPTION_ROUTER_ALERT
_HBH_OPTION_PAD1 = ipv6_mod.HBH_OPTION_PAD1
_HBH_OPTION_PADN = ipv6_mod.HBH_OPTION_PADN
_HBH_OPTION_ROUTER_ALERT = ipv6_mod.HBH_OPTION_ROUTER_ALERT

#: One item's parsed row: ``(timestamp, source MAC value, packed Table-I
#: key, destination token)`` (see :func:`stream_row`).
FrameRow = tuple[float, int, int, Optional[str]]


# --------------------------------------------------------------------- #
# Table I, packed: one integer key per packet.
# --------------------------------------------------------------------- #
# Bit offsets in a packed key.  The binary columns 0-17 (arp ..
# ip_option_router_alert) take bits 0-17 in column order, raw_data
# (column 19) bit 18, each port class two bits, and packet_size
# (column 18) the 32 bits above them: pcap frame lengths are below 2**32.
_KEY_APPLICATION = 8  # http .. ntp, columns 8-15
_KEY_RAW_DATA = 18
_KEY_SRC_CLASS = 19
_KEY_DST_CLASS = 21
_KEY_SIZE = 23

#: ``(bit offset, mask)`` of each Table-I column in a packed key, in
#: column order.  The stateful ``dst_ip_counter`` (column 20) depends on a
#: device's first-contact order, not on the packet, and is not packed.
KEY_LAYOUT: tuple[tuple[int, int], ...] = (
    *((bit, 1) for bit in range(18)),  # arp .. ip_option_router_alert
    (_KEY_SIZE, (1 << 32) - 1),  # packet_size
    (_KEY_RAW_DATA, 1),  # raw_data
    (0, 0),  # dst_ip_counter
    (_KEY_SRC_CLASS, 3),  # src_port_class
    (_KEY_DST_CLASS, 3),  # dst_port_class
)

_HTTP, _HTTPS, _DHCP, _BOOTP, _SSDP, _DNS, _MDNS, _NTP = (
    1 << bit for bit in range(_KEY_APPLICATION, _KEY_APPLICATION + 8)
)

#: The application columns a port names, before the transport gate.  A
#: dict of the named ports, not a table over all 65,536.
_APPLICATION_PORTS: dict[int, int] = {
    http_mod.PORT_HTTP: _HTTP,
    http_mod.PORT_HTTP_ALT: _HTTP,
    tls_mod.PORT_HTTPS: _HTTPS,
    tls_mod.PORT_HTTPS_ALT: _HTTPS,
    dhcp_mod.SERVER_PORT: _DHCP | _BOOTP,
    dhcp_mod.CLIENT_PORT: _DHCP | _BOOTP,
    ssdp_mod.PORT_SSDP: _SSDP,
    dns_mod.PORT_DNS: _DNS,
    dns_mod.PORT_MDNS: _MDNS,
    ntp_mod.PORT_NTP: _NTP,
}


def _transport_gate(index: int) -> int:
    """Application columns a transport admits; ``index`` holds flag bits
    6 (TCP), 7 (UDP) and 11 (a BOOTP payload that is not DHCP) as bits
    0-2.  ``http``/``https`` need TCP, ``dns`` TCP or UDP, the rest UDP."""
    gate = (_HTTP | _HTTPS | _DNS) if index & 1 else 0
    if index & 2:
        gate |= _DHCP | _BOOTP | _SSDP | _DNS | _MDNS | _NTP
    return gate & ~_DHCP if index & 4 else gate


_TRANSPORT_GATES = tuple(_transport_gate(index) for index in range(8))

# Port classes 1-3 (well-known, registered, dynamic) already in place in
# the key; a packet without ports has class 0 on both sides.
_SRC_WELL_KNOWN, _SRC_REGISTERED, _SRC_DYNAMIC = (c << _KEY_SRC_CLASS for c in (1, 2, 3))
_DST_WELL_KNOWN, _DST_REGISTERED, _DST_DYNAMIC = (c << _KEY_DST_CLASS for c in (1, 2, 3))


def table_i_key(flags: int, src_port: int, dst_port: int, size: int) -> int:
    """The packed Table-I row of one packet: the one definition of Table I.

    ``flags`` is the packet's flag word (the ``_F_*`` bits of this
    module), ports are -1 where the packet has no transport layer and
    ``size`` is its wire length.  Table driven: flag bits 0-7 are columns
    0-7 as they stand, the option and raw-data bits move up past the
    application columns, the named-port dict ANDed with the transport
    gate gives the eight application columns, and each port is classed by
    the paper's thresholds (none / well-known / registered / dynamic).
    :data:`KEY_LAYOUT` says where each column sits.

    An mDNS query over IPv4/UDP, unpacked by the layout:

    >>> key = table_i_key(_F_IP | _F_UDP | _F_RAW_DATA, 5353, 5353, 90)
    >>> [(key >> shift) & mask for shift, mask in KEY_LAYOUT]
    [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 90, 1, 0, 2, 2]
    >>> key = table_i_key(_F_ARP, -1, -1, 42)  # no transport: port class 0
    >>> [(key >> shift) & mask for shift, mask in KEY_LAYOUT][18:]
    [42, 0, 0, 0, 0]
    """
    application = _APPLICATION_PORTS.get(src_port, 0) | _APPLICATION_PORTS.get(dst_port, 0)
    return (
        flags & 0xFF
        | (flags & 0x700) << 8  # flag bits 8-10 (padding .. raw data) -> 16-18
        | application & _TRANSPORT_GATES[(flags >> 6) & 3 | (flags >> 9) & 4]
        | (_SRC_DYNAMIC if src_port > 49151 else _SRC_REGISTERED if src_port > 1023
           else _SRC_WELL_KNOWN if src_port >= 0 else 0)
        | (_DST_DYNAMIC if dst_port > 49151 else _DST_REGISTERED if dst_port > 1023
           else _DST_WELL_KNOWN if dst_port >= 0 else 0)
        | size << _KEY_SIZE
    )


def _packet_fields(packet: Packet) -> tuple[int, int, int, int, Optional[str]]:
    """(flags, src_port, dst_port, size, dst_ip) of one dissected packet.

    The object-path definition of the Table-I columns: every packet that
    is not parsed straight from frame bytes (simulator packets, training
    captures, frames the fast parser defers) gets its fields here, and
    :func:`table_i_key` packs them.  The frame parser must agree with it,
    so a packet and the frame it serialises to give identical rows.
    """
    tcp = packet.tcp
    udp = packet.udp
    ipv4 = packet.ipv4
    ipv6 = packet.ipv6
    app = packet.application
    flags = (
        (packet.arp is not None)
        | ((packet.llc is not None) << 1)
        | ((ipv4 is not None or ipv6 is not None) << 2)
        | ((packet.icmp is not None) << 3)
        | ((packet.icmpv6 is not None) << 4)
        | ((packet.eapol is not None) << 5)
        | ((tcp is not None) << 6)
        | ((udp is not None) << 7)
    )
    if ipv4 is not None:
        dst_ip: Optional[str] = ipv4.dst
        if ipv4.options:
            flags |= ipv4.has_padding_option << 8
            flags |= ipv4.has_router_alert_option << 9
    elif ipv6 is not None:
        dst_ip = ipv6.dst
        if ipv6.hop_by_hop_options:
            flags |= ipv6.has_padding_option << 8
            flags |= ipv6.has_router_alert_option << 9
    else:
        dst_ip = None
    if app is not None:
        flags |= _F_RAW_DATA
        if isinstance(app, DHCPMessage) and not app.is_dhcp:
            flags |= _F_APP_NOT_DHCP
    else:
        transport_payload = (
            tcp.payload if tcp is not None else (udp.payload if udp is not None else b"")
        )
        if transport_payload or (packet.payload and packet.arp is None):
            flags |= _F_RAW_DATA
    if tcp is not None:
        src_port, dst_port = tcp.src_port, tcp.dst_port
    elif udp is not None:
        src_port, dst_port = udp.src_port, udp.dst_port
    else:
        src_port = dst_port = -1
    size = packet.wire_length or len(packet.to_bytes())
    return flags, src_port, dst_port, size, dst_ip


def _ipv4_option_flags(data: bytes, start: int, end: int) -> Optional[int]:
    """The padding / router-alert bits of the IPv4 options in ``data[start:end]``.

    Walks the list as ``repro.net.layers.ipv4._parse_options`` does
    (End-of-List stops it, No-Operation is one byte, every other option
    carries a length of at least 2 that must fit) and returns ``None``
    where that parser raises, so the frame takes the dissector.
    """
    flags = 0
    offset = start
    while offset < end:
        kind = data[offset]
        if kind == _IPV4_OPTION_END or kind == _IPV4_OPTION_NOP:
            flags |= _F_PADDING
            if kind == _IPV4_OPTION_END:
                break
            offset += 1
            continue
        if offset + 1 >= end:
            return None
        length = data[offset + 1]
        if length < 2 or offset + length > end:
            return None
        if kind == _IPV4_OPTION_ROUTER_ALERT:
            flags |= _F_ROUTER_ALERT
        offset += length
    return flags


def _hop_by_hop_option_flags(data: bytes, start: int, end: int) -> int:
    """The padding / router-alert bits of the IPv6 hop-by-hop options in
    ``data[start:end]``, walked as ``repro.net.layers.ipv6._parse_hbh_options``
    does: every option type it reaches counts, Pad1 is one byte, and an
    option whose length byte lies past the end stops the walk."""
    flags = 0
    offset = start
    while offset < end:
        kind = data[offset]
        if kind == _HBH_OPTION_PAD1 or kind == _HBH_OPTION_PADN:
            flags |= _F_PADDING
        elif kind == _HBH_OPTION_ROUTER_ALERT:
            flags |= _F_ROUTER_ALERT
        if kind == _HBH_OPTION_PAD1:
            offset += 1
            continue
        if offset + 1 >= end:
            break
        offset += 2 + data[offset + 1]
    return flags


# --------------------------------------------------------------------- #
# Table I over arrays, through tables built from table_i_key.
# --------------------------------------------------------------------- #
#: The flag bits that gate which application columns a port may set.
_TRANSPORT_FLAGS = (_F_TCP, _F_UDP, _F_APP_NOT_DHCP)
#: Every flag word that sets only transport flags, in gate order.
_GATE_WORDS = [
    sum(bit for index, bit in enumerate(_TRANSPORT_FLAGS) if gate >> index & 1)
    for gate in range(1 << len(_TRANSPORT_FLAGS))
]
#: The flag word whose gate admits every application column.
_OPEN_GATE = _F_TCP | _F_UDP
_FLAG_WORDS = 1 << 12
#: ``table_i_key(flags, -1, -1, 0)``: what the flag word alone packs.
_FLAG_KEYS = np.array([table_i_key(flags, -1, -1, 0) for flags in range(_FLAG_WORDS)])
#: The gate (index into :data:`_GATE_WORDS`) of each flag word.
_GATES = np.array(
    [_GATE_WORDS.index(flags & sum(_TRANSPORT_FLAGS)) for flags in range(_FLAG_WORDS)]
)


class _PortTables:
    """What a (source, destination) port pair adds to a key, built lazily.

    Ports that :func:`table_i_key` packs alike on either side share a
    *kind* (each named port, and the unnamed ports of each port class:
    about a dozen); ``kinds[port]`` is 0 until a block meets the port
    (index -1 is "no port").  ``pairs[(gate * width + source kind) *
    width + destination kind]`` holds what a pair of representatives adds
    to the gate's flag word's key, or -1 until a block meets the pair.
    The tables only cache :func:`table_i_key`: the order they fill in
    never changes a key.
    """

    def __init__(self) -> None:
        self.kinds = np.zeros(1 << 16 | 1, np.uint16)
        self.ports: list[int] = [0]
        self.kind_of: dict[tuple[int, int], int] = {}
        self.width = 0
        self.pairs = np.zeros(0, np.int64)
        self.kinds[-1] = self._kind(-1)

    def _kind(self, port: int) -> int:
        # Under the gate that admits every application column, a port's
        # keys show all it can add on either side.
        signature = (table_i_key(_OPEN_GATE, port, -1, 0), table_i_key(_OPEN_GATE, -1, port, 0))
        kind = self.kind_of.setdefault(signature, len(self.ports))
        if kind == len(self.ports):
            self.ports.append(port)
        return kind

    def kinds_of(self, ports: np.ndarray) -> np.ndarray:
        kinds = self.kinds[ports]
        if not kinds.all():
            for port in np.unique(ports[kinds == 0]).tolist():
                self.kinds[port] = self._kind(port)
            kinds = self.kinds[ports]
        return kinds

    def keys(self, gates: np.ndarray, src_kinds: np.ndarray, dst_kinds: np.ndarray) -> np.ndarray:
        if self.width < len(self.ports):
            self.width = 2 * len(self.ports)
            self.pairs = np.full(len(_GATE_WORDS) * self.width**2, -1, np.int64)
        index = (gates * self.width + src_kinds) * self.width + dst_kinds
        pairs = self.pairs[index]
        if (pairs < 0).any():
            for at in np.unique(index[pairs < 0]).tolist():
                gate, src, dst = at // self.width**2, at // self.width % self.width, at % self.width
                word = _GATE_WORDS[gate]
                self.pairs[at] = table_i_key(
                    word, self.ports[src], self.ports[dst], 0
                ) ^ table_i_key(word, -1, -1, 0)
            pairs = self.pairs[index]
        return pairs


_PORT_TABLES = _PortTables()


def _table_i_keys(
    flags: np.ndarray, src_ports: np.ndarray, dst_ports: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """:func:`table_i_key` of each row of the four arrays.

    The flag word's own columns come from :data:`_FLAG_KEYS` and the port
    pair's from :class:`_PortTables`, both filled by :func:`table_i_key`;
    a port's columns depend on the flags only through the transport gate,
    and the size sits above every column.
    """
    tables = _PORT_TABLES
    pairs = tables.keys(
        _GATES[flags], tables.kinds_of(src_ports), tables.kinds_of(dst_ports)
    )
    return _FLAG_KEYS[flags] | pairs | sizes << _KEY_SIZE


# --------------------------------------------------------------------- #
# Frames: one numpy pass over a block of records.
# --------------------------------------------------------------------- #
#: Header bytes gathered at each frame's start, read as big-endian 16-bit
#: words: the source MAC (bytes 6-11), EtherType, IPv4 version/IHL (IPv6
#: version), IPv4 total length (EAPoL body length), ARP address lengths,
#: IPv6 next header, IPv4 protocol, IPv4 destination (30-33) and an IPv6
#: hop-by-hop header's next header and length (54-55).
_HEAD_BYTES = 56
_HEAD_WORDS = [3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 27]
#: Words gathered at each frame's transport header: both ports, the UDP
#: length, BOOTP's hlen (byte 10) and the TCP data offset (byte 12).
_L4_BYTES = 14
_L4_WORDS = [0, 1, 2, 5, 6]
#: Zero bytes after a block, so that every frame's header window lies in it.
_PAD = bytes(_HEAD_BYTES)
#: Where a BOOTP payload's magic cookie starts, from the UDP header.
_COOKIE_AT = 8 + _BOOTP_FIXED_LEN
_U16 = np.dtype(">u2")
_U32 = np.dtype(">u4")
_MAGIC_COOKIE = int.from_bytes(MAGIC_COOKIE, "big")
_ARP_LENGTHS = 0x0604  # hardware address length 6, protocol address length 4

# What an EtherType names: the pass's frame kinds, stored shifted up by a
# byte so that a kind and one header byte index the tables below.  LLC
# lengths go to the dissector.
_LLC, _IPV4, _IPV6, _ARP, _EAPOL, _OTHER = range(6)
_KINDS = _OTHER + 1
_ETHER_KINDS = np.full(1 << 16, _OTHER << 8, np.uint16)
_ETHER_KINDS[: _MAX_8023_LENGTH + 1] = _LLC << 8
for _ethertype, _kind in (
    (_ETHERTYPE_IPV4, _IPV4),
    (_ETHERTYPE_IPV6, _IPV6),
    (_ETHERTYPE_ARP, _ARP),
    (_ETHERTYPE_EAPOL, _EAPOL),
):
    _ETHER_KINDS[_ethertype] = _kind << 8
#: Where the network layer ends, by ``kind << 8 | byte 14``: the frame
#: must be at least this long.  Byte 14 is IPv4's version/IHL (IHL below
#: 5 or another version is rejected) and IPv6's version; ARP needs its
#: 28-byte body, EAPoL its 4-byte header.  LLC never fits.
_NETWORK_ENDS = np.full((_KINDS, 256), 1 << 32, np.int64)
_NETWORK_ENDS[_IPV4, 0x45:0x50] = 14 + 4 * np.arange(5, 16)
_NETWORK_ENDS[_IPV6, 0x60:0x70] = 54
_NETWORK_ENDS[_ARP] = 42
_NETWORK_ENDS[_EAPOL] = 18
_NETWORK_ENDS[_OTHER] = 14
#: By ``kind << 8 | IP protocol``: the flag word of a parsed frame, before
#: its raw-data, not-DHCP and option bits; the transport bytes the layer
#: parser needs; and whether bytes after the parsed headers are raw data
#: (never for ARP, ICMP or ICMPv6, whose parsers keep no payload).
_KIND_FLAGS = np.zeros((_KINDS, 256), np.int64)
_TRANSPORT_NEEDS = np.zeros((_KINDS, 256), np.int64)
_KEEPS_RAW = np.ones((_KINDS, 256), bool)
for _kind, _transports in (
    (_IPV4, {6: (_F_TCP, 20), 17: (_F_UDP, 8), 1: (_F_ICMP, 8)}),
    (_IPV6, {6: (_F_TCP, 20), 17: (_F_UDP, 8), 58: (_F_ICMPV6, 4)}),
):
    _KIND_FLAGS[_kind] = _F_IP
    for _protocol, (_flag, _need) in _transports.items():
        _KIND_FLAGS[_kind, _protocol] |= _flag
        _TRANSPORT_NEEDS[_kind, _protocol] = _need
_KIND_FLAGS[_ARP] = _F_ARP
_KIND_FLAGS[_EAPOL] = _F_EAPOL
_KEEPS_RAW[_ARP] = _KEEPS_RAW[_IPV4, 1] = _KEEPS_RAW[_IPV6, 58] = False
_NETWORK_ENDS, _KIND_FLAGS, _TRANSPORT_NEEDS, _KEEPS_RAW = (
    table.ravel() for table in (_NETWORK_ENDS, _KIND_FLAGS, _TRANSPORT_NEEDS, _KEEPS_RAW)
)
del _ethertype, _kind, _transports, _protocol, _flag, _need
#: Length of an IPv6 hop-by-hop header by its length byte.
_HOP_BY_HOP_LENGTHS = (np.arange(256) + 1) * 8
#: TCP header length by the data-offset byte.
_TCP_HEADER_LENGTHS = (np.arange(256) >> 4) * 4
#: Whether a port (index -1: none) is a BOOTP port.
_IS_BOOTP_PORT = np.zeros(1 << 16 | 1, bool)
_IS_BOOTP_PORT[[dhcp_mod.SERVER_PORT, dhcp_mod.CLIENT_PORT]] = True


class _IPv4Tokens:
    """Dotted-quad text of IPv4 address values, -1 (no IP) reading ``None``.

    The addresses seen so far are kept sorted beside their texts, so a
    block's tokens are one binary search; an address seen first is
    formatted once, and the table starts over past :data:`_TOKEN_ENTRIES`.
    ``np.unique`` over each block instead timed ~0.07 us a frame slower
    on the seed-1 benchmark captures (2-CPU x86 container).
    """

    def __init__(self) -> None:
        self.addresses = np.array([-1])
        self.texts = np.array([None], object)

    def __call__(self, addresses: np.ndarray) -> list[Optional[str]]:
        at = np.minimum(np.searchsorted(self.addresses, addresses), len(self.addresses) - 1)
        unknown = self.addresses[at] != addresses
        if unknown.any():
            new = np.unique(addresses[unknown])
            if len(self.addresses) + len(new) > _TOKEN_ENTRIES:
                self.addresses, self.texts = self.addresses[:1], self.texts[:1]
            texts = [socket.inet_ntoa(address.to_bytes(4, "big")) for address in new.tolist()]
            slots = np.searchsorted(self.addresses, new)
            self.addresses = np.insert(self.addresses, slots, new)
            self.texts = np.insert(self.texts, slots, np.array(texts, object))
            at = np.searchsorted(self.addresses, addresses)
        tokens: list[Optional[str]] = self.texts[at].tolist()
        return tokens


#: Destination tokens remembered before a memo starts over.
_TOKEN_ENTRIES = 4096
_ipv4_tokens = _IPv4Tokens()
#: Text of a 16-byte IPv6 address, memoised like the IPv4 tokens.
_ipv6_text = functools.lru_cache(maxsize=_TOKEN_ENTRIES)(ipv6_from_bytes)


def _dissected_fields(data: bytes, original_length: int) -> tuple[int, int, Optional[str]]:
    """``(source MAC, key, destination token)`` of a frame only
    :meth:`Packet.dissect` parses exactly (LLC, malformed layers); raises
    :class:`PacketDecodeError` where it does."""
    packet = Packet.dissect(data, 0.0, original_length)
    flags, src_port, dst_port, size, dst_ip = _packet_fields(packet)
    return packet.ethernet.src.value, table_i_key(flags, src_port, dst_port, size), dst_ip


def _frame_rows(
    data: bytes,
    starts: np.ndarray,
    stops: np.ndarray,
    timestamps: list[float],
    original_lengths: np.ndarray,
) -> Iterator[Optional[FrameRow]]:
    """The row of each frame ``data[starts[i]:stops[i]]``, in one numpy pass.

    Every frame's header bytes are gathered at once, and its flag word,
    ports, size, source MAC and destination token are computed as arrays
    by the rules :meth:`Packet.dissect` applies: the IPv4 header length
    and total-length clamp, the IPv6 hop-by-hop header length (IPv6
    payloads are deliberately *not* clamped), the UDP length clamp, the
    TCP data offset, EAPoL's body length.  Ethernet II with IPv4/IPv6 over
    TCP, UDP, ICMP or ICMPv6, ARP, EAPoL and unknown EtherTypes are
    covered.  A BOOTP-port UDP payload is not DHCP when it holds the fixed
    part with ``hlen == 6`` and no magic cookie after it -- the only parse
    that sets ``_F_APP_NOT_DHCP``; over TCP that bit cannot change the key,
    so it is not read.  IPv4 option lists and IPv6 hop-by-hop headers are
    walked frame by frame for their padding and router-alert bits.  A frame
    none of this covers exactly (LLC, a malformed layer, a runt) is
    dissected; its row is ``None`` if the dissector rejects it.  The rows
    are zipped from columns as they are read, so a block's row tuples are
    never all alive at once.

    A block of two frames, an ARP request and a DNS query over UDP:

    >>> import numpy as np
    >>> arp = bytes.fromhex(
    ...     "ffffffffffff" "020000000001" "0806" "0001" "0800" "06" "04" "0001"
    ...     "020000000001" "c0a80002" "000000000000" "c0a80001"
    ... )
    >>> dns = bytes.fromhex(
    ...     "020000000009" "020000000002" "0800"
    ...     "4500" "0024" "00004000" "4011" "0000" "c0a80003" "c0a80001"  # IPv4
    ...     "c35000350010" "0000" "1234" "0100" "0000" "0000"  # UDP + 8 B
    ... )
    >>> rows = list(_frame_rows(arp + dns, np.array([0, 42]), np.array([42, 42 + len(dns)]),
    ...                         [1.0, 1.5], np.array([0, 0])))
    >>> [(t, hex(mac), dst) for t, mac, _, dst in rows]
    [(1.0, '0x20000000001', None), (1.5, '0x20000000002', '192.168.0.1')]
    >>> [[(key >> shift) & mask for shift, mask in KEY_LAYOUT] for _, _, key, _ in rows]
    ... # doctest: +NORMALIZE_WHITESPACE
    [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 50, 1, 0, 3, 1]]
    """
    padded = data + _PAD
    length = stops - starts
    (
        mac_high, mac_middle, mac_low, ethertype, version_ihl, total, arp_lengths,
        next_header, ipv4_protocol, dst_high, dst_low, hop_header,
    ) = byte_windows(padded, _HEAD_BYTES)[starts].view(_U16).T[_HEAD_WORDS].astype(np.int64)
    kind = _ETHER_KINDS[ethertype]
    network_end = _NETWORK_ENDS[kind | version_ihl >> 8]
    fits = length >= network_end
    ipv4 = fits & (kind == _IPV4 << 8)
    ipv6 = fits & (kind == _IPV6 << 8)
    hop = ipv6 & (next_header < 0x100)  # next header 0
    # The transport starts where the network layer ends, after the IPv6
    # hop-by-hop header where there is one, which must lie in the frame.
    l4 = network_end + hop * _HOP_BY_HOP_LENGTHS[hop_header & 0xFF]
    fits &= length >= l4
    ipv6 &= fits
    hop &= fits
    protocol = np.where(
        hop, hop_header >> 8, np.where(ipv4, ipv4_protocol & 0xFF, next_header >> 8)
    )
    by_protocol = kind | protocol
    # IPv4 clamps the transport at a sane total length; IPv6 does not.
    total += 14  # the IPv4 total length (EAPoL body length) from the frame's start
    l4_length = np.where(ipv4 & (network_end <= total) & (total < length), total, length) - l4

    at = starts + np.minimum(l4, length)
    src_port, dst_port, udp_length, bootp_hlen, tcp_offset = (
        byte_windows(padded, _L4_BYTES)[at].view(_U16).T[_L4_WORDS].astype(np.int64)
    )
    udp = ipv4 | ipv6
    tcp = udp & (protocol == 6)
    udp &= protocol == 17
    udp_payload = np.minimum(l4_length, udp_length) - 8
    tcp_header = _TCP_HEADER_LENGTHS[tcp_offset >> 8]
    parsed = (
        fits
        & ((kind != _ARP << 8) | (arp_lengths == _ARP_LENGTHS))
        & (l4_length >= _TRANSPORT_NEEDS[by_protocol])
        & ~(udp & (udp_payload < 0) | tcp & ((tcp_header < 20) | (tcp_header > l4_length)))
    )
    # Bytes after the parsed headers: UDP's clamped payload, TCP's data,
    # the rest of an EAPoL frame after its body, else the whole transport.
    rest = np.where(udp, udp_payload, l4_length - np.where(tcp, tcp_header, 0))
    raw = _KEEPS_RAW[by_protocol] & (rest > np.where(kind == _EAPOL << 8, total - 14, 0))
    transported = udp | tcp
    src_port = np.where(transported, src_port, -1)
    dst_port = np.where(transported, dst_port, -1)
    # A BOOTP payload holding the fixed part with hlen 6 is not DHCP
    # unless the magic cookie follows it (inside the payload).
    not_dhcp = (
        udp
        & (_IS_BOOTP_PORT[src_port] | _IS_BOOTP_PORT[dst_port])
        & (udp_payload >= _BOOTP_FIXED_LEN)
        & (bootp_hlen >> 8 == 6)
    )
    cookied = np.flatnonzero(not_dhcp & (udp_payload >= _BOOTP_FIXED_LEN + 4))
    if len(cookied):
        cookies = byte_windows(padded, 4)[at[cookied] + _COOKIE_AT].view(_U32)[:, 0]
        not_dhcp[cookied] = cookies != _MAGIC_COOKIE
    flags = _KIND_FLAGS[by_protocol] | raw * _F_RAW_DATA | not_dhcp * _F_APP_NOT_DHCP

    # IPv4 option lists and IPv6 hop-by-hop headers, frame by frame.
    opened = np.flatnonzero(parsed & ((ipv4 & (network_end > 34)) | hop))
    if len(opened):
        first, hops = starts[opened], hop[opened]
        option_starts = (first + np.where(hops, 56, 34)).tolist()
        option_ends = (first + l4[opened]).tolist()
        found = [
            (_hop_by_hop_option_flags if is_hop else _ipv4_option_flags)(data, start, end)
            for start, end, is_hop in zip(option_starts, option_ends, hops.tolist())
        ]
        if None in found:  # an option list the layer parser rejects
            parsed[opened] = [bits is not None for bits in found]
        flags[opened] |= [bits or 0 for bits in found]

    sizes = np.where(original_lengths > 0, original_lengths, length)
    keys = _table_i_keys(flags, src_port, dst_port, sizes)
    macs = mac_high << 32 | mac_middle << 16 | mac_low
    addresses = np.where(ipv4, dst_high << 16 | dst_low, -1)
    tokens = _ipv4_tokens(addresses)
    sixes = np.flatnonzero(ipv6)
    for index, start in zip(sixes.tolist(), starts[sixes].tolist()):
        tokens[index] = _ipv6_text(data[start + 38 : start + 54])
    mac_values, key_values = macs.tolist(), keys.tolist()
    rejected = []
    for index in np.flatnonzero(~parsed).tolist():
        start, stop = int(starts[index]), int(stops[index])
        try:
            mac_values[index], key_values[index], tokens[index] = _dissected_fields(
                data[start:stop], int(original_lengths[index])
            )
        except PacketDecodeError:
            rejected.append(index)
    rows: Iterator[Optional[FrameRow]] = zip(timestamps, mac_values, key_values, tokens)
    if rejected:
        listed: list[Optional[FrameRow]] = list(rows)
        for index in rejected:
            listed[index] = None
        rows = iter(listed)
    return rows


#: What a packet source yields: a raw captured frame or a dissected packet.
StreamItem = Union[CapturedPacket, Packet]


def parsed_frames(blocks: Iterable[RecordBlock]) -> Iterator[CapturedPacket]:
    """The frames of ``blocks`` (:meth:`PcapReader.blocks
    <repro.net.pcap.PcapReader.blocks>`), each carrying its row.

    Each block is parsed in one :func:`_frame_rows` pass when its first
    frame is asked for, and its frames are then handed over one at a time.
    """
    return itertools.chain.from_iterable(map(_block_frames, blocks))


def _block_frames(block: RecordBlock) -> Iterator[CapturedPacket]:
    rows = _frame_rows(
        block.data, block.starts, block.stops, block.timestamps, block.original_lengths
    )
    return map(
        CapturedPacket, block.timestamps, block.frames(), block.original_lengths.tolist(), rows
    )


def carrying_rows(items: Iterable[StreamItem]) -> Iterator[StreamItem]:
    """``items``, each frame that carries no row given its row.

    Consecutive such frames are gathered, up to :data:`~repro.net.pcap.READ_BLOCK`
    bytes of them, and parsed as one block (:func:`_frame_rows`), so
    ``items`` is read up to one block ahead of the frame handed over.
    Dissected packets and frames that already carry a row pass as they
    are.  If ``items`` raises, the frames gathered before it are handed
    over first.
    """
    run: list[CapturedPacket] = []
    size = 0
    iterator = iter(items)
    while True:
        try:
            item = next(iterator, None)
        except Exception:
            if run:
                yield from _run_frames(run)
            raise
        if isinstance(item, CapturedPacket) and item.row is None:
            run.append(item)
            size += len(item.data)
            if size >= READ_BLOCK:
                yield from _run_frames(run)
                run, size = [], 0
            continue
        if run:
            yield from _run_frames(run)
            run, size = [], 0
        if item is None:
            return
        yield item


def _run_frames(frames: list[CapturedPacket]) -> Iterator[CapturedPacket]:
    """Copies of ``frames``, parsed as one block, each carrying its row."""
    lengths = np.array([len(frame.data) for frame in frames], np.int64)
    stops = np.cumsum(lengths)
    return _block_frames(
        RecordBlock(
            b"".join(frame.data for frame in frames),
            stops - lengths,
            stops,
            [frame.timestamp for frame in frames],
            np.array([frame.original_length for frame in frames], np.int64),
        )
    )


_ONE_START = np.zeros(1, np.int64)


def stream_row(item: StreamItem) -> FrameRow:
    """``(timestamp, source MAC, packed Table-I key, destination token)`` of one item.

    The per-item parse of the streaming drive and of training rows.  A
    frame read by :func:`parsed_frames` or :func:`carrying_rows` carries
    its row; any other frame is parsed as a block of one
    (:func:`_frame_rows`); a dissected packet is read with one attribute
    pass (:func:`_packet_fields`).
    :func:`table_i_key` packs each row; no column is built.
    """
    if isinstance(item, CapturedPacket):
        row = item.row
        if row is None:
            data = item.data
            if data:  # an empty frame has no byte to gather
                (row,) = _frame_rows(
                    data,
                    _ONE_START,
                    np.array([len(data)]),
                    [item.timestamp],
                    np.array([item.original_length]),
                )
            if row is None:  # the dissector rejects the frame: it raises here
                return (item.timestamp, *_dissected_fields(data, item.original_length))
        return row
    flags, src_port, dst_port, size, dst_ip = _packet_fields(item)
    key = table_i_key(flags, src_port, dst_port, size)
    return item.timestamp, item.ethernet.src.value, key, dst_ip


__all__ = [
    "KEY_LAYOUT",
    "FrameRow",
    "StreamItem",
    "carrying_rows",
    "parsed_frames",
    "stream_row",
    "table_i_key",
]
