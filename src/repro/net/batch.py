"""Packet parsing into Table-I rows, one item at a time.

Building a :class:`Packet` object tree per frame and reading ~20
attributes off it per feature row is what dominates a per-packet
datapath, so the streaming pipeline reads just the fields the Table-I
feature set and the assembler consume -- timestamp, source MAC, protocol
flags, ports, size, destination-IP token -- straight off each stream
item.  Two parsers cover both item shapes:

* a raw :class:`~repro.net.pcap.CapturedPacket` frame (pcap replay) is
  parsed with direct byte-offset reads -- no layer objects are built on
  the fast path, IPv4 option lists and IPv6 hop-by-hop headers
  included.  Any frame the fast parser cannot prove it handles exactly
  like :meth:`Packet.dissect` (LLC, TCP on BOOTP ports, malformed option
  lists, truncated headers and frames under 34 bytes) falls back to the
  full dissector for that one frame, so the fields are *always* equal to
  what dissecting every frame would have produced (the differential
  suite asserts this);
* an already-dissected :class:`Packet` (simulator traces, training
  captures, generic sources) is read with one tight attribute pass.

:func:`table_i_key` -- the one definition of Table I -- packs one
packet's fields into its feature row as one integer, and
:func:`stream_row` reads an item's row.  The streaming drive takes it
from each item as it arrives; training maps it over a capture and
unpacks the keys with
:func:`~repro.features.packet_features.unpack_rows`.  No batch of
columns is built anywhere.
"""

from __future__ import annotations

import functools
import socket
import struct
from typing import Optional, Union

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
from repro.net.pcap import CapturedPacket

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

# Ports whose application layer influences a feature beyond "payload
# present": a BOOTP message is only DHCP when it carries the magic cookie.
# The fast frame parser reads that bit straight from UDP payloads and
# defers TCP on these ports to the full dissector.
_BOOTP_PORTS = (67, 68)

# Header fields read in one call: IPv4 version/IHL, total length,
# protocol and destination; both transport ports, and UDP's length.
_IPV4_HEADER = struct.Struct("!BxH5xB6x4s").unpack_from
_PORT_PAIR = struct.Struct("!HH").unpack_from
_UDP_HEADER = struct.Struct("!HHH").unpack_from

#: Dotted-quad text of a 4-byte IPv4 address, memoised: a capture names
#: few destinations, and each frame's token is looked up, not formatted.
_ipv4_text = functools.lru_cache(maxsize=4096)(socket.inet_ntoa)

# Option types whose presence sets the padding / router-alert columns.
_IPV4_OPTION_END = ipv4_mod.OPTION_END
_IPV4_OPTION_NOP = ipv4_mod.OPTION_NOP
_IPV4_OPTION_ROUTER_ALERT = ipv4_mod.OPTION_ROUTER_ALERT
_HBH_OPTION_PAD1 = ipv6_mod.HBH_OPTION_PAD1
_HBH_OPTION_PADN = ipv6_mod.HBH_OPTION_PADN
_HBH_OPTION_ROUTER_ALERT = ipv6_mod.HBH_OPTION_ROUTER_ALERT


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


def _fast_frame_fields(data: bytes) -> Optional[tuple[int, int, int, Optional[str]]]:
    """(flags, src_port, dst_port, dst_ip) straight from frame bytes.

    Returns ``None`` whenever the frame needs the full dissector to match
    :meth:`Packet.dissect` exactly (LLC, TCP on BOOTP ports, an IPv4
    option list the layer parser rejects, truncated headers, frames under
    34 bytes) -- the caller then takes the object path for that frame.
    The byte offsets and length clamps below mirror the layer parsers
    (IPv4 header length and total-length clamp, the IPv6 hop-by-hop
    header's length, UDP length clamp, TCP data offset, IPv6's
    deliberately *unclamped* payload, EAPoL's body length), and the
    option walks mirror theirs for the padding and router-alert bits.

    BOOTP-port UDP stays on the fast path because its application flag
    needs no parse: DHCP is the first parser a BOOTP port tries, and the
    only parse that sets ``_F_APP_NOT_DHCP`` is a successful cookie-less
    one -- a payload of at least ``FIXED_LEN`` bytes with ``hlen == 6``
    and no magic cookie right after the fixed part.  Every other outcome
    (DHCP, another parser, no parser) leaves just the "payload present"
    bit.
    """
    frame_len = len(data)
    if frame_len < 34:
        # Too short for Ethernet + minimal IP: LLC, ARP, EAPOL, runts and
        # decode errors all live here -- let the dissector decide.
        return None
    ethertype = data[12] << 8 | data[13]
    if ethertype == _ETHERTYPE_IPV4:
        version_ihl, total_length, protocol, dst_raw = _IPV4_HEADER(data, 14)
        if version_ihl >> 4 != 4:
            return None
        ihl = (version_ihl & 0x0F) * 4
        rest_len = frame_len - 14
        if ihl < 20 or rest_len < ihl:
            return None  # IPv4Header.from_bytes rejects the IHL
        flags = _F_IP
        if ihl > 20:
            option_flags = _ipv4_option_flags(data, 34, 14 + ihl)
            if option_flags is None:
                return None
            flags |= option_flags
        l4_end = total_length if ihl <= total_length < rest_len else rest_len
        l4_len = l4_end - ihl
        l4_off = 14 + ihl
        dst_ip = _ipv4_text(dst_raw)
    elif ethertype == _ETHERTYPE_IPV6:
        if frame_len < 54 or (data[14] >> 4) != 6:
            return None
        protocol = data[20]
        l4_off = 54
        flags = _F_IP
        if protocol == 0:  # hop-by-hop options header
            # IPv6Header.from_bytes: at least 8 bytes, the whole header
            # present, the next header read from its first byte.
            if frame_len < 62:
                return None
            l4_off = 54 + (data[55] + 1) * 8
            if frame_len < l4_off:
                return None
            flags |= _hop_by_hop_option_flags(data, 56, l4_off)
            protocol = data[54]
        dst_ip = ipv6_from_bytes(data[38:54])
        # IPv6Header.from_bytes does not clamp by payload_length: Ethernet
        # padding stays in the transport payload, exactly as scalar.
        l4_len = frame_len - l4_off
    elif ethertype == _ETHERTYPE_ARP:
        rest = frame_len - 14
        if rest < 28 or data[18] != 6 or data[19] != 4:
            return None  # ARPPacket.from_bytes would reject it
        return _F_ARP, -1, -1, None
    elif ethertype == _ETHERTYPE_EAPOL:
        # EAPOLFrame.from_bytes: a 4-byte header and a body cut at its
        # length field; whatever follows stays as raw payload.
        body_end = 18 + ((data[16] << 8) | data[17])
        return _F_EAPOL | (_F_RAW_DATA if frame_len > body_end else 0), -1, -1, None
    else:
        if ethertype <= _MAX_8023_LENGTH:
            return None  # LLC payload semantics: full dissect
        # Unknown EtherType: dissect keeps the bytes as raw payload.
        flags = _F_RAW_DATA if frame_len > 14 else 0
        return flags, -1, -1, None

    if protocol == 17:  # UDP
        if l4_len < 8:
            return None
        src_port, dst_port, udp_length = _UDP_HEADER(data, l4_off)
        if udp_length < 8:
            return None
        flags |= _F_UDP
        payload_len = (l4_len if l4_len < udp_length else udp_length) - 8
        if payload_len > 0:
            flags |= _F_RAW_DATA
    elif protocol == 6:  # TCP
        if l4_len < 20:
            return None
        offset = (data[l4_off + 12] >> 4) * 4
        if offset < 20 or offset > l4_len:
            return None
        flags |= _F_TCP
        if l4_len - offset > 0:
            flags |= _F_RAW_DATA
        src_port, dst_port = _PORT_PAIR(data, l4_off)
    elif protocol == 1 and ethertype == _ETHERTYPE_IPV4:  # ICMP
        if l4_len < 8:
            return None
        return flags | _F_ICMP, -1, -1, dst_ip
    elif protocol == 58 and ethertype == _ETHERTYPE_IPV6:  # ICMPv6
        if l4_len < 4:
            return None
        return flags | _F_ICMPV6, -1, -1, dst_ip
    else:
        # Unhandled layer-4 protocol: the dissector keeps the transport
        # bytes as raw payload.
        if l4_len > 0:
            flags |= _F_RAW_DATA
        return flags, -1, -1, dst_ip

    if src_port in _BOOTP_PORTS or dst_port in _BOOTP_PORTS:
        if protocol == 6:
            return None  # TCP on a BOOTP port: full dissect
        payload = data[l4_off + 8 : l4_off + 8 + payload_len]
        if (
            len(payload) >= _BOOTP_FIXED_LEN
            and payload[2] == 6
            and not payload.startswith(MAGIC_COOKIE, _BOOTP_FIXED_LEN)
        ):
            flags |= _F_APP_NOT_DHCP
    return flags, src_port, dst_port, dst_ip


#: What a packet source yields: a raw captured frame or a dissected packet.
StreamItem = Union[CapturedPacket, Packet]


def _item_fields(item: StreamItem) -> tuple[float, int, int, int, int, int, Optional[str]]:
    """``(timestamp, source MAC, flags, src_port, dst_port, size, dst_ip)``
    of one frame or packet: the fast frame parser, the full dissector for
    the frames it defers, the object parser for dissected packets."""
    if isinstance(item, CapturedPacket):
        data = item.data
        fields = _fast_frame_fields(data)
        if fields is not None:
            flags, src_port, dst_port, dst_ip = fields
            mac = int.from_bytes(data[6:12], "big")
            size = item.original_length or len(data)
            return item.timestamp, mac, flags, src_port, dst_port, size, dst_ip
        item = Packet.dissect(data, item.timestamp, item.original_length)
    flags, src_port, dst_port, size, dst_ip = _packet_fields(item)
    return item.timestamp, item.ethernet.src.value, flags, src_port, dst_port, size, dst_ip


def stream_row(item: StreamItem) -> tuple[float, int, int, Optional[str]]:
    """``(timestamp, source MAC, packed Table-I key, destination token)`` of one item.

    The per-frame parse of the streaming drive and of training rows:
    :func:`table_i_key` packs the item's fields; no column is built.
    """
    timestamp, mac, flags, src_port, dst_port, size, dst_ip = _item_fields(item)
    return timestamp, mac, table_i_key(flags, src_port, dst_port, size), dst_ip


__all__ = ["KEY_LAYOUT", "StreamItem", "stream_row", "table_i_key"]
