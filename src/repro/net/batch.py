"""Columnar packet batches: the struct-of-arrays view of the hot path.

Building a :class:`Packet` object tree per frame and reading ~20
attributes off it per feature row is what dominates a per-packet
datapath, so the streaming pipeline moves *columns* instead: a
:class:`PacketBatch` holds exactly the fields the Table-I feature set and
the assembler consume -- timestamps, source MACs, protocol flags, ports,
sizes, destination-IP tokens -- as numpy arrays over a whole batch of
packets.

One builder covers both stream item shapes.  :class:`PacketBatchBuilder`
takes items one at a time as they arrive:

* a raw :class:`~repro.net.pcap.CapturedPacket` frame (pcap replay) is
  parsed with direct byte-offset reads -- no layer objects are built on
  the fast path.  Any frame the fast parser cannot prove it handles
  exactly like :meth:`Packet.dissect` (LLC, EAPOL, IP options, BOOTP
  ports, VLAN, truncated headers) falls back to the full dissector for
  that one frame, so the columns are *always* equal to what dissecting
  every frame would have produced (the differential suite asserts this);
* an already-dissected :class:`Packet` (simulator traces, generic
  sources) is read with one tight attribute pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.net.addresses import ipv6_from_bytes
from repro.net.layers.dhcp import DHCPMessage
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_ARP = 0x0806
_ETHERTYPE_IPV6 = 0x86DD
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

# UDP ports whose application layer influences a feature beyond "payload
# present": BOOTP frames are only DHCP when the magic cookie parses, so the
# fast frame parser defers those to the full dissector.
_BOOTP_PORTS = (67, 68)


def _packet_fields(packet: Packet) -> tuple[int, int, int, int, Optional[str]]:
    """(flags, src_port, dst_port, size, dst_ip) of one dissected packet.

    This is the single definition both item shapes share: the attribute
    reads mirror :class:`~repro.features.packet_features.PacketFeatureExtractor`
    field for field, so a batch built from objects and a batch built from
    the frames those objects serialise to carry identical columns.
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


def _fast_frame_fields(data: bytes) -> Optional[tuple[int, int, int, Optional[str]]]:
    """(flags, src_port, dst_port, dst_ip) straight from frame bytes.

    Returns ``None`` whenever the frame needs the full dissector to match
    :meth:`Packet.dissect` exactly -- the caller then takes the object
    path for that frame.  The byte offsets and length clamps below mirror
    the layer parsers (IPv4 total-length clamp, UDP length clamp, TCP data
    offset, IPv6's deliberately *unclamped* payload).
    """
    if len(data) < 34:
        # Too short for Ethernet + minimal IP: LLC, ARP, EAPOL, runts and
        # decode errors all live here -- let the dissector decide.
        return None
    ethertype = (data[12] << 8) | data[13]
    if ethertype == _ETHERTYPE_IPV4:
        if data[14] != 0x45:
            return None  # options (IHL > 5) or not version 4
        total_length = (data[16] << 8) | data[17]
        rest_len = len(data) - 14
        l4_end = min(rest_len, total_length) if total_length >= 20 else rest_len
        l4_len = max(0, l4_end - 20)
        l4_off = 34
        protocol = data[23]
        dst_ip = "%d.%d.%d.%d" % (data[30], data[31], data[32], data[33])
        flags = _F_IP
    elif ethertype == _ETHERTYPE_IPV6:
        if len(data) < 54 or (data[14] >> 4) != 6:
            return None
        protocol = data[20]
        if protocol == 0:  # hop-by-hop extension header: options territory
            return None
        dst_ip = ipv6_from_bytes(data[38:54])
        # IPv6Header.from_bytes does not clamp by payload_length: Ethernet
        # padding stays in the transport payload, exactly as scalar.
        l4_off = 54
        l4_len = len(data) - 54
        flags = _F_IP
    elif ethertype == _ETHERTYPE_ARP:
        rest = len(data) - 14
        if rest < 28 or data[18] != 6 or data[19] != 4:
            return None  # ARPPacket.from_bytes would reject it
        return _F_ARP, -1, -1, None
    else:
        if ethertype <= _MAX_8023_LENGTH or ethertype == 0x888E:
            return None  # LLC and EAPOL payload semantics: full dissect
        # Unknown EtherType: dissect keeps the bytes as raw payload.
        flags = _F_RAW_DATA if len(data) > 14 else 0
        return flags, -1, -1, None

    if protocol == 6:  # TCP
        if l4_len < 20:
            return None
        offset = (data[l4_off + 12] >> 4) * 4
        if offset < 20 or offset > l4_len:
            return None
        flags |= _F_TCP
        if l4_len - offset > 0:
            flags |= _F_RAW_DATA
    elif protocol == 17:  # UDP
        if l4_len < 8:
            return None
        udp_length = (data[l4_off + 4] << 8) | data[l4_off + 5]
        if udp_length < 8:
            return None
        flags |= _F_UDP
        if max(8, min(l4_len, udp_length)) - 8 > 0:
            flags |= _F_RAW_DATA
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

    src_port = (data[l4_off] << 8) | data[l4_off + 1]
    dst_port = (data[l4_off + 2] << 8) | data[l4_off + 3]
    if src_port in _BOOTP_PORTS or dst_port in _BOOTP_PORTS:
        return None  # the DHCP-vs-BOOTP feature needs the parsed payload
    return flags, src_port, dst_port, dst_ip


#: What a packet source yields: a raw captured frame or a dissected packet.
StreamItem = Union[CapturedPacket, Packet]


class PacketBatchBuilder:
    """Accumulates stream items into batch columns, one item at a time.

    :meth:`add` parses one item into the column lists and returns its
    source MAC (the caller's hand-over decision keys on it);
    :meth:`build` turns the accumulated columns into a
    :class:`PacketBatch` and starts an empty batch.
    """

    __slots__ = ("timestamps", "macs", "flags", "src_ports", "dst_ports", "sizes", "dst_ips")

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.timestamps: list[float] = []
        self.macs: list[int] = []
        self.flags: list[int] = []
        self.src_ports: list[int] = []
        self.dst_ports: list[int] = []
        self.sizes: list[int] = []
        self.dst_ips: list[Optional[str]] = []

    def add(self, item: StreamItem) -> int:
        """Parse one frame or packet into the columns; returns its source MAC."""
        if isinstance(item, CapturedPacket):
            data = item.data
            fast = _fast_frame_fields(data)
            if fast is not None:
                flags, src_port, dst_port, dst_ip = fast
                size = item.original_length or len(data)
                mac = int.from_bytes(data[6:12], "big")
            else:
                packet = Packet.dissect(data, item.timestamp, item.original_length)
                flags, src_port, dst_port, size, dst_ip = _packet_fields(packet)
                mac = packet.ethernet.src.value
        else:
            flags, src_port, dst_port, size, dst_ip = _packet_fields(item)
            mac = item.ethernet.src.value
        self.timestamps.append(item.timestamp)
        self.macs.append(mac)
        self.flags.append(flags)
        self.src_ports.append(src_port)
        self.dst_ports.append(dst_port)
        self.sizes.append(size)
        self.dst_ips.append(dst_ip)
        return mac

    def build(self) -> "PacketBatch":
        """The accumulated columns as a batch; the builder starts over empty."""
        batch = PacketBatch(
            timestamps=np.array(self.timestamps, dtype=np.float64),
            src_macs=np.array(self.macs, dtype=np.int64),
            flags=np.array(self.flags, dtype=np.int64),
            src_ports=np.array(self.src_ports, dtype=np.int64),
            dst_ports=np.array(self.dst_ports, dtype=np.int64),
            sizes=np.array(self.sizes, dtype=np.int64),
            dst_ips=self.dst_ips,
        )
        self._reset()
        return batch


@dataclass
class PacketBatch:
    """A batch of packets as parallel columns (one array element per packet).

    All arrays share the batch length; ``dst_ips`` is a plain list because
    destination tokens are compared, not computed on (``None`` marks a
    packet without an IP layer).  ``flags`` packs the twelve boolean
    columns into one int64 word per packet (bit layout: the ``_F_*``
    constants of this module; :func:`~repro.features.packet_features.batch_feature_matrix`
    unpacks it).
    """

    timestamps: np.ndarray
    src_macs: np.ndarray
    flags: np.ndarray
    src_ports: np.ndarray
    dst_ports: np.ndarray
    sizes: np.ndarray
    dst_ips: list

    @classmethod
    def from_items(cls, items: Iterable[StreamItem]) -> "PacketBatch":
        """One batch of frames and/or packets (see :class:`PacketBatchBuilder`)."""
        builder = PacketBatchBuilder()
        for item in items:
            builder.add(item)
        return builder.build()

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


__all__ = ["PacketBatch", "PacketBatchBuilder", "StreamItem"]
