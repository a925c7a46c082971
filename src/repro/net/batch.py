"""Columnar packet batches: the struct-of-arrays view of the hot path.

The per-packet datapath dissects every frame into a :class:`Packet` object
tree and then reads ~20 attributes per packet to build one feature row at a
time.  At streaming rates the object churn dominates the pipeline, so the
batch-first datapath moves *columns* instead: a :class:`PacketBatch` holds
exactly the fields the Table-I feature set and the assembler consume --
timestamps, source MACs, protocol flags, ports, sizes, destination-IP
tokens -- as numpy arrays over a whole batch of packets.

Two constructors cover the two stream shapes:

* :meth:`PacketBatch.from_packets` runs one tight attribute-read pass over
  already-dissected :class:`Packet` objects (simulator traces, generic
  sources).
* :meth:`PacketBatch.from_frames` parses raw Ethernet frames (pcap replay)
  with direct byte-offset reads -- no layer objects are built on the fast
  path.  Any frame the fast parser cannot prove it handles exactly like
  :meth:`Packet.dissect` (LLC, EAPOL, IP options, BOOTP ports, VLAN,
  truncated headers) falls back to the full dissector for that one frame,
  so the columns are *always* equal to what the per-packet path would
  have produced (the differential suite asserts this).

The per-packet API stays available as a thin view: :meth:`PacketBatch.packet`
returns the backing ``Packet`` (dissecting the raw frame lazily when the
batch was built from frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.net.addresses import ipv6_from_bytes
from repro.net.layers.dhcp import DHCPMessage
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_ARP = 0x0806
_ETHERTYPE_IPV6 = 0x86DD
_MAX_8023_LENGTH = 0x05DC

# Bit positions of the packed per-packet flag word built by both parsers.
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

    This is the single definition both constructors share: the attribute
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


@dataclass
class PacketBatch:
    """A batch of packets as parallel columns (one array element per packet).

    All arrays share the batch length; ``dst_ips`` is a plain list because
    destination tokens are compared, not computed on (``None`` marks a
    packet without an IP layer).  ``flags`` packs the twelve boolean
    columns into one int64 word per packet (bit layout: the ``_F_*``
    constants of this module); the named accessors unpack lazily.
    """

    timestamps: np.ndarray
    src_macs: np.ndarray
    flags: np.ndarray
    src_ports: np.ndarray
    dst_ports: np.ndarray
    sizes: np.ndarray
    dst_ips: list
    packets: Optional[list] = None
    frames: Optional[list] = None

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """One attribute-read pass over dissected packet objects."""
        timestamps = []
        macs = []
        flag_words = []
        src_ports = []
        dst_ports = []
        sizes = []
        dst_ips = []
        for packet in packets:
            flags, src_port, dst_port, size, dst_ip = _packet_fields(packet)
            timestamps.append(packet.timestamp)
            macs.append(packet.ethernet.src.value)
            flag_words.append(flags)
            src_ports.append(src_port)
            dst_ports.append(dst_port)
            sizes.append(size)
            dst_ips.append(dst_ip)
        return cls(
            timestamps=np.array(timestamps, dtype=np.float64),
            src_macs=np.array(macs, dtype=np.int64),
            flags=np.array(flag_words, dtype=np.int64),
            src_ports=np.array(src_ports, dtype=np.int64),
            dst_ports=np.array(dst_ports, dtype=np.int64),
            sizes=np.array(sizes, dtype=np.int64),
            dst_ips=dst_ips,
            packets=list(packets),
        )

    @classmethod
    def from_frames(
        cls, frames: Sequence[Union[CapturedPacket, tuple]]
    ) -> "PacketBatch":
        """Struct-batched parse of raw captured frames (pcap fast path).

        Each frame is either a :class:`CapturedPacket` or a
        ``(timestamp, data, original_length)`` tuple.  Frames the fast
        parser defers are dissected individually -- feature columns are
        bitwise-equal to ``from_packets([frame.dissect() ...])`` either
        way, just without building layer objects for the common case.
        """
        timestamps = []
        macs = []
        flag_words = []
        src_ports = []
        dst_ports = []
        sizes = []
        dst_ips = []
        kept_frames = []
        for frame in frames:
            if isinstance(frame, CapturedPacket):
                timestamp, data, original = frame.timestamp, frame.data, frame.original_length
            else:
                timestamp, data, original = frame
            kept_frames.append((timestamp, data, original))
            fast = _fast_frame_fields(data)
            if fast is not None:
                flags, src_port, dst_port, dst_ip = fast
                size = original or len(data)
                mac_value = int.from_bytes(data[6:12], "big")
            else:
                packet = Packet.dissect(data, timestamp, original)
                flags, src_port, dst_port, size, dst_ip = _packet_fields(packet)
                mac_value = packet.ethernet.src.value
            timestamps.append(timestamp)
            macs.append(mac_value)
            flag_words.append(flags)
            src_ports.append(src_port)
            dst_ports.append(dst_port)
            sizes.append(size)
            dst_ips.append(dst_ip)
        return cls(
            timestamps=np.array(timestamps, dtype=np.float64),
            src_macs=np.array(macs, dtype=np.int64),
            flags=np.array(flag_words, dtype=np.int64),
            src_ports=np.array(src_ports, dtype=np.int64),
            dst_ports=np.array(dst_ports, dtype=np.int64),
            sizes=np.array(sizes, dtype=np.int64),
            dst_ips=dst_ips,
            frames=kept_frames,
        )

    # ------------------------------------------------------------------ #
    # Column accessors (unpack the flag word on demand).
    # ------------------------------------------------------------------ #
    def _flag(self, bit: int) -> np.ndarray:
        return (self.flags & bit) != 0

    @property
    def arp(self) -> np.ndarray:
        return self._flag(_F_ARP)

    @property
    def llc(self) -> np.ndarray:
        return self._flag(_F_LLC)

    @property
    def ip(self) -> np.ndarray:
        return self._flag(_F_IP)

    @property
    def icmp(self) -> np.ndarray:
        return self._flag(_F_ICMP)

    @property
    def icmpv6(self) -> np.ndarray:
        return self._flag(_F_ICMPV6)

    @property
    def eapol(self) -> np.ndarray:
        return self._flag(_F_EAPOL)

    @property
    def tcp(self) -> np.ndarray:
        return self._flag(_F_TCP)

    @property
    def udp(self) -> np.ndarray:
        return self._flag(_F_UDP)

    @property
    def has_padding(self) -> np.ndarray:
        return self._flag(_F_PADDING)

    @property
    def has_router_alert(self) -> np.ndarray:
        return self._flag(_F_ROUTER_ALERT)

    @property
    def raw_data(self) -> np.ndarray:
        return self._flag(_F_RAW_DATA)

    @property
    def app_not_dhcp(self) -> np.ndarray:
        return self._flag(_F_APP_NOT_DHCP)

    # ------------------------------------------------------------------ #
    # Views and reshaping.
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def packet(self, index: int) -> Packet:
        """The per-packet thin view: the backing ``Packet`` at ``index``.

        Batches built from frames dissect lazily and memoise, so casual
        per-packet access does not re-parse on every call.
        """
        if self.packets is None:
            self.packets = [None] * len(self)
        cached = self.packets[index]
        if cached is None:
            if self.frames is None:
                raise IndexError("batch has neither packets nor frames")
            timestamp, data, original = self.frames[index]
            cached = Packet.dissect(data, timestamp, original)
            self.packets[index] = cached
        return cached

    def slice(self, start: int, stop: int) -> "PacketBatch":
        """A zero-copy window ``[start, stop)`` (array views, list slices)."""
        return PacketBatch(
            timestamps=self.timestamps[start:stop],
            src_macs=self.src_macs[start:stop],
            flags=self.flags[start:stop],
            src_ports=self.src_ports[start:stop],
            dst_ports=self.dst_ports[start:stop],
            sizes=self.sizes[start:stop],
            dst_ips=self.dst_ips[start:stop],
            packets=self.packets[start:stop] if self.packets is not None else None,
            frames=self.frames[start:stop] if self.frames is not None else None,
        )

    def device_runs(self) -> list[tuple[int, np.ndarray]]:
        """Group packet indices by source MAC, in first-appearance order.

        Returns ``(mac_value, indices)`` pairs; each index array is in
        ascending (stream) order, so per-device processing sees packets
        exactly as the per-packet path would.
        """
        n = len(self)
        if n == 0:
            return []
        order = np.argsort(self.src_macs, kind="stable")
        sorted_macs = self.src_macs[order]
        boundaries = np.nonzero(np.diff(sorted_macs))[0] + 1
        groups = np.split(order, boundaries)
        groups.sort(key=lambda idx: idx[0])
        return [(int(self.src_macs[idx[0]]), idx) for idx in groups]


__all__ = ["PacketBatch"]
