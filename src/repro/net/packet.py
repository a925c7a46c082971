"""The layered packet model and the top-level dissector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.exceptions import PacketDecodeError
from repro.net.addresses import MACAddress
from repro.net.layers import arp as arp_mod
from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import eapol as eapol_mod
from repro.net.layers import ethernet as eth_mod
from repro.net.layers import http as http_mod
from repro.net.layers import icmp as icmp_mod
from repro.net.layers import icmpv6 as icmpv6_mod
from repro.net.layers import ipv4 as ipv4_mod
from repro.net.layers import ipv6 as ipv6_mod
from repro.net.layers import llc as llc_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tcp as tcp_mod
from repro.net.layers import tls as tls_mod
from repro.net.layers import udp as udp_mod
from repro.net.layers.arp import ARPPacket
from repro.net.layers.dhcp import DHCPMessage
from repro.net.layers.dns import DNSMessage
from repro.net.layers.eapol import EAPOLFrame
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.http import HTTPMessage
from repro.net.layers.icmp import ICMPMessage
from repro.net.layers.icmpv6 import ICMPv6Message
from repro.net.layers.ipv4 import IPv4Header
from repro.net.layers.ipv6 import IPv6Header
from repro.net.layers.llc import LLCHeader
from repro.net.layers.ntp import NTPMessage
from repro.net.layers.ssdp import SSDPMessage
from repro.net.layers.tcp import TCPSegment
from repro.net.layers.tls import TLSRecord
from repro.net.layers.udp import UDPDatagram

ApplicationLayer = Union[DHCPMessage, DNSMessage, HTTPMessage, SSDPMessage, NTPMessage, TLSRecord]


@dataclass(slots=True)
class Packet:
    """A dissected (or constructed) network packet.

    A packet always has an Ethernet layer; the remaining layers are present
    when applicable.  ``payload`` holds any application data that was not
    parsed into a dedicated application-layer object (it drives the
    "raw data" feature of Table I together with the parsed application
    payloads).
    """

    ethernet: EthernetFrame
    llc: Optional[LLCHeader] = None
    arp: Optional[ARPPacket] = None
    ipv4: Optional[IPv4Header] = None
    ipv6: Optional[IPv6Header] = None
    icmp: Optional[ICMPMessage] = None
    icmpv6: Optional[ICMPv6Message] = None
    eapol: Optional[EAPOLFrame] = None
    tcp: Optional[TCPSegment] = None
    udp: Optional[UDPDatagram] = None
    application: Optional[ApplicationLayer] = None
    payload: bytes = b""
    timestamp: float = 0.0
    wire_length: int = 0

    # ------------------------------------------------------------------ #
    # Convenience accessors used by the feature extractor and gateway.
    # ------------------------------------------------------------------ #
    @property
    def src_mac(self) -> MACAddress:
        return self.ethernet.src

    @property
    def dst_mac(self) -> MACAddress:
        return self.ethernet.dst

    @property
    def src_ip(self) -> Optional[str]:
        if self.ipv4 is not None:
            return self.ipv4.src
        if self.ipv6 is not None:
            return self.ipv6.src
        return None

    @property
    def dst_ip(self) -> Optional[str]:
        if self.ipv4 is not None:
            return self.ipv4.dst
        if self.ipv6 is not None:
            return self.ipv6.dst
        return None

    @property
    def src_port(self) -> Optional[int]:
        if self.tcp is not None:
            return self.tcp.src_port
        if self.udp is not None:
            return self.udp.src_port
        return None

    @property
    def dst_port(self) -> Optional[int]:
        if self.tcp is not None:
            return self.tcp.dst_port
        if self.udp is not None:
            return self.udp.dst_port
        return None

    @property
    def has_ip(self) -> bool:
        return self.ipv4 is not None or self.ipv6 is not None

    @property
    def transport_payload(self) -> bytes:
        """The raw layer-4 payload (before application-layer parsing)."""
        if self.tcp is not None:
            return self.tcp.payload
        if self.udp is not None:
            return self.udp.payload
        return b""

    @property
    def has_raw_data(self) -> bool:
        """True when the packet carries data above the transport header."""
        if self.application is not None:
            return True
        if self.transport_payload:
            return True
        return bool(self.payload) and self.arp is None

    @property
    def size(self) -> int:
        """The on-the-wire packet size in bytes."""
        return self.wire_length if self.wire_length else len(self.to_bytes())

    @property
    def summary(self) -> str:
        """A short human-readable one-line description (for logs/examples)."""
        parts = [f"{self.src_mac} -> {self.dst_mac}"]
        if self.arp is not None:
            parts.append("ARP")
        if self.eapol is not None:
            parts.append("EAPoL")
        if self.has_ip:
            parts.append(f"{self.src_ip} -> {self.dst_ip}")
        if self.tcp is not None:
            parts.append(f"TCP {self.tcp.src_port}->{self.tcp.dst_port}")
        if self.udp is not None:
            parts.append(f"UDP {self.udp.src_port}->{self.udp.dst_port}")
        if self.application is not None:
            parts.append(type(self.application).__name__)
        parts.append(f"{self.size}B")
        return " | ".join(parts)

    # ------------------------------------------------------------------ #
    # Serialisation.
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Serialise the packet down to an Ethernet frame byte string."""
        app_raw = self.application.to_bytes() if self.application is not None else b""
        inner = app_raw or self.transport_payload or b""

        if self.tcp is not None:
            transport = TCPSegment(
                src_port=self.tcp.src_port,
                dst_port=self.tcp.dst_port,
                seq=self.tcp.seq,
                ack=self.tcp.ack,
                flags=self.tcp.flags,
                window=self.tcp.window,
                payload=inner,
            ).to_bytes()
        elif self.udp is not None:
            transport = UDPDatagram(
                src_port=self.udp.src_port, dst_port=self.udp.dst_port, payload=inner
            ).to_bytes()
        elif self.icmp is not None:
            transport = self.icmp.to_bytes()
        elif self.icmpv6 is not None:
            transport = self.icmpv6.to_bytes()
        else:
            # No transport layer: the IP payload is either a parsed
            # application object or the raw bytes kept in ``payload``
            # (e.g. an IGMP membership report).
            transport = app_raw or self.payload

        if self.ipv4 is not None:
            network = self.ipv4.to_bytes(transport)
        elif self.ipv6 is not None:
            network = self.ipv6.to_bytes(transport)
        elif self.arp is not None:
            network = self.arp.to_bytes()
        elif self.eapol is not None:
            network = self.eapol.to_bytes()
        elif self.llc is not None:
            network = self.llc.to_bytes() + self.payload
        else:
            network = self.payload

        raw = self.ethernet.to_bytes() + network
        # Ethernet frames are padded to the 60-byte minimum (without FCS).
        if len(raw) < 60:
            raw += b"\x00" * (60 - len(raw))
        return raw

    @classmethod
    def dissect(cls, raw: bytes, timestamp: float = 0.0, wire_length: int = 0) -> "Packet":
        """Parse a raw Ethernet frame into a :class:`Packet`.

        ``wire_length`` is the frame's length on the wire when a capture
        truncated it (a pcap record's original length); ``0`` means
        ``len(raw)``.  Unknown or malformed upper layers never raise: the
        undissected bytes are kept in ``payload`` so that capture processing
        is robust against exotic traffic, mirroring how the original system
        only needs header-level information.
        """
        ethernet, rest = EthernetFrame.from_bytes(raw)
        packet = cls(ethernet, timestamp=timestamp, wire_length=wire_length or len(raw))
        try:
            _dissect_network(packet, rest)
        except PacketDecodeError:
            packet.payload = rest
        return packet


def _dissect_network(packet: Packet, rest: bytes) -> None:
    # The EtherType tests are disjoint, so the common case goes first.
    ethertype = packet.ethernet.ethertype
    if ethertype == ETHERTYPE.IPV4:
        packet.ipv4, transport = IPv4Header.from_bytes(rest)
        protocol = packet.ipv4.protocol
        if protocol == ipv4_mod.PROTO_UDP:
            packet.udp, _ = UDPDatagram.from_bytes(transport)
            _dissect_application(packet, packet.udp)
        elif protocol == ipv4_mod.PROTO_TCP:
            packet.tcp, _ = TCPSegment.from_bytes(transport)
            _dissect_application(packet, packet.tcp)
        elif protocol == ipv4_mod.PROTO_ICMP:
            packet.icmp, _ = ICMPMessage.from_bytes(transport)
        else:
            packet.payload = transport
    elif ethertype == ETHERTYPE.IPV6:
        packet.ipv6, transport = IPv6Header.from_bytes(rest)
        next_header = packet.ipv6.next_header
        if next_header == ipv6_mod.NEXT_HEADER_UDP:
            packet.udp, _ = UDPDatagram.from_bytes(transport)
            _dissect_application(packet, packet.udp)
        elif next_header == ipv6_mod.NEXT_HEADER_TCP:
            packet.tcp, _ = TCPSegment.from_bytes(transport)
            _dissect_application(packet, packet.tcp)
        elif next_header == ipv6_mod.NEXT_HEADER_ICMPV6:
            packet.icmpv6, _ = ICMPv6Message.from_bytes(transport)
        else:
            packet.payload = transport
    elif ethertype == ETHERTYPE.ARP:
        packet.arp, _ = ARPPacket.from_bytes(rest)
    elif ethertype == ETHERTYPE.EAPOL:
        packet.eapol, packet.payload = EAPOLFrame.from_bytes(rest)
    elif packet.ethernet.is_llc:
        packet.llc, packet.payload = LLCHeader.from_bytes(rest)
    else:
        packet.payload = rest


def _dissect_application(packet: Packet, transport: Union[TCPSegment, UDPDatagram]) -> None:
    """Parse ``transport``'s payload with the first parser that accepts it."""
    payload = transport.payload
    if not payload:
        return
    chain = _PARSER_CHAINS[
        _PARSER_OF_PORT.get(transport.src_port), _PARSER_OF_PORT.get(transport.dst_port)
    ]
    for parser in chain:
        try:
            packet.application, _ = parser(payload)
            return
        except PacketDecodeError:
            continue


_Parser = Callable[[bytes], tuple[ApplicationLayer, bytes]]

#: The application parsers a well-known port names, in the order tried.
_PORT_PARSERS: tuple[tuple[tuple[int, ...], _Parser], ...] = (
    ((dhcp_mod.SERVER_PORT, dhcp_mod.CLIENT_PORT), DHCPMessage.from_bytes),
    ((dns_mod.PORT_DNS, dns_mod.PORT_MDNS), DNSMessage.from_bytes),
    ((ssdp_mod.PORT_SSDP,), SSDPMessage.from_bytes),
    ((ntp_mod.PORT_NTP,), NTPMessage.from_bytes),
    ((tls_mod.PORT_HTTPS, tls_mod.PORT_HTTPS_ALT), TLSRecord.from_bytes),
    ((http_mod.PORT_HTTP, http_mod.PORT_HTTP_ALT), HTTPMessage.from_bytes),
)
#: Tried after the port parsers: protocol sniffing independent of ports.
_SNIFF_PARSERS: tuple[_Parser, ...] = (HTTPMessage.from_bytes, TLSRecord.from_bytes)

_PARSER_OF_PORT: dict[int, _Parser] = {
    port: parser for ports, parser in _PORT_PARSERS for port in ports
}
_NAMED_PARSERS: tuple[Optional[_Parser], ...] = (None, *(parser for _, parser in _PORT_PARSERS))


def _parser_chain(*named: Optional[_Parser]) -> tuple[_Parser, ...]:
    """The parsers the ports' ``named`` parsers select, then the sniffers.

    Parsers are pure, so a sniffer the ports already tried is not re-run.
    """
    chain = [parser for _, parser in _PORT_PARSERS if parser in named]
    return tuple(chain + [parser for parser in _SNIFF_PARSERS if parser not in chain])


#: (source port's parser, destination port's parser) -> the parsers to try.
_PARSER_CHAINS: dict[tuple[Optional[_Parser], Optional[_Parser]], tuple[_Parser, ...]] = {
    (src, dst): _parser_chain(src, dst) for src in _NAMED_PARSERS for dst in _NAMED_PARSERS
}


__all__ = [
    "Packet",
    "ApplicationLayer",
    "arp_mod",
    "dhcp_mod",
    "dns_mod",
    "eapol_mod",
    "eth_mod",
    "http_mod",
    "icmp_mod",
    "icmpv6_mod",
    "ipv4_mod",
    "ipv6_mod",
    "llc_mod",
    "ntp_mod",
    "ssdp_mod",
    "tcp_mod",
    "tls_mod",
    "udp_mod",
]
