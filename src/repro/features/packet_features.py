"""The 23 per-packet features of Table I.

Feature layout (indices into the per-packet vector):

==  ======================  =======================================
 #  name                    description
==  ======================  =======================================
 0  arp                     link-layer ARP packet
 1  llc                     link-layer 802.2 LLC frame
 2  ip                      IPv4 or IPv6 packet
 3  icmp                    ICMPv4 message
 4  icmpv6                  ICMPv6 message
 5  eapol                   EAP over LAN frame (WPA handshake)
 6  tcp                     TCP segment
 7  udp                     UDP datagram
 8  http                    HTTP traffic (port 80/8080)
 9  https                   HTTPS/TLS traffic (port 443/8443)
10  dhcp                    DHCP message (BOOTP with magic cookie)
11  bootp                   BOOTP message (ports 67/68)
12  ssdp                    SSDP traffic (port 1900)
13  dns                     DNS traffic (port 53)
14  mdns                    multicast DNS traffic (port 5353)
15  ntp                     NTP traffic (port 123)
16  ip_option_padding       IPv4/IPv6 padding option present
17  ip_option_router_alert  Router-Alert option present
18  packet_size             size of the packet in bytes (integer)
19  raw_data                payload above the transport header present
20  dst_ip_counter          order of first contact with destination IP (integer)
21  src_port_class          0 none / 1 well-known / 2 registered / 3 dynamic
22  dst_port_class          0 none / 1 well-known / 2 registered / 3 dynamic
==  ======================  =======================================

All features are binary except ``packet_size``, ``dst_ip_counter`` and the
two port classes, exactly as in the paper.  No feature reads packet payload
content, so fingerprints can be extracted from encrypted traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import http as http_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tls as tls_mod
from repro.net.layers.dhcp import DHCPMessage
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.net.batch import PacketBatch

FEATURE_NAMES: tuple[str, ...] = (
    "arp",
    "llc",
    "ip",
    "icmp",
    "icmpv6",
    "eapol",
    "tcp",
    "udp",
    "http",
    "https",
    "dhcp",
    "bootp",
    "ssdp",
    "dns",
    "mdns",
    "ntp",
    "ip_option_padding",
    "ip_option_router_alert",
    "packet_size",
    "raw_data",
    "dst_ip_counter",
    "src_port_class",
    "dst_port_class",
)

FEATURE_COUNT = len(FEATURE_NAMES)

FEATURE_INDEX = {name: index for index, name in enumerate(FEATURE_NAMES)}

# Integer-valued features (the rest are binary), per Table I.
INTEGER_FEATURES = ("packet_size", "dst_ip_counter", "src_port_class", "dst_port_class")

PORT_CLASS_NONE = 0
PORT_CLASS_WELL_KNOWN = 1
PORT_CLASS_REGISTERED = 2
PORT_CLASS_DYNAMIC = 3

_HTTP_PORTS = frozenset({http_mod.PORT_HTTP, http_mod.PORT_HTTP_ALT})
_HTTPS_PORTS = frozenset({tls_mod.PORT_HTTPS, tls_mod.PORT_HTTPS_ALT})
_BOOTP_PORTS = frozenset({dhcp_mod.SERVER_PORT, dhcp_mod.CLIENT_PORT})


def port_class(port: Optional[int]) -> int:
    """Map a port number to the 4-valued network port class of the paper."""
    if port is None:
        return PORT_CLASS_NONE
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    if port <= 1023:
        return PORT_CLASS_WELL_KNOWN
    if port <= 49151:
        return PORT_CLASS_REGISTERED
    return PORT_CLASS_DYNAMIC


class PacketFeatureExtractor:
    """Stateful extractor turning packets into 23-dimensional feature vectors.

    The extractor is stateful because of the *destination IP counter*
    feature: the first distinct destination IP a device contacts is mapped
    to 1, the second to 2, and so on.  One extractor instance must therefore
    be used per device capture (per fingerprint).
    """

    def __init__(self) -> None:
        self._dst_ip_counters: dict[str, int] = {}

    def reset(self) -> None:
        """Forget the destination-IP mapping (start a new capture)."""
        self._dst_ip_counters.clear()

    @property
    def seen_destinations(self) -> int:
        """Number of distinct destination IPs observed so far."""
        return len(self._dst_ip_counters)

    def counter_for(self, dst_ip: Optional[str]) -> int:
        """The order-of-first-contact counter of one destination token.

        The incremental entry point shared by the per-packet and the
        batched datapaths: the mapping advances on first contact exactly
        as :meth:`extract` would have advanced it for the same packet.
        """
        if dst_ip is None:
            return 0
        counters = self._dst_ip_counters
        counter = counters.get(dst_ip)
        if counter is None:
            counter = len(counters) + 1
            counters[dst_ip] = counter
        return counter

    def _dst_ip_counter(self, packet: Packet) -> int:
        return self.counter_for(packet.dst_ip)

    def extract(self, packet: Packet) -> np.ndarray:
        """Extract the 23-feature vector of a single packet."""
        vector = np.zeros(FEATURE_COUNT, dtype=np.int64)

        vector[FEATURE_INDEX["arp"]] = int(packet.arp is not None)
        vector[FEATURE_INDEX["llc"]] = int(packet.llc is not None)
        vector[FEATURE_INDEX["ip"]] = int(packet.has_ip)
        vector[FEATURE_INDEX["icmp"]] = int(packet.icmp is not None)
        vector[FEATURE_INDEX["icmpv6"]] = int(packet.icmpv6 is not None)
        vector[FEATURE_INDEX["eapol"]] = int(packet.eapol is not None)
        vector[FEATURE_INDEX["tcp"]] = int(packet.tcp is not None)
        vector[FEATURE_INDEX["udp"]] = int(packet.udp is not None)

        ports = {packet.src_port, packet.dst_port} - {None}
        is_tcp = packet.tcp is not None
        is_udp = packet.udp is not None
        vector[FEATURE_INDEX["http"]] = int(is_tcp and bool(ports & _HTTP_PORTS))
        vector[FEATURE_INDEX["https"]] = int(is_tcp and bool(ports & _HTTPS_PORTS))

        is_bootp = is_udp and bool(ports & _BOOTP_PORTS)
        is_dhcp = is_bootp and (
            not isinstance(packet.application, DHCPMessage) or packet.application.is_dhcp
        )
        vector[FEATURE_INDEX["dhcp"]] = int(is_dhcp)
        vector[FEATURE_INDEX["bootp"]] = int(is_bootp)

        vector[FEATURE_INDEX["ssdp"]] = int(is_udp and ssdp_mod.PORT_SSDP in ports)
        vector[FEATURE_INDEX["dns"]] = int(dns_mod.PORT_DNS in ports and (is_udp or is_tcp))
        vector[FEATURE_INDEX["mdns"]] = int(is_udp and dns_mod.PORT_MDNS in ports)
        vector[FEATURE_INDEX["ntp"]] = int(is_udp and ntp_mod.PORT_NTP in ports)

        has_padding = bool(packet.ipv4 is not None and packet.ipv4.has_padding_option) or bool(
            packet.ipv6 is not None and packet.ipv6.has_padding_option
        )
        has_router_alert = bool(
            packet.ipv4 is not None and packet.ipv4.has_router_alert_option
        ) or bool(packet.ipv6 is not None and packet.ipv6.has_router_alert_option)
        vector[FEATURE_INDEX["ip_option_padding"]] = int(has_padding)
        vector[FEATURE_INDEX["ip_option_router_alert"]] = int(has_router_alert)

        vector[FEATURE_INDEX["packet_size"]] = packet.size
        vector[FEATURE_INDEX["raw_data"]] = int(packet.has_raw_data)
        vector[FEATURE_INDEX["dst_ip_counter"]] = self._dst_ip_counter(packet)
        vector[FEATURE_INDEX["src_port_class"]] = port_class(packet.src_port)
        vector[FEATURE_INDEX["dst_port_class"]] = port_class(packet.dst_port)
        return vector

    def extract_all(self, packets: Sequence[Packet]) -> np.ndarray:
        """Extract feature vectors for an ordered packet sequence.

        Returns an array of shape ``(len(packets), 23)``; the caller is
        responsible for transposing if the paper's ``23 x n`` orientation
        is preferred.
        """
        if not packets:
            return np.zeros((0, FEATURE_COUNT), dtype=np.int64)
        return np.stack([self.extract(packet) for packet in packets])


def batch_feature_matrix(batch: "PacketBatch") -> np.ndarray:
    """The ``(len(batch), 23)`` feature matrix of a whole packet batch.

    Every Table-I column is computed as one vectorised expression over the
    batch's field arrays -- the same definitions as :meth:`extract`, just
    without per-packet Python.  The stateful ``dst_ip_counter`` column is
    left at zero: it depends on per-device first-contact order, so the
    assembler fills it while walking each device's packets (see
    :meth:`~repro.streaming.assembler.ShardedFingerprintAssembler.observe_prepared`).
    """
    n = len(batch)
    matrix = np.zeros((n, FEATURE_COUNT), dtype=np.int64)
    if n == 0:
        return matrix
    src = batch.src_ports
    dst = batch.dst_ports
    is_tcp = batch.tcp
    is_udp = batch.udp

    def on_port(*ports: int) -> np.ndarray:
        hit = np.zeros(n, dtype=bool)
        for port in ports:
            hit |= src == port
            hit |= dst == port
        return hit

    matrix[:, FEATURE_INDEX["arp"]] = batch.arp
    matrix[:, FEATURE_INDEX["llc"]] = batch.llc
    matrix[:, FEATURE_INDEX["ip"]] = batch.ip
    matrix[:, FEATURE_INDEX["icmp"]] = batch.icmp
    matrix[:, FEATURE_INDEX["icmpv6"]] = batch.icmpv6
    matrix[:, FEATURE_INDEX["eapol"]] = batch.eapol
    matrix[:, FEATURE_INDEX["tcp"]] = is_tcp
    matrix[:, FEATURE_INDEX["udp"]] = is_udp
    matrix[:, FEATURE_INDEX["http"]] = is_tcp & on_port(*_HTTP_PORTS)
    matrix[:, FEATURE_INDEX["https"]] = is_tcp & on_port(*_HTTPS_PORTS)
    bootp = is_udp & on_port(*_BOOTP_PORTS)
    matrix[:, FEATURE_INDEX["bootp"]] = bootp
    matrix[:, FEATURE_INDEX["dhcp"]] = bootp & ~batch.app_not_dhcp
    matrix[:, FEATURE_INDEX["ssdp"]] = is_udp & on_port(ssdp_mod.PORT_SSDP)
    matrix[:, FEATURE_INDEX["dns"]] = (is_udp | is_tcp) & on_port(dns_mod.PORT_DNS)
    matrix[:, FEATURE_INDEX["mdns"]] = is_udp & on_port(dns_mod.PORT_MDNS)
    matrix[:, FEATURE_INDEX["ntp"]] = is_udp & on_port(ntp_mod.PORT_NTP)
    matrix[:, FEATURE_INDEX["ip_option_padding"]] = batch.has_padding
    matrix[:, FEATURE_INDEX["ip_option_router_alert"]] = batch.has_router_alert
    matrix[:, FEATURE_INDEX["packet_size"]] = batch.sizes
    matrix[:, FEATURE_INDEX["raw_data"]] = batch.raw_data
    for name, ports in (("src_port_class", src), ("dst_port_class", dst)):
        matrix[:, FEATURE_INDEX[name]] = np.where(
            ports < 0,
            PORT_CLASS_NONE,
            np.where(
                ports <= 1023,
                PORT_CLASS_WELL_KNOWN,
                np.where(ports <= 49151, PORT_CLASS_REGISTERED, PORT_CLASS_DYNAMIC),
            ),
        )
    return matrix
