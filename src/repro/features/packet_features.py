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

from typing import Optional

import numpy as np

from repro.net.batch import PacketBatch
from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import http as http_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tls as tls_mod
from repro.net.packet import Packet

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

#: The one stateful column: filled per capture, not by the batch kernel.
_COUNTER = FEATURE_INDEX["dst_ip_counter"]


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
    be used per device capture (per fingerprint).  Every other column comes
    from :func:`batch_feature_matrix`, the one definition of Table I.
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

        The mapping advances on first contact; ``None`` (no IP layer)
        reads 0 and advances nothing.  :meth:`extract`,
        :meth:`Fingerprint.from_packets <repro.features.fingerprint.Fingerprint.from_packets>`
        and the streaming assembler's batch walk all fill the
        ``dst_ip_counter`` column through it.
        """
        if dst_ip is None:
            return 0
        counters = self._dst_ip_counters
        counter = counters.get(dst_ip)
        if counter is None:
            counter = len(counters) + 1
            counters[dst_ip] = counter
        return counter

    def extract(self, packet: Packet) -> np.ndarray:
        """The 23-feature vector of a single packet: a one-row batch."""
        batch = PacketBatch.from_items([packet])
        vector = batch_feature_matrix(batch)[0]
        vector[_COUNTER] = self.counter_for(batch.dst_ips[0])
        return vector


#: First of the eight application columns (http .. ntp, indices 8-15).
_APP_FIRST = FEATURE_INDEX["http"]


def _port_tables() -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables over ``port + 1`` for ports -1 (none) .. 65535.

    ``membership`` holds one bit per application column 8-15 (http ..
    ntp) that the port names; ``classes`` holds :func:`port_class`.
    """
    membership = np.zeros(65537, dtype=np.uint8)
    for column, ports in (
        ("http", _HTTP_PORTS),
        ("https", _HTTPS_PORTS),
        ("dhcp", _BOOTP_PORTS),
        ("bootp", _BOOTP_PORTS),
        ("ssdp", (ssdp_mod.PORT_SSDP,)),
        ("dns", (dns_mod.PORT_DNS,)),
        ("mdns", (dns_mod.PORT_MDNS,)),
        ("ntp", (ntp_mod.PORT_NTP,)),
    ):
        for port in ports:
            membership[port + 1] |= 1 << (FEATURE_INDEX[column] - _APP_FIRST)
    classes = np.array(
        [PORT_CLASS_NONE] + [port_class(port) for port in range(65536)], dtype=np.int64
    )
    return membership, classes


def _transport_gates() -> np.ndarray:
    """Application columns each transport admits, indexed by flag bits 6, 7, 11.

    ``http``/``https`` need TCP, ``dns`` TCP or UDP, the rest UDP;
    ``dhcp`` additionally needs the BOOTP payload to be DHCP.
    """
    over_tcp = ("http", "https", "dns")
    over_udp = ("dhcp", "bootp", "ssdp", "dns", "mdns", "ntp")
    gates = np.zeros(8, dtype=np.uint8)
    for index in range(8):
        tcp, udp, not_dhcp = index & 1, index & 2, index & 4
        for bit, column in enumerate(FEATURE_NAMES[_APP_FIRST : _APP_FIRST + 8]):
            admitted = (tcp and column in over_tcp) or (udp and column in over_udp)
            if admitted and not (not_dhcp and column == "dhcp"):
                gates[index] |= 1 << bit
    return gates


_PORT_MEMBERSHIP, _PORT_CLASSES = _port_tables()
_TRANSPORT_GATES = _transport_gates()


def batch_feature_matrix(batch: PacketBatch) -> np.ndarray:
    """The ``(len(batch), 23)`` feature matrix of a whole packet batch.

    The one definition of Table I: the frame and object parsers of
    :mod:`repro.net.batch` produce the columns, and this kernel turns them
    into rows, table driven.  One bit-unpack of the flag word gives the
    eight protocol columns (flag bits 0-7 are columns 0-7) and the
    option/raw-data bits; a port-membership table ANDed with the transport
    gate gives the eight application columns; a port-class table gives the
    two port classes.  The stateful ``dst_ip_counter`` column is left at
    zero: it depends on per-device first-contact order, so each caller
    fills it through :meth:`PacketFeatureExtractor.counter_for` while
    walking a device's packets.

    Example:
        >>> from repro.net.batch import PacketBatch
        >>> from repro.net.pcap import CapturedPacket
        >>> arp_request = bytes.fromhex(
        ...     "ffffffffffff" "020000000001" "0806"  # Ethernet: broadcast, ARP
        ...     "0001" "0800" "06" "04" "0001"  # Ethernet/IPv4 request
        ...     "020000000001" "c0a80002" "000000000000" "c0a80001"
        ... )
        >>> batch = PacketBatch.from_items([CapturedPacket(0.0, arp_request)])
        >>> row = batch_feature_matrix(batch)[0]
        >>> names = ("arp", "ip", "src_port_class", "dst_port_class")
        >>> [int(row[FEATURE_INDEX[name]]) for name in names]
        [1, 0, 0, 0]
    """
    n = len(batch)
    matrix = np.empty((n, FEATURE_COUNT), dtype=np.int64)
    if n == 0:
        return matrix
    flags = batch.flags
    bits = np.unpackbits(
        flags.astype("<u2").view(np.uint8).reshape(n, 2), axis=1, bitorder="little"
    )
    src = batch.src_ports + 1
    dst = batch.dst_ports + 1
    gate = _TRANSPORT_GATES[((flags >> 6) & 3) | ((flags >> 9) & 4)]
    application = (_PORT_MEMBERSHIP[src] | _PORT_MEMBERSHIP[dst]) & gate
    matrix[:, :8] = bits[:, :8]
    matrix[:, 8:16] = np.unpackbits(application[:, None], axis=1, bitorder="little")
    matrix[:, 16:18] = bits[:, 8:10]
    matrix[:, 18] = batch.sizes
    matrix[:, 19] = bits[:, 10]
    matrix[:, 20] = 0
    matrix[:, 21] = _PORT_CLASSES[src]
    matrix[:, 22] = _PORT_CLASSES[dst]
    return matrix
