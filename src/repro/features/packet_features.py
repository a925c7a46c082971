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

from repro.net.batch import KEY_LAYOUT, stream_row
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

#: The one stateful column: filled per capture, not from the packed key.
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
    from :func:`~repro.net.batch.table_i_key`, the one definition of Table I.
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
        reads 0 and advances nothing.  :meth:`extract` and
        :meth:`Fingerprint.from_packets <repro.features.fingerprint.Fingerprint.from_packets>`
        fill the ``dst_ip_counter`` column through it; the streaming
        assembler's fold keeps the same mapping per capture inline.
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
        """The 23-feature vector of a single packet: its
        :func:`~repro.net.batch.stream_row` key, unpacked with this
        capture's destination counter."""
        _, _, key, dst_ip = stream_row(packet)
        return unpack_rows([key], self.counter_for(dst_ip))[0]


_KEY_SHIFTS = np.array([shift for shift, _ in KEY_LAYOUT], dtype=np.int64)
_KEY_MASKS = np.array([mask for _, mask in KEY_LAYOUT], dtype=np.int64)


def unpack_rows(keys, counters) -> np.ndarray:
    """The ``(len(keys), 23)`` Table-I rows of packed ``keys``
    (:func:`~repro.net.batch.table_i_key`), with ``counters`` -- one per
    row, or one for all -- written into the ``dst_ip_counter`` column.

    Every Table-I row is built here: training
    (:meth:`Fingerprint.from_packets <repro.features.fingerprint.Fingerprint.from_packets>`),
    one-packet extraction and the streaming assembler unpack the keys
    :func:`~repro.net.batch.stream_row` reads, and each fills the stateful
    ``dst_ip_counter`` column from its own first-contact order.

    >>> from repro.net.batch import _F_IP, _F_UDP, table_i_key
    >>> rows = unpack_rows([table_i_key(_F_IP | _F_UDP, 40000, 53, 80)], [2])
    >>> names = ("ip", "udp", "dns", "packet_size", "dst_ip_counter", "src_port_class")
    >>> [int(rows[0, FEATURE_INDEX[name]]) for name in names]
    [1, 1, 1, 80, 2, 2]

    An ARP request has no IP layer and no ports:

    >>> from repro.net.pcap import CapturedPacket
    >>> arp_request = bytes.fromhex(
    ...     "ffffffffffff" "020000000001" "0806"  # Ethernet: broadcast, ARP
    ...     "0001" "0800" "06" "04" "0001"  # Ethernet/IPv4 request
    ...     "020000000001" "c0a80002" "000000000000" "c0a80001"
    ... )
    >>> _, _, key, dst_ip = stream_row(CapturedPacket(0.0, arp_request))
    >>> row = unpack_rows([key], 0)[0]
    >>> names = ("arp", "ip", "src_port_class", "dst_port_class")
    >>> [int(row[FEATURE_INDEX[name]]) for name in names], dst_ip
    ([1, 0, 0, 0], None)
    """
    matrix = (np.asarray(keys, dtype=np.int64)[:, None] >> _KEY_SHIFTS) & _KEY_MASKS
    matrix[:, _COUNTER] = counters
    return matrix
