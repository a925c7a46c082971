"""Shared fixtures for the test suite.

Expensive artefacts (the synthetic dataset and a trained identifier) are
session-scoped and deliberately smaller than the paper-scale configuration
so that the full suite stays fast; the benchmarks exercise full scale.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import struct
import time
from typing import Hashable, Optional, Sequence

import numpy as np
import pytest

from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import LabEnvironment, SetupTrafficSimulator
from repro.exceptions import FingerprintError
from repro.features.fingerprint import FIXED_PACKET_COUNT, Fingerprint
from repro.features.packet_features import FEATURE_COUNT, FEATURE_INDEX, port_class
from repro.features.session import gap_exceeds_setup_threshold
from repro.gateway.enforcement import EnforcementRule
from repro.identification.classifier_bank import POSITIVE_LABEL
from repro.identification.identifier import DeviceTypeIdentifier
from repro.ml.compiled import LEAF
from repro.ml.tree import _best_split
from repro.net.addresses import MACAddress, ipv6_from_bytes
from repro.net.batch import (
    _ETHERTYPE_ARP,
    _ETHERTYPE_EAPOL,
    _ETHERTYPE_IPV4,
    _ETHERTYPE_IPV6,
    _F_APP_NOT_DHCP,
    _F_ARP,
    _F_EAPOL,
    _F_ICMP,
    _F_ICMPV6,
    _F_IP,
    _F_RAW_DATA,
    _F_TCP,
    _F_UDP,
    _MAX_8023_LENGTH,
    _hop_by_hop_option_flags,
    _ipv4_option_flags,
    _packet_fields,
    table_i_key,
)
from repro.net.layers import dhcp as dhcp_mod
from repro.net.layers import dns as dns_mod
from repro.net.layers import http as http_mod
from repro.net.layers import ntp as ntp_mod
from repro.net.layers import ssdp as ssdp_mod
from repro.net.layers import tls as tls_mod
from repro.net.layers.dhcp import MAGIC_COOKIE, DHCPMessage
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.layers.tcp import TCPSegment
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet
from repro.net.pcap import CapturedPacket
from repro.obs.evidence import EvidenceRecord
from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.security_service.isolation import IsolationLevel
from repro.streaming.assembler import (
    EMIT_BUDGET,
    EMIT_FLUSH,
    EMIT_IDLE,
    FingerprintAssembler,
    ReadyFingerprint,
)
from repro.streaming.dispatcher import BatchDispatcher
from repro.streaming.pipeline import GatewayEnforcementSink, StreamingPipeline
from repro.streaming.sources import IterableSource, interleave_traces, replay_trace

#: A small but representative subset of device-types used by the fast tests:
#: a few distinctive devices plus two confusable families.
SMALL_DEVICE_SET = (
    "Aria",
    "HueBridge",
    "EdnetCam",
    "WeMoSwitch",
    "D-LinkCam",
    "TP-LinkPlugHS110",
    "TP-LinkPlugHS100",
    "SmarterCoffee",
    "iKettle2",
)


@pytest.fixture(scope="session")
def small_dataset():
    """A reduced synthetic fingerprint dataset (9 types x 8 runs)."""
    builder = DatasetBuilder(runs_per_type=8, seed=1234)
    return builder.build_synthetic(SMALL_DEVICE_SET)


@pytest.fixture(scope="session")
def trained_identifier(small_dataset):
    """An identifier trained on the full small dataset."""
    return DeviceTypeIdentifier.train(small_dataset.to_registry(), random_state=7)


@pytest.fixture()
def lab_environment():
    return LabEnvironment()


@pytest.fixture()
def simulator(lab_environment):
    return SetupTrafficSimulator(environment=lab_environment, seed=99)


@pytest.fixture()
def aria_trace(simulator):
    """One simulated setup run of the Fitbit Aria profile."""
    return simulator.simulate(DEVICE_CATALOG["Aria"])


# --------------------------------------------------------------------------- #
# Table-I oracle: the per-field extractor the packed kernel replaced.  Each
# feature is read off the dissected Packet attribute by attribute, with
# its own destination counter; nothing here calls the packed kernel.
# --------------------------------------------------------------------------- #
_HTTP_PORTS = frozenset({http_mod.PORT_HTTP, http_mod.PORT_HTTP_ALT})
_HTTPS_PORTS = frozenset({tls_mod.PORT_HTTPS, tls_mod.PORT_HTTPS_ALT})
_BOOTP_PORTS = frozenset({dhcp_mod.SERVER_PORT, dhcp_mod.CLIENT_PORT})


class ScalarFeatureExtractor:
    """Per-packet Table-I rows, one Packet attribute per feature."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def reset(self) -> None:
        self.counters.clear()

    def counter(self, dst_ip) -> int:
        if dst_ip is None:
            return 0
        return self.counters.setdefault(dst_ip, len(self.counters) + 1)

    def extract(self, packet: Packet) -> np.ndarray:
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
        vector[FEATURE_INDEX["dst_ip_counter"]] = self.counter(packet.dst_ip)
        vector[FEATURE_INDEX["src_port_class"]] = port_class(packet.src_port)
        vector[FEATURE_INDEX["dst_port_class"]] = port_class(packet.dst_port)
        return vector

    def extract_all(self, packets: Sequence[Packet]) -> np.ndarray:
        """``(len(packets), 23)`` rows in packet order."""
        rows = [self.extract(packet) for packet in packets]
        return np.stack(rows) if rows else np.zeros((0, FEATURE_COUNT), dtype=np.int64)


# --------------------------------------------------------------------------- #
# Table-I batch oracle: the vectorised kernel the scalar packer replaced.
# Whole flag/port/size columns go through lookup tables over every port
# (-1 .. 65535) and a bit-unpack of the flag word; the packer
# (repro.net.batch.table_i_key) must agree with it row for row.
# --------------------------------------------------------------------------- #
_APPLICATION_COLUMNS = ("http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp")
_APP_FIRST = FEATURE_INDEX["http"]


def _oracle_port_tables() -> tuple[np.ndarray, np.ndarray]:
    """Application-column membership bits and port classes over ``port + 1``."""
    membership = np.zeros(65537, dtype=np.uint8)
    for column, ports in zip(
        _APPLICATION_COLUMNS,
        (
            _HTTP_PORTS,
            _HTTPS_PORTS,
            _BOOTP_PORTS,
            _BOOTP_PORTS,
            (ssdp_mod.PORT_SSDP,),
            (dns_mod.PORT_DNS,),
            (dns_mod.PORT_MDNS,),
            (ntp_mod.PORT_NTP,),
        ),
    ):
        for port in ports:
            membership[port + 1] |= 1 << (FEATURE_INDEX[column] - _APP_FIRST)
    classes = np.array([0] + [port_class(port) for port in range(65536)], dtype=np.int64)
    return membership, classes


def _oracle_transport_gates() -> np.ndarray:
    """Application columns each transport admits, by flag bits 6 (TCP),
    7 (UDP) and 11 (BOOTP payload that is not DHCP)."""
    over_tcp = ("http", "https", "dns")
    over_udp = ("dhcp", "bootp", "ssdp", "dns", "mdns", "ntp")
    gates = np.zeros(8, dtype=np.uint8)
    for index in range(8):
        tcp, udp, not_dhcp = index & 1, index & 2, index & 4
        for bit, column in enumerate(_APPLICATION_COLUMNS):
            admitted = (tcp and column in over_tcp) or (udp and column in over_udp)
            if admitted and not (not_dhcp and column == "dhcp"):
                gates[index] |= 1 << bit
    return gates


_ORACLE_TABLES = None


def numpy_feature_matrix(flags, src_ports, dst_ports, sizes) -> np.ndarray:
    """``(n, 23)`` Table-I rows of ``n`` packets' columns, vectorised.

    Each argument holds one value per packet: the flag word, both ports
    (-1 where there is no transport layer) and the wire size.  The flag
    word's bits 0-7 are columns 0-7 and bits 8-10 the option and raw-data
    columns; the port tables ANDed with the transport gate give the
    application columns.  ``dst_ip_counter`` stays 0.
    """
    global _ORACLE_TABLES
    if _ORACLE_TABLES is None:
        _ORACLE_TABLES = (*_oracle_port_tables(), _oracle_transport_gates())
    membership, classes, gates = _ORACLE_TABLES
    flags = np.asarray(flags, dtype=np.int64)
    n = len(flags)
    matrix = np.zeros((n, FEATURE_COUNT), dtype=np.int64)
    if n == 0:
        return matrix
    bits = np.unpackbits(
        flags.astype("<u2").view(np.uint8).reshape(n, 2), axis=1, bitorder="little"
    )
    src = np.asarray(src_ports, dtype=np.int64) + 1
    dst = np.asarray(dst_ports, dtype=np.int64) + 1
    gate = gates[((flags >> 6) & 3) | ((flags >> 9) & 4)]
    application = (membership[src] | membership[dst]) & gate
    matrix[:, :8] = bits[:, :8]
    matrix[:, 8:16] = np.unpackbits(application[:, None], axis=1, bitorder="little")
    matrix[:, 16:18] = bits[:, 8:10]
    matrix[:, 18] = sizes
    matrix[:, 19] = bits[:, 10]
    matrix[:, 21] = classes[src]
    matrix[:, 22] = classes[dst]
    return matrix


# --------------------------------------------------------------------------- #
# Frame oracle: the per-frame byte-offset parser the block pass
# (repro.net.batch._frame_rows) replaced.  It reads one frame's fields
# with struct reads and defers to Packet.dissect wherever it cannot
# prove it matches it; every row of the block pass must equal
# table_i_key over these fields.
# --------------------------------------------------------------------------- #
_IPV4_HEADER = struct.Struct("!BxH5xB6x4s").unpack_from
_PORT_PAIR = struct.Struct("!HH").unpack_from
_UDP_HEADER = struct.Struct("!HHH").unpack_from
_BOOTP_FIXED_LEN = dhcp_mod.FIXED_LEN
_ipv4_text = socket.inet_ntoa


def fast_frame_fields(data: bytes) -> Optional[tuple[int, int, int, Optional[str]]]:
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


def oracle_item_fields(item) -> tuple[float, int, int, int, int, int, Optional[str]]:
    """``(timestamp, source MAC, flags, src_port, dst_port, size, dst_ip)``
    of one frame or packet: the fast frame parser, the full dissector for
    the frames it defers, the object parser for dissected packets."""
    if isinstance(item, CapturedPacket):
        data = item.data
        fields = fast_frame_fields(data)
        if fields is not None:
            flags, src_port, dst_port, dst_ip = fields
            mac = int.from_bytes(data[6:12], "big")
            size = item.original_length or len(data)
            return item.timestamp, mac, flags, src_port, dst_port, size, dst_ip
        item = Packet.dissect(data, item.timestamp, item.original_length)
    flags, src_port, dst_port, size, dst_ip = _packet_fields(item)
    return item.timestamp, item.ethernet.src.value, flags, src_port, dst_port, size, dst_ip

def oracle_stream_row(item) -> tuple[float, int, int, Optional[str]]:
    """:func:`repro.net.batch.stream_row` of one item, by the frame oracle."""
    timestamp, mac, flags, src_port, dst_port, size, dst_ip = oracle_item_fields(item)
    return timestamp, mac, table_i_key(flags, src_port, dst_port, size), dst_ip


# --------------------------------------------------------------------------- #
# Symbol oracle: a row is the tuple of its 23 features.
# --------------------------------------------------------------------------- #


def tuple_symbols(fingerprint: Fingerprint) -> list[tuple[int, ...]]:
    """Each row of ``fingerprint`` as a tuple of its 23 features, in order."""
    return [tuple(row) for row in fingerprint.vectors.tolist()]


def oracle_fixed_vectors(
    fingerprints: Sequence[Fingerprint], packet_count: int = FIXED_PACKET_COUNT
) -> np.ndarray:
    """F' of each fingerprint: its first ``packet_count`` distinct row
    tuples, concatenated and zero padded, one fingerprint per row."""
    fixed = np.zeros((len(fingerprints), packet_count * FEATURE_COUNT), dtype=np.int64)
    for index, fingerprint in enumerate(fingerprints):
        unique = list(dict.fromkeys(tuple_symbols(fingerprint)))[:packet_count]
        if unique:
            fixed[index, : len(unique) * FEATURE_COUNT] = np.concatenate(unique)
    return fixed


# --------------------------------------------------------------------------- #
# Edit-distance oracle: the scalar Damerau-Levenshtein dynamic program.
# --------------------------------------------------------------------------- #


def _intern(
    first: Sequence[Hashable], second: Sequence[Hashable]
) -> tuple[list[int], list[int]]:
    """Map both sequences onto small ints over one shared alphabet."""
    codes: dict[Hashable, int] = {}
    encoded = []
    for sequence in (first, second):
        encoded.append([codes.setdefault(symbol, len(codes)) for symbol in sequence])
    return encoded[0], encoded[1]


def damerau_levenshtein(first: Sequence[Hashable], second: Sequence[Hashable]) -> int:
    """Absolute Damerau-Levenshtein distance between two symbol sequences.

    The textbook restricted ("optimal string alignment") dynamic program,
    one pair at a time: the oracle the bit-parallel pair kernel
    (``repro.distance.damerau_levenshtein.damerau_levenshtein_pairs``) is
    checked against.  The distance to an empty sequence is the other
    sequence's length.
    """
    len_first = len(first)
    len_second = len(second)
    if len_first == 0:
        return len_second
    if len_second == 0:
        return len_first
    first, second = _intern(first, second)

    # Three rows (previous-previous, previous, current) are all the
    # adjacent-transposition case needs.
    previous_previous = [0] * (len_second + 1)
    previous = list(range(len_second + 1))
    for i in range(1, len_first + 1):
        current = [i] + [0] * len_second
        symbol = first[i - 1]
        previous_symbol = first[i - 2] if i > 1 else None
        for j in range(1, len_second + 1):
            substitution_cost = 0 if symbol == second[j - 1] else 1
            cost = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + substitution_cost,  # substitution
            )
            if (
                j > 1
                and previous_symbol is not None
                and symbol == second[j - 2]
                and previous_symbol == second[j - 1]
            ):
                transposition = previous_previous[j - 2] + 1
                if transposition < cost:
                    cost = transposition
            current[j] = cost
        previous_previous, previous = previous, current
    return previous[len_second]


def normalized_damerau_levenshtein(
    first: Sequence[Hashable], second: Sequence[Hashable]
) -> float:
    """Distance divided by the length of the longer sequence, bounded on [0, 1].

    Exactly one empty sequence returns 1.0; two empty sequences raise
    :class:`FingerprintError`, as ``normalized_pair_distances`` does.
    """
    longest = max(len(first), len(second))
    if longest == 0:
        raise FingerprintError("cannot normalise the distance of two empty sequences")
    return damerau_levenshtein(first, second) / longest


def assert_scores_match_scalar_oracle(identifier, fingerprint, result) -> int:
    """Re-derive every dissimilarity score of ``result`` with the scalar kernel.

    For each :class:`~repro.distance.discrimination.DissimilarityScore`
    the oracle sums :func:`normalized_damerau_levenshtein` (the per-pair
    dynamic program) over the recorded ``reference_indices`` in ascending
    order and asserts the production score is bitwise equal.  Returns how
    many scores were checked.
    """
    word = tuple_symbols(fingerprint)
    for score in result.discrimination_scores:
        references = identifier.registry.fingerprints_of(score.device_type)
        assert list(score.reference_indices) == sorted(score.reference_indices)
        assert score.comparisons == len(score.reference_indices)
        total = 0.0
        for index in score.reference_indices:
            total += normalized_damerau_levenshtein(
                word, tuple_symbols(references[index])
            )
        assert score.score == total, (score.device_type, score.score, total)
    return len(result.discrimination_scores)


def per_type_bank_scores(bank, matrix):
    """The bank's scores rebuilt one compiled forest per type (the oracle).

    Returns ``(positive, accepted)`` exactly as the pre-fusion per-type
    loop computed them: each type's own ``CompiledForest.predict_proba``,
    its positive column, and accept iff argmax lands on it (ties reject).
    """
    types = bank.device_types
    positive = np.zeros((len(matrix), len(types)))
    accepted = np.zeros((len(matrix), len(types)), dtype=bool)
    for column, device_type in enumerate(types):
        forest = bank.classifier_of(device_type).compiled
        probabilities = forest.predict_proba(matrix)
        positive_column = list(forest.classes_).index(POSITIVE_LABEL)
        positive[:, column] = probabilities[:, positive_column]
        accepted[:, column] = np.argmax(probabilities, axis=1) == positive_column
    return positive, accepted


# --------------------------------------------------------------------------- #
# Forest oracles: the node-graph grower and the per-sample array walk.
# --------------------------------------------------------------------------- #


class OracleNode:
    """One node of the oracle grower's tree graph."""

    def __init__(self):
        self.feature = LEAF
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.probabilities = None


def oracle_tree_arrays(tree, X, y):
    """Grow ``tree`` as a node graph, then flatten it (the grower oracle).

    ``tree`` is an unfitted ``DecisionTreeClassifier`` supplying the
    hyperparameters and, through its seeded generator, the same
    per-node candidate draws the array grower makes.  Nodes are expanded
    in preorder, left before right, then numbered in a second preorder
    pass.  Returns the ``feature``/``threshold``/``left``/``right``/
    ``probabilities`` arrays the fitted tree must hold.
    """
    X = np.asarray(X, dtype=np.float64)
    tree.classes_, encoded = np.unique(np.asarray(y), return_inverse=True)
    y = encoded.astype(np.int64)
    tree.n_features_ = X.shape[1]
    tree._rng = np.random.default_rng(tree.random_state)
    n_classes = len(tree.classes_)

    root = OracleNode()
    stack = [(root, np.arange(len(y)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        labels = y[rows]
        n_samples = len(rows)
        counts = np.bincount(labels, minlength=n_classes)
        node.probabilities = counts / n_samples
        if (
            n_samples < tree.min_samples_split
            or (tree.max_depth is not None and depth >= tree.max_depth)
            or np.count_nonzero(counts) == 1
        ):
            continue
        candidates = tree._split_candidates()
        column, threshold = _best_split(
            X[rows[:, None], candidates], labels, n_classes, tree.min_samples_leaf
        )
        if column < 0:
            continue
        feature = int(candidates[column])
        mask = X[rows, feature] <= threshold
        left_count = int(mask.sum())
        if min(left_count, n_samples - left_count) < tree.min_samples_leaf:
            continue
        node.feature, node.threshold = feature, threshold
        node.left, node.right = OracleNode(), OracleNode()
        stack.append((node.right, rows[~mask], depth + 1))
        stack.append((node.left, rows[mask], depth + 1))

    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.left is not None:
            stack.append(node.right)
            stack.append(node.left)
    index_of = {id(node): index for index, node in enumerate(nodes)}
    count = len(nodes)
    arrays = {
        "feature": np.full(count, LEAF, dtype=np.int32),
        "threshold": np.zeros(count, dtype=np.float64),
        "left": np.zeros(count, dtype=np.int32),
        "right": np.zeros(count, dtype=np.int32),
        "probabilities": np.zeros((count, n_classes), dtype=np.float64),
    }
    for index, node in enumerate(nodes):
        if node.left is None:
            arrays["probabilities"][index] = node.probabilities
        else:
            arrays["feature"][index] = node.feature
            arrays["threshold"][index] = node.threshold
            arrays["left"][index] = index_of[id(node.left)]
            arrays["right"][index] = index_of[id(node.right)]
    return arrays


def tree_arrays(tree):
    """A fitted ``DecisionTreeClassifier``'s node arrays, keyed as the oracle's."""
    return {
        "feature": tree.feature_,
        "threshold": tree.threshold_,
        "left": tree.left_,
        "right": tree.right_,
        "probabilities": tree.probabilities_,
    }


def walk_leaf(feature, threshold, left, right, root, row):
    """The leaf row one sample reaches from ``root``, one node at a time."""
    node = int(root)
    while feature[node] != LEAF:
        node = int(left[node] if row[feature[node]] <= threshold[node] else right[node])
    return node


def walk_tree_predict(tree, X):
    """A fitted tree's predicted labels, by the per-sample walk."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    leaves = [
        walk_leaf(tree.feature_, tree.threshold_, tree.left_, tree.right_, 0, row) for row in X
    ]
    return tree.classes_[np.argmax(tree.probabilities_[leaves], axis=1)]


def walk_forest_proba(forest, X):
    """A ``CompiledForest``'s mean class probabilities (the descent oracle).

    Each sample walks each tree in turn; leaf rows are summed in tree
    order and divided by the tree count, the float operations the
    vectorised descent performs, so the two must agree bitwise.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    output = np.empty((len(X), len(forest.classes_)))
    for index, row in enumerate(X):
        total = np.zeros(len(forest.classes_))
        for root in forest.offsets[:-1]:
            leaf = walk_leaf(forest.feature, forest.threshold, forest.left, forest.right, root, row)
            total += forest.probabilities[leaf]
        output[index] = total / forest.n_estimators
    return output


def walk_forest_predict(forest, X):
    """A ``CompiledForest``'s predicted labels, by the per-sample walk."""
    return forest.classes_[np.argmax(walk_forest_proba(forest, X), axis=1)]


# --------------------------------------------------------------------- #
# Per-packet oracle of the streaming datapath: the walk the columnar
# pipeline replaced.  Each packet is dissected, extracted row by row by
# the scalar Table-I oracle and folded into its device's capture; the
# pipeline stages then run once per packet.  Verdicts, clock stamps and
# ledger bytes of the columnar drive are compared against this walk.
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class OracleDevice:
    """One device's capture, folded one extracted row at a time."""

    mac: MACAddress
    last_seen: float = 0.0
    oracle: ScalarFeatureExtractor = dataclasses.field(default_factory=ScalarFeatureExtractor)
    rows: list = dataclasses.field(default_factory=list)
    last_row: Optional[np.ndarray] = None
    row_count: int = 0
    gaps: list = dataclasses.field(default_factory=list)
    raw_packets: int = 0

    def observe(self, packet: Packet) -> None:
        row = self.oracle.extract(packet)
        # Consecutive-duplicate suppression of Eq. (1), done incrementally.
        if self.last_row is None or not np.array_equal(row, self.last_row):
            self.rows.append(row)
            self.row_count += 1
            self.last_row = row
        if self.raw_packets:
            self.gaps.append(max(0.0, packet.timestamp - self.last_seen))
        self.raw_packets += 1
        self.last_seen = packet.timestamp

    def gap_ends_setup(self, gap: float, assembler) -> bool:
        if self.raw_packets < assembler.min_packets or not self.gaps:
            return False
        return gap_exceeds_setup_threshold(
            gap, self.gaps, assembler.min_idle_seconds, assembler.idle_factor
        )

    def to_fingerprint(self) -> Fingerprint:
        if self.rows:
            matrix = np.vstack(self.rows)
        else:
            matrix = np.zeros((0, FEATURE_COUNT), dtype=np.int64)
        return Fingerprint(vectors=matrix, device_mac=str(self.mac))


class PerPacketAssembler(FingerprintAssembler):
    """The assembler folding one packet at a time into its own dict of
    devices in capture-start order; a sweep ends the idle devices oldest
    first, at most ``limit`` of them, and the flush ends every device
    oldest first.  Only the knobs and the stats come from the production
    class."""

    def __init__(self, **knobs):
        super().__init__(**knobs)
        self._oracle_devices = {}

    @property
    def active_devices(self) -> int:
        return len(self._oracle_devices)

    def observe(self, packet: Packet):
        self.stats.packets_observed += 1
        mac = packet.src_mac
        device = self._oracle_devices.get(mac.value)
        completed = None
        if device is not None and device.gap_ends_setup(packet.timestamp - device.last_seen, self):
            completed = self._complete(device, EMIT_IDLE, packet.timestamp)
            device = None
        if device is None:
            device = OracleDevice(mac=mac, last_seen=packet.timestamp)
            self._oracle_devices[mac.value] = device
        device.observe(packet)
        if device.raw_packets >= self.packet_budget:
            return completed or self._complete(device, EMIT_BUDGET, packet.timestamp)
        return completed

    def evict_idle(self, now, limit=None):
        expired = [
            device
            for device in self._oracle_devices.values()
            if now - device.last_seen > self.idle_timeout
        ]
        return [self._complete(device, EMIT_IDLE, now) for device in expired[:limit]]

    def flush(self, now=0.0):
        return [
            self._complete(device, EMIT_FLUSH, now or device.last_seen)
            for device in list(self._oracle_devices.values())
        ]

    def _complete(self, device: OracleDevice, reason: str, completed_at: float):
        del self._oracle_devices[device.mac.value]
        self.stats.fingerprints_emitted += 1
        if reason == EMIT_BUDGET:
            self.stats.budget_emissions += 1
        elif reason == EMIT_IDLE:
            self.stats.idle_emissions += 1
        else:
            self.stats.flush_emissions += 1
        return ReadyFingerprint(
            mac=device.mac,
            fingerprint=device.to_fingerprint(),
            reason=reason,
            completed_at=completed_at,
        )


def per_packet_run(pipeline: StreamingPipeline):
    """Drive ``pipeline`` packet by packet: every stage once per packet.

    Each dispatcher call's verdicts (a submit, the poll, each batch of the
    end-of-stream drain) are delivered before the next call runs.
    ``pipeline.assembler`` should be a :class:`PerPacketAssembler`.
    """
    for item in pipeline.source.packets():
        packet = item.dissect() if isinstance(item, CapturedPacket) else item
        pipeline.stats.packets += 1
        if packet.timestamp > pipeline.clock.now():
            pipeline.clock.advance(packet.timestamp - pipeline.clock.now())
        start = time.perf_counter()
        ready = pipeline.assembler.observe(packet)
        completed = [ready] if ready is not None else []
        now = pipeline.clock.now()
        pipeline._sweep_if_due(now, completed)
        pipeline.stats.assemble_seconds += time.perf_counter() - start
        for fingerprint in completed:
            pipeline.stats.fingerprints += 1
            pipeline._deliver(pipeline.dispatcher.submit(fingerprint))
        pipeline._deliver(pipeline.dispatcher.poll(now))
    for fingerprint in pipeline.assembler.flush(pipeline.clock.now()):
        pipeline.stats.fingerprints += 1
        pipeline._deliver(pipeline.dispatcher.submit(fingerprint))
    while pipeline.dispatcher.queue:
        pipeline._deliver(pipeline.dispatcher._run_batch())
    pipeline._collect_stats()
    return pipeline.stats


def per_packet_gateway_run(handle, source):
    """``handle.run_until_idle(source)`` by the per-packet oracle walk."""
    knobs = handle.assembler
    handle.assembler = PerPacketAssembler(
        packet_budget=knobs.packet_budget,
        min_packets=knobs.min_packets,
        idle_timeout=knobs.idle_timeout,
        min_idle_seconds=knobs.min_idle_seconds,
        idle_factor=knobs.idle_factor,
    )
    return per_packet_run(handle._build_pipeline(source))


def rerun_stream(seed):
    """A fleet whose first devices re-run their setup under the same MAC:
    after a long pause (idle cuts), a short one (idle sweeps only), or
    back to back (packet-budget cuts)."""
    simulator = SetupTrafficSimulator(seed=seed)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 0.7)
        for index, name in enumerate(sorted(DEVICE_CATALOG)[:10])
    ]
    reruns = []
    for trace in traces[:4]:
        length = trace.packets[-1].timestamp - trace.packets[0].timestamp
        offset = 0.0
        for run in range(1, 40):
            offset += length + (12.0 if run % 20 == 0 else 6.0 if run % 3 == 0 else 0.4)
            reruns.append(replay_trace(trace, trace.device_mac, offset))
    return list(interleave_traces(traces + reruns))


def multi_delivery_stream(seed):
    """A stream whose windows deliver more than once at ``max_batch`` 4.
    Nine known models go quiet together, more than a pending batch has
    room for, so the first sweeps end four each and leave the rest to the
    next.  Later three shorter models go quiet, and a second after them a
    clone of the longest known setup (a cache hit, the oldest of its
    group) and three more: the sweep after the first three are queued has
    room for the clone alone, delivers its hit, and the poll then flushes
    the three lingering misses.  A device re-running a short setup keeps
    the stream going in between.  At the end a second clone and six more
    models are still talking: the flush, its submits and the drain."""
    simulator = SetupTrafficSimulator(seed=seed)
    known = [simulator.simulate(DEVICE_CATALOG[name]) for name in SMALL_DEVICE_SET]
    others = [
        simulator.simulate(DEVICE_CATALOG[name])
        for name in sorted(DEVICE_CATALOG)
        if name not in SMALL_DEVICE_SET
    ]

    def length(trace):
        return trace.packets[-1].timestamp - trace.packets[0].timestamp

    longest = max(known, key=length)
    shorter = [trace for trace in others if length(trace) < length(longest)]
    assert len(shorter) >= 12
    macs = (make_device_mac(index) for index in range(1, 256))

    def ending_at(trace, end, mac=None):
        """``trace`` replayed so that its last packet lands at ``end``."""
        return replay_trace(trace, mac or next(macs), end - trace.packets[-1].timestamp)

    ticker = min(known, key=length)
    traces = [ending_at(trace, 100.0) for trace in known]
    traces += [ending_at(trace, 357.0) for trace in shorter[:3]]
    traces += [ending_at(trace, 358.0) for trace in [longest, *shorter[3:6]]]
    traces += [ending_at(ticker, 330.0 + 6.0 * run, ticker.device_mac) for run in range(8)]
    traces += [ending_at(trace, 379.0) for trace in [longest, *shorter[6:12]]]
    return list(interleave_traces(traces))


def chatter_stream(seed, devices=12, repeats=6):
    """Devices that run their setup, pause 30 s, then repeat that traffic
    back to back (0.2 s apart), the shape of the e2e ``chatter`` workload:
    an eviction deadline passes every stream-second, and the due sweep
    mostly finds every capture still talking."""
    simulator = SetupTrafficSimulator(seed=seed)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 0.7)
        for index, name in enumerate(sorted(DEVICE_CATALOG)[:devices])
    ]
    replays = []
    for trace in traces:
        length = trace.packets[-1].timestamp - trace.packets[0].timestamp
        offset = length + 30.0
        for _ in range(repeats):
            replays.append(replay_trace(trace, trace.device_mac, offset))
            offset += length + 0.2
    return list(interleave_traces(traces + replays))


def skewed(packets, seed, share=0.03):
    """``packets`` with a ``share`` of them stamped 1.5 s or 20 s late."""
    rng = random.Random(seed)
    return [
        dataclasses.replace(packet, timestamp=packet.timestamp - rng.choice((1.5, 20.0)))
        if rng.random() < share
        else packet
        for packet in packets
    ]


def onboard_trace(gateway, service, trace):
    """Onboard one simulated setup trace into ``gateway``; returns its record.

    The device's address is claimed first, as the scenario campaigns do:
    the streaming pipeline never learns IPs, and tests build packets from
    ``record.ip_address``.  The capture then runs through the one
    onboarding path -- assembly, dispatch and the enforcement sink.
    """
    gateway.note_address_claim(trace.device_mac, trace.device_ip, trace.packets[-1].timestamp)
    StreamingPipeline(
        IterableSource(trace.packets),
        BatchDispatcher(service.identifier),
        on_identified=GatewayEnforcementSink(gateway, service),
    ).run()
    return gateway.devices[trace.device_mac]


def make_device_mac(index: int = 1) -> MACAddress:
    return MACAddress.from_string(f"02:aa:bb:cc:dd:{index:02x}")


def make_tcp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: str,
    dst_ip: str,
    dst_port: int = 443,
    src_port: int = 51000,
    payload: bytes = b"",
) -> Packet:
    """A plain TCP packet between two endpoints (helper for gateway tests)."""
    return Packet(
        ethernet=EthernetFrame(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE.IPV4),
        ipv4=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_TCP),
        tcp=TCPSegment(src_port=src_port, dst_port=dst_port, payload=payload),
    )


def make_udp_packet(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: str,
    dst_ip: str,
    dst_port: int = 53,
    src_port: int = 50000,
    payload: bytes = b"",
) -> Packet:
    """A plain UDP packet between two endpoints."""
    return Packet(
        ethernet=EthernetFrame(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE.IPV4),
        ipv4=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_UDP),
        udp=UDPDatagram(src_port=src_port, dst_port=dst_port, payload=payload),
    )


# --------------------------------------------------------------------- #
# Delivery oracles: the per-verdict renderers the serving table replaced.
# --------------------------------------------------------------------- #
#: The ledger's line encoder before the template encoder: the json
#: module's canonical form (sorted keys, compact separators, ASCII).
CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def oracle_encode_line(record: EvidenceRecord) -> str:
    """``repro.obs.evidence.encode_line`` as the json module writes it."""
    return CANONICAL_JSON.encode(record.to_dict()) + "\n"


def oracle_flow_rules(rule: EnforcementRule, priority_base: int = 100) -> list[FlowRule]:
    """An enforcement rule rendered into switch rules, one object at a time.

    The Sect. V translation as it ran once per verdict:
    ``repro.gateway.enforcement.flow_rule_templates`` stamped with the
    rule's MAC must produce equal rules.
    """
    cookie = f"enforce-{rule.device_mac}"
    if rule.isolation_level is IsolationLevel.TRUSTED:
        return [
            FlowRule(
                match=FlowMatch(src_mac=rule.device_mac),
                action=FlowAction.FORWARD,
                priority=priority_base,
                cookie=cookie,
            )
        ]
    rules = [
        FlowRule(
            match=FlowMatch(src_mac=rule.device_mac, dst_ip=destination),
            action=FlowAction.FORWARD,
            priority=priority_base + 10,
            cookie=cookie,
        )
        for destination in rule.allowed_destinations
    ]
    rules.append(
        FlowRule(
            match=FlowMatch(src_mac=rule.device_mac),
            action=FlowAction.SEND_TO_CONTROLLER,
            priority=priority_base,
            cookie=cookie,
        )
    )
    return rules
