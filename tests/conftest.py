"""Shared fixtures for the test suite.

Expensive artefacts (the synthetic dataset and a trained identifier) are
session-scoped and deliberately smaller than the paper-scale configuration
so that the full suite stays fast; the benchmarks exercise full scale.
"""

from __future__ import annotations

import pytest

from repro.datasets.builder import DatasetBuilder
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import LabEnvironment, SetupTrafficSimulator
from repro.distance.damerau_levenshtein import normalized_damerau_levenshtein
from repro.identification.identifier import DeviceTypeIdentifier
from repro.net.addresses import MACAddress
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.layers.tcp import TCPSegment
from repro.net.layers.udp import UDPDatagram
from repro.net.packet import Packet

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


def assert_scores_match_scalar_oracle(identifier, fingerprint, result) -> int:
    """Re-derive every dissimilarity score of ``result`` with the scalar kernel.

    For each :class:`~repro.distance.discrimination.DissimilarityScore`
    the oracle sums :func:`normalized_damerau_levenshtein` (the per-pair
    dynamic program) over the recorded ``reference_indices`` in ascending
    order and asserts the production score is bitwise equal.  Returns how
    many scores were checked.
    """
    word = fingerprint.as_symbol_sequence()
    for score in result.discrimination_scores:
        references = identifier.registry.fingerprints_of(score.device_type)
        assert list(score.reference_indices) == sorted(score.reference_indices)
        assert score.comparisons == len(score.reference_indices)
        total = 0.0
        for index in score.reference_indices:
            total += normalized_damerau_levenshtein(
                word, references[index].as_symbol_sequence()
            )
        assert score.score == total, (score.device_type, score.score, total)
    return len(result.discrimination_scores)


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
