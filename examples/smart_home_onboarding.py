#!/usr/bin/env python3
"""Smart-home onboarding: the full IoT SENTINEL loop with security enforcement.

A Security Gateway watches a (simulated) home network.  Several consumer IoT
devices are connected one after the other; for each one the gateway streams
the setup traffic through fingerprint assembly and identification, asks the
IoT Security Service for an assessment and enforces the returned isolation
level (trusted / restricted / strict) with per-device rules on its software
switch.  Finally a few packets are pushed through the datapath to show the
policy in action.

Run with ``python examples/smart_home_onboarding.py``.
"""

from repro import GatewayConfig, build_gateway
from repro.datasets import generate_fingerprint_dataset
from repro.devices import DEVICE_CATALOG, SetupTrafficSimulator
from repro.eval.reporting import format_table
from repro.identification import DeviceTypeIdentifier
from repro.net.addresses import MACAddress
from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
from repro.net.layers.ipv4 import IPv4Header, PROTO_TCP
from repro.net.layers.tcp import TCPSegment
from repro.net.packet import Packet
from repro.streaming import IterableSource


def make_tcp_packet(src_mac, dst_mac, src_ip, dst_ip, dst_port=443):
    """A minimal TCP probe packet between two endpoints."""
    return Packet(
        ethernet=EthernetFrame(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE.IPV4),
        ipv4=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_TCP),
        tcp=TCPSegment(src_port=51000, dst_port=dst_port),
    )

TRAINING_TYPES = [
    "Aria",
    "HueBridge",
    "EdnetCam",
    "EdimaxCam",
    "WeMoSwitch",
    "D-LinkCam",
    "TP-LinkPlugHS110",
    "SmarterCoffee",
]

NEW_DEVICES = ["Aria", "EdnetCam", "D-LinkCam", "MAXGateway"]


def main() -> None:
    print("== Training the IoT Security Service ==")
    dataset = generate_fingerprint_dataset(runs_per_type=20, device_names=TRAINING_TYPES, seed=1)
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=1)
    handle = build_gateway(GatewayConfig(identifier=identifier))
    gateway = handle.gateway
    simulator = SetupTrafficSimulator(environment=handle.security_service.environment, seed=99)

    print("== Onboarding devices through the Security Gateway ==")
    records = []
    ips = {}
    for name in NEW_DEVICES:
        trace = simulator.simulate(DEVICE_CATALOG[name])
        handle.run_until_idle(IterableSource(trace.packets))
        records.append((name, gateway.device_record(trace.device_mac)))
        # The pipeline does not track addresses; the probes below use the
        # lease the simulator handed out.
        ips[trace.device_mac] = trace.device_ip

    def allowed_destinations(record):
        rule = gateway.rule_cache.lookup(record.mac)
        return rule.allowed_destinations if rule is not None else ()

    rows = []
    for actual, record in records:
        rows.append(
            (
                actual,
                record.device_type,
                record.isolation_level.value,
                record.overlay.value,
                len(allowed_destinations(record)),
                record.vulnerability_count,
            )
        )
    print(
        format_table(
            ["actual device", "identified as", "isolation", "overlay", "allowed dst", "vulns"], rows
        )
    )

    print()
    print("== Enforcement in action ==")
    external = MACAddress.from_string("02:ee:ee:ee:ee:01")
    restricted = next(
        (record for _, record in records if record.isolation_level.value == "restricted"), None
    )
    trusted = next(
        (record for _, record in records if record.isolation_level.value == "trusted"), None
    )
    strict = next(
        (record for _, record in records if record.isolation_level.value == "strict"), None
    )

    probes = []
    if restricted is not None and allowed_destinations(restricted):
        probes.append(
            ("restricted device -> its vendor cloud",
             make_tcp_packet(restricted.mac, external, ips[restricted.mac],
                             allowed_destinations(restricted)[0], dst_port=443))
        )
        probes.append(
            ("restricted device -> arbitrary internet host",
             make_tcp_packet(restricted.mac, external, ips[restricted.mac], "8.8.8.8", dst_port=80))
        )
    if trusted is not None:
        probes.append(
            ("trusted device -> arbitrary internet host",
             make_tcp_packet(trusted.mac, external, ips[trusted.mac], "93.184.216.34", dst_port=443))
        )
    if trusted is not None and restricted is not None:
        probes.append(
            ("trusted device -> untrusted (restricted) device",
             make_tcp_packet(trusted.mac, restricted.mac, ips[trusted.mac],
                             ips[restricted.mac], dst_port=80))
        )
    if strict is not None:
        probes.append(
            ("strict (unknown) device -> internet host",
             make_tcp_packet(strict.mac, external, ips[strict.mac], "1.1.1.1", dst_port=443))
        )
    for label, packet in probes:
        decision = gateway.authorize(packet)
        verdict = "ALLOW" if decision.allowed else "BLOCK"
        print(f"   [{verdict}] {label}  ({decision.reason})")

    if gateway.notifications:
        print()
        print("== User notifications ==")
        for note in gateway.notifications:
            print(f"   ! {note}")

    print()
    print(f"Switch flow rules installed: {gateway.switch.rule_count}")
    print(f"Enforcement rules cached:    {len(gateway.rule_cache)}")


if __name__ == "__main__":
    main()
