#!/usr/bin/env python3
"""Online identification at the Security Gateway, packet by packet.

Where ``quickstart.py`` identifies one pre-captured fingerprint offline,
this demo runs the full streaming dataflow of the paper's gateway:

1. train the identifier on simulated lab captures;
2. let a fleet of devices (including two identical models joining later)
   perform their setup procedures, interleaved on the wire;
3. stand the whole serving stack up from one declarative
   :class:`~repro.api.GatewayConfig` -- assembler, dispatcher, cache,
   enforcement sink and observability are wired by ``build_gateway``;
4. enforce each verdict on the Security Gateway the moment it is ready.

Run with ``python examples/streaming_gateway.py``.
"""

from repro import GatewayConfig, build_gateway
from repro.datasets import generate_fingerprint_dataset
from repro.devices import DEVICE_CATALOG, SetupTrafficSimulator
from repro.identification import DeviceTypeIdentifier
from repro.net.addresses import MACAddress
from repro.streaming import SimulatedSource, replay_trace

DEVICE_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch", "TP-LinkPlugHS110"]


def main() -> None:
    print("== 1. Training the identifier (simulated lab captures) ==")
    dataset = generate_fingerprint_dataset(runs_per_type=10, device_names=DEVICE_TYPES, seed=0)
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=0)
    print(f"   known device-types: {', '.join(identifier.known_device_types)}")

    print("== 2. A fleet of devices joins the network ==")
    simulator = SetupTrafficSimulator(seed=42)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(DEVICE_TYPES * 2)
    ]
    quiet = max(packet.timestamp for trace in traces for packet in trace.packets)
    # Two more Hue bridges of the same model join once the fleet is quiet.
    hue = next(trace for trace in traces if trace.device_type == "HueBridge")
    for index in range(2):
        mac = MACAddress.from_string(f"00:17:88:00:00:{index + 1:02x}")
        traces.append(replay_trace(hue, mac, quiet + 30.0 + index * 2.0))
    source = SimulatedSource(traces=traces)
    print(f"   {len(traces)} devices, {len(source)} packets on the wire")

    print("== 3. One config, one call: the assembled serving stack ==")
    handle = build_gateway(GatewayConfig(identifier=identifier, max_batch=4))
    for identified in handle.stream(source):
        origin = "cache " if identified.from_cache else "forest"
        record = handle.gateway.device_record(identified.mac)
        print(
            f"   [{origin}] {identified.mac} -> {identified.result.device_type:<18}"
            f" isolation={record.isolation_level.name.lower()}"
        )

    print("== 4. Pipeline statistics ==")
    stats = handle.pipeline.stats
    print(f"   {stats.summary()}")
    print(f"   cache hit rate:    {stats.cache_hit_rate:.0%}")
    print(f"   rules enforced:    {handle.sink.enforced}")
    print(f"   devices known to the gateway: {handle.gateway.connected_device_count}")


if __name__ == "__main__":
    main()
