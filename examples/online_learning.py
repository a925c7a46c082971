#!/usr/bin/env python3
"""The online-learning lifecycle: quarantine -> learn -> re-identify -> enforce.

IoT SENTINEL's per-type classifier bank grows one classifier at a time as
new device models appear -- but a runtime registration only stays honest
if every consumer of identification verdicts is brought along: the
dispatcher's result cache must stop serving pre-learning verdicts,
devices quarantined under strict isolation must be re-identified and
their gateway rules upgraded, and model-store snapshots must be re-rolled
so a reloaded bundle matches the live bank.  This demo runs that whole
lifecycle:

1. train the identifier on a fleet that does *not* include HomeMatic
   plugs;
2. stream a mixed fleet through the gateway -- the HomeMatic plugs
   identify as unknown and are parked under strict isolation, their
   fingerprints retained in the quarantine log;
3. register the missing type through the lifecycle coordinator: the new
   classifier is trained incrementally, every verdict cache is
   invalidated (epoch bump + clear), the quarantined fleet is batch
   re-identified and its strict rules replaced with the assessed
   isolation levels, and a fresh epoch-stamped model snapshot is rolled;
4. show that a pre-learning snapshot is rejected as stale while the
   fresh one reloads to the live verdicts.

Run with ``python examples/online_learning.py``.
"""

import tempfile
from pathlib import Path

from repro.datasets import generate_fingerprint_dataset
from repro.devices import DEVICE_CATALOG, SetupTrafficSimulator
from repro.exceptions import ModelStoreError
from repro.features import Fingerprint
from repro.gateway import SecurityGateway
from repro.identification import DeviceTypeIdentifier, LifecycleCoordinator, bundle_info
from repro.security_service import IoTSecurityService
from repro.streaming import (
    BatchDispatcher,
    GatewayEnforcementSink,
    SimulatedSource,
    StreamingPipeline,
)

KNOWN_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch", "TP-LinkPlugHS110"]
UNKNOWN_TYPE = "HomeMaticPlug"
UNKNOWN_DEVICES = 3


def print_fleet(gateway: SecurityGateway) -> None:
    for record in sorted(gateway.devices.values(), key=lambda r: str(r.mac)):
        print(
            f"   {str(record.mac):18s} {record.device_type:16s} "
            f"{record.isolation_level.value}"
        )


def main() -> None:
    print("== 1. Training on the initially known device-types ==")
    dataset = generate_fingerprint_dataset(runs_per_type=10, device_names=KNOWN_TYPES, seed=3)
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=3)
    print(f"   known: {', '.join(identifier.known_device_types)}")

    store_dir = Path(tempfile.mkdtemp(prefix="iot-sentinel-lifecycle-"))
    service = IoTSecurityService(identifier=identifier)
    gateway = SecurityGateway()
    coordinator = LifecycleCoordinator(
        identifier=identifier, store_path=store_dir / "model.npz"
    )
    sink = GatewayEnforcementSink(
        gateway=gateway, security_service=service, lifecycle=coordinator
    )
    coordinator.sink = sink
    dispatcher = BatchDispatcher(identifier, max_batch=8, cache=coordinator.make_cache())

    print("== 2. A mixed fleet joins; the HomeMatic plugs are unknown ==")
    simulator = SetupTrafficSimulator(seed=7)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(KNOWN_TYPES)
    ]
    for index in range(UNKNOWN_DEVICES):
        traces.append(
            simulator.simulate(
                DEVICE_CATALOG[UNKNOWN_TYPE], start_time=20.0 + index * 3.0
            )
        )
    pipeline = StreamingPipeline(
        source=SimulatedSource(traces=traces), dispatcher=dispatcher, on_identified=sink
    )
    pipeline.run()
    print_fleet(gateway)
    print(f"   quarantined: {len(coordinator.quarantine)} device(s)")

    stale_snapshot = coordinator.save_snapshot(store_dir / "pre_learning.npz")

    print("== 3. The IoTSSP learns the missing type; coherence is restored ==")
    training = [
        Fingerprint.from_packets(trace.packets, device_type=UNKNOWN_TYPE)
        for trace in simulator.simulate_many(DEVICE_CATALOG[UNKNOWN_TYPE], 10)
    ]
    report = coordinator.learn_device_type(UNKNOWN_TYPE, training)
    print(
        f"   epoch {report.generation}: re-identified {report.quarantined} quarantined "
        f"device(s) at {report.devices_per_second:,.0f} devices/s"
    )
    print(f"   upgraded: {len(report.upgraded)}, still unknown: {len(report.still_unknown)}")
    print(f"   WPS re-keys so far: {gateway.wps.rekey_count}")
    print_fleet(gateway)

    print("== 4. Snapshots know which epoch they belong to ==")
    print(f"   pre-learning bundle epoch:  {bundle_info(stale_snapshot)['epoch']!r}")
    print(f"   post-learning bundle epoch: {bundle_info(report.snapshot_path)['epoch']!r}")
    try:
        coordinator.load_snapshot(stale_snapshot)
    except ModelStoreError as error:
        print(f"   stale bundle rejected: {error}")
    reloaded = coordinator.load_snapshot()
    probe = Fingerprint.from_packets(
        simulator.simulate(DEVICE_CATALOG[UNKNOWN_TYPE]).packets
    )
    print(
        f"   fresh bundle serves the live verdict: "
        f"{reloaded.identify(probe).device_type}"
    )


if __name__ == "__main__":
    main()
