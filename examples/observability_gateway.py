#!/usr/bin/env python3
"""The gateway explaining itself: evidence ledger + metrics snapshot.

``streaming_gateway.py`` shows the dataflow; this demo shows the *audit
trail*.  The :class:`~repro.api.GatewayConfig` facade wires one
:class:`~repro.obs.Observability` hub through the whole serving path --
dispatcher, pipeline, enforcement sink, lifecycle coordinator and
autopilot -- so that:

1. every verdict, enforcement change, quarantine transition, learn and
   promotion lands in an append-only NDJSON ledger (``ledger.ndjson``);
2. every counter the subsystems already keep is readable through one
   ``snapshot()`` call (written to ``snapshot.json``);
3. a verdict can be *reconstructed* afterwards: the ledger carries the
   fingerprint key, the provenance of the discrimination draw, the
   identifier revision and the cache epoch of the moment it was made.

The traffic deliberately exercises the full record surface: a fleet of
known devices, plus three devices of a model the identifier was never
trained on -- they are quarantined, the autopilot learns the unknown
model under a provisional label, and the label is then promoted.

Run with ``python examples/observability_gateway.py [--out DIR]``.
"""

import argparse
from pathlib import Path

from repro import GatewayConfig, build_gateway
from repro.datasets import generate_fingerprint_dataset
from repro.devices import DEVICE_CATALOG, SetupTrafficSimulator
from repro.identification import DeviceTypeIdentifier
from repro.identification.autopilot import TriggerPolicy
from repro.net.addresses import MACAddress
from repro.obs import replay_ledger
from repro.streaming import SimulatedSource, replay_trace

TRAINED_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch"]
UNKNOWN_MODEL = "TP-LinkPlugHS110"  # never trained: will be quarantined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("obs-artifacts"),
        help="directory for ledger.ndjson + snapshot.json (default: obs-artifacts/)",
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print("== 1. Training the identifier (unknown model deliberately left out) ==")
    dataset = generate_fingerprint_dataset(
        runs_per_type=10, device_names=TRAINED_TYPES, seed=0
    )
    identifier = DeviceTypeIdentifier.train(dataset.to_registry(), random_state=0)
    print(f"   known device-types: {', '.join(identifier.known_device_types)}")

    print("== 2. One config: the hub wired through the whole serving path ==")
    simulator = SetupTrafficSimulator(seed=42)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(TRAINED_TYPES * 2)
    ]
    quiet = max(packet.timestamp for trace in traces for packet in trace.packets)
    unknown = simulator.simulate(DEVICE_CATALOG[UNKNOWN_MODEL], start_time=quiet + 10.0)
    traces.append(unknown)
    for index in range(2):
        mac = MACAddress.from_string(f"02:50:f0:00:00:{index + 1:02x}")
        traces.append(replay_trace(unknown, mac, quiet + 20.0 + index * 2.0))

    handle = build_gateway(
        GatewayConfig(
            identifier=identifier,
            max_batch=4,
            autopilot=True,
            trigger_policy=TriggerPolicy(min_cluster_size=3),
            ledger_path=args.out / "ledger.ndjson",
            # A small rotation threshold so the demo ledger exercises the
            # rotated chain too; production would use the (4 MiB) default.
            ledger_max_bytes=4096,
            ledger_max_files=16,
        )
    )
    hub = handle.observability
    print(f"   metric sources wired: {', '.join(hub.metrics.sources)}")

    print("== 3. Streaming a fleet (including 3 devices of the unknown model) ==")
    stats = handle.run_until_idle(SimulatedSource(traces=traces))
    print(f"   {stats.summary()}")
    print(f"   quarantined unknowns: {len(handle.lifecycle.quarantine)}")

    print("== 4. Autopilot: learn the unknown model, then promote the label ==")
    decisions = handle.autopilot.poll(now=handle.clock.now())
    for decision in decisions:
        print(f"   {decision.action}: {decision.proposal.label} "
              f"(cluster of {decision.proposal.cluster_size})")
    for decision in decisions:
        if decision.action == "learned":
            upgraded = handle.autopilot.promote(decision.proposal.label)
            print(f"   promoted {decision.proposal.label}: {upgraded} rules relaxed")

    print("== 5. The gateway explains itself ==")
    snapshot = handle.snapshot()
    snapshot_path = args.out / "snapshot.json"
    snapshot_path.write_text(hub.snapshot_json() + "\n", encoding="utf-8")
    for key in (
        "ledger.verdict_records",
        "ledger.enforcement_records",
        "ledger.quarantine_records",
        "ledger.learn_records",
        "ledger.promotion_records",
        "identification_cache.hit_rate",
        "rule_cache.hit_rate",
        "cache_epoch.generation",
    ):
        print(f"   {key} = {snapshot[key]}")
    handle.close()

    replay = replay_ledger(hub.ledger.path)
    print(f"   ledger: {len(replay.records)} records across {len(replay.files)} file(s)")
    mac = str(unknown.device_mac)
    print(f"   evidence trail of {mac}:")
    for record in replay.for_mac(mac):
        extra = record.enforcement_action or record.detail.get("transition") or record.verdict
        print(f"     #{record.sequence:<3} {record.kind:<12} {extra}")
    print(f"   artifacts: {hub.ledger.path}, {snapshot_path}")


if __name__ == "__main__":
    main()
