#!/usr/bin/env python3
"""Fleet-scale serving: one trainer, three gateways, epoch-coordinated.

The paper evaluates one gateway; a deployment runs many, and they must
*agree* -- same model, same epoch, bit-identical verdicts for the same
traffic (PR 5's determinism makes that an assertable property).  This
demo drives the whole fleet workflow:

1. train model v1, stamp it into a bundle at epoch 1 and ``push`` it to
   the :class:`~repro.fleet.FleetCoordinator`'s distribution channel;
2. spawn three gateways from the channel watermark (one declarative
   :class:`~repro.api.GatewayConfig` template) and stream the same
   traffic through each: every gateway produces the identical verdict
   map;
3. train model v2 (it knows a device model v1 quarantines), push it at
   epoch 2 and ``sync_all()``: each member hot-swaps the bundle between
   batches and invalidates its verdict cache by epoch;
4. replay a duplicate push -- a counted idempotent no-op;
5. roll back to v1: the channel re-publishes the old bundle under a
   *fresh higher* epoch, so caches still invalidate and the evidence
   ledger's epoch monotonicity audit stays clean;
6. the coordinator's ledger holds the full distribution audit trail
   (``push`` and ``apply`` records) -- validate it with
   ``tools/check_ledger.py``.

Run with ``python examples/fleet_convergence.py [--out DIR]``.
"""

import argparse
from pathlib import Path

from repro import (
    DeviceTypeIdentifier,
    FleetCoordinator,
    FleetHealthView,
    GatewayConfig,
    Observability,
    VerdictLedger,
)
from repro.datasets import generate_fingerprint_dataset
from repro.devices import DEVICE_CATALOG, SetupTrafficSimulator
from repro.identification.model_store import save_identifier
from repro.streaming import SimulatedSource

V1_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch"]
LATE_MODEL = "TP-LinkPlugHS110"  # v1 never saw it; v2 does
FLEET_SIZE = 3


def make_source() -> SimulatedSource:
    """The same traffic for every gateway (verdicts must agree on it)."""
    simulator = SetupTrafficSimulator(seed=42)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(V1_TYPES + [LATE_MODEL])
    ]
    return SimulatedSource(traces=traces)


def verdict_map(handle) -> dict:
    return {
        str(record.mac): record.device_type
        for record in handle.gateway.devices.values()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("fleet-artifacts"),
        help="directory for bundles + the fleet ledger (default: fleet-artifacts/)",
    )
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print("== 1. Train v1, stamp it at epoch 1, push it to the channel ==")
    dataset_v1 = generate_fingerprint_dataset(
        runs_per_type=10, device_names=V1_TYPES, seed=0
    )
    v1 = DeviceTypeIdentifier.train(dataset_v1.to_registry(), random_state=0)
    bundle_v1 = args.out / "model-v1.json"
    save_identifier(bundle_v1, v1, epoch=1)

    fleet = FleetCoordinator(
        observability=Observability(
            ledger=VerdictLedger(args.out / "fleet-ledger.ndjson")
        )
    )
    record = fleet.push(bundle_v1, note="initial rollout")
    print(f"   pushed {record.bundle_path} @ epoch {record.epoch} rev {record.revision}")

    print(f"== 2. Spawn {FLEET_SIZE} gateways from the watermark; stream the fleet ==")
    template = GatewayConfig(max_batch=4)
    handles = [
        fleet.spawn_gateway(f"gw-{index}", template) for index in range(FLEET_SIZE)
    ]
    for handle in handles:
        stats = handle.run_until_idle(make_source())
        print(f"   {handle.name}: {stats.summary()}")
    maps = [verdict_map(handle) for handle in handles]
    assert all(m == maps[0] for m in maps), "gateways disagree on identical traffic"
    unknowns = sorted(m for m, t in maps[0].items() if t == "unknown")
    print(f"   all {FLEET_SIZE} gateways agree; v1 quarantines {unknowns}")
    print(FleetHealthView(fleet).collect().describe())

    print(f"== 3. Train v2 (knows {LATE_MODEL}), push @ epoch 2, sync ==")
    dataset_v2 = generate_fingerprint_dataset(
        runs_per_type=10, device_names=V1_TYPES + [LATE_MODEL], seed=0
    )
    v2 = DeviceTypeIdentifier.train(dataset_v2.to_registry(), random_state=0)
    v2.revision = v1.revision + 1
    bundle_v2 = args.out / "model-v2.json"
    save_identifier(bundle_v2, v2, epoch=2)
    fleet.push(bundle_v2, note="adds " + LATE_MODEL)
    applied = fleet.sync_all()
    print(f"   applied per member: {applied}")
    for handle in handles:
        handle.run_until_idle(make_source())
    maps = [verdict_map(handle) for handle in handles]
    assert all(m == maps[0] for m in maps)
    print(f"   {LATE_MODEL} now identified on every member")
    print(FleetHealthView(fleet).collect().describe())

    print("== 4. A replayed push is a counted idempotent no-op ==")
    fleet.push(bundle_v2)
    print(f"   duplicate_pushes = {fleet.duplicate_pushes}; "
          f"sync applies nothing: {fleet.sync_all()}")

    print("== 5. Roll back to v1 -- by moving the epoch *forward* ==")
    rollback = fleet.rollback(note="v2 misbehaving in prod")
    print(f"   re-published {rollback.bundle_path} @ epoch {rollback.epoch}")
    print(f"   applied per member: {fleet.sync_all()}")
    report = FleetHealthView(fleet).collect()
    print(report.describe())
    assert report.converged

    print("== 6. The distribution audit trail ==")
    ledger = fleet.observability.ledger
    snapshot = fleet.observability.snapshot()
    for key in ("ledger.push_records", "ledger.apply_records"):
        print(f"   {key} = {snapshot[key]}")
    for handle in handles:
        handle.close()
    ledger.close()
    print(f"   validate with: python tools/check_ledger.py {ledger.path}")


if __name__ == "__main__":
    main()
