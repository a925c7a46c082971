"""Fleet convergence: one push propagating to N serving gateways.

An N-member fleet serves model v1; the trainer pushes v2 at a fresh
epoch and the measured path is everything ``FleetCoordinator.sync_all``
does per member: load the bundle, hot-swap the identifier between
batches, adopt the epoch into the lifecycle coordinator (clearing every
registered cache), repoint the security service and write the ledger
apply record.

Checked properties:

* before the sync every member lags the watermark by exactly one epoch;
  after it the :class:`~repro.fleet.FleetHealthView` reports the fleet
  converged (zero laggards);
* post-convergence the members *agree*: the same traffic replayed
  through every member yields identical per-device verdict maps (the
  determinism guarantee doing fleet duty);
* a replayed push applies nowhere (idempotent no-op).

The wall-clock swap latency is reported as the headline of the
``BENCH_fleet_convergence.json`` trajectory, not asserted.
"""

from __future__ import annotations

import time

from repro.api import GatewayConfig
from repro.datasets.builder import generate_fingerprint_dataset
from repro.devices.catalog import DEVICE_CATALOG
from repro.devices.simulator import SetupTrafficSimulator
from repro.fleet import FleetCoordinator, FleetHealthView
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.model_store import save_identifier
from repro.streaming import SimulatedSource

from benchmarks.conftest import BENCH_QUICK, BENCH_SEED, make_section_reporter

KNOWN_TYPES = ["Aria", "HueBridge", "EdnetCam", "WeMoSwitch"]
LATE_TYPE = "TP-LinkPlugHS110"
FLEET_SIZE = 3 if BENCH_QUICK else 8
TRAINING_RUNS = 6

#: The benchmarks in this file merge into BENCH_fleet_convergence.json.
_report = make_section_reporter("fleet_convergence")


def make_source() -> SimulatedSource:
    simulator = SetupTrafficSimulator(seed=BENCH_SEED + 1)
    traces = [
        simulator.simulate(DEVICE_CATALOG[name], start_time=index * 3.0)
        for index, name in enumerate(KNOWN_TYPES + [LATE_TYPE])
    ]
    return SimulatedSource(traces=traces)


def build_fleet(tmp_path):
    """A served fleet at epoch 1 plus a v2 bundle staged at epoch 2."""
    dataset_v1 = generate_fingerprint_dataset(
        runs_per_type=TRAINING_RUNS, device_names=KNOWN_TYPES, seed=BENCH_SEED
    )
    v1 = DeviceTypeIdentifier.train(dataset_v1.to_registry(), random_state=BENCH_SEED)
    bundle_v1 = tmp_path / "model-v1.json"
    save_identifier(bundle_v1, v1, epoch=1)

    dataset_v2 = generate_fingerprint_dataset(
        runs_per_type=TRAINING_RUNS,
        device_names=KNOWN_TYPES + [LATE_TYPE],
        seed=BENCH_SEED,
    )
    v2 = DeviceTypeIdentifier.train(dataset_v2.to_registry(), random_state=BENCH_SEED)
    v2.revision = v1.revision + 1
    bundle_v2 = tmp_path / "model-v2.json"
    save_identifier(bundle_v2, v2, epoch=2)

    fleet = FleetCoordinator()
    fleet.push(bundle_v1, note="initial rollout")
    template = GatewayConfig(max_batch=4)
    handles = [
        fleet.spawn_gateway(f"gw-{index}", template) for index in range(FLEET_SIZE)
    ]
    for handle in handles:
        handle.run_until_idle(make_source())
    return fleet, handles, bundle_v2


def verdict_map(handle) -> dict:
    return {
        str(record.mac): record.device_type
        for record in handle.gateway.devices.values()
    }


def test_fleet_convergence(benchmark, bench_report, tmp_path):
    fleet, handles, bundle_v2 = build_fleet(tmp_path)
    view = FleetHealthView(fleet)

    before = view.collect()
    assert before.converged and before.target_epoch == 1

    fleet.push(bundle_v2, note="adds " + LATE_TYPE)
    staged = view.collect()
    assert not staged.converged
    assert staged.max_lag == 1 and len(staged.laggards) == FLEET_SIZE

    start = time.perf_counter()
    applied = benchmark.pedantic(fleet.sync_all, rounds=1, iterations=1)
    sync_seconds = time.perf_counter() - start

    assert applied == {f"gw-{index}": 1 for index in range(FLEET_SIZE)}
    after = view.collect()
    assert after.converged and after.target_epoch == 2 and after.max_lag == 0

    # Replayed push: absorbed at the channel, applies nowhere.
    fleet.push(bundle_v2)
    assert fleet.duplicate_pushes == 1
    assert all(count == 0 for count in fleet.sync_all().values())

    # Post-convergence agreement: identical traffic -> identical verdicts.
    for handle in handles:
        handle.run_until_idle(make_source())
    maps = [verdict_map(handle) for handle in handles]
    assert all(current == maps[0] for current in maps)
    assert LATE_TYPE in maps[0].values()  # v2 actually took effect

    print()
    print("Fleet convergence (push -> every member serving the new epoch)")
    print(f"  fleet size                     {FLEET_SIZE} gateways")
    print(f"  pre-sync lag                   {staged.max_lag} epoch on every member")
    print(f"  sync_all wall time             {sync_seconds * 1000:.1f} ms "
          f"({sync_seconds / FLEET_SIZE * 1000:.1f} ms/gateway)")
    print(f"  post-sync                      epoch {after.target_epoch}, "
          f"0 laggards, verdict maps identical")

    _report(
        bench_report,
        "convergence",
        {
            "fleet_size": FLEET_SIZE,
            "sync_seconds": sync_seconds,
            "sync_seconds_per_gateway": sync_seconds / FLEET_SIZE,
            "pre_sync_max_lag": staged.max_lag,
            "post_sync_max_lag": after.max_lag,
            "duplicate_pushes_absorbed": fleet.duplicate_pushes,
            "verdict_maps_identical": True,
        },
        cache_epoch=after.target_epoch,
    )
