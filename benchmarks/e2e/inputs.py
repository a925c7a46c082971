"""Seeded, pinned inputs of the end-to-end benchmark.

A workload's input is a dozen independent *segments*, each a pcap
capture rendered from :class:`~repro.devices.simulator.SetupTrafficSimulator`
traces plus its ground truth (device MAC -> simulated device type).  A
run replays the segments in turn, one per repetition, and weighs every
segment the same, so its metrics average over every segment's devices.
The segments, not the replays, set how far one seed's traffic moves a
number: verdict latency follows how fingerprints happen to complete
together into batches, which differs from segment to segment far more
than the time of one segment differs between replays.  A segment takes
about a second, so one pass over all of them fills a run.

The model is trained from one fixed training registry (27 types x 12
runs, simulator seed 0) that is the same for every workload seed, so a
workload seed changes what the gateway sees, never what it was trained
on.  Inputs are generated once per ``(workload, seed, sizes)`` into the
work directory and reused; generation is never timed.  Each input set
carries the sha256 of its files, which results record and ``--compare``
checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.datasets.builder import generate_fingerprint_dataset
from repro.datasets.storage import save_fingerprints
from repro.devices.catalog import DEVICE_NAMES, profile_of
from repro.devices.simulator import SetupTrafficSimulator
from repro.net.addresses import MACAddress
from repro.net.pcap import write_pcap
from repro.streaming.sources import interleave_traces, replay_trace

WORKLOADS = ("onboard_unique", "onboard_clones", "chatter", "forward")

#: Training material: the paper's 27 device types, 12 setup runs each,
#: simulator seed 0 -- pinned, independent of the workload seed.
TRAINING_RUNS_PER_TYPE = 12
TRAINING_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """How big each workload's segments are, and how many there are.

    ``unique_*``: devices and setup re-runs per device of ``onboard_unique``;
    ``clone_replays``: new-MAC replays per fresh device of
    ``onboard_clones`` (and of the fleet ``forward`` onboards);
    ``chatter_devices`` / ``chatter_repeats``: devices of ``chatter`` and
    the back-to-back setup repetitions of each; ``forward_packets``:
    packets of one forwarding loop.
    """

    segments: int = 12
    unique_devices: int = 108
    unique_reruns: int = 3
    clone_replays: int = 12
    chatter_devices: int = 54
    chatter_repeats: int = 10
    forward_packets: int = 1_500

    @property
    def tag(self) -> str:
        """Names a cached input set; any edit to this generator renames it."""
        sizes = json.dumps(asdict(self), sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(sizes + Path(__file__).read_bytes()).hexdigest()[:10]


FULL = Sizes()
#: Self-test sizes: every code path, a fraction of the packets.
QUICK = Sizes(
    segments=2, unique_devices=54, unique_reruns=2, clone_replays=4, chatter_devices=27,
    chatter_repeats=8, forward_packets=500,
)

#: Stream-time layout.  Onboarding devices join every ARRIVAL_GAP seconds;
#: a device re-runs its setup once the whole fleet has gone quiet (well
#: past the assembler's 10 s end-of-setup rule and 15 s idle eviction).
ARRIVAL_GAP = 0.5
QUIET_GAP = 30.0
CHATTER_GAP = 0.2


@dataclass(frozen=True)
class Segment:
    """One capture and the simulated type of every device on it."""

    capture: Path
    truth: dict[str, str]


@dataclass(frozen=True)
class WorkloadInput:
    """One generated input set, as the run consumes it."""

    workload: str
    seed: int
    segments: tuple[Segment, ...]
    digest: str


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Fleet:
    """Traces and ground truth of one segment, on unique MACs."""

    def __init__(self, workload: str, seed: int, segment: int):
        material = hashlib.sha256(f"e2e:{workload}:{seed}:{segment}".encode()).digest()
        self.simulator = SetupTrafficSimulator(seed=int.from_bytes(material[:4], "big"))
        self.workload_byte = WORKLOADS.index(workload) + 1
        self.segment = segment
        self.traces: list = []
        self.truth: dict[str, str] = {}

    def mac(self, index: int, device_type: str) -> MACAddress:
        # Locally administered; workload and segment bytes keep every
        # capture's devices disjoint.
        mac = MACAddress.from_string(
            f"02:e2:{self.workload_byte:02x}:{self.segment:02x}:"
            f"{index >> 8 & 0xFF:02x}:{index & 0xFF:02x}"
        )
        self.truth[str(mac)] = device_type
        return mac

    def simulate(self, index: int, name: str, start_time: float):
        trace = self.simulator.simulate(
            profile_of(name), device_mac=self.mac(index, name), start_time=start_time
        )
        self.traces.append(trace)
        return trace

    @property
    def end(self) -> float:
        return max(trace.packets[-1].timestamp for trace in self.traces)


def _onboard_unique(fleet: _Fleet, sizes: Sizes) -> None:
    """Distinct devices, each re-running setup with a fresh simulated run."""
    start = 0.0
    for _ in range(sizes.unique_reruns):
        for index in range(sizes.unique_devices):
            name = DEVICE_NAMES[index % len(DEVICE_NAMES)]
            fleet.simulate(index, name, start + index * ARRIVAL_GAP)
        start = fleet.end + QUIET_GAP


def _onboard_clones(fleet: _Fleet, sizes: Sizes) -> None:
    """One fresh device per type, then many new-MAC replays of each."""
    originals = [
        fleet.simulate(index, name, index * 2.0) for index, name in enumerate(DEVICE_NAMES)
    ]
    # Clones join once the originals are assembled and their verdicts cached.
    start = fleet.end + QUIET_GAP
    for clone in range(len(originals) * sizes.clone_replays):
        original = originals[clone % len(originals)]
        mac = fleet.mac(len(originals) + clone, original.device_type)
        offset = start + clone * ARRIVAL_GAP - original.packets[0].timestamp
        fleet.traces.append(replay_trace(original, mac, offset))


def _chatter(fleet: _Fleet, sizes: Sizes) -> None:
    """Few devices: one setup, a pause, then that traffic back to back.

    The pause ends the setup capture (the first verdict is a real
    identification); the back-to-back repeats then keep every device
    talking, so the packet datapath dominates and the flow table stays
    at one rule set per device.
    """
    for index in range(sizes.chatter_devices):
        name = DEVICE_NAMES[index % len(DEVICE_NAMES)]
        trace = fleet.simulate(index, name, index * 0.37)
        period = trace.packets[-1].timestamp - trace.packets[0].timestamp + CHATTER_GAP
        fleet.traces.extend(
            replay_trace(trace, trace.device_mac, QUIET_GAP + repeat * period)
            for repeat in range(1, sizes.chatter_repeats)
        )


def training_registry_path(workdir: Path) -> Path:
    """The pinned training registry (written once per work directory)."""
    path = workdir / "inputs" / f"training__runs-{TRAINING_RUNS_PER_TYPE}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        dataset = generate_fingerprint_dataset(
            runs_per_type=TRAINING_RUNS_PER_TYPE, seed=TRAINING_SEED
        )
        partial = path.with_suffix(".partial")
        save_fingerprints(partial, dataset)
        partial.replace(path)
    return path


def workload_input(workdir: Path, workload: str, seed: int, sizes: Sizes) -> WorkloadInput:
    """Generate (or reuse) one workload's segments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    training = training_registry_path(workdir)
    directory = workdir / "inputs" / f"{workload}__seed-{seed}__sizes-{sizes.tag}"
    files = [
        (directory / f"segment-{index}.pcap", directory / f"segment-{index}.truth.json")
        for index in range(sizes.segments)
    ]
    manifest = directory / "complete"
    if not manifest.exists():
        directory.mkdir(parents=True, exist_ok=True)
        generate = {
            "onboard_unique": _onboard_unique,
            "chatter": _chatter,
            # ``forward`` onboards a clones-shaped fleet before its
            # forwarding loop.
            "onboard_clones": _onboard_clones,
            "forward": _onboard_clones,
        }[workload]
        for index, (capture, truth) in enumerate(files):
            fleet = _Fleet(workload, seed, index)
            generate(fleet, sizes)
            write_pcap(capture, interleave_traces(fleet.traces))
            truth.write_text(json.dumps(fleet.truth, sort_keys=True, indent=1) + "\n")
        manifest.write_text("\n")  # written last: marks the set complete
    digest = hashlib.sha256(
        "\n".join(
            _sha256(path) for path in [training, *(path for pair in files for path in pair)]
        ).encode()
    ).hexdigest()
    return WorkloadInput(
        workload=workload,
        seed=seed,
        segments=tuple(
            Segment(capture=capture, truth=json.loads(truth.read_text()))
            for capture, truth in files
        ),
        digest=digest,
    )
