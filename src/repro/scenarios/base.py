"""The campaign harness: seeded hostile scenarios with evidence-backed artifacts.

The paper's evaluation assumes honest devices performing clean setup
phases.  This package runs the opposite regime -- mimicry, MAC
randomization storms, firmware drift, DHCP churn, burst overload -- as
named, seeded, *declarative* campaigns over the existing simulator and a
full :func:`repro.api.build_gateway` stack, and scores what the gateway
did about it.

Design rules (the eval-workflow idiom the artifacts follow):

* **Deterministic run names.**  A campaign run is addressed as
  ``<scenario>__seed-<seed>``; no wall-clock label ever enters a name,
  so two runs of the same seed land in the same place and diff cleanly.
* **Byte-identical artifacts.**  ``report.json`` (canonical sorted-key
  JSON) and ``devices.csv`` (rows sorted by MAC) contain only
  stream-time-derived values -- the metrics snapshot is taken with
  ``include_timings=False`` and every float is rounded -- so the same
  seed reproduces the same bytes.
* **Evidence-backed claims.**  Every misidentification the report
  claims is cross-checked against the gateway's own evidence ledger
  (an :class:`~repro.obs.evidence.EvidenceRecord` verdict trail must
  exist for the MAC and verdict); the stdlib-only
  ``tools/check_scenarios.py`` gate re-verifies the same reconciliation
  in CI without importing :mod:`repro`.

A campaign subclass implements :meth:`Campaign._execute` -- build the
stack, render hostile traffic, drive it -- and returns a
:class:`CampaignOutcome` pairing the gateway handle with per-device
ground truth; scoring, ledger reconciliation and artifact writing are
shared here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar, Optional, Sequence, Union

from repro.api import GatewayConfig, GatewayHandle, build_gateway
from repro.datasets.builder import generate_fingerprint_dataset
from repro.identification.autopilot import AutopilotDecision
from repro.identification.identifier import UNKNOWN_DEVICE_TYPE, DeviceTypeIdentifier
from repro.net.addresses import MACAddress
from repro.obs.ledger import replay_ledger
from repro.simulation.clock import SimulatedClock

#: Artifact schema carried by every ``report.json`` (and the suite manifest).
SCENARIO_SCHEMA_VERSION = 1

#: Labels minted by the autopilot for auto-learned clusters.  A verdict
#: carrying this prefix is a *provisional* type, not a misidentification:
#: the gateway knowingly grouped an unseen model, it did not confuse the
#: device with a catalog type.
PROVISIONAL_PREFIX = "unknown-model-"

#: Default training catalog shared by the stock campaigns: small enough to
#: train in seconds, large enough for confusable neighbours to exist.
DEFAULT_TRAINED_TYPES = ("Aria", "D-LinkCam", "EdnetCam", "HueBridge", "WeMoSwitch")

#: Columns of ``devices.csv``, in order (the flat diffable view of
#: ``report.json``'s ``devices`` list).
DEVICE_CSV_COLUMNS = (
    "mac",
    "role",
    "true_type",
    "expected",
    "verdict",
    "isolation",
    "quarantined",
    "misidentified",
    "ledger_backed",
)


def derive_seed(seed: int, label: str) -> int:
    """A deterministic sub-seed for one labelled role of a campaign.

    Sub-seeds are content-derived (SHA-256 of ``"<seed>:<label>"``), so
    adding a new consumer never perturbs the streams of existing ones --
    the property that keeps artifact bytes stable across harness growth.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def scenario_run_name(name: str, seed: int) -> str:
    """The deterministic address of one campaign run (no wall-clock label)."""
    return f"{name}__seed-{seed}"


def train_identifier(
    types: Sequence[str], runs_per_type: int, seed: int
) -> DeviceTypeIdentifier:
    """Train a two-stage identifier on a synthetic catalog subset."""
    dataset = generate_fingerprint_dataset(
        runs_per_type=runs_per_type,
        device_names=list(types),
        seed=seed % (2**32),
    )
    return DeviceTypeIdentifier.train(
        dataset.to_registry(), random_state=seed % (2**31 - 1)
    )


def local_admin_mac(rng) -> MACAddress:
    """A locally-administered (randomized) MAC, as privacy-mode devices use."""
    suffix = ":".join(f"{int(rng.integers(0, 256)):02x}" for _ in range(5))
    return MACAddress.from_string(f"06:{suffix}")


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth for one device the campaign put on the wire.

    Attributes:
        mac: the MAC the device presented (string form).
        role: the campaign-assigned part ("honest", "impostor", "storm", ...).
        true_type: the device's actual catalog model.
        expected: what an honest gateway should conclude -- the trained
            type name, or ``"unknown"`` when the model is not in the bank.
    """

    mac: str
    role: str
    true_type: str
    expected: str


@dataclass
class CampaignOutcome:
    """What :meth:`Campaign._execute` hands back for scoring.

    Attributes:
        handle: the scored (primary) gateway; its ledger backs the report.
        truth: per-device ground truth, keyed by MAC string.
        extra_metrics: campaign-specific deterministic metrics, merged
            into the report under their own keys.
        handles: every handle to close (fleet campaigns); defaults to
            just ``handle``.
        autopilot_decisions: decisions returned by autopilot polls the
            campaign ran, used for false-trigger accounting.
        phantom_macs: MACs that are *not* distinct physical devices
            (spoofed / rotated identities); an autopilot trigger whose
            cluster lies entirely inside this set is a false trigger.
    """

    handle: GatewayHandle
    truth: dict[str, TruthRecord]
    extra_metrics: dict = field(default_factory=dict)
    handles: list[GatewayHandle] = field(default_factory=list)
    autopilot_decisions: list[AutopilotDecision] = field(default_factory=list)
    phantom_macs: set[str] = field(default_factory=set)

    def all_handles(self) -> list[GatewayHandle]:
        return self.handles if self.handles else [self.handle]


@dataclass
class ScenarioReport:
    """One scored campaign run and the artifact files it wrote."""

    scenario: str
    seed: int
    run_name: str
    run_dir: Path
    metrics: dict
    devices: list[dict]
    ledger_name: str = "gateway-ledger.ndjson"

    @property
    def report_path(self) -> Path:
        return self.run_dir / "report.json"

    @property
    def csv_path(self) -> Path:
        return self.run_dir / "devices.csv"


@dataclass
class Campaign:
    """Base class of all hostile campaigns: knobs in, scored artifact out.

    Subclasses set :attr:`name`, add their scenario knobs as dataclass
    fields and implement :meth:`_execute`.  :meth:`run` owns the shared
    contract: a wiped deterministic run directory, scoring against
    ground truth, ledger reconciliation, and canonical JSON/CSV artifact
    bytes.
    """

    trained_types: Sequence[str] = DEFAULT_TRAINED_TYPES
    runs_per_type: int = 6

    name: ClassVar[str] = "campaign"

    # ------------------------------------------------------------------ #
    # The subclass surface.
    # ------------------------------------------------------------------ #
    def _execute(self, seed: int, run_dir: Path) -> CampaignOutcome:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared helpers for subclasses.
    # ------------------------------------------------------------------ #
    def _train(self, seed: int) -> DeviceTypeIdentifier:
        return train_identifier(
            self.trained_types, self.runs_per_type, derive_seed(seed, f"{self.name}:train")
        )

    def _build_gateway(
        self, identifier: DeviceTypeIdentifier, run_dir: Path, **overrides
    ) -> GatewayHandle:
        """A full gateway stack writing its evidence ledger into the run dir."""
        name = overrides.pop("name", "gateway")
        config = GatewayConfig(
            identifier=identifier,
            name=name,
            ledger_path=run_dir / f"{name}-ledger.ndjson",
            clock=SimulatedClock(),
            **overrides,
        )
        return build_gateway(config)

    def knobs(self) -> dict:
        """The campaign's declarative configuration (recorded in the report)."""
        payload = {}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if isinstance(value, tuple):
                value = list(value)
            payload[config_field.name] = value
        return payload

    # ------------------------------------------------------------------ #
    # The run contract.
    # ------------------------------------------------------------------ #
    def run(self, seed: int, out_dir: Union[str, Path]) -> ScenarioReport:
        """Execute, score and persist one seeded run of this campaign.

        The run directory ``<out_dir>/<name>__seed-<seed>`` is wiped
        first so re-runs start from identical state (stale ledgers would
        otherwise be appended to and break byte-stability).
        """
        run_dir = Path(out_dir) / scenario_run_name(self.name, seed)
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        outcome = self._execute(seed, run_dir)
        # Close before scoring: scoring replays the evidence ledger from
        # disk, so every buffered record must be durable first.
        for handle in outcome.all_handles():
            handle.close()
        report = self._score(seed, run_dir, outcome)
        _write_artifacts(self, report)
        return report

    # ------------------------------------------------------------------ #
    # Scoring.
    # ------------------------------------------------------------------ #
    def _score(self, seed: int, run_dir: Path, outcome: CampaignOutcome) -> ScenarioReport:
        handle = outcome.handle
        gateway = handle.gateway
        now = handle.clock.now()
        records_by_mac = {str(mac): record for mac, record in gateway.devices.items()}
        quarantined_macs = {str(mac) for mac in handle.lifecycle.quarantine.macs()}
        replay = replay_ledger(handle.config.ledger_path)
        verdict_trail: dict[str, set[str]] = {}
        ledger_kinds: dict[str, int] = {}
        for record in replay.records:
            ledger_kinds[record.kind] = ledger_kinds.get(record.kind, 0) + 1
            # The evidence trail of a verdict: its dispatcher-path verdict
            # record, or the enforcement record of a sink-applied verdict
            # (the reprofile scheduler bypasses the dispatcher entirely).
            if record.kind in ("verdict", "enforcement") and record.mac is not None:
                if record.verdict is not None:
                    verdict_trail.setdefault(record.mac, set()).add(record.verdict)

        rows: list[dict] = []
        misidentified = identified = unassessed = 0
        backed = 0
        for mac in sorted(outcome.truth):
            truth = outcome.truth[mac]
            record = records_by_mac.get(mac)
            verdict = record.device_type if record is not None else None
            isolation = (
                record.isolation_level.name.lower()
                if record is not None and record.isolation_level is not None
                else ""
            )
            wrong = _is_misidentified(truth.expected, verdict)
            ledger_backed: Optional[bool] = None
            if wrong:
                misidentified += 1
                ledger_backed = verdict in verdict_trail.get(mac, set())
                if ledger_backed:
                    backed += 1
            if verdict is None:
                unassessed += 1
            elif verdict != UNKNOWN_DEVICE_TYPE:
                identified += 1
            rows.append(
                {
                    "mac": mac,
                    "role": truth.role,
                    "true_type": truth.true_type,
                    "expected": truth.expected,
                    "verdict": verdict,
                    "isolation": isolation,
                    "quarantined": mac in quarantined_macs,
                    "misidentified": wrong,
                    "ledger_backed": ledger_backed,
                }
            )

        snapshot = handle.snapshot(include_timings=False)
        metrics = {
            "devices": len(outcome.truth),
            "identified": identified,
            "unassessed": unassessed,
            "misidentified": misidentified,
            "misidentification_rate": _rate(misidentified, len(outcome.truth)),
            "quarantine": _quarantine_metrics(handle, now),
            "autopilot": _autopilot_metrics(handle, outcome),
            "enforcement": _enforcement_metrics(handle, rows),
            "backpressure": {
                "offered": snapshot.get("dispatcher.queue.offered", 0),
                "accepted": snapshot.get("dispatcher.queue.accepted", 0),
                "dropped": snapshot.get("dispatcher.queue.dropped", 0),
                "blocked": snapshot.get("dispatcher.queue.blocked", 0),
                "high_watermark": snapshot.get("dispatcher.queue.high_watermark", 0),
            },
            "ledger": {
                "verdict_records": ledger_kinds.get("verdict", 0),
                "enforcement_records": ledger_kinds.get("enforcement", 0),
                "quarantine_records": ledger_kinds.get("quarantine", 0),
                "learn_records": ledger_kinds.get("learn", 0),
                "misidentified_backed": backed,
            },
            "reconciliation": {
                "verdicts_match_identified": ledger_kinds.get("verdict", 0)
                == snapshot.get("dispatcher.identified", 0),
                "submitted_accounted": snapshot.get("dispatcher.submitted", 0)
                == snapshot.get("dispatcher.identified", 0)
                + snapshot.get("dispatcher.dropped", 0),
                "misidentified_all_backed": backed == misidentified,
            },
            "snapshot": snapshot,
        }
        metrics.update(outcome.extra_metrics)
        return ScenarioReport(
            scenario=self.name,
            seed=seed,
            run_name=scenario_run_name(self.name, seed),
            run_dir=run_dir,
            metrics=metrics,
            devices=rows,
            ledger_name=Path(handle.config.ledger_path).name,
        )


def _is_misidentified(expected: str, verdict: Optional[str]) -> bool:
    """A misidentification is a confident *wrong catalog* verdict.

    Never-assessed devices (dropped under backpressure) and honest
    "unknown" outcomes are misses, not misidentifications; provisional
    autopilot labels are deliberate groupings of unseen models.
    """
    if verdict in (None, UNKNOWN_DEVICE_TYPE):
        return False
    if verdict.startswith(PROVISIONAL_PREFIX):
        return False
    return verdict != expected


def _rate(numerator: int, denominator: int) -> float:
    return round(numerator / denominator, 6) if denominator else 0.0


def _quarantine_metrics(handle: GatewayHandle, now: float) -> dict:
    log = handle.lifecycle.quarantine
    ages = [now - entry.quarantined_at for entry in log.devices()]
    return {
        "size": len(log),
        "recorded": log.recorded,
        "evicted": log.evicted,
        "released": log.released,
        "max_age": round(max(ages), 6) if ages else 0.0,
        "mean_age": round(sum(ages) / len(ages), 6) if ages else 0.0,
    }


def _autopilot_metrics(handle: GatewayHandle, outcome: CampaignOutcome) -> dict:
    autopilot = handle.autopilot
    if autopilot is None:
        return {
            "triggers_fired": 0,
            "false_triggers": 0,
            "false_trigger_rate": 0.0,
            "learned": 0,
            "pending": 0,
        }
    false_triggers = 0
    for decision in outcome.autopilot_decisions:
        if decision.action not in ("learned", "pending"):
            continue
        macs = {str(mac) for mac in decision.proposal.macs}
        if macs and macs <= outcome.phantom_macs:
            false_triggers += 1
    return {
        "triggers_fired": autopilot.triggers_fired,
        "false_triggers": false_triggers,
        "false_trigger_rate": _rate(false_triggers, autopilot.triggers_fired),
        "learned": autopilot.learned,
        "pending": len(autopilot.pending),
    }


def _enforcement_metrics(handle: GatewayHandle, rows: list[dict]) -> dict:
    levels: dict[str, int] = {}
    for row in rows:
        if row["isolation"]:
            levels[row["isolation"]] = levels.get(row["isolation"], 0) + 1
    return {
        "enforced": handle.sink.enforced,
        "skipped_downgrades": handle.sink.skipped_downgrades,
        "levels": dict(sorted(levels.items())),
    }


# ---------------------------------------------------------------------- #
# Artifact writing (canonical bytes).
# ---------------------------------------------------------------------- #
def canonical_json(payload: dict) -> str:
    """The one JSON encoding every scenario artifact uses (stable bytes)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_artifacts(campaign: Campaign, report: ScenarioReport) -> None:
    payload = {
        "schema": SCENARIO_SCHEMA_VERSION,
        "scenario": report.scenario,
        "seed": report.seed,
        "run_name": report.run_name,
        "campaign": campaign.knobs(),
        "metrics": report.metrics,
        "devices": report.devices,
        "artifacts": {
            "devices_csv": "devices.csv",
            "ledger": report.ledger_name,
        },
    }
    report.report_path.write_text(canonical_json(payload), encoding="utf-8")
    with report.csv_path.open("w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(DEVICE_CSV_COLUMNS)
        for row in report.devices:
            writer.writerow(["" if row[column] is None else row[column] for column in DEVICE_CSV_COLUMNS])


def artifact_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every contract artifact in a run directory.

    The contract set is ``report.json``, ``devices.csv`` and the ledger
    chain; scratch material (e.g. model bundles, whose zip container
    embeds timestamps) is excluded by construction.
    """
    digests: dict[str, str] = {}
    for path in sorted(run_dir.iterdir()):
        if not path.is_file():
            continue
        if path.name in ("report.json", "devices.csv") or "ledger.ndjson" in path.name:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
