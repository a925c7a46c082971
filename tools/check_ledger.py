#!/usr/bin/env python3
"""Evidence-ledger validator: schema, monotonic sequence, epoch consistency.

A dependency-free (stdlib-only) checker for the NDJSON verdict ledger
written by :mod:`repro.obs` -- it runs anywhere the file does, including
a CI runner or an operator's laptop with no numpy installed, which is
why it deliberately re-implements the validation instead of importing
``repro``.  Checks, across the whole rotated chain (``ledger.ndjson.N``
.. ``ledger.ndjson.1``, then the active file):

* every line parses as JSON and carries ``schema`` 1, a known ``kind``
  and no unknown keys;
* sequence numbers strictly increase across the chain;
* ``cache_epoch`` stamps never decrease (the epoch counter is monotonic,
  so a decrease means interleaved ledgers or clock-skewed processes);
* every verdict record carries the fields needed to reconstruct the
  decision: ``fingerprint_key`` and ``identifier_revision``;
* every line is its own canonical encoding -- ``json.dumps(json.loads(line),
  sort_keys=True, separators=(",", ":"))`` -- so a writer that drifts
  from the canonical form (key order, whitespace, escapes, number
  spelling) fails here even when its lines still parse.

The one tolerated defect is an unterminated, undecodable final line of
the *active* file -- the state a mid-append crash leaves behind; it is
reported as a warning, not an error.

Usage: ``python tools/check_ledger.py path/to/ledger.ndjson``
Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

try:
    from tools._common import chain_files, report
except ImportError:  # script context: `python tools/check_ledger.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _common import chain_files, report

SCHEMA_VERSION = 1
KINDS = {"verdict", "enforcement", "quarantine", "learn", "promotion", "push", "apply"}
RECORD_KEYS = {
    "schema",
    "sequence",
    "kind",
    "stream_time",
    "mac",
    "fingerprint_key",
    "verdict",
    "matched_types",
    "provenance",
    "identifier_revision",
    "cache_epoch",
    "enforcement_action",
    "from_cache",
    "completion_reason",
    "detail",
}


def check_record(payload: object, where: str, errors: list[str]) -> dict | None:
    """Structural checks on one decoded line; returns the record or None."""
    if not isinstance(payload, dict):
        errors.append(f"{where}: record is not a JSON object")
        return None
    unknown = set(payload) - RECORD_KEYS
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    if payload.get("schema") != SCHEMA_VERSION:
        errors.append(f"{where}: unsupported schema {payload.get('schema')!r}")
        return None
    kind = payload.get("kind")
    if kind not in KINDS:
        errors.append(f"{where}: unknown kind {kind!r}")
        return None
    sequence = payload.get("sequence")
    if not isinstance(sequence, int) or isinstance(sequence, bool) or sequence < 0:
        errors.append(f"{where}: invalid sequence {sequence!r}")
        return None
    if kind == "verdict":
        for field in ("fingerprint_key", "identifier_revision", "verdict", "mac"):
            if payload.get(field) is None:
                errors.append(f"{where}: verdict record missing {field}")
    if kind in ("push", "apply"):
        # Fleet-distribution records must be auditable: which model
        # (revision), which watermark (cache_epoch), and the channel
        # detail (push id, bundle path / gateway, applied flag).
        for field in ("identifier_revision", "cache_epoch", "detail"):
            if payload.get(field) is None:
                errors.append(f"{where}: {kind} record missing {field}")
    return payload


def check_ledger(active: Path) -> tuple[int, list[str], list[str]]:
    """Validate a ledger chain; returns (records, errors, warnings)."""
    errors: list[str] = []
    warnings: list[str] = []
    files = chain_files(active)
    if not files:
        return 0, [f"no ledger found at {active}"], warnings

    records = 0
    previous_sequence = None
    previous_epoch = None
    for file_index, file in enumerate(files):
        is_last_file = file_index == len(files) - 1
        text = file.read_text(encoding="utf-8")
        terminated = text.endswith("\n")
        lines = text.split("\n")
        if terminated:
            lines.pop()
        for line_index, line in enumerate(lines):
            where = f"{file.name}:{line_index + 1}"
            unterminated_tail = (
                is_last_file and line_index == len(lines) - 1 and not terminated
            )
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if unterminated_tail:
                    warnings.append(f"{where}: truncated final line (crash artefact)")
                    continue
                errors.append(f"{where}: malformed JSON")
                continue
            if json.dumps(payload, sort_keys=True, separators=(",", ":")) != line:
                errors.append(f"{where}: line is not in canonical JSON form")
            record = check_record(payload, where, errors)
            if record is None:
                continue
            records += 1
            sequence = record["sequence"]
            if previous_sequence is not None and sequence <= previous_sequence:
                errors.append(
                    f"{where}: sequence {sequence} does not increase "
                    f"(previous was {previous_sequence})"
                )
            previous_sequence = sequence
            epoch = record.get("cache_epoch")
            if epoch is not None:
                if not isinstance(epoch, int) or isinstance(epoch, bool):
                    errors.append(f"{where}: cache_epoch {epoch!r} is not an integer")
                elif previous_epoch is not None and epoch < previous_epoch:
                    errors.append(
                        f"{where}: cache_epoch {epoch} decreased "
                        f"(previous was {previous_epoch})"
                    )
                else:
                    previous_epoch = epoch
    if records == 0:
        errors.append(f"{active}: ledger chain contains no records")
    return records, errors, warnings


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_ledger.py path/to/ledger.ndjson", file=sys.stderr)
        return 2
    active = Path(argv[1])
    records, errors, warnings = check_ledger(active)
    files = len(chain_files(active))
    return report(
        "check_ledger",
        errors,
        warnings,
        ok_label=f"{records} valid records across {files} file(s)",
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
