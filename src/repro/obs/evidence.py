"""Evidence-record schema (v1) of the verdict/lifecycle ledger.

An operator asking *"why was this device restricted, under which model
epoch, and what did the fleet look like at the time?"* needs the answer to
survive the call that produced it.  PR 5 attached provenance (reference
indices + draw seed) to every verdict, but the evidence evaporated the
moment ``identify()`` returned.  An :class:`EvidenceRecord` is that
evidence made durable: one flat, JSON-serialisable fact about the serving
path, stamped with everything needed to reconstruct the decision later --
the fingerprint content key, the verdict and its provenance, the
identifier revision (the discrimination draw salt), the cache epoch
current at the time, and the enforcement action taken.

Records are schema-versioned (:data:`EVIDENCE_SCHEMA_VERSION`): decoding
rejects unknown versions and unknown keys instead of misreading bytes, so
a future layout change must bump the version rather than silently change
meaning.  The wire form is canonical JSON -- sorted keys, no whitespace --
so identical facts serialise to identical bytes (the determinism suite
relies on this).

Seven record kinds cover the serving path and the fleet control plane:

* ``"verdict"`` -- one identification leaving the pipeline;
* ``"enforcement"`` -- a gateway rule installed or replaced;
* ``"quarantine"`` -- an unknown device parked, released or discarded;
* ``"learn"`` -- a runtime type registration (fleet re-identification);
* ``"promotion"`` -- a provisional label cleared by operator review;
* ``"push"`` -- a model bundle published to the fleet distribution
  channel, watermarked with the epoch it carries;
* ``"apply"`` -- one gateway installing (or idempotently skipping) a
  pushed bundle via hot swap.

Adding the push/apply kinds was an additive vocabulary change: the key
layout is untouched, so the schema version stays 1 (a v1 reader that
predates the fleet layer rejects the new kinds loudly rather than
misreading them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.exceptions import LedgerError

#: Bump on any incompatible change to the record layout.
EVIDENCE_SCHEMA_VERSION = 1

#: Record kinds -- see the module docstring.
KIND_VERDICT = "verdict"
KIND_ENFORCEMENT = "enforcement"
KIND_QUARANTINE = "quarantine"
KIND_LEARN = "learn"
KIND_PROMOTION = "promotion"
KIND_PUSH = "push"
KIND_APPLY = "apply"

EVIDENCE_KINDS = (
    KIND_VERDICT,
    KIND_ENFORCEMENT,
    KIND_QUARANTINE,
    KIND_LEARN,
    KIND_PROMOTION,
    KIND_PUSH,
    KIND_APPLY,
)

#: ``detail["transition"]`` values of quarantine records.
QUARANTINE_RECORDED = "recorded"
QUARANTINE_RELEASED = "released"
QUARANTINE_DISCARDED = "discarded"

#: Sentinel sequence of a record that has not been appended to a ledger
#: yet; :meth:`~repro.obs.ledger.VerdictLedger.append` assigns the real
#: monotonic sequence number.
UNASSIGNED_SEQUENCE = -1

#: Every key a serialised v1 record may carry (sorted).  Decoding rejects
#: documents with unknown keys: additive layout changes bump the schema.
_RECORD_KEYS = frozenset(
    {
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
)


@dataclass(frozen=True)
class EvidenceRecord:
    """One durable fact about the serving path (schema v1).

    Attributes:
        kind: one of :data:`EVIDENCE_KINDS`.
        sequence: monotonic position in the ledger; assigned by
            :meth:`~repro.obs.ledger.VerdictLedger.append`
            (:data:`UNASSIGNED_SEQUENCE` before that).
        stream_time: stream-clock time of the event (packet timestamps,
            not wall clock -- identical drives produce identical values).
        mac: the device the record is about, ``aa:bb:..`` notation.
        fingerprint_key: hex digest of the fingerprint content hash (the
            dispatcher-cache / cluster / reference-draw key), when a
            fingerprint was in play.
        verdict: the identified device-type (verdict/enforcement records).
        matched_types: every classifier that accepted the fingerprint.
        provenance: per-candidate audit trail of the edit-distance stage:
            ``{device_type: {"reference_indices": [...],
            "selection_seed": int | None}}``.
        identifier_revision: the identifier revision current at the event
            (the discrimination draw salt -- replaying the fingerprint
            against the same revision reproduces the verdict bit for bit).
        cache_epoch: the cache generation current at the event.
        enforcement_action: the isolation level installed (enforcement
            records).
        from_cache: True when the verdict was served from the LRU cache.
        completion_reason: why the fingerprint completed
            (``budget``/``idle``/``flush``/``relearn``/``reprofile``).
        detail: kind-specific payload (e.g. a learn record's upgraded /
            still-unknown fleet partition).

    Example:
        >>> record = EvidenceRecord(kind="verdict", mac="02:00:00:00:00:01",
        ...                         verdict="HueBridge")
        >>> decode_line(encode_line(record)) == record
        True
    """

    kind: str
    sequence: int = UNASSIGNED_SEQUENCE
    stream_time: float = 0.0
    mac: Optional[str] = None
    fingerprint_key: Optional[str] = None
    verdict: Optional[str] = None
    matched_types: tuple[str, ...] = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)
    identifier_revision: Optional[int] = None
    cache_epoch: Optional[int] = None
    enforcement_action: Optional[str] = None
    from_cache: bool = False
    completion_reason: str = ""
    detail: Mapping[str, Any] = field(default_factory=dict)
    schema: int = EVIDENCE_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in EVIDENCE_KINDS:
            raise LedgerError(
                f"unknown evidence kind {self.kind!r}; expected one of {EVIDENCE_KINDS}"
            )
        if self.schema != EVIDENCE_SCHEMA_VERSION:
            raise LedgerError(
                f"unsupported evidence schema {self.schema!r} "
                f"(this build writes/reads v{EVIDENCE_SCHEMA_VERSION})"
            )
        if self.sequence < UNASSIGNED_SEQUENCE:
            raise LedgerError(f"invalid sequence number {self.sequence!r}")

    def with_sequence(self, sequence: int) -> "EvidenceRecord":
        """A copy of the record carrying its assigned ledger position."""
        return replace(self, sequence=sequence)

    def to_dict(self) -> dict[str, Any]:
        """The record as a plain JSON-serialisable dict (tuples -> lists)."""
        return {
            "schema": self.schema,
            "sequence": self.sequence,
            "kind": self.kind,
            "stream_time": self.stream_time,
            "mac": self.mac,
            "fingerprint_key": self.fingerprint_key,
            "verdict": self.verdict,
            "matched_types": list(self.matched_types),
            "provenance": dict(self.provenance),
            "identifier_revision": self.identifier_revision,
            "cache_epoch": self.cache_epoch,
            "enforcement_action": self.enforcement_action,
            "from_cache": self.from_cache,
            "completion_reason": self.completion_reason,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvidenceRecord":
        """Validate and rebuild a record from its serialised form."""
        if not isinstance(payload, Mapping):
            raise LedgerError(f"evidence record must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - _RECORD_KEYS
        if unknown:
            raise LedgerError(f"evidence record carries unknown keys {sorted(unknown)}")
        schema = payload.get("schema")
        if schema != EVIDENCE_SCHEMA_VERSION:
            raise LedgerError(
                f"unsupported evidence schema {schema!r} "
                f"(this build reads v{EVIDENCE_SCHEMA_VERSION})"
            )
        missing = {"kind", "sequence"} - set(payload)
        if missing:
            raise LedgerError(f"evidence record missing required keys {sorted(missing)}")
        if not isinstance(payload["sequence"], int) or isinstance(payload["sequence"], bool):
            raise LedgerError(f"sequence must be an integer, got {payload['sequence']!r}")
        matched = payload.get("matched_types", [])
        if not isinstance(matched, (list, tuple)):
            raise LedgerError(f"matched_types must be a list, got {matched!r}")
        for key in ("identifier_revision", "cache_epoch"):
            value = payload.get(key)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise LedgerError(f"{key} must be an integer or null, got {value!r}")
        return cls(
            kind=payload["kind"],
            sequence=payload["sequence"],
            stream_time=float(payload.get("stream_time", 0.0)),
            mac=payload.get("mac"),
            fingerprint_key=payload.get("fingerprint_key"),
            verdict=payload.get("verdict"),
            matched_types=tuple(matched),
            provenance=dict(payload.get("provenance", {})),
            identifier_revision=payload.get("identifier_revision"),
            cache_epoch=payload.get("cache_epoch"),
            enforcement_action=payload.get("enforcement_action"),
            from_cache=bool(payload.get("from_cache", False)),
            completion_reason=str(payload.get("completion_reason", "")),
            detail=dict(payload.get("detail", {})),
            schema=schema,
        )


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds this
#: encoder per call; one shared instance writes the same bytes.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_line(record: EvidenceRecord) -> str:
    """One canonical NDJSON line (sorted keys, compact, ``\\n``-terminated).

    Canonical form means identical records serialise to identical bytes,
    so two identically-driven gateways produce byte-identical ledgers.
    """
    return _CANONICAL_JSON.encode(record.to_dict()) + "\n"


def decode_line(line: str) -> EvidenceRecord:
    """Parse and validate one ledger line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise LedgerError(f"malformed ledger line: {error}") from error
    return EvidenceRecord.from_dict(payload)
