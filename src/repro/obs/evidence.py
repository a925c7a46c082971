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
meaning.  The wire form is canonical JSON -- sorted keys, no whitespace,
ASCII-escaped strings, byte for byte what ``json.dumps(record.to_dict(),
sort_keys=True, separators=(",", ":"))`` writes -- so identical facts
serialise to identical bytes (the determinism suite relies on this).
Every record kind carries the same fifteen keys, so one line template
(:func:`encode_line`) renders them all; a verdict's ``verdict``,
``matched_types`` and ``provenance`` can arrive pre-rendered as
:class:`LineFragments`, shared by every verdict served from one
identification result.

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
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Optional

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
        fragments: optional pre-rendered JSON of ``verdict``,
            ``matched_types`` and ``provenance``; not part of the record's
            value (excluded from equality and from :meth:`to_dict`), and
            used by :func:`encode_line` only while it still describes
            those three fields.

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
    fragments: Optional["LineFragments"] = field(default=None, compare=False, repr=False)

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

    def derive(self, **changes: Any) -> "EvidenceRecord":
        """A copy with ``changes`` applied, without re-running validation.

        The serving path's constructor: a record validated once (a
        per-kind template, or a record about to be stamped with its
        ledger sequence) is copied field by field, which costs a fraction
        of ``__init__`` and :func:`dataclasses.replace`.  ``changes`` must
        keep the record valid: the kind and schema stay, and only the
        ledger assigns sequences.
        """
        derived = object.__new__(type(self))
        fields = vars(self).copy()
        fields.update(changes)
        object.__setattr__(derived, "__dict__", fields)
        return derived

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


#: The last float :func:`_encode_float` rendered, as one ``(value, text)``
#: tuple.  Every record of a delivery carries the same stream-time object,
#: and ``float.__repr__`` costs more than the rest of a line's scalars; the
#: match is by identity, never by value (``-0.0 == 0.0``).
_LAST_FLOAT: list[tuple[float, str]] = [(0.0, "0.0")]


def _encode_float(value: float) -> str:
    last = _LAST_FLOAT[0]
    if last[0] is value:
        return last[1]
    if value - value == 0.0:  # finite
        text = float.__repr__(value)
        _LAST_FLOAT[0] = (value, text)
        return text
    # The json module's spelling of the non-finite values (``allow_nan``).
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _encode_key(key: Any) -> str:
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _encode_float(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    else:
        raise LedgerError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(text)


#: Exact type -> encoder of the scalars record fields hold; subclasses
#: and containers take the general path of :func:`encode_json`.
_SCALAR_ENCODERS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def encode_json(value: Any) -> str:
    """Canonical JSON of one value: sorted keys, no whitespace, ASCII only.

    Byte for byte ``json.dumps(value, sort_keys=True, separators=(",",
    ":"))``, checks included: the same types are accepted (``str``,
    ``int``, ``float``, ``bool``, ``None``, lists, tuples and dicts, and
    their subclasses), NaN and the infinities are written ``NaN``,
    ``Infinity`` and ``-Infinity``, and what the json module would refuse
    with :class:`TypeError` raises :class:`~repro.exceptions.LedgerError`.

    >>> encode_json({"b": [1, 2.5, None], "a": True})
    '{"a":true,"b":[1,2.5,null]}'
    """
    encode = _SCALAR_ENCODERS.get(value.__class__)
    if encode is not None:
        return encode(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):  # bool is exact-typed above
        return int.__repr__(value)
    if isinstance(value, float):
        return _encode_float(value)
    # Containers look their scalar members up inline: a call per member
    # would double the cost of a provenance map's index lists.
    scalar = _SCALAR_ENCODERS.get
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([(scalar(item.__class__) or encode_json)(item) for item in value]) + "]"
    if isinstance(value, dict):
        return (
            "{"
            + ",".join(
                [
                    (encode_basestring_ascii(key) if key.__class__ is str else _encode_key(key))
                    + ":"
                    + (scalar(item.__class__) or encode_json)(item)
                    for key, item in sorted(value.items())
                ]
            )
            + "}"
        )
    raise LedgerError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode_list(values: Any) -> str:
    if values.__class__ is tuple and not values:
        return "[]"
    return encode_json(list(values))


def _encode_mapping(mapping: Mapping[str, Any]) -> str:
    if mapping.__class__ is dict and not mapping:
        return "{}"
    return encode_json(dict(mapping))


@dataclass(frozen=True)
class LineFragments:
    """A verdict's ``verdict``, ``matched_types`` and ``provenance``, rendered once.

    Every verdict served from one identification result carries the same
    three values; :meth:`render` encodes them once and a record built
    from :attr:`verdict`, :attr:`matched_types` and :attr:`provenance`
    (the very objects) reuses the text.
    """

    verdict: Optional[str]
    matched_types: tuple[str, ...]
    provenance: Mapping[str, Any]
    verdict_json: str
    matched_types_json: str
    provenance_json: str

    @classmethod
    def render(
        cls, verdict: Optional[str], matched_types: tuple[str, ...], provenance: Mapping[str, Any]
    ) -> "LineFragments":
        return cls(
            verdict,
            matched_types,
            provenance,
            encode_json(verdict),
            _encode_list(matched_types),
            _encode_mapping(provenance),
        )

    def describes(self, record: EvidenceRecord) -> bool:
        """True while the record's three fields are this rendering's objects."""
        return (
            record.matched_types is self.matched_types
            and record.provenance is self.provenance
            and record.verdict == self.verdict
        )


def encode_line(record: EvidenceRecord) -> str:
    """One canonical NDJSON line (sorted keys, compact, ``\\n``-terminated).

    Canonical form means identical records serialise to identical bytes,
    so two identically-driven gateways produce byte-identical ledgers.
    The line is the JSON of :meth:`EvidenceRecord.to_dict`, written by one
    template over the fifteen keys in sorted order.
    """
    fragments = record.fragments
    if fragments is not None and fragments.describes(record):
        verdict = fragments.verdict_json
        matched_types = fragments.matched_types_json
        provenance = fragments.provenance_json
    else:
        verdict = encode_json(record.verdict)
        matched_types = _encode_list(record.matched_types)
        provenance = _encode_mapping(record.provenance)
    detail = record.detail
    detail = "{}" if detail.__class__ is dict and not detail else _encode_mapping(detail)
    # One exact-type lookup per field (a call per field would cost as
    # much as the encoding itself); a type outside the table raises
    # KeyError, and the line is rendered again with the general encoder,
    # which takes every type, for every field.
    encoders: Mapping[type, Callable[[Any], str]] = _SCALAR_ENCODERS
    while True:
        try:
            return (
                f'{{"cache_epoch":{encoders[record.cache_epoch.__class__](record.cache_epoch)}'
                f',"completion_reason":'
                f"{encoders[record.completion_reason.__class__](record.completion_reason)}"
                f',"detail":{detail}'
                f',"enforcement_action":'
                f"{encoders[record.enforcement_action.__class__](record.enforcement_action)}"
                f',"fingerprint_key":'
                f"{encoders[record.fingerprint_key.__class__](record.fingerprint_key)}"
                f',"from_cache":{encoders[record.from_cache.__class__](record.from_cache)}'
                f',"identifier_revision":'
                f"{encoders[record.identifier_revision.__class__](record.identifier_revision)}"
                f',"kind":{encoders[record.kind.__class__](record.kind)}'
                f',"mac":{encoders[record.mac.__class__](record.mac)}'
                f',"matched_types":{matched_types}'
                f',"provenance":{provenance}'
                f',"schema":{encoders[record.schema.__class__](record.schema)}'
                f',"sequence":{encoders[record.sequence.__class__](record.sequence)}'
                f',"stream_time":{encoders[record.stream_time.__class__](record.stream_time)}'
                f',"verdict":{verdict}}}\n'
            )
        except KeyError:
            encoders = _ANY_ENCODER


class _AnyTypeEncoder(dict):
    """Maps every type to :func:`encode_json`."""

    def __missing__(self, key: type) -> Callable[[Any], str]:
        return encode_json


_ANY_ENCODER = _AnyTypeEncoder()


def decode_line(line: str) -> EvidenceRecord:
    """Parse and validate one ledger line."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise LedgerError(f"malformed ledger line: {error}") from error
    return EvidenceRecord.from_dict(payload)
