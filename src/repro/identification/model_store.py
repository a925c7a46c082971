"""Persistent model store: train once, serve from any process.

Serialises a whole trained identification stack -- the
:class:`~repro.identification.classifier_bank.ClassifierBank` (as compiled
forests, see :mod:`repro.ml.compiled`), the
:class:`~repro.identification.registry.FingerprintRegistry` the
discrimination stage reads its references from, and the discriminator /
novelty configuration -- into a single ``.npz`` bundle.  A gateway can
therefore train in the lab, ship the bundle, and serve identifications
without ever re-fitting a forest.

Bundle layout (one zip archive written by :func:`numpy.savez_compressed`):

* ``meta`` -- a UTF-8 JSON document (stored as a ``uint8`` array) holding
  the magic string, the schema version, bank/discriminator configuration,
  per-classifier metadata, per-fingerprint registry metadata and a SHA-256
  checksum over every data array;
* ``bank{i}_*`` -- the packed compiled forest of the ``i``-th device-type
  (see :meth:`~repro.ml.compiled.CompiledForest.pack`);
* ``registry_vectors`` / ``registry_lengths`` -- every registry
  fingerprint's packet rows, concatenated, plus the per-fingerprint row
  counts to slice them back apart.

Robustness guarantees:

* loading a bundle with any other ``schema_version`` (or missing magic)
  raises :class:`~repro.exceptions.ModelStoreError` instead of
  misinterpreting bytes;
* every data array is checksummed; truncated or bit-flipped files fail
  loudly at load time, not at serve time;
* verdict reproducibility is *structural*, not stateful: the
  discrimination stage selects its references with the deterministic
  splitmix64 draw seeded from each fingerprint's content hash (plus the
  persisted identifier ``revision``), so a reloaded identifier returns
  bit-identical verdicts with **no** discriminator generator state in the
  bundle.  A bundle missing the bank ``rng_state`` or the ``revision``,
  or recording any other ``draw`` or ``selection``, is rejected with a
  :class:`~repro.exceptions.ModelStoreError` naming the field;
* a bundle may be stamped with the cache-generation *epoch* it was saved
  under (see :mod:`repro.identification.lifecycle`); loading with
  ``expected_epoch`` rejects bundles from any other epoch, so a runtime
  that has learned device-types since a snapshot cannot silently serve
  the pre-learning bank.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.distance.discrimination import (
    DETERMINISTIC_SELECTION,
    SPLITMIX_DRAW,
    EditDistanceDiscriminator,
)
from repro.exceptions import ModelError, ModelStoreError
from repro.features.fingerprint import Fingerprint
from repro.identification.classifier_bank import ClassifierBank, DeviceTypeClassifier
from repro.identification.identifier import DeviceTypeIdentifier
from repro.identification.registry import FingerprintRegistry
from repro.ml.compiled import CompiledForest

#: Identifies a file as an IoT SENTINEL model bundle.
STORE_MAGIC = "iot-sentinel-model-store"

#: The one bundle layout this build writes and reads.  Bump on any
#: incompatible change; a bundle with any other version is rejected.
#: v5 dropped the bank's ``compile_models`` key (every bank forest is
#: compiled); v6 dropped its ``n_jobs`` key (forests fit in-process).
#: An older bundle gets a clean version error, not a KeyError.
SCHEMA_VERSION = 6


# --------------------------------------------------------------------- #
# Helpers.
# --------------------------------------------------------------------- #
def _checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every data array, in sorted key order."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _required(meta: dict, key: str, section: str = "") -> Any:
    """``meta[key]``, or a :class:`ModelStoreError` naming the missing field."""
    value = meta.get(key)
    if value is None:
        raise ModelStoreError(f"model bundle has no {section}{key}")
    return value


def _registry_arrays(registry: FingerprintRegistry) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Flatten every registry fingerprint into two arrays + JSON metadata."""
    records: list[dict] = []
    blocks: list[np.ndarray] = []
    for fingerprint in registry:  # iterates in sorted-type order
        records.append(
            {
                "device_type": fingerprint.device_type,
                "device_mac": fingerprint.device_mac,
                "metadata": fingerprint.metadata,
                "packets": fingerprint.packet_count,
            }
        )
        blocks.append(fingerprint.vectors)
    if blocks:
        vectors = np.concatenate(blocks, axis=0)
    else:
        vectors = np.zeros((0, 0), dtype=np.int64)
    lengths = np.array([record["packets"] for record in records], dtype=np.int64)
    return records, {"registry_vectors": vectors, "registry_lengths": lengths}


def _rebuild_registry(meta: dict, arrays: dict[str, np.ndarray]) -> FingerprintRegistry:
    registry = FingerprintRegistry(fixed_packet_count=meta["fixed_packet_count"])
    records = meta["fingerprints"]
    vectors = arrays["registry_vectors"]
    lengths = arrays["registry_lengths"]
    if len(records) != len(lengths):
        raise ModelStoreError("registry metadata and lengths disagree on fingerprint count")
    if int(lengths.sum()) != len(vectors):
        raise ModelStoreError("registry vector block disagrees with recorded lengths")
    offset = 0
    for record, length in zip(records, lengths):
        rows = vectors[offset : offset + int(length)]
        offset += int(length)
        registry.add(
            Fingerprint(
                vectors=np.asarray(rows, dtype=np.int64),
                device_type=record["device_type"],
                device_mac=record.get("device_mac"),
                metadata=record.get("metadata") or {},
            )
        )
    return registry


def _bank_payload(bank: ClassifierBank) -> tuple[dict, dict[str, np.ndarray]]:
    classifiers_meta: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for index, device_type in enumerate(bank.device_types):
        classifier = bank.classifier_of(device_type)
        packed = classifier.compiled.pack()
        for key, array in packed.items():
            arrays[f"bank{index}_{key}"] = array
        classifiers_meta.append(
            {
                "device_type": device_type,
                "positive_count": classifier.positive_count,
                "negative_count": classifier.negative_count,
            }
        )
    meta = {
        "negative_ratio": bank.negative_ratio,
        "n_estimators": bank.n_estimators,
        "max_depth": bank.max_depth,
        "fixed_packet_count": bank.fixed_packet_count,
        "random_state": bank.random_state,
        "rng_state": bank._rng.bit_generator.state,
        "classifiers": classifiers_meta,
    }
    return meta, arrays


def _rebuild_bank(meta: dict, arrays: dict[str, np.ndarray]) -> ClassifierBank:
    bank = ClassifierBank(
        negative_ratio=meta["negative_ratio"],
        n_estimators=meta["n_estimators"],
        max_depth=meta["max_depth"],
        fixed_packet_count=meta["fixed_packet_count"],
        random_state=meta["random_state"],
    )
    state = _required(meta, "rng_state", "bank ")
    # repro-lint: disable=no-unseeded-rng -- seed irrelevant: the captured bit-generator state is installed on the next line
    bank._rng = np.random.default_rng()
    bank._rng.bit_generator.state = state
    classifiers = []
    for index, record in enumerate(meta["classifiers"]):
        prefix = f"bank{index}_"
        packed = {
            key[len(prefix) :]: array
            for key, array in arrays.items()
            if key.startswith(prefix)
        }
        classifiers.append(
            DeviceTypeClassifier(
                device_type=record["device_type"],
                compiled=CompiledForest.unpack(packed),
                positive_count=record["positive_count"],
                negative_count=record["negative_count"],
            )
        )
    bank.install(classifiers)
    return bank


def _write_bundle(
    path: Union[str, Path],
    meta: dict,
    arrays: dict[str, np.ndarray],
    magic: str = STORE_MAGIC,
    schema_version: int = SCHEMA_VERSION,
) -> Path:
    path = Path(path)
    meta = dict(meta)
    meta["magic"] = magic
    meta["schema_version"] = schema_version
    meta["checksum"] = _checksum(arrays)
    encoded = np.frombuffer(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        dtype=np.uint8,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename keeps an existing bundle intact if this process
    # dies mid-save: the gateway never loses its last good model.
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "wb") as handle:
            np.savez_compressed(handle, meta=encoded, **arrays)
        os.replace(scratch, path)
    finally:
        if scratch.exists():
            scratch.unlink()
    return path


def _read_bundle(
    path: Union[str, Path],
    magic: str = STORE_MAGIC,
    schema_version: int = SCHEMA_VERSION,
    kind: str = "model bundle",
) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise ModelStoreError(f"{kind} does not exist: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            contents = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, zlib.error, ValueError, OSError, EOFError, KeyError) as exc:
        raise ModelStoreError(f"{kind} is unreadable (corrupt or truncated): {path}") from exc
    if "meta" not in contents:
        raise ModelStoreError(f"{kind} has no metadata record: {path}")
    try:
        meta = json.loads(bytes(contents.pop("meta")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelStoreError(f"{kind} metadata is not valid JSON: {path}") from exc
    if meta.get("magic") != magic:
        raise ModelStoreError(f"not an IoT SENTINEL {kind}: {path}")
    if meta.get("schema_version") != schema_version:
        raise ModelStoreError(
            f"unsupported {kind} schema version {meta.get('schema_version')!r} "
            f"(this build reads only schema_version {schema_version})"
        )
    recorded = meta.get("checksum")
    actual = _checksum(contents)
    if recorded != actual:
        raise ModelStoreError(
            f"{kind} checksum mismatch (file corrupt): {path} "
            f"recorded={recorded!r} actual={actual!r}"
        )
    return meta, contents


def _check_epoch(
    meta: dict,
    expected_epoch: Optional[int],
    path: Union[str, Path],
    kind: str = "model bundle",
) -> None:
    """Reject a bundle whose recorded epoch differs from the expected one.

    A recorded epoch *older* than expected means the bundle predates one
    or more runtime type registrations (it would reload a bank that does
    not know those types); a *newer* one belongs to a runtime ahead of
    this one.  Either way the bundle's verdicts are not the live ones.
    """
    if expected_epoch is None:
        return
    recorded = meta.get("epoch")
    if recorded is None and expected_epoch == 0:
        # Unstamped bundle (a plain save_identifier call) loaded by a
        # runtime that has never learned a type: no staleness is
        # possible yet.
        return
    if recorded != expected_epoch:
        raise ModelStoreError(
            f"stale {kind}: {path} was saved at cache epoch {recorded!r}, "
            f"this runtime is at epoch {expected_epoch!r}"
        )


def _serving_revision(meta: dict, path: Union[str, Path]) -> int:
    """The bundle's identifier ``revision``, once the bundle proves it can serve.

    A gateway loads only bundles that record the revision (the salt of
    the reference draw) and a discriminator running the deterministic
    splitmix64 draw.  :func:`bundle_info` and :func:`load_identifier`
    both ask here, so the fleet never publishes a bundle its members
    would refuse to load.
    """
    discriminator_meta = _required(meta, "discriminator")
    for key, expected in (("selection", DETERMINISTIC_SELECTION), ("draw", SPLITMIX_DRAW)):
        if discriminator_meta.get(key) != expected:
            raise ModelStoreError(
                f"model bundle discriminator {key} {discriminator_meta.get(key)!r} "
                f"is not supported (expected {expected!r}): {path}"
            )
    return int(_required(meta, "revision"))


def bundle_info(path: Union[str, Path]) -> dict:
    """A bundle's distribution-relevant metadata in one validated read.

    Returns ``{"epoch", "revision", "schema_version", "device_types"}``
    -- what the fleet distribution channel needs to watermark a push
    (:meth:`repro.fleet.FleetCoordinator.push`) without rebuilding the
    whole identifier.  The read still runs the full magic/schema/checksum
    validation and the serving checks of :func:`load_identifier` (revision,
    discriminator draw), so a bundle no gateway could load is rejected at
    *push* time instead of on N gateways at apply time.  ``epoch`` is
    None for an unstamped bundle.
    """
    meta, _ = _read_bundle(path)
    revision = _serving_revision(meta, path)
    classifiers = meta.get("bank", {}).get("classifiers", [])
    return {
        "epoch": meta.get("epoch"),
        "revision": revision,
        "schema_version": meta.get("schema_version"),
        "device_types": [record["device_type"] for record in classifiers],
    }


# --------------------------------------------------------------------- #
# Quarantine-log persistence.
# --------------------------------------------------------------------- #
#: Identifies a file as a persisted quarantine log (saved beside the model
#: bundle so a restarted gateway resumes pending re-identifications).
QUARANTINE_MAGIC = "iot-sentinel-quarantine-log"

#: Bump on any incompatible change to the quarantine-log layout.
QUARANTINE_SCHEMA_VERSION = 1

_QUARANTINE_KIND = "quarantine log"


def save_quarantine_records(
    path: Union[str, Path],
    records: list[dict],
    capacity: int,
    epoch: Optional[int] = None,
    counters: Optional[dict] = None,
) -> Path:
    """Persist raw quarantine entries with the store's robustness guarantees.

    ``records`` is a list of dicts with keys ``mac`` (48-bit int),
    ``vectors`` (the fingerprint's ``(n, 23)`` int64 matrix),
    ``quarantined_at`` (float) and ``completion_reason`` (str).  The
    bundle is checksummed, schema-versioned, epoch-stamped and written
    atomically, exactly like a model bundle -- the higher-level
    :func:`~repro.identification.lifecycle.save_quarantine_log` wraps
    this for :class:`~repro.identification.lifecycle.QuarantineLog`.
    """
    if capacity <= 0:
        raise ModelStoreError(f"quarantine capacity must be positive, got {capacity}")
    blocks = [np.asarray(record["vectors"], dtype=np.int64) for record in records]
    if blocks:
        vectors = np.concatenate(blocks, axis=0)
    else:
        vectors = np.zeros((0, 0), dtype=np.int64)
    arrays = {
        "quarantine_vectors": vectors,
        "quarantine_lengths": np.array([len(block) for block in blocks], dtype=np.int64),
        "quarantine_macs": np.array([record["mac"] for record in records], dtype=np.uint64),
        "quarantine_times": np.array(
            [record["quarantined_at"] for record in records], dtype=np.float64
        ),
    }
    meta = {
        "capacity": capacity,
        "epoch": epoch,
        "completion_reasons": [record["completion_reason"] for record in records],
        "counters": dict(counters or {}),
    }
    return _write_bundle(
        path,
        meta,
        arrays,
        magic=QUARANTINE_MAGIC,
        schema_version=QUARANTINE_SCHEMA_VERSION,
    )


def load_quarantine_records(
    path: Union[str, Path], expected_epoch: Optional[int] = None
) -> tuple[dict, list[dict]]:
    """Reload quarantine entries persisted by :func:`save_quarantine_records`.

    Returns ``(meta, records)`` with ``records`` shaped exactly as the
    save side took them.  Truncated or bit-flipped files, unsupported
    schema versions and epoch mismatches all raise
    :class:`~repro.exceptions.ModelStoreError`.
    """
    meta, arrays = _read_bundle(
        path,
        magic=QUARANTINE_MAGIC,
        schema_version=QUARANTINE_SCHEMA_VERSION,
        kind=_QUARANTINE_KIND,
    )
    _check_epoch(meta, expected_epoch, path, kind=_QUARANTINE_KIND)
    try:
        vectors = arrays["quarantine_vectors"]
        lengths = arrays["quarantine_lengths"]
        macs = arrays["quarantine_macs"]
        times = arrays["quarantine_times"]
        reasons = meta["completion_reasons"]
    except KeyError as exc:
        raise ModelStoreError(f"{_QUARANTINE_KIND} is structurally invalid: {path}") from exc
    if not (len(lengths) == len(macs) == len(times) == len(reasons)):
        raise ModelStoreError(
            f"{_QUARANTINE_KIND} arrays disagree on entry count: {path}"
        )
    if int(lengths.sum()) != len(vectors):
        raise ModelStoreError(
            f"{_QUARANTINE_KIND} vector block disagrees with recorded lengths: {path}"
        )
    records: list[dict] = []
    offset = 0
    for mac, length, quarantined_at, reason in zip(macs, lengths, times, reasons):
        rows = vectors[offset : offset + int(length)]
        offset += int(length)
        records.append(
            {
                "mac": int(mac),
                "vectors": np.asarray(rows, dtype=np.int64),
                "quarantined_at": float(quarantined_at),
                "completion_reason": reason,
            }
        )
    return meta, records


# --------------------------------------------------------------------- #
# Public API.
# --------------------------------------------------------------------- #
def save_identifier(
    path: Union[str, Path],
    identifier: DeviceTypeIdentifier,
    epoch: Optional[int] = None,
) -> Path:
    """Persist a fully trained two-stage identifier.

    Captures the bank (compiled forests), the registry, the discriminator
    configuration, the identifier ``revision`` (the salt of the
    deterministic reference draw) and the novelty threshold, so the
    reloaded identifier returns bit-identical verdicts with no
    discriminator generator state in the bundle.  An ablation identifier
    running the paper-style ``selection="random"`` draw is refused: its
    verdicts depend on call history, which a bundle cannot carry.
    ``epoch`` stamps the bundle with the cache generation it belongs to
    (see :class:`~repro.identification.lifecycle.LifecycleCoordinator`).
    """
    if not identifier.discriminator.is_deterministic:
        raise ModelStoreError(
            f"cannot persist discriminator selection {identifier.discriminator.selection!r}: "
            f"model bundles hold only selection={DETERMINISTIC_SELECTION!r}"
        )
    bank_meta, arrays = _bank_payload(identifier.bank)
    registry_records, registry_arrays = _registry_arrays(identifier.registry)
    arrays.update(registry_arrays)
    meta = {
        "bank": bank_meta,
        "registry": {
            "fixed_packet_count": identifier.registry.fixed_packet_count,
            "fingerprints": registry_records,
        },
        "discriminator": {
            "references_per_type": identifier.discriminator.references_per_type,
            "selection": DETERMINISTIC_SELECTION,
            "draw": SPLITMIX_DRAW,
        },
        "novelty_threshold": identifier.novelty_threshold,
        "revision": identifier.revision,
        "epoch": epoch,
    }
    return _write_bundle(path, meta, arrays)


def load_identifier(
    path: Union[str, Path], expected_epoch: Optional[int] = None
) -> DeviceTypeIdentifier:
    """Reload an identifier persisted by :func:`save_identifier`.

    ``expected_epoch`` (when given) must equal the epoch recorded in the
    bundle; a mismatch raises :class:`~repro.exceptions.ModelStoreError`
    instead of quietly serving a bank that is out of sync with the
    runtime's learned device-types.
    """
    return load_identifier_with_epoch(path, expected_epoch=expected_epoch)[0]


def load_identifier_with_epoch(
    path: Union[str, Path], expected_epoch: Optional[int] = None
) -> tuple[DeviceTypeIdentifier, Optional[int]]:
    """:func:`load_identifier` plus the bundle's recorded epoch.

    One read, one checksum pass: the restart path
    (:meth:`~repro.identification.lifecycle.LifecycleCoordinator.resume`)
    needs both the identifier and the epoch it was saved under, and a
    multi-megabyte bundle should not be decompressed and hashed twice
    for that.
    """
    meta, arrays = _read_bundle(path)
    _check_epoch(meta, expected_epoch, path)
    try:
        bank = _rebuild_bank(meta["bank"], arrays)
        registry = _rebuild_registry(meta["registry"], arrays)
        revision = _serving_revision(meta, path)
        discriminator = EditDistanceDiscriminator(
            references_per_type=meta["discriminator"]["references_per_type"]
        )
        novelty_threshold = meta["novelty_threshold"]
    except (KeyError, TypeError, ModelError) as exc:
        raise ModelStoreError(f"model bundle is structurally invalid: {path}") from exc
    identifier = DeviceTypeIdentifier(
        bank=bank,
        registry=registry,
        discriminator=discriminator,
        novelty_threshold=novelty_threshold,
        revision=revision,
    )
    return identifier, meta.get("epoch")
