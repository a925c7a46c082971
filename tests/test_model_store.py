"""Tests for the persistent model store (save/load of trained banks)."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ModelStoreError
from repro.features.fingerprint import Fingerprint
from repro.identification.model_store import (
    SCHEMA_VERSION,
    STORE_MAGIC,
    load_identifier,
    save_identifier,
)


def rewrite_bundle(source, target, mutate):
    """Clone a bundle with its (unchecksummed) JSON metadata mutated."""
    with np.load(source, allow_pickle=False) as archive:
        contents = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(contents.pop("meta")).decode("utf-8"))
    mutate(meta)
    encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(target, "wb") as handle:
        np.savez_compressed(handle, meta=encoded, **contents)
    return target


@pytest.fixture()
def bundle_path(tmp_path):
    return tmp_path / "identifier.npz"


class TestIdentifierRoundTrip:
    def test_verdicts_identical_after_reload(self, small_dataset, trained_identifier, bundle_path):
        save_identifier(bundle_path, trained_identifier)
        loaded = load_identifier(bundle_path)

        probes = small_dataset.fingerprints[::4]
        original = trained_identifier.identify_many(probes)
        reloaded = loaded.identify_many(probes)
        for first, second in zip(original, reloaded):
            assert first.device_type == second.device_type
            assert first.matched_types == second.matched_types

    def test_configuration_round_trips(self, trained_identifier, bundle_path):
        save_identifier(bundle_path, trained_identifier)
        loaded = load_identifier(bundle_path)
        assert loaded.novelty_threshold == trained_identifier.novelty_threshold
        assert (
            loaded.discriminator.references_per_type
            == trained_identifier.discriminator.references_per_type
        )
        assert loaded.bank.device_types == trained_identifier.bank.device_types
        assert len(loaded.registry) == len(trained_identifier.registry)

    def test_loaded_bank_scores_match_batchwise(
        self, small_dataset, trained_identifier, bundle_path
    ):
        save_identifier(bundle_path, trained_identifier)
        loaded = load_identifier(bundle_path)
        matrix = np.stack(
            [
                fingerprint.to_fixed_vector(trained_identifier.bank.fixed_packet_count)
                for fingerprint in small_dataset.fingerprints[:16]
            ]
        )
        original = trained_identifier.bank.score_batch(matrix)
        reloaded = loaded.bank.score_batch(matrix)
        assert original.device_types == reloaded.device_types
        assert np.array_equal(original.positive, reloaded.positive)
        assert np.array_equal(original.accepted, reloaded.accepted)

    def test_loaded_identifier_can_learn_new_types(
        self, small_dataset, trained_identifier, bundle_path
    ):
        save_identifier(bundle_path, trained_identifier)
        loaded = load_identifier(bundle_path)
        donor_type = loaded.bank.device_types[0]
        donors = [
            fingerprint
            for fingerprint in small_dataset.fingerprints
            if fingerprint.device_type == donor_type
        ][:3]
        renamed = [
            Fingerprint(
                vectors=fingerprint.vectors,
                device_type="BrandNewDevice",
                device_mac=fingerprint.device_mac,
            )
            for fingerprint in donors
        ]
        loaded.add_device_type("BrandNewDevice", renamed)
        assert "BrandNewDevice" in loaded.bank.device_types


def _set_schema(version):
    def mutate(meta):
        meta["schema_version"] = version

    return mutate


def _v4_bundle(meta):
    # The v4 layout: same fields plus the bank's retired compile_models key.
    meta["schema_version"] = 4
    meta["bank"]["compile_models"] = True


def _v5_bundle(meta):
    # The v5 layout: same fields plus the bank's retired n_jobs key.
    meta["schema_version"] = 5
    meta["bank"]["n_jobs"] = None


def _drop_bank_rng(meta):
    meta["bank"]["rng_state"] = None


def _drop_revision(meta):
    meta.pop("revision")


def _numpy_draw(meta):
    meta["discriminator"]["draw"] = "numpy"


def _random_selection(meta):
    meta["discriminator"]["selection"] = "random"


class TestSchemaV4:
    """The deterministic-draw rules schema v4 introduced; v5 and v6 keep
    them all and only drop the bank's ``compile_models`` and ``n_jobs`` keys."""

    def test_v4_bundle_has_no_discriminator_rng_state(
        self, trained_identifier, bundle_path
    ):
        save_identifier(bundle_path, trained_identifier)
        with np.load(bundle_path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        assert meta["schema_version"] == SCHEMA_VERSION == 6
        assert "compile_models" not in meta["bank"]
        assert "n_jobs" not in meta["bank"]
        assert "rng_state" not in meta["discriminator"]
        assert meta["discriminator"]["selection"] == "deterministic"
        assert meta["discriminator"]["draw"] == "splitmix64"
        assert meta["revision"] == trained_identifier.revision

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (_set_schema(1), "schema_version"),
            (_set_schema(2), "schema_version"),
            (_set_schema(3), "schema_version"),
            (_v4_bundle, "schema_version"),
            (_v5_bundle, "schema_version"),
            (_set_schema(7), "schema_version"),
            (_drop_bank_rng, "rng_state"),
            (_drop_revision, "revision"),
            (_numpy_draw, "draw"),
            (_random_selection, "selection"),
        ],
        ids=[
            "schema-1",
            "schema-2",
            "schema-3",
            "schema-4",
            "schema-5",
            "schema-7",
            "no-bank-rng-state",
            "no-revision",
            "numpy-draw",
            "random-selection",
        ],
    )
    def test_legacy_shape_rejected_naming_the_field(
        self, trained_identifier, bundle_path, tmp_path, mutate, field
    ):
        save_identifier(bundle_path, trained_identifier)
        legacy = rewrite_bundle(bundle_path, tmp_path / "legacy.npz", mutate)
        with pytest.raises(ModelStoreError, match=field):
            load_identifier(legacy)

    def test_save_refuses_random_selection(self, trained_identifier, bundle_path):
        from repro.distance.discrimination import (
            RANDOM_SELECTION,
            EditDistanceDiscriminator,
        )

        identifier = copy.copy(trained_identifier)
        identifier.discriminator = EditDistanceDiscriminator(
            selection=RANDOM_SELECTION, rng=np.random.default_rng(1234)
        )
        with pytest.raises(ModelStoreError, match="selection"):
            save_identifier(bundle_path, identifier)
        assert list(bundle_path.parent.iterdir()) == []


class TestBankRoundTrip:
    def test_bank_and_registry_round_trip(self, trained_identifier, bundle_path):
        save_identifier(bundle_path, trained_identifier)
        reloaded = load_identifier(bundle_path)
        bank, registry = reloaded.bank, reloaded.registry
        assert bank.device_types == trained_identifier.bank.device_types
        assert registry.device_types == trained_identifier.registry.device_types
        assert len(registry) == len(trained_identifier.registry)
        for device_type in registry.device_types:
            assert registry.count(device_type) == trained_identifier.registry.count(device_type)

    def test_registry_fingerprints_preserved_exactly(self, trained_identifier, bundle_path):
        save_identifier(bundle_path, trained_identifier)
        registry = load_identifier(bundle_path).registry
        original = list(trained_identifier.registry)
        restored = list(registry)
        assert len(original) == len(restored)
        for first, second in zip(original, restored):
            assert first.device_type == second.device_type
            assert np.array_equal(first.vectors, second.vectors)


    def test_trained_classifier_equals_its_reload(self, trained_identifier, bundle_path):
        # A freshly trained classifier holds exactly what the bundle
        # ships: every field survives save -> load, arrays byte for byte.
        save_identifier(bundle_path, trained_identifier)
        reloaded = load_identifier(bundle_path).bank
        bank = trained_identifier.bank
        assert reloaded.device_types == bank.device_types
        for device_type in bank.device_types:
            trained = bank.classifier_of(device_type)
            restored = reloaded.classifier_of(device_type)
            for field in dataclasses.fields(trained):
                expected = getattr(trained, field.name)
                actual = getattr(restored, field.name)
                if field.name != "compiled":
                    assert actual == expected, (device_type, field.name)
                    continue
                for part in dataclasses.fields(expected):
                    want, got = getattr(expected, part.name), getattr(actual, part.name)
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype, (device_type, part.name)
                        assert got.tobytes() == want.tobytes(), (device_type, part.name)
                    else:
                        assert got == want, (device_type, part.name)


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelStoreError, match="does not exist"):
            load_identifier(tmp_path / "nope.npz")

    def test_wrong_schema_version_rejected(self, trained_identifier, bundle_path, tmp_path):
        save_identifier(bundle_path, trained_identifier)
        with np.load(bundle_path, allow_pickle=False) as archive:
            contents = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(contents.pop("meta")).decode("utf-8"))
        meta["schema_version"] = SCHEMA_VERSION + 1
        assert meta["magic"] == STORE_MAGIC
        downgraded = tmp_path / "future.npz"
        encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(downgraded, "wb") as handle:
            np.savez_compressed(handle, meta=encoded, **contents)
        with pytest.raises(ModelStoreError, match="schema version"):
            load_identifier(downgraded)

    def test_not_a_bundle_rejected(self, trained_identifier, bundle_path, tmp_path):
        foreign = tmp_path / "foreign.npz"
        np.savez_compressed(foreign, meta=np.frombuffer(b'{"magic": "x"}', dtype=np.uint8))
        with pytest.raises(ModelStoreError, match="not an IoT SENTINEL"):
            load_identifier(foreign)

    def test_truncated_file_rejected(self, trained_identifier, bundle_path, tmp_path):
        save_identifier(bundle_path, trained_identifier)
        data = bundle_path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelStoreError):
            load_identifier(truncated)

    def test_bit_flip_rejected(self, trained_identifier, bundle_path, tmp_path):
        save_identifier(bundle_path, trained_identifier)
        data = bytearray(bundle_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        corrupted = tmp_path / "corrupted.npz"
        corrupted.write_bytes(bytes(data))
        with pytest.raises(ModelStoreError):
            load_identifier(corrupted)

    def test_missing_forest_arrays_rejected(self, trained_identifier, bundle_path, tmp_path):
        # A bundle whose forest arrays are missing or malformed (writer
        # bug) must fail as ModelStoreError even though the checksum over
        # the remaining arrays is internally consistent.
        from repro.identification import model_store

        def drop_bank0(contents):
            return {key: value for key, value in contents.items() if not key.startswith("bank0_")}

        def empty_n_features(contents):
            return {**contents, "bank0_n_features": np.zeros(0, dtype=np.int64)}

        save_identifier(bundle_path, trained_identifier)
        for mutate in (drop_bank0, empty_n_features):
            with np.load(bundle_path, allow_pickle=False) as archive:
                contents = {key: archive[key] for key in archive.files}
            meta = json.loads(bytes(contents.pop("meta")).decode("utf-8"))
            contents = mutate(contents)
            meta["checksum"] = model_store._checksum(contents)
            hollowed = tmp_path / f"{mutate.__name__}.npz"
            encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            with open(hollowed, "wb") as handle:
                np.savez_compressed(handle, meta=encoded, **contents)
            with pytest.raises(ModelStoreError, match="structurally invalid"):
                load_identifier(hollowed)

    def test_garbage_file_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ModelStoreError, match="unreadable"):
            load_identifier(garbage)
