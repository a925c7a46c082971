"""Tests for the variable-length (F) and fixed-length (F') fingerprints."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.devices.catalog import DEVICE_CATALOG
from repro.exceptions import FingerprintError
from repro.features.fingerprint import (
    FIXED_PACKET_COUNT,
    FIXED_VECTOR_SIZE,
    Fingerprint,
    fingerprint_key,
    fixed_vectors,
)
from repro.features.packet_features import FEATURE_COUNT

from tests.conftest import ScalarFeatureExtractor, oracle_fixed_vectors, tuple_symbols


def row(value: int) -> list[int]:
    """A synthetic feature row whose identity is determined by ``value``."""
    vector = [0] * FEATURE_COUNT
    vector[18] = value  # packet_size slot
    return vector


class TestConstruction:
    def test_consecutive_duplicates_removed(self):
        fingerprint = Fingerprint.from_feature_rows([row(1), row(1), row(2), row(2), row(1)])
        assert fingerprint.packet_count == 3
        assert [int(vector[18]) for vector in fingerprint.vectors] == [1, 2, 1]

    def test_direct_construction_keeps_duplicate_rows(self):
        fingerprint = Fingerprint(vectors=[row(1), row(1)])
        assert fingerprint.packet_count == 2

    def test_empty_fingerprint(self):
        fingerprint = Fingerprint.from_feature_rows([])
        assert fingerprint.packet_count == 0
        assert len(fingerprint) == 0

    def test_wrong_width_rejected(self):
        with pytest.raises(FingerprintError):
            Fingerprint(vectors=np.zeros((3, 5), dtype=np.int64))

    def test_matrix_orientation(self):
        fingerprint = Fingerprint.from_feature_rows([row(1), row(2)])
        assert fingerprint.vectors.shape == (2, FEATURE_COUNT)
        assert fingerprint.matrix.shape == (FEATURE_COUNT, 2)

    def test_from_packets(self, aria_trace):
        fingerprint = Fingerprint.from_packets(aria_trace.packets, device_type="Aria")
        assert fingerprint.device_type == "Aria"
        assert fingerprint.packet_count > 4
        assert fingerprint.packet_count <= len(aria_trace.packets)

    @pytest.mark.parametrize("name", ["Aria", "HueBridge", "WeMoSwitch", "EdnetCam"])
    def test_from_packets_matches_scalar_oracle(self, simulator, name):
        """Training rows (batch kernel + counter pass) equal the per-field
        oracle's, destination counter and duplicate rule included."""
        packets = simulator.simulate(DEVICE_CATALOG[name]).packets
        expected = Fingerprint.from_feature_rows(ScalarFeatureExtractor().extract_all(packets))
        assert expected.packet_count > 4
        np.testing.assert_array_equal(Fingerprint.from_packets(packets).vectors, expected.vectors)


class TestFixedVector:
    def test_size_is_276(self):
        assert FIXED_VECTOR_SIZE == 276
        fingerprint = Fingerprint.from_feature_rows([row(i) for i in range(1, 20)])
        assert fingerprint.to_fixed_vector().shape == (276,)

    def test_zero_padding_when_short(self):
        fingerprint = Fingerprint.from_feature_rows([row(1), row(2)])
        fixed = fingerprint.to_fixed_vector()
        assert fixed[:FEATURE_COUNT].tolist() == row(1)
        assert fixed[FEATURE_COUNT : 2 * FEATURE_COUNT].tolist() == row(2)
        assert not np.any(fixed[2 * FEATURE_COUNT :])

    def test_only_unique_vectors_used(self):
        # Alternating duplicates survive consecutive dedup but must appear
        # only once each in F'.
        rows = [row(1), row(2), row(1), row(2), row(3)]
        fingerprint = Fingerprint.from_feature_rows(rows)
        fixed = fingerprint.to_fixed_vector()
        sizes = [int(fixed[i * FEATURE_COUNT + 18]) for i in range(FIXED_PACKET_COUNT)]
        assert sizes[:3] == [1, 2, 3]
        assert sizes[3:] == [0] * (FIXED_PACKET_COUNT - 3)

    def test_truncated_to_first_12_unique(self):
        fingerprint = Fingerprint.from_feature_rows([row(i) for i in range(1, 40)])
        fixed = fingerprint.to_fixed_vector()
        assert int(fixed[18]) == 1
        assert int(fixed[(FIXED_PACKET_COUNT - 1) * FEATURE_COUNT + 18]) == FIXED_PACKET_COUNT

    def test_custom_packet_count(self):
        fingerprint = Fingerprint.from_feature_rows([row(i) for i in range(1, 10)])
        assert fingerprint.to_fixed_vector(packet_count=4).shape == (4 * FEATURE_COUNT,)

    def test_invalid_packet_count(self):
        fingerprint = Fingerprint.from_feature_rows([row(1)])
        with pytest.raises(FingerprintError):
            fingerprint.to_fixed_vector(packet_count=0)

    @staticmethod
    def _fingerprints() -> dict[str, Fingerprint]:
        rng = np.random.default_rng(7)
        many = rng.integers(0, 5, size=(60, FEATURE_COUNT))
        many[:, 18] = np.arange(60) % 17  # 17 distinct rows, repeated
        strided = np.repeat(many, 2, axis=0)[::2]
        shared = Fingerprint(vectors=many.copy())
        shared.vectors.setflags(write=False)
        return {
            "empty": Fingerprint(vectors=np.zeros((0, FEATURE_COUNT))),
            "fewer-than-12": Fingerprint(vectors=[row(3), row(1), row(3), row(2)]),
            "exactly-12": Fingerprint(vectors=[row(value % 12) for value in range(30)]),
            "more-than-12": Fingerprint(vectors=many),
            "repeated": Fingerprint(vectors=[row(5)] * 9 + [row(4)] * 3 + [row(5)]),
            "read-only-shared": shared.for_device("02:00:00:00:00:01"),
            "strided": Fingerprint(vectors=strided),
            "fortran": Fingerprint(vectors=np.asfortranarray(many)),
        }

    @pytest.mark.parametrize("packet_count", [1, 5, FIXED_PACKET_COUNT, 40])
    def test_fixed_vectors_equal_the_tuple_oracle(self, packet_count):
        """F' from the first unique row symbols equals F' from the first
        unique row tuples, alone and batched, whatever the matrix layout."""
        fingerprints = self._fingerprints()
        assert not fingerprints["read-only-shared"].vectors.flags.writeable
        assert not fingerprints["strided"].vectors.flags.c_contiguous
        batch = list(fingerprints.values())
        expected = oracle_fixed_vectors(batch, packet_count)
        assert np.array_equal(fixed_vectors(batch, packet_count), expected)
        symbols = [fingerprint.as_symbol_sequence() for fingerprint in batch]
        assert np.array_equal(fixed_vectors(batch, packet_count, symbols), expected)
        for index, (name, fingerprint) in enumerate(fingerprints.items()):
            assert np.array_equal(
                fingerprint.to_fixed_vector(packet_count), expected[index]
            ), name
            unique = list(dict.fromkeys(tuple_symbols(fingerprint)))
            assert [tuple(vector) for vector in fingerprint.unique_vectors().tolist()] == unique


def _rows_differing_in_every_feature() -> list[list[int]]:
    """A base row, then one row per feature differing from it only there
    (by a value beyond 32 bits), then the base row again."""
    base = [index + 1 for index in range(FEATURE_COUNT)]
    rows = [base]
    for feature in range(FEATURE_COUNT):
        changed = list(base)
        changed[feature] += 1 << 40
        rows.append(changed)
    return rows + [base]


class TestSymbolSequence:
    def test_symbols_are_hashable_and_ordered(self):
        """One symbol per row, hashable, in row order; two symbols are equal
        exactly when their rows are equal in all 23 features."""
        rows = _rows_differing_in_every_feature()
        fingerprint = Fingerprint(vectors=rows)
        symbols = fingerprint.as_symbol_sequence()
        assert len(symbols) == len(rows)
        assert len({hash(symbol) for symbol in symbols}) >= 2
        for i, first in enumerate(rows):
            for j, second in enumerate(rows):
                assert (symbols[i] == symbols[j]) == (first == second), (i, j)
        reversed_symbols = Fingerprint(vectors=rows[::-1]).as_symbol_sequence()
        assert reversed_symbols == symbols[::-1]
        assert Fingerprint(vectors=np.zeros((0, FEATURE_COUNT))).as_symbol_sequence() == []

    def test_symbols_do_not_depend_on_the_matrix_layout(self):
        """A read-only shared matrix, a strided view and a Fortran-ordered
        copy give the symbols of the same rows held contiguously."""
        matrix = np.array(_rows_differing_in_every_feature() * 2, dtype=np.int64)
        expected = Fingerprint(vectors=matrix[::2].copy()).as_symbol_sequence()
        strided = Fingerprint(vectors=matrix[::2])
        assert not strided.vectors.flags.c_contiguous
        shared = Fingerprint(vectors=matrix[::2].copy())
        shared.vectors.setflags(write=False)
        twin = shared.for_device("02:00:00:00:00:09")
        fortran = Fingerprint(vectors=np.asfortranarray(matrix[::2]))
        for fingerprint in (strided, twin, fortran):
            assert fingerprint.as_symbol_sequence() == expected

    def test_equality(self):
        first = Fingerprint.from_feature_rows([row(1), row(2)], device_type="X")
        second = Fingerprint.from_feature_rows([row(1), row(2)], device_type="X")
        third = Fingerprint.from_feature_rows([row(1), row(3)], device_type="X")
        assert first == second
        assert first != third

    def test_repr_contains_type(self):
        fingerprint = Fingerprint.from_feature_rows([row(1)], device_type="Aria")
        assert "Aria" in repr(fingerprint)


class TestContentKey:
    @staticmethod
    def _sha1(fingerprint):
        vectors = fingerprint.vectors
        return hashlib.sha1(
            str(vectors.shape).encode() + str(vectors.dtype).encode() + vectors.tobytes()
        ).digest()

    def test_memoised_key_equals_a_fresh_sha1(self):
        fingerprint = Fingerprint.from_feature_rows([row(1), row(2), row(3)])
        first = fingerprint_key(fingerprint)
        assert first == self._sha1(fingerprint)
        assert fingerprint_key(fingerprint) is first

    def test_replaced_vectors_get_their_own_key(self):
        fingerprint = Fingerprint.from_feature_rows(
            [row(1), row(2)], device_mac="02:00:00:00:00:01"
        )
        before = fingerprint_key(fingerprint)
        changed = dataclasses.replace(fingerprint, vectors=fingerprint.vectors[:1])
        assert fingerprint_key(changed) == self._sha1(changed) != before
        assert fingerprint_key(fingerprint) == before
        relabelled = dataclasses.replace(fingerprint, device_mac="02:00:00:00:00:02")
        assert fingerprint_key(relabelled) == before  # content only

    def test_a_twin_for_another_device_shares_matrix_and_key(self):
        fingerprint = Fingerprint.from_feature_rows(
            [row(1), row(2)], device_type="Aria", device_mac="02:00:00:00:00:01"
        )
        unhashed = fingerprint.for_device("02:00:00:00:00:02")
        assert unhashed.vectors is fingerprint.vectors
        assert (unhashed.device_mac, unhashed.device_type) == ("02:00:00:00:00:02", None)
        key = fingerprint_key(fingerprint)
        assert fingerprint_key(unhashed) == key
        # A key already computed is carried, not computed again.
        assert fingerprint_key(fingerprint.for_device("02:00:00:00:00:03")) is key
