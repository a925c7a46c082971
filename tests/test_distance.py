"""Tests for the scalar Damerau-Levenshtein oracle (``tests/conftest.py``)."""

import pytest

from repro.exceptions import FingerprintError
from tests.conftest import damerau_levenshtein, normalized_damerau_levenshtein


class TestAbsoluteDistance:
    def test_identical(self):
        assert damerau_levenshtein("abcdef", "abcdef") == 0

    def test_empty_sequences(self):
        assert damerau_levenshtein("", "") == 0
        assert damerau_levenshtein("abc", "") == 3
        assert damerau_levenshtein("", "abcd") == 4

    def test_substitution(self):
        assert damerau_levenshtein("abc", "axc") == 1

    def test_insertion_and_deletion(self):
        assert damerau_levenshtein("abc", "abxc") == 1
        assert damerau_levenshtein("abxc", "abc") == 1

    def test_transposition_counts_one(self):
        assert damerau_levenshtein("abcd", "abdc") == 1
        assert damerau_levenshtein("ca", "ac") == 1

    def test_classic_example(self):
        assert damerau_levenshtein("kitten", "sitting") == 3

    def test_works_on_tuples(self):
        first = [(1, 0), (0, 1), (1, 1)]
        second = [(1, 0), (1, 1)]
        assert damerau_levenshtein(first, second) == 1

    def test_symmetry(self):
        assert damerau_levenshtein("setup", "steup") == damerau_levenshtein("steup", "setup")

    def test_triangle_inequality_examples(self):
        a, b, c = "dhcpdns", "dhcpntp", "dnsntp"
        assert damerau_levenshtein(a, c) <= damerau_levenshtein(a, b) + damerau_levenshtein(b, c)


class TestNormalizedDistance:
    def test_bounds(self):
        assert normalized_damerau_levenshtein("abc", "abc") == 0.0
        assert normalized_damerau_levenshtein("abc", "xyz") == 1.0

    def test_division_by_longest(self):
        assert normalized_damerau_levenshtein("ab", "abcd") == pytest.approx(0.5)

    def test_both_empty_rejected(self):
        with pytest.raises(FingerprintError):
            normalized_damerau_levenshtein("", "")

    def test_one_empty(self):
        # The documented contract: exactly one empty sequence is maximal
        # dissimilarity, regardless of which side is empty or how long the
        # other side is.
        assert normalized_damerau_levenshtein("", "ab") == 1.0
        assert normalized_damerau_levenshtein("ab", "") == 1.0
        assert normalized_damerau_levenshtein("", "x" * 100) == 1.0

    def test_interning_matches_plain_tuple_equality(self):
        # Packet-column symbols with long shared prefixes (the interning
        # fast path) must give the same distances as plain comparison.
        base = (0, 0, 1, 0, 0, 0, 1, 0, 0, 1) + (0,) * 12
        a = [base + (100,), base + (200,), base + (100,)]
        b = [base + (200,), base + (100,), base + (100,)]
        assert damerau_levenshtein(a, a) == 0
        assert damerau_levenshtein(a, b) == 1  # one adjacent transposition
        assert normalized_damerau_levenshtein(a, b) == pytest.approx(1 / 3)
