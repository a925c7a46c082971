"""Tests for the edit-distance discrimination stage."""

import numpy as np
import pytest

from repro.distance.discrimination import (
    RANDOM_SELECTION,
    EditDistanceDiscriminator,
    selection_seed,
)
from repro.exceptions import IdentificationError
from repro.features.fingerprint import Fingerprint
from repro.features.packet_features import FEATURE_COUNT


def fingerprint_from_sizes(sizes, device_type=None):
    rows = []
    for size in sizes:
        row = [0] * FEATURE_COUNT
        row[18] = size
        rows.append(row)
    return Fingerprint.from_feature_rows(rows, device_type=device_type, deduplicate=False)


class TestScoreType:
    def test_zero_score_for_identical_references(self):
        target = fingerprint_from_sizes([1, 2, 3, 4])
        references = [fingerprint_from_sizes([1, 2, 3, 4]) for _ in range(5)]
        discriminator = EditDistanceDiscriminator()
        score = discriminator.score_type(target, "typeA", references)
        assert score.score == 0.0
        assert score.comparisons == 5

    def test_score_bounded_by_reference_count(self):
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([9, 8, 7]) for _ in range(5)]
        discriminator = EditDistanceDiscriminator()
        score = discriminator.score_type(target, "typeA", references)
        assert 0.0 <= score.score <= 5.0

    def test_uses_at_most_references_per_type(self):
        target = fingerprint_from_sizes([1, 2])
        references = [fingerprint_from_sizes([1, 2]) for _ in range(20)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        assert discriminator.score_type(target, "t", references).comparisons == 5

    def test_fewer_references_than_requested(self):
        target = fingerprint_from_sizes([1, 2])
        references = [fingerprint_from_sizes([1, 2])] * 2
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        assert discriminator.score_type(target, "t", references).comparisons == 2

    def test_empty_references_rejected(self):
        discriminator = EditDistanceDiscriminator()
        with pytest.raises(IdentificationError):
            discriminator.score_type(fingerprint_from_sizes([1]), "t", [])

    def test_invalid_reference_count(self):
        with pytest.raises(IdentificationError):
            EditDistanceDiscriminator(references_per_type=0)


class TestDiscriminate:
    def test_picks_closest_type(self):
        target = fingerprint_from_sizes([1, 2, 3, 4, 5])
        candidates = {
            "near": [fingerprint_from_sizes([1, 2, 3, 4, 6]) for _ in range(5)],
            "far": [fingerprint_from_sizes([9, 9, 9]) for _ in range(5)],
        }
        discriminator = EditDistanceDiscriminator()
        winner, scores = discriminator.discriminate(target, candidates)
        assert winner == "near"
        assert scores[0].device_type == "near"
        assert scores[0].score < scores[1].score

    def test_scores_sorted_ascending(self):
        target = fingerprint_from_sizes([1, 2, 3])
        candidates = {
            "a": [fingerprint_from_sizes([1, 2, 3])],
            "b": [fingerprint_from_sizes([4, 5, 6])],
            "c": [fingerprint_from_sizes([1, 2, 9])],
        }
        discriminator = EditDistanceDiscriminator()
        _, scores = discriminator.discriminate(target, candidates)
        values = [score.score for score in scores]
        assert values == sorted(values)

    def test_no_candidates_rejected(self):
        discriminator = EditDistanceDiscriminator()
        with pytest.raises(IdentificationError):
            discriminator.discriminate(fingerprint_from_sizes([1]), {})

    def test_single_candidate(self):
        target = fingerprint_from_sizes([1, 2])
        discriminator = EditDistanceDiscriminator()
        winner, scores = discriminator.discriminate(target, {"only": [fingerprint_from_sizes([3, 4])]})
        assert winner == "only"
        assert len(scores) == 1

    def test_exact_ties_break_lexicographically(self):
        """Documented contract: equal scores order by device_type, never by
        candidate-dict insertion order."""
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([1, 2, 3])]
        for candidates in (
            {"zebra": references, "alpha": references},
            {"alpha": references, "zebra": references},
        ):
            discriminator = EditDistanceDiscriminator()
            winner, scores = discriminator.discriminate(target, candidates)
            assert winner == "alpha"
            assert [score.device_type for score in scores] == ["alpha", "zebra"]
            assert scores[0].score == scores[1].score


class TestDeterministicSelection:
    def test_same_fingerprint_meets_same_references(self):
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(20)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        first = discriminator.score_type(target, "t", references)
        for _ in range(25):
            again = discriminator.score_type(target, "t", references)
            assert again.reference_indices == first.reference_indices
            assert again.selection_seed == first.selection_seed
            assert again.score == first.score

    def test_call_history_does_not_change_the_draw(self):
        """Unlike the shared-generator draw, scoring other fingerprints in
        between must not perturb this fingerprint's subset."""
        target = fingerprint_from_sizes([1, 2, 3])
        other = fingerprint_from_sizes([7, 8, 9])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(20)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        first = discriminator.score_type(target, "t", references)
        for _ in range(5):
            discriminator.score_type(other, "t", references)
        assert discriminator.score_type(target, "t", references) == first

    def test_two_discriminator_instances_agree(self):
        """No per-instance state: two gateways draw identical subsets."""
        target = fingerprint_from_sizes([4, 5, 6])
        references = [fingerprint_from_sizes([size]) for size in range(30)]
        one = EditDistanceDiscriminator(references_per_type=5)
        two = EditDistanceDiscriminator(references_per_type=5)
        assert one.score_type(target, "t", references) == two.score_type(
            target, "t", references
        )

    def test_salt_rerandomises_the_draw(self):
        """A registry change (revision bump) must re-draw the subset."""
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(50)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        subsets = {
            discriminator.score_type(target, "t", references, salt=salt).reference_indices
            for salt in range(8)
        }
        assert len(subsets) > 1

    def test_pool_growth_rerandomises_the_draw(self):
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(50)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        before = discriminator.score_type(target, "t", references)
        grown = references + [fingerprint_from_sizes([99])]
        after = discriminator.score_type(target, "t", grown)
        assert before.selection_seed != after.selection_seed

    def test_provenance_recorded(self):
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(20)]
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        score = discriminator.score_type(target, "t", references, salt=3)
        assert len(score.reference_indices) == 5
        assert score.reference_indices == tuple(sorted(score.reference_indices))
        assert all(0 <= index < 20 for index in score.reference_indices)
        assert score.selection_seed == selection_seed(target, "t", 20, 5, salt=3)

    def test_whole_pool_has_no_draw_seed(self):
        target = fingerprint_from_sizes([1, 2])
        references = [fingerprint_from_sizes([1, 2])] * 3
        discriminator = EditDistanceDiscriminator(references_per_type=5)
        score = discriminator.score_type(target, "t", references)
        assert score.reference_indices == (0, 1, 2)
        assert score.selection_seed is None

    def test_seed_independent_of_mac_and_label(self):
        rows = np.zeros((3, FEATURE_COUNT), dtype=np.int64)
        rows[:, 18] = (1, 2, 3)
        one = Fingerprint(vectors=rows, device_mac="02:00:00:00:00:01", device_type="a")
        two = Fingerprint(vectors=rows.copy(), device_mac="02:00:00:00:00:02")
        assert selection_seed(one, "t", 20, 5) == selection_seed(two, "t", 20, 5)

    def test_invalid_selection_mode_rejected(self):
        with pytest.raises(IdentificationError):
            EditDistanceDiscriminator(selection="sometimes")

    def test_rng_with_deterministic_selection_rejected(self):
        """A generator only means something to the random ablation mode."""
        with pytest.raises(IdentificationError, match="rng"):
            EditDistanceDiscriminator(rng=np.random.default_rng(0))


class TestRandomSelectionMode:
    def test_random_mode_draws_from_shared_generator(self):
        """The paper-style ablation mode: subsets drift with call history."""
        target = fingerprint_from_sizes([1, 2, 3])
        references = [fingerprint_from_sizes([size, size + 1]) for size in range(50)]
        discriminator = EditDistanceDiscriminator(
            references_per_type=5, selection=RANDOM_SELECTION, rng=np.random.default_rng(0)
        )
        subsets = {
            discriminator.score_type(target, "t", references).reference_indices
            for _ in range(10)
        }
        assert len(subsets) > 1
        assert discriminator.score_type(target, "t", references).selection_seed is None

    def test_random_mode_gets_default_rng(self):
        discriminator = EditDistanceDiscriminator(selection=RANDOM_SELECTION)
        assert discriminator.rng is not None
