"""Edit-distance discrimination (Sect. IV-B-2 of the paper)."""

from repro.distance.discrimination import (
    DETERMINISTIC_SELECTION,
    RANDOM_SELECTION,
    DissimilarityScore,
    EditDistanceDiscriminator,
    selection_seed,
    selection_seed_from_key,
)

__all__ = [
    "EditDistanceDiscriminator",
    "DissimilarityScore",
    "DETERMINISTIC_SELECTION",
    "RANDOM_SELECTION",
    "selection_seed",
    "selection_seed_from_key",
]
