"""Edit-distance discrimination between candidate device-types.

When the fixed-length fingerprint of an unknown device is accepted by more
than one per-type classifier, the paper compares the *variable-length*
fingerprint ``F`` against up to five reference fingerprints of each
candidate type using the normalised Damerau-Levenshtein distance.  The
per-type distances are summed into a dissimilarity score in ``[0, 5]`` and
the candidate with the lowest score wins.

The paper samples the reference subset *randomly* per call.  Reproducing
that faithfully made borderline verdicts unstable: a fingerprint whose
dissimilarity sits near the novelty threshold could flip between
``unknown`` and a near-miss type across calls, across restarts, and
between two gateways serving the same model bundle.  The default here is
therefore a **deterministic per-fingerprint draw**: the subset is selected
by a self-contained splitmix64 shuffle seeded from the fingerprint's
content hash, the candidate type, the registry ``salt`` (the identifier's
revision counter) and the reference-pool size -- the same fingerprint
meets the same references until the registry actually changes, in any
process, under any ``PYTHONHASHSEED`` or numpy version.  The paper's
random draw remains available as the in-memory ``selection="random"``
ablation (:func:`repro.eval.experiments.run_selection_ablation`); model
bundles refuse it.

Edit distances always go through the bit-parallel pair kernel
(:func:`~repro.distance.damerau_levenshtein.normalized_pair_distances`):
:meth:`EditDistanceDiscriminator.score_many` draws every subset of a
batch first and then scores all (fingerprint, reference) pairs in one
call.  The kernel runs Hyyrö's bit-vector recurrence for the
optimal-string-alignment distance (H. Hyyrö, 2003) over one Python
integer per batch: each pair's longer side is one lane, every lane is
``max(len) + 1`` bits wide so a zero guard bit absorbs the carry out of
its top row, and the shorter sides are walked one symbol per step.  The
scalar dynamic program lives in ``tests/conftest.py`` as the test
suite's oracle.

Tie-breaking contract: two candidates with *exactly* equal dissimilarity
scores are ordered lexicographically by ``device_type`` -- the winner of a
tie is the alphabetically first type, never dict-insertion order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.distance.damerau_levenshtein import (
    GLOBAL_INTERNER,
    normalized_pair_distances,
    splitmix_subset,
)
from repro.exceptions import IdentificationError
from repro.features.fingerprint import Fingerprint, fingerprint_key

#: Reference subsets are drawn by a generator seeded from the fingerprint
#: content hash (reproducible verdicts; the default).
DETERMINISTIC_SELECTION = "deterministic"

#: Reference subsets are drawn from a shared mutable generator, exactly as
#: the paper describes (verdicts depend on call history; ablation only).
RANDOM_SELECTION = "random"

_SELECTION_MODES = (DETERMINISTIC_SELECTION, RANDOM_SELECTION)

#: The deterministic draw expands the selection seed with a self-contained
#: splitmix64 + Fisher-Yates shuffle: the drawn subset depends on nothing
#: but the seed, so verdicts are stable across numpy versions.  Model
#: bundles record this name as their ``draw``.
SPLITMIX_DRAW = "splitmix64"


def _encoded_word(fingerprint: Fingerprint) -> np.ndarray:
    """A reference fingerprint's symbol sequence, interned over the global alphabet.

    Cached on the fingerprint instance.  An identifier interns every
    reference of its registry when it is built or grows
    (:func:`intern_references`), so discriminations on a gateway that
    loaded a bundle only read the cache; a reference passed in from
    elsewhere is interned here on its first discrimination.  Codes from
    :data:`GLOBAL_INTERNER` never invalidate (the alphabet is
    append-only), and ``Fingerprint.vectors`` is treated as immutable
    after construction everywhere in the system.
    """
    codes = getattr(fingerprint, "_symbol_codes", None)
    if codes is None:
        codes = GLOBAL_INTERNER.encode(fingerprint.as_symbol_sequence())
        fingerprint._symbol_codes = codes
    return codes


def intern_references(references: Iterable[Fingerprint]) -> None:
    """Intern every reference's symbols now, not on its first discrimination."""
    for reference in references:
        _encoded_word(reference)


def _query_word(fingerprint: Fingerprint, symbols: Optional[Sequence[bytes]] = None) -> np.ndarray:
    """A queried fingerprint's codes, looked up without growing the alphabet.

    Fingerprints seen on the wire are unbounded, so interning them would
    grow :data:`GLOBAL_INTERNER` forever.  A symbol no reference has is
    encoded as ``UNSEEN_SYMBOL``, which keeps every distance exact.  The
    result is never cached: the fingerprint may later become a reference
    (autopilot promotion), and its cached codes must then be interned ones.
    ``symbols`` is the fingerprint's row symbols
    (:meth:`~repro.features.fingerprint.Fingerprint.as_symbol_sequence`)
    when the caller already holds them.
    """
    codes = getattr(fingerprint, "_symbol_codes", None)
    if codes is not None:
        return codes
    if symbols is None:
        symbols = fingerprint.as_symbol_sequence()
    return GLOBAL_INTERNER.lookup(symbols)


def selection_seed_from_key(
    content_key: bytes,
    device_type: str,
    reference_count: int,
    references_per_type: int,
    salt: int = 0,
) -> int:
    """:func:`selection_seed` for a precomputed fingerprint content key.

    ``discriminate`` hashes the fingerprint matrix once and reuses the
    key across every candidate type, so a multi-match identification does
    not re-hash the same matrix per candidate on the hot path.
    """
    suffix = f":{salt}:{reference_count}:{references_per_type}".encode("ascii")
    digest = hashlib.sha256(b"".join((content_key, device_type.encode("utf-8"), suffix)))
    return int.from_bytes(digest.digest()[:8], "big")


def selection_seed(
    fingerprint: Fingerprint,
    device_type: str,
    reference_count: int,
    references_per_type: int,
    salt: int = 0,
) -> int:
    """The deterministic draw seed for one (fingerprint, candidate) pair.

    Derived with SHA-256 from the fingerprint's content hash
    (:func:`~repro.features.fingerprint.fingerprint_key`), the candidate
    ``device_type``, the caller-supplied ``salt`` (the identifier passes
    its ``revision`` counter, so a registry change re-randomises the
    draw), the size of the reference pool and the configured subset size.
    Content-only hashing makes the seed -- and therefore the selected
    reference subset -- identical across calls, processes, restarts and
    ``PYTHONHASHSEED`` values.
    """
    return selection_seed_from_key(
        fingerprint_key(fingerprint), device_type, reference_count, references_per_type, salt
    )


@dataclass(frozen=True)
class DissimilarityScore:
    """The summed normalised distance of a fingerprint to one device-type.

    Attributes:
        device_type: the candidate type this score belongs to.
        score: summed normalised edit distance over the compared references.
        comparisons: how many references were actually compared.
        reference_indices: verdict provenance -- the indices (into the
            candidate type's reference list, ascending) of the references
            that were compared.  Lets an operator audit exactly which
            training fingerprints a borderline decision was based on.
        selection_seed: the deterministic draw seed that produced
            ``reference_indices``, or ``None`` when no draw happened (the
            whole pool was used, or the paper-style random mode ran).
    """

    device_type: str
    score: float
    comparisons: int
    reference_indices: tuple[int, ...] = ()
    selection_seed: Optional[int] = None

    def __lt__(self, other: "DissimilarityScore") -> bool:
        # Exactly-equal scores order lexicographically by device_type: the
        # tie winner is the alphabetically first candidate, independent of
        # candidate-dict insertion order (documented contract).
        return (self.score, self.device_type) < (other.score, other.device_type)


@dataclass
class EditDistanceDiscriminator:
    """Discriminates between candidate device-types via edit distance.

    Attributes:
        references_per_type: how many reference fingerprints of each
            candidate type to compare against (5 in the paper).
        selection: ``"deterministic"`` (default) seeds each splitmix64
            reference draw from the fingerprint's content hash so the same
            fingerprint always meets the same references; ``"random"``
            reproduces the paper's shared-generator draw (nondeterministic
            across calls, an in-memory ablation only).
        rng: the shared generator of ``"random"`` mode.  Passing one under
            deterministic selection raises
            :class:`~repro.exceptions.IdentificationError`.
    """

    references_per_type: int = 5
    selection: str = DETERMINISTIC_SELECTION
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.references_per_type <= 0:
            raise IdentificationError("references_per_type must be positive")
        if self.selection not in _SELECTION_MODES:
            raise IdentificationError(
                f"selection must be one of {_SELECTION_MODES}, got {self.selection!r}"
            )
        if self.selection == RANDOM_SELECTION and self.rng is None:
            # repro-lint: disable=no-unseeded-rng -- selection="random" is the paper's deliberately nondeterministic legacy mode; callers wanting replayable draws use the default deterministic selection
            self.rng = np.random.default_rng()
        if self.selection == DETERMINISTIC_SELECTION and self.rng is not None:
            raise IdentificationError(
                "rng is only used by selection=\"random\"; the deterministic "
                "selection draws from each fingerprint's content hash"
            )

    @property
    def is_deterministic(self) -> bool:
        return self.selection == DETERMINISTIC_SELECTION

    def _select_references(
        self,
        content_key: Optional[bytes],
        device_type: str,
        references: Sequence[Fingerprint],
        salt: int,
    ) -> tuple[list[Fingerprint], tuple[int, ...], Optional[int]]:
        """The compared subset plus its provenance (indices, draw seed)."""
        if len(references) <= self.references_per_type:
            return list(references), tuple(range(len(references))), None
        if self.selection == RANDOM_SELECTION:
            drawn = self.rng.choice(len(references), size=self.references_per_type, replace=False)
            indices = tuple(sorted(int(index) for index in drawn))
            seed: Optional[int] = None
        else:
            seed = selection_seed_from_key(
                content_key, device_type, len(references), self.references_per_type, salt
            )
            indices = splitmix_subset(seed, len(references), self.references_per_type)
        return [references[index] for index in indices], indices, seed

    def score_many(
        self,
        requests: Sequence[tuple[Fingerprint, Mapping[str, Sequence[Fingerprint]]]],
        salt: int = 0,
        symbols: Optional[Sequence[Sequence[bytes]]] = None,
    ) -> list[list[DissimilarityScore]]:
        """Score a batch of fingerprints against their candidate types.

        Each request pairs a fingerprint with the candidate types it is
        scored against, each mapped to its reference fingerprints.  Every
        subset is drawn first, in request and candidate order; then every
        (fingerprint, chosen reference) pair goes through ONE pair-kernel
        call, and the values are split back per request and per type.
        Per-type sums accumulate in ascending-index order.  Returns, per
        request, one score per candidate in candidate order (unsorted).

        ``salt`` feeds the deterministic draw seed; the identifier passes
        its ``revision`` counter so a registry change (and only a registry
        change) re-randomises which references are met.  ``symbols``, when
        given, holds each request fingerprint's
        :meth:`~repro.features.fingerprint.Fingerprint.as_symbol_sequence`.
        """
        plan: list[list[tuple[str, int, tuple[int, ...], Optional[int]]]] = []
        reference_words: list[np.ndarray] = []
        for fingerprint, candidates in requests:
            if not candidates:
                raise IdentificationError("discrimination requires at least one candidate type")
            content_key: Optional[bytes] = None
            selections = []
            for device_type, references in candidates.items():
                if not references:
                    raise IdentificationError(
                        f"no reference fingerprints for type {device_type!r}"
                    )
                if (
                    content_key is None
                    and self.is_deterministic
                    and len(references) > self.references_per_type
                ):
                    # Hashed once per fingerprint, reused for every candidate.
                    content_key = fingerprint_key(fingerprint)
                chosen, indices, seed = self._select_references(
                    content_key, device_type, references, salt
                )
                reference_words.extend(map(_encoded_word, chosen))
                selections.append((device_type, len(chosen), indices, seed))
            plan.append(selections)

        # References are encoded first (above): they intern their symbols,
        # so the lookup-only query encoding below already sees every one.
        query_words: list[np.ndarray] = []
        query_symbols = symbols if symbols is not None else [None] * len(requests)
        for (fingerprint, _), selections, rows in zip(requests, plan, query_symbols):
            word = _query_word(fingerprint, rows)
            query_words.extend([word] * sum(compared for _, compared, _, _ in selections))
        values = normalized_pair_distances(query_words, reference_words).tolist()

        results = []
        cursor = 0
        for selections in plan:
            scores = []
            for device_type, compared, indices, seed in selections:
                total = 0.0
                for value in values[cursor : cursor + compared]:
                    total += value
                cursor += compared
                scores.append(
                    DissimilarityScore(
                        device_type=device_type,
                        score=total,
                        comparisons=compared,
                        reference_indices=indices,
                        selection_seed=seed,
                    )
                )
            results.append(scores)
        return results

    def score_type(
        self,
        fingerprint: Fingerprint,
        device_type: str,
        references: Sequence[Fingerprint],
        salt: int = 0,
    ) -> DissimilarityScore:
        """Dissimilarity score of ``fingerprint`` with one candidate type."""
        return self.score_many([(fingerprint, {device_type: references})], salt)[0][0]

    def discriminate(
        self,
        fingerprint: Fingerprint,
        candidates: Mapping[str, Sequence[Fingerprint]],
        salt: int = 0,
    ) -> tuple[str, list[DissimilarityScore]]:
        """Pick the best-matching type among ``candidates``.

        ``candidates`` maps each candidate device-type to its reference
        fingerprints (training-set fingerprints of that type).  Returns the
        winning type and every per-type score (sorted, best first).
        Exactly-equal scores are broken lexicographically on
        ``device_type``, so the verdict never depends on the insertion
        order of the candidate dict.
        """
        scores = self.score_many([(fingerprint, candidates)], salt)[0]
        scores.sort()
        return scores[0].device_type, scores
