"""Damerau-Levenshtein edit distance over arbitrary hashable symbols.

The discrimination stage treats a variable-length fingerprint ``F`` as a
word whose characters are whole packet columns: two characters are equal
only when *all* 23 features match.  The distance counts insertions,
deletions, substitutions and immediate (adjacent) transpositions, i.e. the
restricted "optimal string alignment" variant originally described by
Damerau (1964), which is what the paper cites.

Symbols are first *interned* over a shared alphabet (:class:`SymbolInterner`):
every distinct symbol is hashed once and mapped to a small integer, so the
kernel compares machine ints.  Interning implies symbols must be hashable
with ``__eq__`` consistent with ``__hash__``; symbol equality follows
dict-key semantics (identity short-circuits, so a NaN symbol equals itself
here even though ``nan == nan`` is False).

:func:`damerau_levenshtein_pairs` is the one kernel: it scores a batch of
(query, reference) pairs in a stacked dynamic program.  The textbook
scalar dynamic program lives in ``tests/conftest.py`` as the oracle the
kernel is checked against, pair by pair.

Empty-sequence semantics (documented contract):

* the absolute distance follows the textbook definition -- the distance
  to an empty sequence is the other sequence's length, and two empty
  sequences have distance 0.
* :func:`normalized_pair_distances` divides by the longer length, so one
  empty sequence yields exactly 1.0 (maximal dissimilarity) -- *returned*,
  not raised, because an empty fingerprint legitimately occurs when a
  device stayed silent during profiling.  Two empty sequences *raise*
  :class:`~repro.exceptions.FingerprintError`: 0/0 has no meaningful
  normalisation, and silently returning 0.0 ("identical") would make a
  pair of failed captures look like a perfect match to the discriminator.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.exceptions import FingerprintError


#: Code of a symbol the interner has never seen (lookup-only encoding).
#: Interner codes are non-negative and the pair kernel pads with -1, so an
#: unseen symbol equals nothing it is compared with.
UNSEEN_SYMBOL = -2


class SymbolInterner:
    """An append-only mapping of hashable symbols to dense integer codes.

    The batch edit-distance kernel compares *codes* instead of symbols, so
    every sequence entering it must be encoded over one shared alphabet.
    Codes are handed out in first-seen order and never recycled, which
    makes encodings computed at different times mutually comparable: two
    symbols are equal iff their codes are equal, forever.  The module-level
    :data:`GLOBAL_INTERNER` is what the discrimination stage encodes
    reference fingerprints through (their cached encodings stay valid for
    the life of the process).  Queries are encoded with :meth:`lookup`,
    which adds nothing, so the alphabet grows only with the references.
    """

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._codes)

    def encode(self, symbols: Sequence[Hashable]) -> np.ndarray:
        """Encode a symbol sequence to an int64 code array."""
        codes = self._codes
        out = np.empty(len(symbols), dtype=np.int64)
        for index, symbol in enumerate(symbols):
            code = codes.get(symbol)
            if code is None:
                code = len(codes)
                codes[symbol] = code
            out[index] = code
        return out

    def lookup(self, symbols: Sequence[Hashable]) -> np.ndarray:
        """Encode without interning: unseen symbols become :data:`UNSEEN_SYMBOL`.

        Distances against sequences encoded by :meth:`encode` stay exact,
        because an unseen symbol cannot equal any interned one.  The
        result is only valid *now*: a later :meth:`encode` may intern the
        symbol, so callers must not cache it.
        """
        get = self._codes.get
        return np.array([get(symbol, UNSEEN_SYMBOL) for symbol in symbols], dtype=np.int64)


#: The process-wide alphabet shared by every batch-kernel caller.
GLOBAL_INTERNER = SymbolInterner()

_NO_TRANSPOSITION = np.iinfo(np.int64).max


def damerau_levenshtein_pairs(
    queries: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> np.ndarray:
    """Distance of every ``(queries[k], references[k])`` pair, in one pass.

    All inputs are integer code arrays over one shared alphabet (see
    :class:`SymbolInterner`; a query may also carry
    :data:`UNSEEN_SYMBOL`).  Each pair is one row of a stacked dynamic
    program that runs once over the *step* axis: at step ``i`` every row
    still inside its step sequence advances one DP row as a numpy matrix,
    with its own step symbol.  The deletion/substitution/transposition
    candidates take one vectorised step, and the insertion recurrence
    ``current[j] = min(current[j-1] + 1, cand[j])`` is folded with the
    prefix-minimum identity ``current[j] = min_{k<=j}(cand[k] + j - k)``
    (a single ``minimum.accumulate``), so no per-cell Python executes.

    The optimal-string-alignment distance is symmetric (reversing an
    alignment swaps insertions with deletions and leaves substitutions
    and adjacent transpositions as they are), so each pair puts its
    *shorter* side on the step axis and its longer side on the column
    axis: the loop runs as many numpy steps as the longest short side,
    not the longest query.  Rows are sorted by that shorter length,
    longest first, so the rows still live at step ``i`` are a prefix; a
    row's answer is read at ``(shorter length, longer length)`` on the
    step its shorter side ends.

    Returns one absolute Damerau-Levenshtein distance per pair, as an
    int64 array, bitwise-equal per pair to the scalar dynamic program
    kept as the oracle in ``tests/conftest.py`` (the differential
    property suite asserts this).
    """
    count = len(queries)
    if count != len(references):
        raise ValueError("damerau_levenshtein_pairs needs one reference per query")
    query_lengths = np.array([len(query) for query in queries], dtype=np.int64)
    reference_lengths = np.array([len(reference) for reference in references], dtype=np.int64)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    swapped = reference_lengths < query_lengths
    short_lengths = np.where(swapped, reference_lengths, query_lengths)
    long_lengths = np.where(swapped, query_lengths, reference_lengths)
    order = np.argsort(-short_lengths, kind="stable")
    lengths = short_lengths[order]
    ends = long_lengths[order]
    depth = int(lengths[0])
    if depth == 0:
        # Every pair has an empty side: the distance is the other side's length.
        return long_lengths
    max_len = int(ends.max())

    # Pad the column side with -1: codes are >= 0 and unseen query
    # symbols are -2 on whichever axis the query takes, so padding never
    # equals a step symbol and padded columns charge full substitution
    # cost.  The answer is read at each row's own column length, so the
    # padded tail never leaks into a result.  Step padding is never read:
    # a row is dead past its length.
    columns = np.full((count, max_len), -1, dtype=np.int64)
    symbols = np.full((count, depth), -1, dtype=np.int64)
    for row, pair in enumerate(order):
        if swapped[pair]:
            columns[row, : ends[row]] = queries[pair]
            symbols[row, : lengths[row]] = references[pair]
        else:
            columns[row, : ends[row]] = references[pair]
            symbols[row, : lengths[row]] = queries[pair]
    # live[i]: rows whose step side has at least i symbols (a prefix).
    live = np.searchsorted(-lengths, -np.arange(depth + 2), side="right")

    answers = np.empty(count, dtype=np.int64)
    silent = lengths == 0
    answers[silent] = ends[silent]
    offsets = np.arange(max_len + 1, dtype=np.int64)
    previous = np.broadcast_to(offsets, (count, max_len + 1)).copy()
    previous_previous = np.zeros_like(previous)
    candidate = np.empty_like(previous)
    for i in range(1, depth + 1):
        rows = int(live[i])
        symbol = symbols[:rows, i - 1 : i]
        # Deletion vs substitution, vectorised across every (row, j) cell.
        candidate[:rows, 0] = i
        np.minimum(
            previous[:rows, 1:] + 1,
            previous[:rows, :-1] + (columns[:rows] != symbol),
            out=candidate[:rows, 1:],
        )
        if i > 1:
            previous_symbol = symbols[:rows, i - 2 : i - 1]
            # Adjacent transposition: step[i-2..i-1] crossed with column[j-2..j-1].
            swap = (columns[:rows, :-1] == symbol) & (columns[:rows, 1:] == previous_symbol)
            np.minimum(
                candidate[:rows, 2:],
                np.where(swap, previous_previous[:rows, : max_len - 1] + 1, _NO_TRANSPOSITION),
                out=candidate[:rows, 2:],
            )
        # Insertion as a prefix-minimum over candidate costs.
        current = previous_previous
        current[:rows] = np.minimum.accumulate(candidate[:rows] - offsets, axis=1) + offsets
        # Rows whose step side ends at step i: a contiguous block.
        done = np.arange(int(live[i + 1]), rows)
        answers[done] = current[done, ends[done]]
        previous_previous, previous = previous, current
    distances = np.empty(count, dtype=np.int64)
    distances[order] = answers
    return distances


def normalized_pair_distances(
    queries: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> np.ndarray:
    """Normalised distance of every pair: the paper's per-reference score.

    ``queries``/``references`` are code arrays as for
    :func:`damerau_levenshtein_pairs`.  The empty-sequence contract holds
    per pair: one empty side yields exactly 1.0, two empty sides raise
    :class:`FingerprintError`.  Each result is the integer distance
    divided by the longer length -- the same two machine numbers the
    scalar oracle in ``tests/conftest.py`` divides, so the float64 values
    are bitwise identical.
    """
    longest = np.array(
        [max(len(query), len(reference)) for query, reference in zip(queries, references)],
        dtype=np.int64,
    )
    if np.any(longest == 0):
        raise FingerprintError("cannot normalise the distance of two empty sequences")
    return damerau_levenshtein_pairs(queries, references) / longest


# --------------------------------------------------------------------- #
# Self-contained deterministic draws (cross-numpy-version stability).
# --------------------------------------------------------------------- #
_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: ``(next_state, output)``.

    The reference construction of Steele et al. (2014), implemented over
    plain Python integers so the output stream depends on nothing but the
    seed -- not the numpy version, not the platform word size.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def splitmix_subset(seed: int, population: int, size: int) -> tuple[int, ...]:
    """Draw ``size`` distinct indices from ``range(population)``, sorted.

    A partial Fisher-Yates shuffle driven by :func:`splitmix64`, with
    modulo bias removed by rejection sampling.  This is the discrimination
    stage's reference draw: self-contained, so the verdict stream survives
    numpy upgrades that change ``Generator.choice`` internals.
    """
    if size >= population:
        return tuple(range(population))
    pool = list(range(population))
    state = seed & _MASK64
    for position in range(size):
        remaining = population - position
        # Rejection bound: the largest multiple of `remaining` below 2^64.
        bound = _MASK64 + 1 - ((_MASK64 + 1) % remaining)
        while True:
            state, value = splitmix64(state)
            if value < bound:
                break
        swap = position + (value % remaining)
        pool[position], pool[swap] = pool[swap], pool[position]
    return tuple(sorted(pool[:size]))
