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
(query, reference) pairs with Hyyrö's bit-vector recurrence, every pair
one guarded lane of a single Python integer (see its docstring for the
layout).  The textbook scalar dynamic program lives in
``tests/conftest.py`` as the oracle the kernel is checked against, pair
by pair.

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
#: Interner codes are non-negative and the pair kernel pads with -1 and
#: -3, so an unseen symbol equals nothing it is compared with.
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
        """Encode a symbol sequence to an int32 code array."""
        codes = self._codes
        out = np.empty(len(symbols), dtype=np.int32)
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
        return np.array([get(symbol, UNSEEN_SYMBOL) for symbol in symbols], dtype=np.int32)


#: The process-wide alphabet shared by every batch-kernel caller.
GLOBAL_INTERNER = SymbolInterner()

#: Padding of the lane (longer) side and of the step (shorter) side.
#: Interner codes are >= 0 and unseen query symbols are
#: :data:`UNSEEN_SYMBOL`, so neither pad equals a real symbol or the other
#: pad: padded rows and guard bits never match a step.
_LANE_PAD = -1
_STEP_PAD = -3

#: Cells of the boolean (steps x pairs x lane width) match array built per
#: block of steps; bounds the kernel's scratch memory on huge batches.
_MATCH_BLOCK_CELLS = 1 << 22


def _distances(
    queries: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[int]]:
    """Distance and longer-side length of every pair: the kernel itself.

    :func:`damerau_levenshtein_pairs` documents the method.  Lanes and
    steps are padded in one matrix of the words' own integer type, at
    least int32.  Interner codes are int32, so the match comparison reads
    half the bytes that int64 codes would need.
    """
    count = len(queries)
    if count != len(references):
        raise ValueError("damerau_levenshtein_pairs needs one reference per query")
    if count == 0:
        return np.zeros(0, dtype=np.int64), []
    longer: list[np.ndarray] = []
    shorter: list[np.ndarray] = []
    for query, reference in zip(queries, references):
        if len(reference) < len(query):
            longer.append(query)
            shorter.append(reference)
        else:
            longer.append(reference)
            shorter.append(query)
    longest = [len(word) for word in longer]
    short_lengths = [len(word) for word in shorter]
    depth = max(short_lengths)
    if depth == 0:
        # Every pair has an empty side: the distance is the other side's length.
        return np.array(longest, dtype=np.int64), longest
    width = max(longest) + 1
    # Rows: every lane, then every step word, left-aligned over lane pads.
    # A boolean mask assigns in row-major order: the concatenation's order.
    symbols = np.concatenate(longer + shorter)
    padded = np.full((2 * count, width), _LANE_PAD, dtype=np.promote_types(symbols.dtype, np.int32))
    padded[np.arange(width) < np.array(longest + short_lengths)[:, None]] = symbols
    lanes = padded[:count]
    steps = padded[count:, :depth]
    steps[steps == _LANE_PAD] = _STEP_PAD
    steps = steps.T
    block = max(1, _MATCH_BLOCK_CELLS // (count * width))
    matches: list[int] = []
    for start in range(0, depth, block):
        hits = steps[start : start + block, :, None] == lanes
        packed = np.packbits(hits.reshape(len(hits), -1), axis=1, bitorder="little")
        data, size = packed.tobytes(), packed.shape[1]
        matches.extend(
            int.from_bytes(data[offset : offset + size], "little")
            for offset in range(0, len(data), size)
        )

    # Bit 0 of every lane, and every lane's rows (guard bits clear).
    low = ((1 << (count * width)) - 1) // ((1 << width) - 1)
    rows_mask = low * ((1 << (width - 1)) - 1)
    finishing: list[list[int]] = [[] for _ in range(depth + 1)]
    for pair, length in enumerate(short_lengths):
        finishing[length].append(pair)
    distances = list(longest)
    vp, vn, d0, previous = rows_mask, 0, 0, 0
    for step, match in enumerate(matches, 1):
        transposed = (((d0 ^ rows_mask) & match) << 1) & previous
        d0 = (((match & vp) + vp) ^ vp) | match | vn | transposed
        hp = vn | (rows_mask ^ (d0 | vp))
        hn = vp & d0
        hp = (hp << 1) | low
        vp = ((hn << 1) | (rows_mask ^ (d0 | hp))) & rows_mask
        vn = hp & d0
        previous = match
        for pair in finishing[step]:
            shift = pair * width
            rows = (1 << distances[pair]) - 1
            distances[pair] = (
                step + ((vp >> shift) & rows).bit_count() - ((vn >> shift) & rows).bit_count()
            )
    return np.array(distances, dtype=np.int64), longest


def damerau_levenshtein_pairs(
    queries: Sequence[np.ndarray], references: Sequence[np.ndarray]
) -> np.ndarray:
    """Distance of every ``(queries[k], references[k])`` pair, in one pass.

    All inputs are integer code arrays over one shared alphabet (see
    :class:`SymbolInterner`; a query may also carry
    :data:`UNSEEN_SYMBOL`).  The kernel is Hyyrö's bit-vector recurrence
    for the optimal-string-alignment distance (H. Hyyrö, "A Bit-Vector
    Algorithm for Computing Levenshtein and Damerau Edit Distances",
    2003), run for the whole batch at once on one Python integer:

    * **Lanes.**  The distance is symmetric (reversing an alignment swaps
      insertions with deletions and leaves substitutions and adjacent
      transpositions as they are), so each pair's *longer* side becomes
      the bit-vector "pattern": one lane of the integer, bit ``r`` of the
      lane standing for DP row ``r + 1``.  Every lane is
      ``max(len) + 1`` bits wide, so each has at least one zero *guard
      bit* above its rows.  The vertical-positive vector ``VP`` never
      holds a guard bit, which makes the guard absorb the carry of
      ``(PM & VP) + VP`` before it reaches the next lane.
    * **Steps.**  The shorter sides are walked one symbol per step, all
      pairs in lockstep.  Step ``j``'s match mask ``PM`` (bit set where
      the lane's symbol equals the pair's ``j``-th step symbol) comes
      from one numpy comparison of every step against every lane plus
      ``packbits``.  Each step is a fixed handful of whole-batch integer
      operations; the transposition term ``((~D0' & PM) << 1) & PM'``
      reads the previous step's ``D0`` and ``PM``.  There is no ``~``:
      every complement is an XOR with the all-lanes mask (guard bits
      clear).  Left shifts move each lane's top bit into its guard and
      its guard bit into the next lane's lowest bit; ``HP``'s lowest bit
      is forced to 1 (the DP's top row) and ``VP`` is masked back to the
      lanes, so nothing crosses a lane boundary.
    * **Answers.**  A pair's distance is read at the step its shorter
      side ends: ``D[m][n] = n + popcount(VP) - popcount(VN)`` over the
      lane's ``m`` rows (the top row holds ``n``, and ``VP``/``VN`` are
      the column's +1/-1 vertical deltas).  Later steps only touch that
      lane's bits, never its answer.  A pair with an empty side is the
      other side's length.

    Returns one absolute Damerau-Levenshtein distance per pair, as an
    int64 array, bitwise-equal per pair to the scalar dynamic program
    kept as the oracle in ``tests/conftest.py`` (the differential
    property suite asserts this).

    >>> interner = SymbolInterner()
    >>> kitten, sitting = interner.encode("kitten"), interner.encode("sitting")
    >>> damerau_levenshtein_pairs(
    ...     [kitten, interner.encode("ab")], [sitting, interner.encode("ba")]
    ... ).tolist()
    [3, 1]
    """
    return _distances(queries, references)[0]


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
    distances, longest = _distances(queries, references)
    if 0 in longest:
        raise FingerprintError("cannot normalise the distance of two empty sequences")
    return distances / np.array(longest, dtype=np.int64)


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

    >>> splitmix_subset(12345, 10, 5)
    (1, 2, 3, 4, 7)
    >>> splitmix_subset(12345, 3, 5)
    (0, 1, 2)
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
