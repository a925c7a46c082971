"""Device fingerprints ``F`` (variable length) and ``F'`` (fixed length).

A fingerprint ``F`` is conceptually the 23 x n matrix of Eq. (1) in the
paper: one column per packet observed during the device setup phase, with
consecutive identical columns removed.  The fixed-length fingerprint ``F'``
concatenates the first 12 *unique* packet vectors of ``F`` into a
276-dimensional vector (zero-padded when fewer than 12 unique packets
exist), which is what the per-device-type Random Forest classifiers consume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.exceptions import FingerprintError
from repro.features.packet_features import (
    FEATURE_COUNT,
    PacketFeatureExtractor,
    unpack_rows,
)
from repro.net.batch import carrying_rows, stream_row
from repro.net.packet import Packet

#: Number of unique packet vectors concatenated into the fixed fingerprint.
FIXED_PACKET_COUNT = 12

#: Dimension of the fixed-length fingerprint F' (12 packets x 23 features).
FIXED_VECTOR_SIZE = FIXED_PACKET_COUNT * FEATURE_COUNT

#: One int64 feature row seen as a single opaque value: the dtype of a
#: row's symbol (:meth:`Fingerprint.as_symbol_sequence`).
_ROW_SYMBOL = np.dtype((np.void, FEATURE_COUNT * np.dtype(np.int64).itemsize))

#: The symbol of an all-zero row: the padding of a short F'.
_ZERO_ROW = bytes(_ROW_SYMBOL.itemsize)


@dataclass
class Fingerprint:
    """A device fingerprint: an ordered sequence of per-packet feature vectors.

    Attributes:
        vectors: array of shape ``(n, 23)`` -- one row per packet, in the
            order the packets were sent (the transpose of the paper's
            ``23 x n`` matrix, which is more convenient in numpy).
        device_type: optional ground-truth label.
        device_mac: optional MAC address string of the captured device.
    """

    vectors: np.ndarray
    device_type: Optional[str] = None
    device_mac: Optional[str] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.int64)
        if vectors.size == 0:
            vectors = vectors.reshape(0, FEATURE_COUNT)
        if vectors.ndim != 2 or vectors.shape[1] != FEATURE_COUNT:
            raise FingerprintError(
                f"fingerprint vectors must have shape (n, {FEATURE_COUNT}), got {vectors.shape}"
            )
        self.vectors = vectors

    # ------------------------------------------------------------------ #
    # Construction helpers.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_feature_rows(
        cls,
        rows: Iterable[Sequence[int]],
        device_type: Optional[str] = None,
        device_mac: Optional[str] = None,
    ) -> "Fingerprint":
        """Build a fingerprint from raw feature rows.

        Consecutive identical rows are collapsed into one, as in Eq. (1)
        of the paper.  Build ``Fingerprint(vectors=rows)`` directly to
        keep every row.
        """
        matrix = np.asarray(list(rows), dtype=np.int64)
        if matrix.size == 0:
            matrix = matrix.reshape(0, FEATURE_COUNT)
        if len(matrix) > 1:
            keep = np.ones(len(matrix), dtype=bool)
            keep[1:] = np.any(matrix[1:] != matrix[:-1], axis=1)
            matrix = matrix[keep]
        return cls(vectors=matrix, device_type=device_type, device_mac=device_mac)

    @classmethod
    def from_packets(
        cls,
        packets: Sequence[Packet],
        device_type: Optional[str] = None,
        device_mac: Optional[str] = None,
    ) -> "Fingerprint":
        """Extract a fingerprint from an ordered packet sequence.

        The packets must all originate from the device being fingerprinted;
        use :func:`repro.features.session.split_by_source` to separate a
        mixed capture by source MAC first.  Each packet's key comes from
        :func:`~repro.net.batch.stream_row` (raw frames parsed a run at a
        time by :func:`~repro.net.batch.carrying_rows`) and the rows from
        :func:`~repro.features.packet_features.unpack_rows`, as the
        streaming assembler serves them.
        """
        parsed = [stream_row(packet) for packet in carrying_rows(packets)]
        counter_for = PacketFeatureExtractor().counter_for
        rows = unpack_rows(
            [key for _, _, key, _ in parsed], [counter_for(dst_ip) for *_, dst_ip in parsed]
        )
        return cls.from_feature_rows(rows, device_type=device_type, device_mac=device_mac)

    # ------------------------------------------------------------------ #
    # Views.
    # ------------------------------------------------------------------ #
    @property
    def packet_count(self) -> int:
        """Number of packet columns in F (after consecutive deduplication)."""
        return int(self.vectors.shape[0])

    @property
    def matrix(self) -> np.ndarray:
        """The paper's ``23 x n`` orientation of the fingerprint."""
        return self.vectors.T

    def unique_vectors(self) -> np.ndarray:
        """The unique packet vectors of F, in order of first appearance."""
        return _rows_of(b"".join(dict.fromkeys(self.as_symbol_sequence())), np.int64)

    def to_fixed_vector(self, packet_count: int = FIXED_PACKET_COUNT) -> np.ndarray:
        """Produce the fixed-length fingerprint F'.

        The first ``packet_count`` unique packet vectors are concatenated;
        if fewer unique vectors exist the result is zero padded, exactly as
        described in Sect. IV-A of the paper.
        """
        return fixed_vectors([self], packet_count)[0]

    def as_symbol_sequence(self) -> list[bytes]:
        """The fingerprint as a "word" whose characters are packet columns.

        This is the representation used for Damerau-Levenshtein edit
        distance in the discrimination stage: two characters are equal when
        *all* 23 features of the two packets are equal.  Each character is
        one row's raw int64 bytes (a void view of the matrix, listed in one
        call), so equal bytes mean equal rows, and a symbol is one hashable
        object that the garbage collector does not track.
        """
        return np.ascontiguousarray(self.vectors).view(_ROW_SYMBOL).ravel().tolist()

    def for_device(self, device_mac: Optional[str]) -> "Fingerprint":
        """The same capture seen from another device of the same model.

        The matrix is shared, not copied (fingerprints are never written
        in place), and so is its content key once computed
        (:func:`fingerprint_key`); the label and metadata are not carried.
        """
        twin = Fingerprint(vectors=self.vectors, device_mac=device_mac)
        key = getattr(self, "_content_key", None)
        if key is not None:
            twin._content_key = key
        return twin

    def __len__(self) -> int:
        return self.packet_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return (
            self.device_type == other.device_type
            and self.vectors.shape == other.vectors.shape
            and bool(np.all(self.vectors == other.vectors))
        )

    def __repr__(self) -> str:
        label = self.device_type or "unlabelled"
        return f"Fingerprint(type={label!r}, packets={self.packet_count})"


def _rows_of(joined: bytes, dtype: np.dtype, width: int = FEATURE_COUNT) -> np.ndarray:
    """``joined`` (row symbols, concatenated) as a ``dtype`` matrix ``width`` wide."""
    # astype copies: the result owns writable memory, not the joined bytes.
    return np.frombuffer(joined, dtype=np.int64).astype(dtype).reshape(-1, width)


def fixed_vectors(
    fingerprints: Sequence[Fingerprint],
    packet_count: int = FIXED_PACKET_COUNT,
    symbols: Optional[Sequence[Sequence[bytes]]] = None,
    dtype: np.dtype = np.int64,
) -> np.ndarray:
    """The fixed-length fingerprints F' of many fingerprints, one row each.

    Returns an ``(n, packet_count * 23)`` matrix of ``dtype`` (int64 by
    default; the classifier bank asks for float64, so the one conversion
    happens here) whose row ``i`` is
    ``fingerprints[i].to_fixed_vector(packet_count)``.  A symbol is its
    row's raw bytes, so each F' is its fingerprint's first
    ``packet_count`` distinct symbols joined, then zero rows: one
    ``dict.fromkeys`` and one join per fingerprint, one buffer per batch.
    ``symbols[i]``, when given, must be
    ``fingerprints[i].as_symbol_sequence()``: the identifier turns each
    query into symbols once per batch and feeds them both here and to the
    discrimination stage's alphabet lookup.
    """
    if packet_count <= 0:
        raise FingerprintError(f"packet_count must be positive, got {packet_count}")
    if symbols is None:
        symbols = [fingerprint.as_symbol_sequence() for fingerprint in fingerprints]
    parts: list[bytes] = []
    for rows in symbols:
        unique = list(islice(dict.fromkeys(rows), packet_count))
        parts.extend(unique)
        parts.append(_ZERO_ROW * (packet_count - len(unique)))
    return _rows_of(b"".join(parts), dtype, packet_count * FEATURE_COUNT)


#: ``str(dtype)`` per dtype: numpy formats a dtype's name in Python code,
#: and :func:`fingerprint_key` hashes it once per fingerprint.
_DTYPE_TEXT: dict[np.dtype, bytes] = {}


def fingerprint_key(fingerprint: Fingerprint) -> bytes:
    """A content hash of the fingerprint matrix (MAC and label excluded).

    Two devices of the same model performing the same setup produce the
    same matrix and therefore the same key -- the sharing the streaming
    dispatcher's result cache, the autopilot's unknown-model cluster
    detection and the discrimination stage's deterministic reference draw
    all exploit.  The dtype is hashed alongside the shape and the raw
    bytes: equal-byte matrices of different dtypes (an all-zero int64 vs
    float64 padding block, say) must not collide onto one key.

    The hash is content-only (SHA-1 over shape/dtype/bytes), so it is
    stable across processes, interpreter restarts and
    ``PYTHONHASHSEED`` values -- the property the deterministic
    discrimination draw relies on.

    Cached on the fingerprint instance: one verdict reads the key in the
    dispatcher, the reference draw and the ledger records.
    ``Fingerprint.vectors`` is treated as immutable after construction
    everywhere in the system; ``dataclasses.replace`` builds a new
    instance, which hashes its own matrix.

    Example:
        >>> import numpy as np
        >>> from repro.features.fingerprint import Fingerprint, FEATURE_COUNT
        >>> rows = np.zeros((2, FEATURE_COUNT), dtype=np.int64)
        >>> a = Fingerprint(vectors=rows, device_mac="02:00:00:00:00:01")
        >>> b = Fingerprint(vectors=rows.copy(), device_mac="02:00:00:00:00:02")
        >>> fingerprint_key(a) == fingerprint_key(b)  # same model, same setup
        True
    """
    key = getattr(fingerprint, "_content_key", None)
    if key is None:
        digest = hashlib.sha1()
        digest.update(str(fingerprint.vectors.shape).encode("ascii"))
        dtype = fingerprint.vectors.dtype
        text = _DTYPE_TEXT.get(dtype)
        if text is None:
            text = _DTYPE_TEXT[dtype] = str(dtype).encode("ascii")
        digest.update(text)
        digest.update(fingerprint.vectors.tobytes())
        key = fingerprint._content_key = digest.digest()
    return key
