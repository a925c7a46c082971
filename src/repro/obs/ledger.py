"""Append-only NDJSON ledger of evidence records, with rotation and replay.

The write side (:class:`VerdictLedger`) is built for a serving gateway:

* **append-only, line-atomic** -- each record is one canonical JSON line
  written with a single ``os.write`` on an ``O_APPEND`` descriptor, so a
  crash can truncate at most the final line and concurrent readers never
  observe a torn record;
* **monotonic sequence numbers** -- assigned at append time, recovered
  from the files on re-open, so a restarted gateway continues the
  sequence instead of restarting it (replay order is provable);
* **size-based rotation** -- when the active file would exceed
  ``max_bytes`` it is rotated to ``<name>.1`` (older generations shift
  up) and at most ``max_files`` rotated generations are kept, bounding
  disk use like the paper bounds the rule cache.

The read side (:func:`replay_ledger`) validates what it replays: every
line must decode as a schema-v1 :class:`~repro.obs.evidence.EvidenceRecord`
and sequences must be strictly increasing across the whole file chain.
The single tolerated defect is a truncated final line of the most recent
file -- exactly the state a mid-append crash leaves behind -- which is
counted, not silently swallowed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.exceptions import LedgerError
from repro.obs.evidence import EvidenceRecord, decode_line, encode_line


def ledger_files(path: Union[str, Path]) -> list[Path]:
    """Every existing file of a ledger chain, oldest first.

    Rotated generations ``<name>.N .. <name>.1`` precede the active file,
    so concatenating their lines yields the full record stream in append
    order.
    """
    active = Path(path)
    rotated: list[tuple[int, Path]] = []
    for candidate in sorted(active.parent.glob(active.name + ".*")):
        suffix = candidate.name[len(active.name) + 1 :]
        if suffix.isdigit():
            rotated.append((int(suffix), candidate))
    files = [file for _, file in sorted(rotated, reverse=True)]
    if active.exists():
        files.append(active)
    return files


class VerdictLedger:
    """Append-only, rotating NDJSON sink for evidence records.

    Attributes:
        path: the active ledger file; rotated generations live beside it
            as ``<name>.1`` (most recent) .. ``<name>.<max_files>``.
        max_bytes: rotation threshold; an append that would push the
            active file past it rotates first.  A single record larger
            than ``max_bytes`` still lands (alone) in a fresh file --
            records are never split or dropped.
        max_files: rotated generations kept; older ones are deleted.

    Example:
        >>> import tempfile, os
        >>> from repro.obs.evidence import EvidenceRecord
        >>> path = os.path.join(tempfile.mkdtemp(), "ledger.ndjson")
        >>> with VerdictLedger(path) as ledger:
        ...     ledger.append(EvidenceRecord(kind="verdict")).sequence
        0
        >>> replay_ledger(path).records[0].kind
        'verdict'
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_bytes: int = 4 * 1024 * 1024,
        max_files: int = 4,
    ):
        if max_bytes <= 0:
            raise LedgerError(f"max_bytes must be positive, got {max_bytes}")
        if max_files <= 0:
            raise LedgerError(f"max_files must be positive, got {max_files}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.records_written = 0
        self.rotations = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: The sequence number the next append will be stamped with.
        self.next_sequence = self._recover_next_sequence()
        self._repair_torn_tail()
        self._fd: Optional[int] = None
        self._size = 0
        self._open_active()

    # ------------------------------------------------------------------ #
    # Write path.
    # ------------------------------------------------------------------ #
    def append(self, record: EvidenceRecord) -> EvidenceRecord:
        """Assign the next sequence number and durably append the record.

        Returns the record as written (sequence assigned; the record
        itself when it already carries :attr:`next_sequence`).  The line is
        written with one ``os.write`` call -- a crash mid-append can
        truncate the final line but never interleave or tear earlier
        ones; :func:`replay_ledger` recovers by dropping that tail.
        """
        if self._fd is None:
            raise LedgerError(f"ledger {self.path} is closed")
        stamped = record
        if record.sequence != self.next_sequence:
            # Not ``with_sequence``: ``dataclasses.replace`` would re-run
            # the validation the record passed when it was built.
            stamped = record.derive(sequence=self.next_sequence)
        data = encode_line(stamped).encode("utf-8")
        if self._size > 0 and self._size + len(data) > self.max_bytes:
            self._rotate()
        os.write(self._fd, data)
        self._size += len(data)
        self.next_sequence += 1
        self.records_written += 1
        return stamped

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "VerdictLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rotation and recovery.
    # ------------------------------------------------------------------ #
    def _open_active(self) -> None:
        self._fd = os.open(
            self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        self._size = os.fstat(self._fd).st_size

    def _rotate(self) -> None:
        """Shift generations up, retire the oldest, start a fresh file."""
        os.close(self._fd)
        self._fd = None
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{index}")
            if source.exists():
                source.rename(self.path.with_name(f"{self.path.name}.{index + 1}"))
        self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self.rotations += 1
        self._open_active()

    def _repair_torn_tail(self) -> None:
        """Drop an unterminated final line left by a mid-append crash.

        The descriptor is ``O_APPEND``: without this repair, a reopened
        ledger would write its next record onto the *same line* as the
        torn tail, turning a recoverable crash artefact into a corrupt
        (complete) line that fails replay.  The torn record was never
        acknowledged, so dropping it loses nothing.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(data.rfind(b"\n") + 1)

    def _recover_next_sequence(self) -> int:
        """Continue the sequence of an existing ledger chain after re-open.

        Scans the chain newest-first and returns one past the last valid
        record's sequence (0 for a fresh ledger).  A truncated final line
        -- the one defect a crash can leave -- is skipped, matching the
        reader's recovery rule.
        """
        for file in reversed(ledger_files(self.path)):
            last: Optional[int] = None
            for record, truncated in _iter_file(file, tolerate_tail=True):
                if not truncated:
                    last = record.sequence
            if last is not None:
                return last + 1
        return 0


# --------------------------------------------------------------------- #
# Read / replay side.
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LedgerReplay:
    """The validated contents of one ledger chain."""

    records: tuple[EvidenceRecord, ...]
    files: tuple[Path, ...]
    truncated_lines: int = 0

    def for_mac(self, mac: str) -> tuple[EvidenceRecord, ...]:
        """Every record about one device, in append order."""
        return tuple(record for record in self.records if record.mac == mac)


def _iter_file(
    file: Path, tolerate_tail: bool
) -> Iterator[tuple[Optional[EvidenceRecord], bool]]:
    """Yield ``(record, truncated)`` pairs for one ledger file.

    A decode failure on a complete (newline-terminated) line always
    raises -- rotated files are written whole lines at a time, so a bad
    line there is corruption, not a crash artefact.  With
    ``tolerate_tail``, a final line that is missing its newline *and*
    fails to decode yields the single marker ``(None, True)`` instead:
    exactly the state a mid-append crash leaves behind.
    """
    text = file.read_text(encoding="utf-8")
    if not text:
        return
    terminated = text.endswith("\n")
    lines = text.splitlines()
    for index, line in enumerate(lines):
        is_unterminated_tail = index == len(lines) - 1 and not terminated
        try:
            yield decode_line(line), False
        except LedgerError:
            if tolerate_tail and is_unterminated_tail:
                yield None, True
                return
            raise LedgerError(
                f"{file.name}:{index + 1}: invalid ledger record: {line[:120]!r}"
            ) from None


def replay_ledger(path: Union[str, Path]) -> LedgerReplay:
    """Validate and replay a whole ledger chain (rotated files included).

    Guarantees on return: every record decoded as schema v1, and sequence
    numbers strictly increase across the chain.  The only tolerated
    defect is a truncated final line of the most recent file (a crash
    mid-append); it is dropped and counted in ``truncated_lines``.
    """
    files = ledger_files(path)
    if not files:
        raise LedgerError(f"no ledger found at {path}")
    records: list[EvidenceRecord] = []
    truncated = 0
    previous: Optional[int] = None
    for file_index, file in enumerate(files):
        is_last_file = file_index == len(files) - 1
        for record, was_truncated in _iter_file(file, tolerate_tail=is_last_file):
            if was_truncated:
                truncated += 1
                break
            if previous is not None and record.sequence <= previous:
                raise LedgerError(
                    f"{file.name}: sequence {record.sequence} does not increase "
                    f"monotonically (previous record was {previous})"
                )
            previous = record.sequence
            records.append(record)
    return LedgerReplay(
        records=tuple(records), files=tuple(files), truncated_lines=truncated
    )
