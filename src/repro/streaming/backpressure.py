"""Bounded queueing and overload policies for the streaming pipeline.

When fingerprints complete faster than the classifier bank can identify
them, the dispatcher's queue fills and something has to give.  Two policies
are offered, matching the classic stream-processing trade-off:

* ``DROP`` -- load shedding: the newest item is rejected and counted.
  Appropriate when identification is best-effort (a dropped device is
  simply re-profiled the next time it speaks).
* ``BLOCK`` -- backpressure proper: the producer must drain the queue
  (run a batch) before the item is accepted.  Nothing is lost, at the cost
  of stalling ingestion -- the behaviour a Security Gateway needs, since an
  unidentified device would otherwise stay unconstrained.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Generic, Optional, TypeVar

from repro.exceptions import SimulationError

T = TypeVar("T")


class BackpressurePolicy(Enum):
    """What a full queue does with the next item."""

    DROP = "drop"
    BLOCK = "block"


class Offer(Enum):
    """Outcome of offering one item to a bounded queue."""

    ACCEPTED = "accepted"
    DROPPED = "dropped"
    #: The queue is full under the BLOCK policy: the caller must drain
    #: (consume a batch) and re-offer the item.
    MUST_DRAIN = "must_drain"


@dataclass
class QueueStats:
    """Counters of one bounded queue."""

    offered: int = 0
    accepted: int = 0
    dropped: int = 0
    blocked: int = 0
    high_watermark: int = 0


@dataclass
class BoundedQueue(Generic[T]):
    """A FIFO with a hard capacity and an explicit overload policy."""

    capacity: int = 64
    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    stats: QueueStats = field(default_factory=QueueStats)
    _items: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulationError(f"queue capacity must be positive, got {self.capacity}")

    def offer(self, item: T) -> Offer:
        """Try to enqueue ``item`` under the configured policy."""
        self.stats.offered += 1
        if len(self._items) >= self.capacity:
            if self.policy is BackpressurePolicy.DROP:
                self.stats.dropped += 1
                return Offer.DROPPED
            self.stats.blocked += 1
            return Offer.MUST_DRAIN
        self._items.append(item)
        self.stats.accepted += 1
        self.stats.high_watermark = max(self.stats.high_watermark, len(self._items))
        return Offer.ACCEPTED

    def pop_batch(self, limit: Optional[int] = None) -> list[T]:
        """Dequeue up to ``limit`` items (all of them when ``limit`` is None)."""
        count = len(self._items) if limit is None else min(limit, len(self._items))
        return [self._items.popleft() for _ in range(count)]

    def peek(self) -> Optional[T]:
        """The oldest queued item, without removing it."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)
