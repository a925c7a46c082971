"""Batch identification dispatch with an LRU result cache.

Completed fingerprints are staged in a :class:`BoundedQueue` and handed to
the identifier ``max_batch`` at a time.  Two distinct effects are at work,
and it is worth being precise about which buys what:

* *Batching* shapes the work and also removes it: identification runs at
  controlled moments in bulk, and
  :meth:`~repro.identification.identifier.DeviceTypeIdentifier.identify_many`
  runs each stage once per batch -- one descent of the bank's fused
  forest stack (:mod:`repro.ml.compiled`) for the whole
  ``(batch x device-types)`` matrix, then one edit-distance kernel call
  over every (fingerprint, reference) pair the batch needs.  ``max_batch``
  therefore tunes both latency *and* per-fingerprint identification
  cost, and the bounded queue in front of the dispatcher is where
  overload policy (drop/block) and load shedding live.
* The *LRU result cache*, keyed by the fingerprint's content hash, removes
  repeat work outright: a second device of an identical model skips
  classification and discrimination entirely -- the dominant cost of the
  paper's Table IV.

A queued fingerprint waits at most :data:`MAX_LINGER_SECONDS` of stream
time for its batch to fill; then :meth:`BatchDispatcher.poll` runs the
partial batch.  It is a constant, not a knob.  One second trades more,
smaller identify calls for sooner verdicts: an identify call's fixed
cost is small enough that the extra calls cost no throughput, and no
verdict depends on where a batch boundary falls.  A batch starts only
on stream content (a full queue, or a window end past the linger
deadline), never on wall time, so ledgers stay deterministic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.exceptions import SimulationError
from repro.features.fingerprint import Fingerprint, fingerprint_key
from repro.identification.identifier import DeviceTypeIdentifier, IdentificationResult
from repro.identification.lifecycle import CacheEpoch
from repro.net.addresses import MACAddress
from repro.streaming.assembler import ReadyFingerprint
from repro.streaming.backpressure import BackpressurePolicy, BoundedQueue, Offer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.hub import Observability

#: The result cache's key: a content hash of the fingerprint matrix (MAC
#: and label excluded).  Canonically defined as
#: :func:`repro.features.fingerprint.fingerprint_key` so the autopilot's
#: unknown-model cluster detection, the discrimination stage's
#: deterministic reference draw and this cache all agree on what "the
#: same model performing the same setup" means; re-exported here under
#: its historical streaming-layer name.
#:
#: Because the discrimination stage draws its references from this same
#: content hash, a cached verdict is not merely *plausibly* fresh -- for
#: an unchanged identifier revision it is provably equal to what
#: re-identifying the fingerprint would return (asserted by the
#: streaming test suite).
fingerprint_cache_key = fingerprint_key

#: Stream-seconds a queued fingerprint may wait before
#: :meth:`BatchDispatcher.poll` forces a partial batch.
MAX_LINGER_SECONDS = 1.0


class IdentificationCache:
    """A fixed-capacity LRU of fingerprint-hash -> identification result.

    Every entry is stamped with the generation of :attr:`epoch` current at
    insertion; a lookup that finds an entry from an older generation
    evicts it and reports a miss.  By default each cache has a private
    epoch (plain LRU semantics); sharing one
    :class:`~repro.identification.lifecycle.CacheEpoch` across caches lets
    the lifecycle coordinator invalidate all of them with a single bump --
    stale verdicts become unreachable even if an explicit :meth:`clear`
    never reaches this cache.

    Example:
        >>> from repro.identification.identifier import IdentificationResult
        >>> cache = IdentificationCache(capacity=2)
        >>> cache.put(b"key", IdentificationResult(device_type="Aria",
        ...                                        matched_types=("Aria",)))
        >>> cache.get(b"key").device_type
        'Aria'
        >>> cache.epoch.bump()  # a device-type was learned: all stale
        1
        >>> cache.get(b"key") is None
        True
    """

    def __init__(self, capacity: int = 512, epoch: Optional[CacheEpoch] = None):
        if capacity <= 0:
            raise SimulationError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.epoch = epoch if epoch is not None else CacheEpoch()
        self.hits = 0
        self.misses = 0
        self.stale_rejections = 0
        self._entries: OrderedDict[bytes, tuple[int, IdentificationResult]] = OrderedDict()

    def _fresh(self, key: bytes) -> Optional[IdentificationResult]:
        """The entry's result if it is from the current generation, else None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        generation, result = entry
        if generation != self.epoch.generation:
            del self._entries[key]
            self.stale_rejections += 1
            return None
        return result

    def get(self, key: bytes) -> Optional[IdentificationResult]:
        result = self._fresh(key)
        if result is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return result

    def peek(self, key: bytes) -> Optional[IdentificationResult]:
        """Read an entry without touching the hit/miss counters or LRU order.

        Used by the batch path to pick up results that were cached after a
        fingerprint was already queued as a miss; counting those as hits
        would double-book the lookup the submit path already recorded.
        Stale-generation entries are still evicted and withheld.
        """
        return self._fresh(key)

    def put(self, key: bytes, result: IdentificationResult) -> None:
        self._entries[key] = (self.epoch.generation, result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (call after the identifier learns new types)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class IdentifiedDevice:
    """One device leaving the pipeline: its fingerprint plus the verdict."""

    mac: MACAddress
    fingerprint: Fingerprint
    result: IdentificationResult
    from_cache: bool = False
    completion_reason: str = ""


@dataclass
class DispatcherStats:
    """Counters of the dispatch stage."""

    submitted: int = 0
    dropped: int = 0
    batches: int = 0
    batched: int = 0
    identified: int = 0
    identify_seconds: float = 0.0
    last_batch_seconds: float = 0.0
    largest_batch: int = 0
    linger_flushes: int = 0
    swaps: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.batched / self.batches if self.batches else 0.0


class BatchDispatcher:
    """Groups ready fingerprints and identifies them per batch.

    Attributes:
        identifier: the trained two-stage identifier to run.
        max_batch: fingerprints identified per classifier-bank invocation;
            reaching this count triggers a drain automatically.
        queue: the bounded staging queue (its policy decides drop vs block).
        cache: optional LRU of previous results; ``None`` disables caching.
        observability: optional hub; when attached, the dispatcher's
            counters become snapshot sources and every identify batch
            lands in the ``dispatcher.identify_batch_seconds`` histogram,
            its two stages in ``dispatcher.classify_batch_seconds`` and
            ``dispatcher.discriminate_batch_seconds``.
    """

    def __init__(
        self,
        identifier: DeviceTypeIdentifier,
        max_batch: int = 16,
        queue_capacity: int = 64,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        cache: Optional[IdentificationCache] = None,
        observability: Optional["Observability"] = None,
    ):
        if max_batch <= 0:
            raise SimulationError(f"max_batch must be positive, got {max_batch}")
        self.identifier = identifier
        self.max_batch = max_batch
        self.queue: BoundedQueue = BoundedQueue(capacity=queue_capacity, policy=policy)
        self.cache = cache
        self.stats = DispatcherStats()
        self.observability = observability
        if observability is not None:
            observability.register_dispatcher(self)

    # ------------------------------------------------------------------ #
    # Input side.
    # ------------------------------------------------------------------ #
    def submit(self, ready: ReadyFingerprint) -> list[IdentifiedDevice]:
        """Stage one fingerprint; returns any identifications this caused.

        A cache hit is answered immediately without touching the queue.  A
        miss is enqueued; when the queue holds a full batch (or must be
        drained to make room under the BLOCK policy) the batch runs and its
        results are returned.
        """
        self.stats.submitted += 1
        key: Optional[bytes] = None
        if self.cache is not None:
            key = fingerprint_cache_key(ready.fingerprint)
            cached = self.cache.get(key)
            if cached is not None:
                identified = IdentifiedDevice(
                    mac=ready.mac,
                    fingerprint=ready.fingerprint,
                    result=cached,
                    from_cache=True,
                    completion_reason=ready.reason,
                )
                self.stats.identified += 1
                return [identified]

        results: list[IdentifiedDevice] = []
        outcome = self.queue.offer((ready, key))
        if outcome is Offer.MUST_DRAIN:
            results.extend(self._run_batch())
            outcome = self.queue.offer((ready, key))
        if outcome is Offer.DROPPED:
            self.stats.dropped += 1
            return results
        if len(self.queue) >= self.max_batch:
            results.extend(self._run_batch())
        return results

    def swap_identifier(self, identifier: DeviceTypeIdentifier) -> DeviceTypeIdentifier:
        """Install a new identifier between batches (hot model swap).

        Fingerprints already staged in the queue are *not* dropped: they
        are identified by the next batch run, which uses the new
        identifier (and therefore stamps its verdicts with the new
        ``revision``).  Verdicts delivered before the swap keep the old
        revision.  Cache invalidation is the caller's responsibility --
        the fleet layer advances the shared
        :class:`~repro.identification.lifecycle.CacheEpoch` to the pushed
        bundle's watermark, which makes every pre-swap cache entry
        unreachable.  Returns the replaced identifier.
        """
        previous = self.identifier
        self.identifier = identifier
        self.stats.swaps += 1
        return previous

    def poll(self, now: float) -> list[IdentifiedDevice]:
        """Flush a partial batch if the oldest fingerprint lingered too long.

        ``now`` is stream time (the pipeline clock); "too long" is
        :data:`MAX_LINGER_SECONDS`.  This is what keeps a slow trickle of
        devices -- or a DROP-policy queue smaller than ``max_batch`` --
        from waiting for end-of-stream :meth:`drain`.
        """
        since = self.lingering_since()
        if since is None or now - since < MAX_LINGER_SECONDS:
            return []
        self.stats.linger_flushes += 1
        return self._run_batch()

    def lingering_since(self) -> Optional[float]:
        """Completion time of the oldest queued fingerprint (None when the
        queue is empty): :meth:`poll` flushes once ``now`` lies
        :data:`MAX_LINGER_SECONDS` past it."""
        oldest = self.queue.peek()
        return oldest[0].completed_at if oldest is not None else None

    def drain(self) -> list[IdentifiedDevice]:
        """Identify everything still queued (end of stream)."""
        results: list[IdentifiedDevice] = []
        while self.queue:
            results.extend(self._run_batch())
        return results

    # ------------------------------------------------------------------ #
    # Batch execution.
    # ------------------------------------------------------------------ #
    def _run_batch(self) -> list[IdentifiedDevice]:
        batch: list[tuple[ReadyFingerprint, Optional[bytes]]] = self.queue.pop_batch(self.max_batch)
        if not batch:
            return []
        # A result may have been cached after a member was queued as a miss
        # (an earlier batch identified the same model); serve those without
        # re-classifying.
        identified: list[IdentifiedDevice] = []
        pending: list[tuple[ReadyFingerprint, Optional[bytes]]] = []
        for ready, key in batch:
            cached = self.cache.peek(key) if self.cache is not None and key is not None else None
            if cached is not None:
                identified.append(
                    IdentifiedDevice(
                        mac=ready.mac,
                        fingerprint=ready.fingerprint,
                        result=cached,
                        from_cache=True,
                        completion_reason=ready.reason,
                    )
                )
                continue
            pending.append((ready, key))
        self.stats.identified += len(batch)
        if not pending:
            return identified

        # A burst of identical-model devices can land in one batch, where
        # every member misses the cache; classify each distinct fingerprint
        # once and share the result across the batch.
        unique: list[Fingerprint] = []
        slot_by_key: dict[bytes, int] = {}
        slots: list[int] = []
        for ready, key in pending:
            if key is not None and key in slot_by_key:
                slots.append(slot_by_key[key])
                continue
            if key is not None:
                slot_by_key[key] = len(unique)
            slots.append(len(unique))
            unique.append(ready.fingerprint)
        start = time.perf_counter()
        unique_outcomes = self.identifier.identify_many(unique)
        elapsed = time.perf_counter() - start
        self.stats.identify_seconds += elapsed
        self.stats.last_batch_seconds = elapsed
        if self.observability is not None:
            self.observability.observe_identify_batch(
                elapsed,
                sum(result.classification_seconds for result in unique_outcomes),
                sum(result.discrimination_seconds for result in unique_outcomes),
            )
        self.stats.batches += 1
        self.stats.batched += len(pending)
        self.stats.largest_batch = max(self.stats.largest_batch, len(pending))

        outcomes = [unique_outcomes[slot] for slot in slots]
        for (ready, key), result in zip(pending, outcomes):
            # "unknown" verdicts are never cached: the operator may register
            # the missing device-type at any time (add_device_type), and a
            # cached unknown would pin every later device of that model to
            # strict isolation with no way to recover.
            if self.cache is not None and key is not None and not result.is_new_device_type:
                self.cache.put(key, result)
            identified.append(
                IdentifiedDevice(
                    mac=ready.mac,
                    fingerprint=ready.fingerprint,
                    result=result,
                    completion_reason=ready.reason,
                )
            )
        return identified

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache is not None else 0.0
