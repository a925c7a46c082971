"""Fleet health: one view over every member's metrics snapshot.

:class:`FleetHealthView` does no instrumentation of its own -- each
gateway's :class:`~repro.obs.hub.Observability` hub already surfaces the
three signals that matter for convergence (the served cache epoch, the
identification-cache hit rate, the quarantine depth), so the view just
reads ``snapshot()`` per member and folds the rows into a
:class:`ConvergenceReport` against the channel watermark: who lags, by
how many epochs, and whether the fleet has converged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.channel import FleetCoordinator


@dataclass(frozen=True)
class GatewayHealth:
    """One member's convergence-relevant vitals, read from its snapshot."""

    name: str
    epoch: int
    revision: int
    lag: int
    applied: int
    duplicates: int
    cache_hit_rate: float
    quarantine_depth: int

    def describe(self) -> str:
        state = "converged" if self.lag == 0 else f"lagging by {self.lag} epoch(s)"
        return (
            f"{self.name}: epoch {self.epoch} rev {self.revision} ({state}), "
            f"cache hit rate {self.cache_hit_rate:.2f}, "
            f"quarantine depth {self.quarantine_depth}"
        )


@dataclass(frozen=True)
class ConvergenceReport:
    """The fleet against the channel watermark, member by member."""

    target_epoch: int
    rows: tuple[GatewayHealth, ...]
    converged: bool
    laggards: tuple[str, ...]
    max_lag: int

    def describe(self) -> str:
        """A human-readable runbook rendering (one line per member)."""
        verdict = (
            "CONVERGED" if self.converged
            else f"LAGGING (max lag {self.max_lag}, laggards: {', '.join(self.laggards)})"
        )
        lines = [f"fleet @ epoch {self.target_epoch}: {verdict}"]
        lines.extend(f"  {row.describe()}" for row in self.rows)
        return "\n".join(lines)


class FleetHealthView:
    """Aggregates per-member snapshots into a convergence report.

    The view reads ``cache_epoch.generation`` /
    ``identification_cache.hit_rate`` / ``quarantine.size`` straight out
    of each gateway's unified snapshot rather than poking components.
    """

    def __init__(self, coordinator: FleetCoordinator):
        self.coordinator = coordinator

    def collect(self) -> ConvergenceReport:
        watermark = self.coordinator.watermark
        target = watermark.epoch if watermark is not None else 0
        rows = []
        for name, subscriber in sorted(self.coordinator.members.items()):
            handle = subscriber.handle
            snapshot = handle.snapshot(include_timings=False)
            epoch = int(snapshot["cache_epoch.generation"])
            rows.append(
                GatewayHealth(
                    name=name,
                    epoch=epoch,
                    revision=handle.revision,
                    lag=max(0, target - epoch),
                    applied=subscriber.applied,
                    duplicates=subscriber.duplicates,
                    cache_hit_rate=float(snapshot["identification_cache.hit_rate"]),
                    quarantine_depth=int(snapshot["quarantine.size"]),
                )
            )
        laggards = tuple(row.name for row in rows if row.lag > 0)
        max_lag = max((row.lag for row in rows), default=0)
        return ConvergenceReport(
            target_epoch=target,
            rows=tuple(rows),
            converged=bool(rows) and not laggards,
            laggards=laggards,
            max_lag=max_lag,
        )
