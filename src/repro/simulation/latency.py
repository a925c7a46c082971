"""Latency model of the lab network paths (Fig. 4 / Table V of the paper).

The model decomposes the end-to-end latency of a probe into:

* the per-hop propagation/queueing base latency of the path (wireless hops
  dominate; reaching a remote server adds WAN latency),
* a load-dependent component growing mildly with the number of concurrent
  flows traversing the gateway, and
* the gateway processing cost, which the Security Gateway adds per packet
  (larger when filtering is enabled because every packet incurs an
  enforcement-rule lookup), given by :func:`processing_delay_ms`.

Every number here is a model input, not a measurement: base latencies are
calibrated against Table V so that absolute numbers land in the same range,
and the gateway processing cost is a constant per traversal plus a lookup
cost that grows with the number of cached enforcement rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import SimulationError


class PathType(str, enum.Enum):
    """The network paths measured in Table V."""

    WIRELESS_TO_WIRELESS = "wireless_to_wireless"
    WIRELESS_TO_LOCAL_SERVER = "wireless_to_local_server"
    WIRELESS_TO_REMOTE_SERVER = "wireless_to_remote_server"
    WIRED_TO_WIRED = "wired_to_wired"


#: Mean one-way base latencies (milliseconds) per path, calibrated to Table V.
_BASE_LATENCY_MS: dict[PathType, tuple[float, float]] = {
    # (mean, standard deviation)
    PathType.WIRELESS_TO_WIRELESS: (25.5, 1.5),
    PathType.WIRELESS_TO_LOCAL_SERVER: (16.8, 1.2),
    PathType.WIRELESS_TO_REMOTE_SERVER: (20.0, 3.0),
    PathType.WIRED_TO_WIRED: (1.2, 0.2),
}


#: Modelled per-traversal packet processing cost of the gateway datapath on
#: the Raspberry Pi 2 reference platform, in milliseconds.  The forwarding
#: base cost is paid regardless of filtering; the lookup cost is paid only
#: when the enforcement (filtering) mechanism is enabled and stands for the
#: hash-table rule-cache lookup plus the flow-rule match.  Values are
#: calibrated so that the relative overheads land in the range of Table VI.
BASE_FORWARDING_COST_MS = 0.90
FILTERING_LOOKUP_COST_MS = 0.38
#: Marginal lookup cost per thousand cached rules: the cache is a hash
#: table, so growth is intentionally tiny (the paper's design goal).
FILTERING_COST_PER_1000_RULES_MS = 0.004


def processing_delay_ms(filtering_enabled: bool, rule_count: int) -> float:
    """Modelled per-traversal gateway processing cost, in milliseconds.

    ``rule_count`` is the number of enforcement rules the gateway caches;
    it only matters when ``filtering_enabled``.
    """
    if not filtering_enabled:
        return BASE_FORWARDING_COST_MS
    lookup_cost = FILTERING_LOOKUP_COST_MS + FILTERING_COST_PER_1000_RULES_MS * (
        rule_count / 1000.0
    )
    return BASE_FORWARDING_COST_MS + lookup_cost


@dataclass
class LatencyModel:
    """Samples end-to-end latencies for probes through the Security Gateway.

    Attributes:
        per_flow_load_ms: additional delay per concurrent flow already being
            forwarded by the gateway (queueing at the AP / CPU contention).
        seed: RNG seed for reproducible measurement campaigns.
        device_offsets_ms: per-device radio-quality offsets; Table V shows
            D1/D2/D3 experience slightly different baseline latencies.
    """

    per_flow_load_ms: float = 0.012
    seed: Optional[int] = None
    device_offsets_ms: dict[str, float] = field(default_factory=dict)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def sample(
        self,
        path: PathType,
        gateway_processing_ms: float = 0.0,
        concurrent_flows: int = 0,
        source_device: Optional[str] = None,
    ) -> float:
        """Sample one probe latency (milliseconds).

        ``gateway_processing_ms`` is the measured per-packet processing time
        of the Security Gateway (rule lookup + forwarding decision); the
        probe traverses the gateway twice (request and reply), so it is
        charged twice.
        """
        if concurrent_flows < 0:
            raise SimulationError("concurrent_flows cannot be negative")
        mean, stdev = _BASE_LATENCY_MS[path]
        base = float(self._rng.normal(mean, stdev))
        base += self.device_offsets_ms.get(source_device or "", 0.0)
        load = self.per_flow_load_ms * concurrent_flows * float(self._rng.uniform(0.6, 1.4))
        total = base + load + 2.0 * gateway_processing_ms
        return max(0.1, total)

    def sample_many(
        self,
        path: PathType,
        iterations: int,
        gateway_processing_ms: float = 0.0,
        concurrent_flows: int = 0,
        source_device: Optional[str] = None,
    ) -> np.ndarray:
        """Sample ``iterations`` probe latencies (Table V uses 15 per pair)."""
        if iterations <= 0:
            raise SimulationError("iterations must be positive")
        return np.array(
            [
                self.sample(
                    path,
                    gateway_processing_ms=gateway_processing_ms,
                    concurrent_flows=concurrent_flows,
                    source_device=source_device,
                )
                for _ in range(iterations)
            ]
        )
