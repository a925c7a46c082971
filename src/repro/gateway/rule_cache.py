"""The enforcement-rule cache of the Security Gateway.

The paper stores enforcement rules in a hash-table structure keyed by
device MAC (Fig. 2), so that the per-flow lookup cost stays constant as
the cache grows.  This class is exactly that table, with the counters the
observability hub reads.  A rule leaves it only when its device leaves
the gateway (:meth:`SecurityGateway.disconnect_device
<repro.gateway.security_gateway.SecurityGateway.disconnect_device>`), so
the cache never holds a rule for a device the gateway has forgotten, nor
forgets one whose device is still connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gateway.enforcement import EnforcementRule
from repro.net.addresses import MACAddress


@dataclass
class EnforcementRuleCache:
    """A hash table of per-device enforcement rules, keyed by device MAC."""

    _rules: dict[MACAddress, EnforcementRule] = field(default_factory=dict)
    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    replacements: int = 0

    def store(self, rule: EnforcementRule) -> None:
        """Insert or replace the rule of a device.

        A replacement (rule upgrade of an already-cached device) is
        counted under ``replacements``, not ``insertions`` -- the latter
        tracks cache growth, and conflating the two overstated it.
        """
        if rule.device_mac in self._rules:
            self.replacements += 1
        else:
            self.insertions += 1
        self._rules[rule.device_mac] = rule

    def remove(self, mac: MACAddress) -> bool:
        """Remove the rule of a disconnected device; True when one existed."""
        return self._rules.pop(mac, None) is not None

    def lookup(self, mac: MACAddress) -> Optional[EnforcementRule]:
        """O(1) lookup of the rule governing ``mac`` (None on miss)."""
        self.lookups += 1
        rule = self._rules.get(mac)
        if rule is not None:
            self.hits += 1
        return rule

    def __contains__(self, mac: object) -> bool:
        return mac in self._rules

    def __len__(self) -> int:
        return len(self._rules)
