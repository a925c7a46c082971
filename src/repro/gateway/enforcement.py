"""Enforcement rules and per-device records kept by the Security Gateway."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import EnforcementError
from repro.net.addresses import MACAddress
from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.security_service.isolation import IsolationLevel


class NetworkOverlay(str, enum.Enum):
    """The two virtual network overlays of the mitigation design (Sect. III-C)."""

    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"

    @classmethod
    def for_isolation_level(cls, level: IsolationLevel) -> "NetworkOverlay":
        """Trusted devices join the trusted overlay; everything else is untrusted."""
        return cls.TRUSTED if level is IsolationLevel.TRUSTED else cls.UNTRUSTED


@dataclass(frozen=True)
class EnforcementRule:
    """A per-device enforcement rule (Fig. 2 of the paper).

    Rules are keyed by the device's MAC address (IoT devices are assumed to
    use static MACs).  For the *restricted* level the rule carries the set
    of permitted remote IP addresses through which the device may reach its
    vendor cloud.  ``rule_hash`` is the identifier under which the rule is
    stored in the gateway's rule cache.
    """

    device_mac: MACAddress
    isolation_level: IsolationLevel
    allowed_destinations: tuple[str, ...] = ()
    device_type: str = "unknown"
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.isolation_level is IsolationLevel.TRUSTED and self.allowed_destinations:
            raise EnforcementError("trusted devices do not carry destination allow-lists")

    @property
    def rule_hash(self) -> str:
        """Stable hash used as the cache key of this rule (cf. Fig. 2)."""
        digest = hashlib.sha1(
            f"{self.device_mac}|{self.isolation_level.value}|{','.join(self.allowed_destinations)}".encode()
        )
        return digest.hexdigest()[:16]

    @property
    def estimated_size_bytes(self) -> int:
        """Approximate in-memory footprint of the cached rule."""
        return 96 + 18 * len(self.allowed_destinations)

    def permits_destination(self, destination_ip: str) -> bool:
        """True when a restricted device may contact ``destination_ip``."""
        return destination_ip in self.allowed_destinations

    # ------------------------------------------------------------------ #
    # Translation into switch flow rules.
    # ------------------------------------------------------------------ #
    def to_flow_rules(self, priority_base: int = 100) -> list[FlowRule]:
        """Render the enforcement rule into OpenFlow-style switch rules.

        The translation mirrors Sect. V: trusted devices get a blanket
        forward rule; restricted devices get one forward rule per permitted
        destination plus a device-scoped drop; strict devices get only the
        device-scoped drop (local overlay traffic is authorised by the
        gateway module itself, which knows overlay membership).
        """
        cookie = f"enforce-{self.device_mac}"
        rules: list[FlowRule] = []
        if self.isolation_level is IsolationLevel.TRUSTED:
            rules.append(
                FlowRule(
                    match=FlowMatch(src_mac=self.device_mac),
                    action=FlowAction.FORWARD,
                    priority=priority_base,
                    cookie=cookie,
                )
            )
            return rules
        for destination in self.allowed_destinations:
            rules.append(
                FlowRule(
                    match=FlowMatch(src_mac=self.device_mac, dst_ip=destination),
                    action=FlowAction.FORWARD,
                    priority=priority_base + 10,
                    cookie=cookie,
                )
            )
        rules.append(
            FlowRule(
                match=FlowMatch(src_mac=self.device_mac),
                action=FlowAction.SEND_TO_CONTROLLER,
                priority=priority_base,
                cookie=cookie,
            )
        )
        return rules


@dataclass
class DeviceRecord:
    """Everything the Security Gateway knows about one connected device."""

    mac: MACAddress
    ip_address: Optional[str] = None
    device_type: str = "unknown"
    isolation_level: IsolationLevel = IsolationLevel.STRICT
    overlay: NetworkOverlay = NetworkOverlay.UNTRUSTED
    enforcement_rule: Optional[EnforcementRule] = None
    connected_at: float = 0.0
    last_seen_at: float = 0.0
    vulnerability_count: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def is_identified(self) -> bool:
        return self.device_type != "unknown"

    def touch(self, timestamp: float) -> None:
        """Record that traffic from the device was seen at ``timestamp``."""
        self.last_seen_at = max(self.last_seen_at, timestamp)
