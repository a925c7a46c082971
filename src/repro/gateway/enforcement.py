"""Enforcement rules and per-device records kept by the Security Gateway."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.exceptions import EnforcementError
from repro.net.addresses import MACAddress
from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.security_service.isolation import IsolationLevel

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.security_service.service import SecurityAssessment


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
    vendor cloud.  The gateway's rule cache holds the one copy of each
    device's rule.
    """

    device_mac: MACAddress
    isolation_level: IsolationLevel
    allowed_destinations: tuple[str, ...] = ()
    device_type: str = "unknown"
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.isolation_level is IsolationLevel.TRUSTED and self.allowed_destinations:
            raise EnforcementError("trusted devices do not carry destination allow-lists")

    def permits_destination(self, destination_ip: str) -> bool:
        """True when a restricted device may contact ``destination_ip``."""
        return destination_ip in self.allowed_destinations


@dataclass(frozen=True)
class FlowRuleTemplate:
    """One switch rule of an isolation level, with the device MAC left open.

    ``match`` carries every field but ``src_mac``; :meth:`stamp` narrows
    it to one device and names the rule with the device's cookie.
    """

    match: FlowMatch
    action: FlowAction
    priority: int

    def stamp(self, mac: MACAddress, cookie: str) -> FlowRule:
        """The template's rule for one device."""
        return FlowRule(self.match.with_source(mac), self.action, self.priority, cookie)


def flow_rule_templates(
    isolation_level: IsolationLevel,
    allowed_destinations: tuple[str, ...] = (),
    priority_base: int = 100,
) -> tuple[FlowRuleTemplate, ...]:
    """Render an isolation level into OpenFlow-style switch rule templates.

    The translation mirrors Sect. V: trusted devices get a blanket
    forward rule; restricted devices get one forward rule per permitted
    destination plus a device-scoped fallback to the controller; strict
    devices get only the device-scoped fallback (local overlay traffic is
    authorised by the gateway module itself, which knows overlay
    membership).

    >>> [(t.action.value, t.priority, t.match.dst_ip) for t in
    ...  flow_rule_templates(IsolationLevel.RESTRICTED, ("52.1.1.1",))]
    [('forward', 110, '52.1.1.1'), ('send_to_controller', 100, None)]
    """
    if isolation_level is IsolationLevel.TRUSTED:
        return (FlowRuleTemplate(FlowMatch(), FlowAction.FORWARD, priority_base),)
    forwards = tuple(
        FlowRuleTemplate(FlowMatch(dst_ip=destination), FlowAction.FORWARD, priority_base + 10)
        for destination in allowed_destinations
    )
    return forwards + (
        FlowRuleTemplate(FlowMatch(), FlowAction.SEND_TO_CONTROLLER, priority_base),
    )


#: Vulnerabilities at or above this CVSS-like severity trigger a user
#: notification (mitigation strategy 3: some devices cannot be adequately
#: contained by network-level measures alone).
NOTIFICATION_SEVERITY_THRESHOLD = 9.0


@dataclass(frozen=True)
class EnforcementPlan:
    """What the gateway enforces for one assessment, with the device MAC left open.

    Derived once per :class:`~repro.security_service.service.SecurityAssessment`
    (:func:`enforcement_plan`), so a verdict served from the security
    service's per-type table only stamps its MAC into the plan: the
    record fields, the rule-cache entry (:meth:`rule_for`), the switch
    rules (:attr:`flow_rules`) and the critical-vulnerability notices.
    """

    device_type: str
    isolation_level: IsolationLevel
    overlay: NetworkOverlay
    vulnerability_count: int
    flow_rules: tuple[FlowRuleTemplate, ...]
    #: CVE ids at or above :data:`NOTIFICATION_SEVERITY_THRESHOLD`, in
    #: assessment order.
    critical_vulnerabilities: tuple[str, ...]
    #: The enforcement rule's allow-list (empty unless restricted).
    allowed_destinations: tuple[str, ...] = ()

    @classmethod
    def of(cls, assessment: "SecurityAssessment") -> "EnforcementPlan":
        level = assessment.isolation_level
        allowed = assessment.allowed_destinations if level is IsolationLevel.RESTRICTED else ()
        return cls(
            device_type=assessment.device_type,
            isolation_level=level,
            overlay=NetworkOverlay.for_isolation_level(level),
            vulnerability_count=len(assessment.vulnerabilities),
            flow_rules=flow_rule_templates(level, allowed),
            critical_vulnerabilities=tuple(
                vulnerability.cve_id
                for vulnerability in assessment.vulnerabilities
                if vulnerability.severity >= NOTIFICATION_SEVERITY_THRESHOLD
            ),
            allowed_destinations=allowed,
        )

    def rule_for(self, mac: MACAddress, created_at: float) -> EnforcementRule:
        """The device's enforcement rule.

        Built without ``__init__``, whose one check -- a trusted rule
        carries no allow-list -- holds by construction: only a restricted
        plan has destinations.  Fields are set in ``__init__``'s order, so
        the rule keeps the compact attribute layout the datapath reads
        fast.
        """
        rule = object.__new__(EnforcementRule)
        set_field = object.__setattr__
        set_field(rule, "device_mac", mac)
        set_field(rule, "isolation_level", self.isolation_level)
        set_field(rule, "allowed_destinations", self.allowed_destinations)
        set_field(rule, "device_type", self.device_type)
        set_field(rule, "created_at", created_at)
        return rule


def enforcement_plan(assessment: "SecurityAssessment") -> EnforcementPlan:
    """The assessment's :class:`EnforcementPlan`, derived on first use.

    Cached on the assessment, so it lives exactly as long as the
    assessment does (the security service keeps one per device-type and
    model revision).
    """
    plan = getattr(assessment, "_enforcement_plan", None)
    if plan is None:
        plan = EnforcementPlan.of(assessment)
        object.__setattr__(assessment, "_enforcement_plan", plan)
    return plan


@dataclass
class DeviceRecord:
    """What the Security Gateway knows about one connected device.

    Its enforcement rule lives in the gateway's rule cache, under the
    same MAC.
    """

    mac: MACAddress
    ip_address: Optional[str] = None
    device_type: str = "unknown"
    isolation_level: IsolationLevel = IsolationLevel.STRICT
    overlay: NetworkOverlay = NetworkOverlay.UNTRUSTED
    connected_at: float = 0.0
    last_seen_at: float = 0.0
    vulnerability_count: int = 0

    @property
    def is_identified(self) -> bool:
        return self.device_type != "unknown"

    def touch(self, timestamp: float) -> None:
        """Record that traffic from the device was seen at ``timestamp``."""
        self.last_seen_at = max(self.last_seen_at, timestamp)
