"""The Security Gateway: the SDN module that enforces per-device isolation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.exceptions import EnforcementError
from repro.gateway.enforcement import (
    DeviceRecord,
    EnforcementRule,
    NetworkOverlay,
    enforcement_plan,
)
from repro.gateway.rule_cache import EVICT_STALE, EnforcementRuleCache
from repro.gateway.wireless import WPSKeyManager
from repro.net.addresses import MACAddress
from repro.net.packet import Packet
from repro.sdn.controller import SdnController
from repro.sdn.openflow import FlowAction
from repro.sdn.switch import OpenVSwitch, SwitchPort
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import SecurityAssessment
from repro.simulation.clock import SimulatedClock

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.identification.lifecycle import LifecycleCoordinator

@dataclass(frozen=True)
class AuthorizationDecision:
    """The gateway's verdict on one packet."""

    allowed: bool
    reason: str
    rule: Optional[EnforcementRule] = None

    def __bool__(self) -> bool:
        return self.allowed


@dataclass
class SecurityGateway:
    """The software-defined Security Gateway of Fig. 1.

    The gateway applies the :class:`IoTSecurityService` assessment of each
    identified device (:meth:`apply_assessment`, driven by the streaming
    pipeline's :class:`~repro.streaming.pipeline.GatewayEnforcementSink`),
    generates per-device enforcement rules, and filters every subsequent
    packet according to the device's isolation level and overlay membership.

    Attributes:
        filtering_enabled: when False the gateway forwards everything
            (the "no filtering" baseline of the paper's evaluation).
        clock: simulated time source.
    """

    filtering_enabled: bool = True
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    controller: SdnController = field(default_factory=SdnController)
    switch: OpenVSwitch = field(default_factory=OpenVSwitch)
    rule_cache: EnforcementRuleCache = field(default_factory=EnforcementRuleCache)
    wps: WPSKeyManager = field(default_factory=WPSKeyManager)

    name: str = "iot-sentinel-gateway"
    lifecycle: Optional["LifecycleCoordinator"] = None
    devices: dict[MACAddress, DeviceRecord] = field(default_factory=dict)
    ip_to_mac: dict[str, MACAddress] = field(default_factory=dict)
    notifications: list[str] = field(default_factory=list)
    packets_allowed: int = 0
    packets_blocked: int = 0
    _evict_hook: Optional[Callable[[MACAddress, str], None]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.switch.name not in self.controller.switches:
            self.controller.attach_switch(self.switch)
        if not any(module.name == self.name for module in self.controller.modules):
            self.controller.register_module(self)
        self._wire_evictions()

    # ------------------------------------------------------------------ #
    # Device lifecycle.
    # ------------------------------------------------------------------ #
    def connect_device(
        self,
        mac: MACAddress,
        ip_address: Optional[str] = None,
        wireless: bool = True,
        port: SwitchPort = SwitchPort.WIFI,
    ) -> DeviceRecord:
        """Register a newly connected device (pre-identification state)."""
        record = self.devices.get(mac)
        if record is not None:
            return record
        return self._register(mac, ip_address, wireless, port)

    def _register(
        self,
        mac: MACAddress,
        ip_address: Optional[str],
        wireless: bool,
        port: SwitchPort,
        overlay: NetworkOverlay = NetworkOverlay.UNTRUSTED,
    ) -> DeviceRecord:
        """:meth:`connect_device` for a MAC known not to be connected; a
        wireless device is issued a PSK for ``overlay``."""
        now = self.clock.now()
        record = DeviceRecord(mac=mac, ip_address=ip_address, connected_at=now, last_seen_at=now)
        self.devices[mac] = record
        if ip_address:
            self.ip_to_mac[ip_address] = mac
        if wireless:
            self.wps.issue(mac, overlay=overlay, now=now)
        self.switch.learn_port(mac, port)
        return record

    def attach_lifecycle(self, coordinator: "LifecycleCoordinator") -> None:
        """Couple device departure into the online-learning lifecycle.

        After attachment, :meth:`disconnect_device` and the rule cache's
        idle-eviction path (``evict_stale``; the gateway's proxy for "no
        longer connected") both report the departed MAC to the
        coordinator, which drops it from the quarantine log and from any
        pending autopilot proposal -- a device that left the network is
        never re-identified, enforced or counted toward a learning
        cluster.

        A callback already on ``rule_cache.on_evict`` (e.g. a metrics
        hook, passed in with the cache or set later) keeps firing: the
        eviction wiring chains after it instead of replacing it.
        """
        self.lifecycle = coordinator
        self._wire_evictions()

    def _wire_evictions(self) -> None:
        """Route rule-cache evictions to :meth:`_on_rule_evicted`, after any hook already set."""
        existing = self.rule_cache.on_evict
        if existing is not None and existing is self._evict_hook:
            return
        hook = self._on_rule_evicted
        if existing is not None:

            def chained(mac: MACAddress, reason: str) -> None:
                existing(mac, reason)
                self._on_rule_evicted(mac, reason)

            hook = chained
        self.rule_cache.on_evict = self._evict_hook = hook

    def _on_rule_evicted(self, mac: MACAddress, reason: str) -> None:
        """Treat a stale eviction as departure: drop the flow rules, tell the lifecycle.

        Without the switch cleanup the flow table would keep forwarding
        for a device the rule cache no longer knows, and would never
        shrink under MAC churn.  Capacity (LRU) evictions are left alone:
        a rule squeezed out of a full cache may belong to a device that
        is still connected, so its flow rules and quarantine state stay.
        """
        if reason != EVICT_STALE:
            return
        self.switch.remove_rules(f"enforce-{mac}")
        if self.lifecycle is not None:
            self.lifecycle.note_disconnected(mac)

    def disconnect_device(self, mac: MACAddress) -> None:
        """Remove a device: rules evicted, credentials revoked, lifecycle told."""
        record = self.devices.pop(mac, None)
        if record is None:
            return
        # Only drop the IP mapping if it still belongs to this device: under
        # DHCP churn the lease may already have been reassigned to another
        # MAC, and popping unconditionally would evict the *new* owner.
        if record.ip_address and self.ip_to_mac.get(record.ip_address) == mac:
            self.ip_to_mac.pop(record.ip_address, None)
        self.rule_cache.remove(mac)
        self.switch.remove_rules(f"enforce-{mac}")
        self.wps.revoke(mac)
        if self.lifecycle is not None:
            self.lifecycle.note_disconnected(mac)

    def note_address_claim(
        self, mac: MACAddress, ip_address: Optional[str], now: float = 0.0
    ) -> DeviceRecord:
        """Track one source-address claim on the datapath (DHCP/ARP churn).

        Registers the device if needed, refreshes its last-seen stamp and
        keeps ``ip_to_mac`` coherent under lease churn: when a device shows
        up with a new address, the previous mapping is evicted *only if it
        still points at this device* -- another device may have claimed the
        old lease in the meantime, and its mapping must survive.  The
        streaming pipeline never calls this: callers that know a device's
        address (DHCP lease events, the scenario campaigns) report it here.
        """
        record = self.connect_device(mac)
        record.touch(now)
        if ip_address and ip_address != "0.0.0.0":
            previous_ip = record.ip_address
            if (
                previous_ip
                and previous_ip != ip_address
                and self.ip_to_mac.get(previous_ip) == mac
            ):
                del self.ip_to_mac[previous_ip]
            record.ip_address = ip_address
            self.ip_to_mac[ip_address] = mac
        return record

    # ------------------------------------------------------------------ #
    # Enforcement.
    # ------------------------------------------------------------------ #
    def apply_assessment(self, mac: MACAddress, assessment: SecurityAssessment) -> DeviceRecord:
        """Apply an IoTSSP assessment: cache the rule and program the switch.

        Everything that depends only on the assessment -- overlay, rule
        fields, switch rule templates, critical-vulnerability notices --
        comes from its :func:`~repro.gateway.enforcement.enforcement_plan`,
        derived once per assessment; this call stamps the device's MAC
        into it.  A device first seen in this verdict is registered with
        one PSK for the plan's overlay; one connected before its verdict
        is re-keyed when the plan moves it to the trusted overlay
        (Sect. VIII-A).
        """
        plan = enforcement_plan(assessment)
        record = self.devices.get(mac)
        if record is None:
            record = self._register(mac, None, True, SwitchPort.WIFI, overlay=plan.overlay)
        elif plan.isolation_level is IsolationLevel.TRUSTED and self.wps.credential_of(mac):
            self.wps.rekey(mac, overlay=NetworkOverlay.TRUSTED, now=self.clock.now())
        now = self.clock.now()
        record.device_type = plan.device_type
        record.isolation_level = plan.isolation_level
        record.overlay = plan.overlay
        record.vulnerability_count = plan.vulnerability_count

        rule = record.enforcement_rule = plan.rule_for(mac, now)
        self.rule_cache.store(rule, now=now)

        cookie = "enforce-" + str(mac)
        self.switch.remove_rules(cookie)
        if self.filtering_enabled:
            for template in plan.flow_rules:
                self.switch.install_rule(template.stamp(mac, cookie))

        for cve_id in plan.critical_vulnerabilities:
            self.notifications.append(
                f"device {mac} ({plan.device_type}) has a critical vulnerability "
                f"({cve_id}); consider removing it from the network"
            )
        return record

    # ------------------------------------------------------------------ #
    # Datapath: per-packet authorisation.
    # ------------------------------------------------------------------ #
    def _destination_record(self, packet: Packet) -> Optional[DeviceRecord]:
        record = self.devices.get(packet.dst_mac)
        if record is not None:
            return record
        if packet.dst_ip and packet.dst_ip in self.ip_to_mac:
            return self.devices.get(self.ip_to_mac[packet.dst_ip])
        return None

    def authorize(self, packet: Packet) -> AuthorizationDecision:
        """Decide whether a packet may be forwarded (Sect. V semantics).

        * trusted source: may reach trusted devices and the Internet, but
          not untrusted devices (the overlays are strictly separated);
        * restricted source: may reach untrusted devices and the remote
          destinations on its allow-list;
        * strict source: may only reach untrusted devices;
        * unidentified source: treated as strict while its setup traffic is
          still being profiled (broadcast/local infrastructure traffic is
          allowed so that setup itself can complete).
        """
        if not self.filtering_enabled:
            return AuthorizationDecision(allowed=True, reason="filtering disabled")

        source = self.devices.get(packet.src_mac)
        rule = self.rule_cache.lookup(packet.src_mac, now=self.clock.now())
        destination_record = self._destination_record(packet)
        destination_is_local = destination_record is not None or packet.dst_mac.is_broadcast or packet.dst_mac.is_multicast
        destination_ip = packet.dst_ip or ""

        if source is None or rule is None:
            # Unidentified device: allow local/broadcast traffic needed to
            # complete setup, block direct Internet access until assessed.
            if destination_is_local or not packet.has_ip:
                decision = AuthorizationDecision(allowed=True, reason="unidentified device, local traffic")
            else:
                decision = AuthorizationDecision(allowed=False, reason="unidentified device, internet blocked")
            self._count(decision)
            return decision

        level = rule.isolation_level
        if level is IsolationLevel.TRUSTED:
            if destination_record is not None and destination_record.overlay is NetworkOverlay.UNTRUSTED:
                decision = AuthorizationDecision(False, "trusted device may not reach untrusted overlay", rule)
            else:
                decision = AuthorizationDecision(True, "trusted device", rule)
        elif level is IsolationLevel.RESTRICTED:
            if destination_record is not None:
                if destination_record.overlay is NetworkOverlay.UNTRUSTED:
                    decision = AuthorizationDecision(True, "restricted device, untrusted overlay peer", rule)
                else:
                    decision = AuthorizationDecision(False, "restricted device may not reach trusted overlay", rule)
            elif packet.dst_mac.is_broadcast or packet.dst_mac.is_multicast or not packet.has_ip:
                decision = AuthorizationDecision(True, "restricted device, local broadcast", rule)
            elif rule.permits_destination(destination_ip):
                decision = AuthorizationDecision(True, "restricted device, permitted cloud endpoint", rule)
            else:
                decision = AuthorizationDecision(False, "restricted device, destination not permitted", rule)
        else:  # STRICT
            if destination_record is not None and destination_record.overlay is NetworkOverlay.UNTRUSTED:
                decision = AuthorizationDecision(True, "strict device, untrusted overlay peer", rule)
            elif packet.dst_mac.is_broadcast or packet.dst_mac.is_multicast or not packet.has_ip:
                decision = AuthorizationDecision(True, "strict device, local broadcast", rule)
            else:
                decision = AuthorizationDecision(False, "strict device, destination blocked", rule)

        self._count(decision)
        return decision

    def _count(self, decision: AuthorizationDecision) -> None:
        if decision.allowed:
            self.packets_allowed += 1
        else:
            self.packets_blocked += 1

    def handle_packet(self, packet: Packet, ingress_port: Optional[SwitchPort] = None):
        """Run one packet through the switch datapath (flow table + controller)."""
        if packet.src_mac in self.devices:
            self.devices[packet.src_mac].touch(packet.timestamp)
        return self.switch.process(packet, ingress_port=ingress_port)

    # ControllerModule interface -- invoked by the switch on table misses.
    def on_packet_in(self, packet: Packet, switch: OpenVSwitch) -> Optional[FlowAction]:
        decision = self.authorize(packet)
        return FlowAction.FORWARD if decision.allowed else FlowAction.DROP

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def device_record(self, mac: MACAddress) -> DeviceRecord:
        if mac not in self.devices:
            raise EnforcementError(f"unknown device: {mac}")
        return self.devices[mac]

    def devices_in_overlay(self, overlay: NetworkOverlay) -> list[DeviceRecord]:
        return [record for record in self.devices.values() if record.overlay is overlay]

    @property
    def connected_device_count(self) -> int:
        return len(self.devices)
