"""A minimal SDN controller hosting pluggable modules (Floodlight stand-in).

The paper implements its monitoring/fingerprinting/enforcement logic as a
custom module of the Floodlight controller.  This controller model provides
the same structure: modules register for packet-in events, may install flow
rules on the switches the controller manages, and are invoked in
registration order until one of them returns a forwarding decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.exceptions import SdnError
from repro.net.packet import Packet
from repro.sdn.openflow import FlowAction, FlowRule
from repro.sdn.switch import OpenVSwitch


class ControllerModule(Protocol):
    """The interface controller modules implement."""

    name: str

    def on_packet_in(self, packet: Packet, switch: OpenVSwitch) -> Optional[FlowAction]:
        """Handle a packet the switch could not match; may return a decision."""


@dataclass
class SdnController:
    """The SDN controller: owns switches and dispatches packet-in events."""

    name: str = "floodlight"
    switches: dict[str, OpenVSwitch] = field(default_factory=dict)
    modules: list[ControllerModule] = field(default_factory=list)
    packet_in_count: int = 0

    # ------------------------------------------------------------------ #
    # Topology management.
    # ------------------------------------------------------------------ #
    def attach_switch(self, switch: OpenVSwitch) -> None:
        """Register a switch and wire its packet-in handler to this controller."""
        if switch.name in self.switches:
            raise SdnError(f"a switch named {switch.name!r} is already attached")
        self.switches[switch.name] = switch
        switch.packet_in_handler = self._handle_packet_in

    def detach_switch(self, name: str) -> None:
        switch = self.switches.pop(name, None)
        if switch is not None:
            switch.packet_in_handler = None

    def switch(self, name: str) -> OpenVSwitch:
        if name not in self.switches:
            raise SdnError(f"no switch named {name!r} is attached")
        return self.switches[name]

    # ------------------------------------------------------------------ #
    # Module management.
    # ------------------------------------------------------------------ #
    def register_module(self, module: ControllerModule) -> None:
        """Register a module; modules are consulted in registration order."""
        if any(existing.name == module.name for existing in self.modules):
            raise SdnError(f"a module named {module.name!r} is already registered")
        self.modules.append(module)

    # ------------------------------------------------------------------ #
    # Flow programming helpers used by modules.
    # ------------------------------------------------------------------ #
    def install_rule(self, switch_name: str, rule: FlowRule) -> None:
        self.switch(switch_name).install_rule(rule)

    def remove_rules(self, switch_name: str, cookie: str) -> int:
        return self.switch(switch_name).remove_rules(cookie)

    # ------------------------------------------------------------------ #
    # Packet-in dispatch.
    # ------------------------------------------------------------------ #
    def _handle_packet_in(self, packet: Packet, switch: OpenVSwitch) -> Optional[FlowAction]:
        self.packet_in_count += 1
        for module in self.modules:
            decision = module.on_packet_in(packet, switch)
            if decision is not None:
                return decision
        return None
