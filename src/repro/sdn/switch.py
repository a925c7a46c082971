"""A software switch with a source-MAC-indexed flow table (Open vSwitch stand-in)."""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

from repro.exceptions import SdnError
from repro.net.packet import Packet
from repro.sdn.openflow import FlowAction, FlowRule


@dataclass(frozen=True)
class ForwardingDecision:
    """The outcome of processing one packet through the switch."""

    action: FlowAction
    rule: Optional[FlowRule]
    sent_to_controller: bool = False

    @property
    def forwarded(self) -> bool:
        return self.action == FlowAction.FORWARD

    @property
    def dropped(self) -> bool:
        return self.action == FlowAction.DROP


#: One flow-table entry: ``(-priority, -specificity, install sequence, rule)``.
#: Tuple order is the table's match order, and the install sequence is
#: unique, so two entries never compare their rules.
_Entry = tuple[int, int, int, FlowRule]


@dataclass
class OpenVSwitch:
    """A minimal Open vSwitch model: flow table, packet-in, statistics.

    A packet matches the first rule in match order: higher priority
    first, then higher match specificity, then earlier install.  The
    table is indexed by the rule's source MAC -- the paper keeps
    enforcement rules in a hash table so the per-packet cost stays flat
    as rules grow -- keyed by the MAC's integer value, which hashes
    without a Python call.  Each bucket (``None`` holds the
    wildcard-source rules) is kept in match order, so :meth:`lookup`
    checks only the packet's own bucket and the wildcard bucket, and a
    ``cookie -> (bucket key, ...)`` map lets :meth:`remove_rules` touch
    only the buckets that hold the cookie (a device's cookie names one
    bucket, so a small tuple, not a set, per cookie).  Rules enter only via
    :meth:`install_rule` (there is no ``rules=`` constructor argument),
    and :attr:`rules` is a read-only view of the whole table in match
    order.  Misses and ``SEND_TO_CONTROLLER`` hits go to the packet-in
    handler (:meth:`SecurityGateway.on_packet_in
    <repro.gateway.security_gateway.SecurityGateway.on_packet_in>`); with no handler
    registered, or when it returns None, the packet is forwarded.
    """

    name: str = "ovs-br0"
    packet_in_handler: Optional[Callable[[Packet, "OpenVSwitch"], Optional[FlowAction]]] = None

    packets_processed: int = 0
    packets_dropped: int = 0
    packets_to_controller: int = 0

    _buckets: dict[Optional[int], list[_Entry]] = field(
        default_factory=dict, init=False, repr=False
    )
    _cookie_keys: dict[str, tuple[Optional[int], ...]] = field(
        default_factory=dict, init=False, repr=False
    )
    _installs: int = field(default=0, init=False, repr=False)

    # ------------------------------------------------------------------ #
    # Flow table management.
    # ------------------------------------------------------------------ #
    def install_rule(self, rule: FlowRule) -> None:
        """Install a rule after every rule that precedes it in match order."""
        match = rule.match
        key = None if match.src_mac is None else match.src_mac.value
        entry = (-rule.priority, -match.specificity, self._installs, rule)
        self._installs += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
        else:
            insort(bucket, entry)
        keys = self._cookie_keys.get(rule.cookie, ())
        if key not in keys:
            self._cookie_keys[rule.cookie] = (*keys, key)

    def remove_rules(self, cookie: str) -> int:
        """Remove every rule carrying ``cookie``; returns the removal count."""
        if not cookie:
            raise SdnError("a non-empty cookie is required to remove rules")
        removed = 0
        for key in self._cookie_keys.pop(cookie, ()):
            bucket = self._buckets[key]
            kept = [entry for entry in bucket if entry[3].cookie != cookie]
            removed += len(bucket) - len(kept)
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]
        return removed

    def flush(self) -> None:
        """Drop the entire flow table."""
        self._buckets.clear()
        self._cookie_keys.clear()

    @property
    def rules(self) -> list[FlowRule]:
        """Every installed rule in match order (a copy; install to change it)."""
        return [entry[3] for entry in sorted(chain.from_iterable(self._buckets.values()))]

    @property
    def rule_count(self) -> int:
        return sum(map(len, self._buckets.values()))

    # ------------------------------------------------------------------ #
    # Datapath.
    # ------------------------------------------------------------------ #
    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        """Find the first rule in match order that matches the packet, if any.

        Only the packet's own source-MAC bucket and the wildcard bucket
        can hold a match; the earlier of their first matches wins.
        """
        best: Optional[_Entry] = None
        for key in (packet.src_mac.value, None):
            for entry in self._buckets.get(key, ()):
                if entry[3].match.matches_packet(packet):
                    if best is None or entry < best:
                        best = entry
                    break
        return None if best is None else best[3]

    def process(self, packet: Packet) -> ForwardingDecision:
        """Process one packet: match, apply the action, update statistics."""
        self.packets_processed += 1

        rule = self.lookup(packet)
        if rule is not None:
            rule.record_hit()
            action = rule.action
            sent_to_controller = action == FlowAction.SEND_TO_CONTROLLER
            if sent_to_controller:
                action = self._ask_controller(packet)
        elif self.packet_in_handler is not None:
            action = self._ask_controller(packet)
            sent_to_controller = True
        else:
            return ForwardingDecision(action=FlowAction.FORWARD, rule=None)
        if action == FlowAction.DROP:
            self.packets_dropped += 1
        return ForwardingDecision(action=action, rule=rule, sent_to_controller=sent_to_controller)

    def _ask_controller(self, packet: Packet) -> FlowAction:
        self.packets_to_controller += 1
        if self.packet_in_handler is None:
            return FlowAction.FORWARD
        decision = self.packet_in_handler(packet, self)
        return decision if decision is not None else FlowAction.FORWARD
