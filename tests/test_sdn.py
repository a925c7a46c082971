"""Tests for the SDN substrate: flow rules, the switch and its controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SdnError
from repro.gateway.security_gateway import SecurityGateway
from repro.net.addresses import MACAddress
from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.sdn.switch import OpenVSwitch
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import SecurityAssessment

from tests.conftest import make_tcp_packet, make_udp_packet

DEVICE = MACAddress.from_string("02:00:00:00:00:10")
OTHER = MACAddress.from_string("02:00:00:00:00:20")
GATEWAY = MACAddress.from_string("02:00:00:00:00:01")
THIRD = MACAddress.from_string("02:00:00:00:00:30")
STRANGER = MACAddress.from_string("02:00:00:00:00:40")


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        assert FlowMatch().matches_packet(packet)
        assert FlowMatch().specificity == 0

    def test_mac_match(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        assert FlowMatch(src_mac=DEVICE).matches_packet(packet)
        assert not FlowMatch(src_mac=OTHER).matches_packet(packet)

    def test_ip_and_port_match(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "52.1.1.1", dst_port=443)
        assert FlowMatch(dst_ip="52.1.1.1", protocol="tcp", dst_port=443).matches_packet(packet)
        assert not FlowMatch(dst_ip="52.1.1.2").matches_packet(packet)
        assert not FlowMatch(protocol="udp").matches_packet(packet)

    def test_ip_fields_do_not_match_non_ip_packets(self):
        from repro.net.layers.arp import OP_REQUEST, ARPPacket
        from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
        from repro.net.packet import Packet

        arp = Packet(
            ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=DEVICE, ethertype=ETHERTYPE.ARP),
            arp=ARPPacket(OP_REQUEST, DEVICE, "0.0.0.0", MACAddress.zero(), "10.0.0.1"),
        )
        assert not FlowMatch(dst_ip="10.0.0.1").matches_packet(arp)
        assert FlowMatch(src_mac=DEVICE).matches_packet(arp)

    def test_specificity_counts_fields(self):
        match = FlowMatch(src_mac=DEVICE, dst_ip="1.2.3.4", dst_port=80)
        assert match.specificity == 3

    def test_negative_priority_rejected(self):
        with pytest.raises(SdnError):
            FlowRule(match=FlowMatch(), action=FlowAction.DROP, priority=-1)


class TestOpenVSwitch:
    def test_priority_ordering(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=10))
        switch.install_rule(
            FlowRule(FlowMatch(src_mac=DEVICE, dst_ip="52.1.1.1"), FlowAction.FORWARD, priority=50)
        )
        allowed = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "52.1.1.1"))
        blocked = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert allowed.forwarded
        assert blocked.dropped
        assert switch.packets_processed == 2
        assert switch.packets_dropped == 1

    def test_rule_hit_counters(self):
        switch = OpenVSwitch()
        rule = FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.FORWARD, priority=1)
        switch.install_rule(rule)
        switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.4.4"))
        assert rule.packet_count == 2

    def test_default_action_on_miss(self):
        # A miss forwards: unasked with no handler, and when the handler
        # has no opinion (returns None).
        packet = make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        switch = OpenVSwitch()
        decision = switch.process(packet)
        assert decision.forwarded
        assert not decision.sent_to_controller
        assert switch.packets_to_controller == 0
        abstaining = OpenVSwitch(packet_in_handler=lambda packet, sw: None)
        decision = abstaining.process(packet)
        assert decision.forwarded and decision.sent_to_controller
        assert abstaining.packets_to_controller == 1

    def test_packet_in_handler_invoked_on_miss(self):
        seen = []

        def handler(packet, switch):
            seen.append(packet)
            return FlowAction.DROP

        switch = OpenVSwitch(packet_in_handler=handler)
        decision = switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert decision.dropped
        assert decision.sent_to_controller
        assert len(seen) == 1
        assert switch.packets_to_controller == 1

    def test_send_to_controller_action(self):
        switch = OpenVSwitch(packet_in_handler=lambda packet, sw: FlowAction.FORWARD)
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.SEND_TO_CONTROLLER, priority=5))
        decision = switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert decision.forwarded
        assert decision.sent_to_controller

    def test_remove_rules_by_cookie(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=1, cookie="a"))
        switch.install_rule(FlowRule(FlowMatch(src_mac=OTHER), FlowAction.DROP, priority=1, cookie="b"))
        assert switch.remove_rules("a") == 1
        assert switch.rule_count == 1
        with pytest.raises(SdnError):
            switch.remove_rules("")

    def test_a_cookie_spanning_two_buckets_is_removed_whole(self):
        switch = OpenVSwitch()
        for src_mac in (DEVICE, None, DEVICE, OTHER):
            switch.install_rule(
                FlowRule(FlowMatch(src_mac=src_mac), FlowAction.DROP, priority=1, cookie="a")
            )
        switch.install_rule(
            FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=1, cookie="b")
        )
        assert switch.remove_rules("a") == 4
        assert [rule.cookie for rule in switch.rules] == ["b"]
        assert switch.remove_rules("a") == 0
        assert switch.lookup(make_udp_packet(OTHER, GATEWAY, "10.0.0.3", "8.8.8.8")) is None

    def test_cookie_map_costs_a_small_tuple_per_onboarded_device(self):
        # Bytes the switch module allocates per device a filtering gateway
        # onboards: ~390 B with a tuple of bucket keys per cookie, ~560 B
        # with a one-element set.
        import tracemalloc

        import repro.sdn.switch as switch_module
        from repro.eval.experiments import _onboard

        gateway = SecurityGateway(filtering_enabled=True)
        devices = 600
        tracemalloc.start()
        try:
            _onboard(gateway, 0, devices)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        traced = snapshot.filter_traces([tracemalloc.Filter(True, switch_module.__file__)])
        per_device = sum(stat.size for stat in traced.statistics("filename")) / devices
        assert per_device < 470

    def test_flush(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(), FlowAction.DROP, priority=1))
        switch.flush()
        assert switch.rule_count == 0


class TestSdnController:
    """The Security Gateway is the controller module of its one switch."""

    CLOUD = "52.28.10.10"

    def _restricted(self, switch):
        gateway = SecurityGateway(switch=switch)
        gateway.apply_assessment(
            DEVICE, SecurityAssessment("Cam", IsolationLevel.RESTRICTED, (), (self.CLOUD,))
        )
        return gateway

    def test_attach_and_dispatch(self):
        switch = OpenVSwitch()
        gateway = SecurityGateway(switch=switch)
        assert switch.packet_in_handler == gateway.on_packet_in
        decision = switch.process(make_udp_packet(STRANGER, GATEWAY, "10.0.0.9", "8.8.8.8"))
        assert decision.dropped and decision.sent_to_controller
        assert switch.packets_to_controller == 1
        assert gateway.packets_blocked == 1

    def test_modules_consulted_in_order(self):
        # The flow table answers first; the gateway is asked only on a
        # miss or a send-to-controller hit.
        switch = OpenVSwitch()
        gateway = self._restricted(switch)
        to_cloud = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", self.CLOUD))
        assert to_cloud.forwarded and not to_cloud.sent_to_controller
        assert gateway.rule_cache.lookups == 0
        elsewhere = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert elsewhere.dropped and elsewhere.sent_to_controller
        assert elsewhere.rule.action is FlowAction.SEND_TO_CONTROLLER
        assert gateway.rule_cache.lookups == 1
        assert switch.packets_to_controller == 1

    def test_install_rule_via_controller(self):
        switch = OpenVSwitch()
        gateway = self._restricted(switch)
        assert switch.rule_count == 2
        assert {rule.cookie for rule in switch.rules} == {f"enforce-{DEVICE}"}
        gateway.disconnect_device(DEVICE)
        assert switch.rule_count == 0

    def test_detach_switch(self):
        switch = OpenVSwitch()
        gateway = SecurityGateway(switch=switch)
        packet = make_udp_packet(STRANGER, GATEWAY, "10.0.0.9", "8.8.8.8")
        assert switch.process(packet).dropped
        switch.packet_in_handler = None
        decision = switch.process(packet)
        assert decision.forwarded and not decision.sent_to_controller
        assert gateway.packets_blocked == 1


# --------------------------------------------------------------------------- #
# The flow-table index against the linear scan it replaced.
# --------------------------------------------------------------------------- #


def table_order(rules_in_install_order):
    """The match order: priority, then specificity, descending; ties by install."""
    return sorted(
        rules_in_install_order,
        key=lambda rule: (rule.priority, rule.match.specificity),
        reverse=True,
    )


def linear_lookup(rules_in_install_order, packet):
    """Oracle: scan the whole table in match order for the first match."""
    for rule in table_order(rules_in_install_order):
        if rule.match.matches_packet(packet):
            return rule
    return None


def _arp_from(mac):
    from repro.net.layers.arp import OP_REQUEST, ARPPacket
    from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
    from repro.net.packet import Packet

    return Packet(
        ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=mac, ethertype=ETHERTYPE.ARP),
        arp=ARPPacket(OP_REQUEST, mac, "0.0.0.0", MACAddress.zero(), "10.0.0.1"),
    )


ORACLE_IPS = ("52.1.1.1", "52.2.2.2")
#: Every (source, destination, protocol/port) combination the rules below
#: can tell apart, plus a non-IP frame per source.
ORACLE_PACKETS = [
    make(mac, GATEWAY, "10.0.0.2", dst_ip, dst_port=port)
    for mac in (DEVICE, OTHER, THIRD, STRANGER)
    for dst_ip in (*ORACLE_IPS, "8.8.8.8")
    for make, port in ((make_tcp_packet, 443), (make_udp_packet, 53))
] + [_arp_from(mac) for mac in (DEVICE, OTHER, THIRD, STRANGER)]

oracle_rules = st.builds(
    lambda src_mac, dst_ip, proto_port, action, priority, cookie: FlowRule(
        FlowMatch(src_mac=src_mac, dst_ip=dst_ip, protocol=proto_port[0], dst_port=proto_port[1]),
        action,
        priority=priority,
        cookie=cookie,
    ),
    src_mac=st.sampled_from([None, DEVICE, OTHER, THIRD]),
    dst_ip=st.sampled_from([None, *ORACLE_IPS]),
    proto_port=st.sampled_from([(None, None), ("tcp", None), ("tcp", 443), ("udp", 53)]),
    action=st.sampled_from(list(FlowAction)),
    priority=st.integers(min_value=0, max_value=2),
    cookie=st.sampled_from(["", "x", "y", "z"]),
)

oracle_steps = st.lists(
    st.one_of(
        st.tuples(st.just("install"), oracle_rules),
        st.tuples(st.just("remove"), st.sampled_from(["x", "y", "z", "absent"])),
        st.tuples(st.just("flush")),
    ),
    max_size=25,
)


def _prelude():
    """Rules every sequence starts with: ties, wildcards, a shared and an empty cookie."""
    return [
        FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.FORWARD, priority=1, cookie="x"),
        FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=1, cookie="y"),
        FlowRule(FlowMatch(dst_ip=ORACLE_IPS[0]), FlowAction.DROP, priority=1, cookie="x"),
        FlowRule(FlowMatch(src_mac=OTHER), FlowAction.FORWARD, priority=1, cookie="x"),
        FlowRule(FlowMatch(protocol="udp", dst_port=53), FlowAction.FORWARD, priority=1, cookie=""),
        FlowRule(FlowMatch(), FlowAction.SEND_TO_CONTROLLER, priority=0, cookie=""),
    ]


@settings(max_examples=60, deadline=None)
@given(oracle_steps)
def test_indexed_lookup_matches_linear_scan(steps):
    switch = OpenVSwitch()
    installed = []  # the oracle's table, in install order

    def check():
        assert [id(rule) for rule in switch.rules] == [id(rule) for rule in table_order(installed)]
        assert switch.rule_count == len(switch.rules) == len(installed)
        for packet in ORACLE_PACKETS:
            assert switch.lookup(packet) is linear_lookup(installed, packet)

    for rule in _prelude():
        switch.install_rule(rule)
        installed.append(rule)
    check()
    for step in steps:
        if step[0] == "install":
            switch.install_rule(step[1])
            installed.append(step[1])
        elif step[0] == "remove":
            kept = [rule for rule in installed if rule.cookie != step[1]]
            assert switch.remove_rules(step[1]) == len(installed) - len(kept)
            installed = kept
        else:
            switch.flush()
            installed = []
        check()
