"""Tests for enforcement rules, device records and the rule cache."""

import dataclasses

import pytest

from repro.exceptions import EnforcementError
from repro.gateway.enforcement import (
    DeviceRecord,
    EnforcementRule,
    NetworkOverlay,
    enforcement_plan,
    flow_rule_templates,
)
from repro.gateway.rule_cache import EnforcementRuleCache
from repro.gateway.security_gateway import SecurityGateway
from repro.net.addresses import MACAddress
from repro.sdn.openflow import FlowAction, FlowMatch
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import SecurityAssessment
from repro.security_service.vulnerability import VulnerabilityRecord
from tests.conftest import oracle_flow_rules

MAC = MACAddress.from_string("13:73:74:7e:a9:c2")
OTHER = MACAddress.from_string("02:00:00:00:00:77")


class TestEnforcementRule:
    def test_restricted_rule_like_fig2(self):
        rule = EnforcementRule(
            device_mac=MAC,
            isolation_level=IsolationLevel.RESTRICTED,
            allowed_destinations=("52.28.10.1", "52.28.10.2"),
            device_type="Device X",
        )
        assert rule.permits_destination("52.28.10.1")
        assert not rule.permits_destination("8.8.8.8")

    def test_rule_hash_stable_and_distinct(self):
        # A rule is a value: equal fields give equal rules with equal
        # hashes, however the rule was built.
        rule_a = EnforcementRule(MAC, IsolationLevel.STRICT)
        rule_b = EnforcementRule(MAC, IsolationLevel.STRICT)
        rule_c = EnforcementRule(MAC, IsolationLevel.RESTRICTED, ("1.1.1.1",))
        assert rule_a == rule_b and hash(rule_a) == hash(rule_b)
        assert rule_a != rule_c and hash(rule_a) != hash(rule_c)
        planned = enforcement_plan(SecurityAssessment("unknown", IsolationLevel.STRICT)).rule_for(MAC, 0.0)
        assert planned == rule_a and hash(planned) == hash(rule_a)
        assert len({rule_a, rule_b, rule_c, planned}) == 2

    def test_trusted_rule_cannot_carry_allow_list(self):
        with pytest.raises(EnforcementError):
            EnforcementRule(MAC, IsolationLevel.TRUSTED, allowed_destinations=("1.2.3.4",))

    @staticmethod
    def _stamped(rule):
        """The rule's switch rules as the gateway installs them."""
        cookie = f"enforce-{rule.device_mac}"
        templates = flow_rule_templates(rule.isolation_level, rule.allowed_destinations)
        rules = [template.stamp(rule.device_mac, cookie) for template in templates]
        assert rules == oracle_flow_rules(rule)
        # The carried specificity is what counting the fields gives.
        assert [r.match.specificity for r in rules] == [
            dataclasses.replace(r.match).specificity for r in rules
        ]
        return rules

    def test_flow_rule_translation_trusted(self):
        rules = self._stamped(EnforcementRule(MAC, IsolationLevel.TRUSTED))
        assert len(rules) == 1
        assert rules[0].action is FlowAction.FORWARD

    def test_flow_rule_translation_restricted(self):
        rules = self._stamped(
            EnforcementRule(
                MAC, IsolationLevel.RESTRICTED, allowed_destinations=("1.1.1.1", "2.2.2.2")
            )
        )
        forwards = [rule for rule in rules if rule.action is FlowAction.FORWARD]
        fallbacks = [rule for rule in rules if rule.action is FlowAction.SEND_TO_CONTROLLER]
        assert len(forwards) == 2
        assert len(fallbacks) == 1
        assert all(rule.priority > fallbacks[0].priority for rule in forwards)

    def test_flow_rule_translation_strict(self):
        rules = self._stamped(EnforcementRule(MAC, IsolationLevel.STRICT))
        assert len(rules) == 1
        assert rules[0].action is FlowAction.SEND_TO_CONTROLLER

    def test_stamped_matches_are_independent_of_their_template(self):
        (template,) = flow_rule_templates(IsolationLevel.TRUSTED)
        first, second = template.stamp(MAC, "a"), template.stamp(OTHER, "b")
        assert (first.match.src_mac, second.match.src_mac) == (MAC, OTHER)
        assert template.match.src_mac is None and template.match.specificity == 0
        assert hash(first.match) == hash(FlowMatch(src_mac=MAC))

    @pytest.mark.parametrize("level", list(IsolationLevel))
    def test_plan_rules_equal_constructed_rules(self, level):
        allowed = ("52.1.1.1", "52.1.1.2")
        critical = VulnerabilityRecord("CVE-T-1", "Cam", "takeover", 9.5)
        mild = VulnerabilityRecord("CVE-T-2", "Cam", "leak", 4.0)
        assessment = SecurityAssessment("Cam", level, (mild, critical), allowed)
        plan = enforcement_plan(assessment)
        assert enforcement_plan(assessment) is plan
        expected = EnforcementRule(
            MAC, level, allowed if level is IsolationLevel.RESTRICTED else (), "Cam", 3.0
        )
        rule = plan.rule_for(MAC, 3.0)
        assert rule == expected
        assert set(vars(rule)) == {f.name for f in dataclasses.fields(EnforcementRule)}
        assert plan.overlay is NetworkOverlay.for_isolation_level(level)
        assert plan.critical_vulnerabilities == ("CVE-T-1",)
        assert plan.vulnerability_count == 2

    def test_estimated_size_grows_with_destinations(self):
        # A restricted device costs the switch one forward rule per
        # permitted destination plus its controller fallback.
        small = SecurityGateway()
        large = SecurityGateway()
        destinations = tuple(f"10.0.0.{i}" for i in range(8))
        small.apply_assessment(MAC, SecurityAssessment("Cam", IsolationLevel.STRICT))
        large.apply_assessment(
            MAC, SecurityAssessment("Cam", IsolationLevel.RESTRICTED, (), destinations)
        )
        assert small.switch.rule_count == 1
        assert large.switch.rule_count == len(destinations) + 1
        assert large.rule_cache.lookup(MAC).allowed_destinations == destinations


class TestNetworkOverlay:
    def test_overlay_for_isolation_level(self):
        assert NetworkOverlay.for_isolation_level(IsolationLevel.TRUSTED) is NetworkOverlay.TRUSTED
        assert NetworkOverlay.for_isolation_level(IsolationLevel.RESTRICTED) is NetworkOverlay.UNTRUSTED
        assert NetworkOverlay.for_isolation_level(IsolationLevel.STRICT) is NetworkOverlay.UNTRUSTED


class TestDeviceRecord:
    def test_defaults_are_untrusted(self):
        record = DeviceRecord(mac=MAC)
        assert record.isolation_level is IsolationLevel.STRICT
        assert record.overlay is NetworkOverlay.UNTRUSTED
        assert not record.is_identified

    def test_touch_updates_last_seen(self):
        record = DeviceRecord(mac=MAC, last_seen_at=5.0)
        record.touch(9.0)
        record.touch(7.0)
        assert record.last_seen_at == 9.0


class TestRuleCache:
    def test_store_and_lookup(self):
        cache = EnforcementRuleCache()
        rule = EnforcementRule(MAC, IsolationLevel.STRICT)
        cache.store(rule)
        assert cache.lookup(MAC) is rule
        assert cache.lookup(OTHER) is None
        assert cache.lookups == 2
        assert cache.hits == 1
        assert MAC in cache
        assert len(cache) == 1

    def test_replacement_keeps_single_entry(self):
        cache = EnforcementRuleCache()
        cache.store(EnforcementRule(MAC, IsolationLevel.STRICT))
        cache.store(EnforcementRule(MAC, IsolationLevel.TRUSTED))
        assert len(cache) == 1
        assert cache.lookup(MAC).isolation_level is IsolationLevel.TRUSTED

    def test_replacement_not_counted_as_insertion(self):
        # A rule upgrade of an already-cached device is a replacement;
        # counting it under insertions overstated cache growth.
        cache = EnforcementRuleCache()
        cache.store(EnforcementRule(MAC, IsolationLevel.STRICT))
        cache.store(EnforcementRule(MAC, IsolationLevel.TRUSTED))
        cache.store(EnforcementRule(OTHER, IsolationLevel.STRICT))
        assert cache.insertions == 2
        assert cache.replacements == 1

    def test_remove(self):
        cache = EnforcementRuleCache()
        cache.store(EnforcementRule(MAC, IsolationLevel.STRICT))
        assert cache.remove(MAC)
        assert not cache.remove(MAC)
        assert len(cache) == 0

    def test_lru_eviction_with_max_entries(self):
        # The table has no size bound and no LRU order: a rule stays until
        # its device departs, however many rules are stored or looked up
        # after it.  A rule squeezed out ahead of its device's record
        # would let a strict device pass as an unidentified one.
        cache = EnforcementRuleCache()
        first = EnforcementRule(MACAddress(1), IsolationLevel.STRICT)
        cache.store(first)
        for value in range(2, 1002):
            cache.store(EnforcementRule(MACAddress(value), IsolationLevel.STRICT))
            cache.lookup(MACAddress(value))
        assert len(cache) == 1001
        assert cache.lookup(MACAddress(1)) is first
        assert (cache.insertions, cache.replacements) == (1001, 0)

    def test_evict_stale(self):
        # Idle departure lives on the gateway, which drops a stale
        # device's rule together with its record and keeps a fresh one's.
        gateway = SecurityGateway()
        stale, fresh = MACAddress(1), MACAddress(2)
        for mac in (stale, fresh):
            gateway.apply_assessment(mac, SecurityAssessment("Cam", IsolationLevel.STRICT))
        gateway.devices[fresh].touch(100.0)
        assert gateway.evict_idle(now=150.0, max_idle_seconds=60.0) == 1
        assert stale not in gateway.rule_cache and stale not in gateway.devices
        assert gateway.rule_cache.lookup(fresh).isolation_level is IsolationLevel.STRICT
        assert len(gateway.rule_cache) == len(gateway.devices) == 1
