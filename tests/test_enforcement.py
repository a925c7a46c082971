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
        assert len(rule.rule_hash) == 16

    def test_rule_hash_stable_and_distinct(self):
        rule_a = EnforcementRule(MAC, IsolationLevel.STRICT)
        rule_b = EnforcementRule(MAC, IsolationLevel.STRICT)
        rule_c = EnforcementRule(MAC, IsolationLevel.RESTRICTED, ("1.1.1.1",))
        assert rule_a.rule_hash == rule_b.rule_hash
        assert rule_a.rule_hash != rule_c.rule_hash

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
        small = EnforcementRule(MAC, IsolationLevel.STRICT)
        large = EnforcementRule(MAC, IsolationLevel.RESTRICTED, tuple(f"10.0.0.{i}" for i in range(8)))
        assert large.estimated_size_bytes > small.estimated_size_bytes


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
        assert cache.hit_rate == 0.5
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
        cache = EnforcementRuleCache(max_entries=2)
        first = MACAddress(1)
        second = MACAddress(2)
        third = MACAddress(3)
        cache.store(EnforcementRule(first, IsolationLevel.STRICT), now=1.0)
        cache.store(EnforcementRule(second, IsolationLevel.STRICT), now=2.0)
        cache.lookup(first, now=3.0)
        cache.store(EnforcementRule(third, IsolationLevel.STRICT), now=4.0)
        assert first in cache
        assert second not in cache
        assert third in cache
        assert cache.evictions == 1

    def test_evict_stale(self):
        cache = EnforcementRuleCache()
        cache.store(EnforcementRule(MACAddress(1), IsolationLevel.STRICT), now=0.0)
        cache.store(EnforcementRule(MACAddress(2), IsolationLevel.STRICT), now=100.0)
        removed = cache.evict_stale(now=150.0, max_idle_seconds=60.0)
        assert removed == 1
        assert len(cache) == 1
        with pytest.raises(EnforcementError):
            cache.evict_stale(now=0.0, max_idle_seconds=-1)

    def test_memory_estimate(self):
        cache = EnforcementRuleCache()
        assert cache.estimated_memory_bytes == 0
        cache.store(EnforcementRule(MAC, IsolationLevel.RESTRICTED, ("1.1.1.1",)))
        assert cache.estimated_memory_bytes > 0

    def test_invalid_max_entries(self):
        with pytest.raises(EnforcementError):
            EnforcementRuleCache(max_entries=0)

    def test_rules_snapshot(self):
        cache = EnforcementRuleCache()
        cache.store(EnforcementRule(MAC, IsolationLevel.STRICT))
        assert len(cache.rules()) == 1
