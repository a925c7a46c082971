"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.damerau_levenshtein import UNSEEN_SYMBOL, damerau_levenshtein_pairs
from repro.features.fingerprint import FIXED_PACKET_COUNT, Fingerprint
from repro.features.packet_features import FEATURE_COUNT, port_class
from repro.gateway.enforcement import EnforcementRule
from repro.gateway.rule_cache import EnforcementRuleCache
from repro.gateway.security_gateway import SecurityGateway
from repro.ml.metrics import confusion_matrix, per_class_accuracy
from repro.ml.validation import StratifiedKFold
from repro.net.addresses import MACAddress
from repro.security_service.isolation import IsolationLevel
from repro.security_service.service import SecurityAssessment
from tests.conftest import damerau_levenshtein, normalized_damerau_levenshtein

# --------------------------------------------------------------------------- #
# Strategies.
# --------------------------------------------------------------------------- #

feature_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=1500), min_size=FEATURE_COUNT, max_size=FEATURE_COUNT),
    min_size=0,
    max_size=30,
)

symbol_sequences = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=25)

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)


# --------------------------------------------------------------------------- #
# MAC addresses.
# --------------------------------------------------------------------------- #


@given(macs)
def test_mac_string_roundtrip(mac):
    assert MACAddress.from_string(str(mac)) == mac


@given(macs)
def test_mac_bytes_roundtrip(mac):
    assert MACAddress.from_bytes(mac.to_bytes()) == mac


# --------------------------------------------------------------------------- #
# Port classes.
# --------------------------------------------------------------------------- #


@given(st.integers(min_value=0, max_value=65535))
def test_port_class_in_range(port):
    assert port_class(port) in (1, 2, 3)


@given(st.integers(min_value=0, max_value=65535))
def test_port_class_monotone_boundaries(port):
    cls = port_class(port)
    if port <= 1023:
        assert cls == 1
    elif port <= 49151:
        assert cls == 2
    else:
        assert cls == 3


# --------------------------------------------------------------------------- #
# Fingerprints.
# --------------------------------------------------------------------------- #


@given(feature_rows)
@settings(max_examples=50)
def test_fingerprint_dedup_never_has_consecutive_duplicates(rows):
    fingerprint = Fingerprint.from_feature_rows(rows)
    vectors = fingerprint.vectors
    for index in range(1, len(vectors)):
        assert not np.array_equal(vectors[index], vectors[index - 1])


@given(feature_rows)
@settings(max_examples=50)
def test_fingerprint_dedup_is_idempotent(rows):
    once = Fingerprint.from_feature_rows(rows)
    twice = Fingerprint.from_feature_rows(once.vectors.tolist())
    assert np.array_equal(once.vectors, twice.vectors)


@given(feature_rows)
@settings(max_examples=50)
def test_fixed_vector_always_276_and_nonnegative(rows):
    fixed = Fingerprint.from_feature_rows(rows).to_fixed_vector()
    assert fixed.shape == (FIXED_PACKET_COUNT * FEATURE_COUNT,)
    assert np.all(fixed >= 0)


@given(feature_rows)
@settings(max_examples=50)
def test_fixed_vector_prefix_matches_unique_vectors(rows):
    fingerprint = Fingerprint.from_feature_rows(rows)
    unique = fingerprint.unique_vectors()[:FIXED_PACKET_COUNT]
    fixed = fingerprint.to_fixed_vector()
    if len(unique):
        np.testing.assert_array_equal(fixed[: unique.size], unique.reshape(-1))


# --------------------------------------------------------------------------- #
# Damerau-Levenshtein distance: metric-like properties.
# --------------------------------------------------------------------------- #


@given(symbol_sequences, symbol_sequences)
@settings(max_examples=100)
def test_distance_symmetry(first, second):
    assert damerau_levenshtein(first, second) == damerau_levenshtein(second, first)


@given(
    st.lists(st.sampled_from((UNSEEN_SYMBOL, 0, 1, 2, 3, 4, 5)), max_size=40),
    st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
@settings(max_examples=100)
def test_pair_kernel_symmetry(query, reference):
    # The kernel steps over the shorter side of each pair, so either
    # argument order must give the oracle's distance.
    first = np.array(query, dtype=np.int64)
    second = np.array(reference, dtype=np.int64)
    forward = damerau_levenshtein_pairs([first], [second])
    assert forward.tolist() == damerau_levenshtein_pairs([second], [first]).tolist()
    assert forward.tolist() == [damerau_levenshtein(query, reference)]


@given(symbol_sequences)
@settings(max_examples=100)
def test_distance_identity(sequence):
    assert damerau_levenshtein(sequence, sequence) == 0


@given(symbol_sequences, symbol_sequences)
@settings(max_examples=100)
def test_distance_bounded_by_longest(first, second):
    assert damerau_levenshtein(first, second) <= max(len(first), len(second))


@given(symbol_sequences, symbol_sequences)
@settings(max_examples=100)
def test_normalized_distance_bounds(first, second):
    if not first and not second:
        return
    value = normalized_damerau_levenshtein(first, second)
    assert 0.0 <= value <= 1.0


@given(symbol_sequences, symbol_sequences, symbol_sequences)
@settings(max_examples=60)
def test_distance_triangle_inequality(a, b, c):
    assert damerau_levenshtein(a, c) <= damerau_levenshtein(a, b) + damerau_levenshtein(b, c) + 1
    # The +1 slack accounts for the restricted (OSA) transposition variant,
    # which is not a strict metric; violations beyond 1 would indicate a bug.


# --------------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------------- #


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
def test_accuracy_of_perfect_predictions_is_one(labels):
    assert set(per_class_accuracy(labels, list(labels)).values()) == {1.0}


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40),
)
def test_confusion_matrix_total_equals_samples(y_true, y_pred):
    size = min(len(y_true), len(y_pred))
    matrix, _ = confusion_matrix(y_true[:size], y_pred[:size])
    assert matrix.sum() == size


# --------------------------------------------------------------------------- #
# Stratified k-fold.
# --------------------------------------------------------------------------- #


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=30)
def test_stratified_kfold_partitions_samples(n_splits, seed):
    labels = np.array(["x"] * (n_splits * 3) + ["y"] * (n_splits * 2))
    splitter = StratifiedKFold(n_splits=n_splits, random_state=seed)
    seen = np.zeros(len(labels), dtype=int)
    for train_indices, test_indices in splitter.split(labels):
        assert len(set(train_indices) & set(test_indices)) == 0
        seen[test_indices] += 1
    assert np.all(seen == 1)


# --------------------------------------------------------------------------- #
# Enforcement rule cache.
# --------------------------------------------------------------------------- #


@given(st.lists(macs, min_size=1, max_size=60, unique=True))
@settings(max_examples=30)
def test_rule_cache_lookup_after_store(mac_list):
    cache = EnforcementRuleCache()
    for mac in mac_list:
        cache.store(EnforcementRule(device_mac=mac, isolation_level=IsolationLevel.STRICT))
    assert len(cache) == len(mac_list)
    for mac in mac_list:
        assert cache.lookup(mac) is not None
    assert cache.hits == cache.lookups == len(mac_list)


@given(st.lists(macs, min_size=1, max_size=40), st.lists(st.sampled_from(list(IsolationLevel)), min_size=1))
@settings(max_examples=30)
def test_rule_cache_never_exceeds_max_entries(mac_list, levels):
    # The table holds at most one rule per device: its size never exceeds
    # the number of distinct MACs stored, and a repeat store replaces.
    cache = EnforcementRuleCache()
    seen = set()
    for index, mac in enumerate(mac_list):
        rule = EnforcementRule(device_mac=mac, isolation_level=levels[index % len(levels)])
        cache.store(rule)
        seen.add(mac)
        assert len(cache) == len(seen)
        assert cache.lookup(mac) is rule
    assert cache.insertions == len(seen)
    assert cache.replacements == len(mac_list) - len(seen)


@given(
    st.dictionaries(macs, st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=500.0),
)
@settings(max_examples=30)
def test_idle_eviction_keeps_records_and_rules_together(last_seen, now, max_idle):
    gateway = SecurityGateway()
    for mac, seen_at in last_seen.items():
        gateway.apply_assessment(mac, SecurityAssessment("Cam", IsolationLevel.STRICT))
        gateway.devices[mac].touch(seen_at)
    psks = {mac: gateway.wps.credential_of(mac).psk for mac in last_seen}
    evicted = gateway.evict_idle(now=now, max_idle_seconds=max_idle)
    idle = {mac for mac, seen_at in last_seen.items() if now - seen_at > max_idle}
    assert evicted == len(idle)
    for mac in last_seen:
        kept = mac not in idle
        assert (mac in gateway.devices) is kept
        assert (mac in gateway.rule_cache) is kept
        assert gateway.wps.verify(mac, psks[mac]) is kept
    assert len(gateway.rule_cache) == len(gateway.devices)
    assert gateway.switch.rule_count == len(gateway.devices)
