"""The ledger's template line encoder against the json module's canonical form.

``repro.obs.evidence.encode_line`` writes every record kind through one
hand-written template; ``tests.conftest.oracle_encode_line`` is the json
encoder it replaced.  Their bytes must agree on everything a record can
hold, and a verdict's pre-rendered fragments must not change a byte.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import LedgerError
from repro.identification.identifier import IdentificationResult
from repro.obs.evidence import (
    EVIDENCE_KINDS,
    EvidenceRecord,
    LineFragments,
    decode_line,
    encode_json,
    encode_line,
)
from repro.obs.hub import verdict_fragments
from tests.conftest import CANONICAL_JSON, oracle_encode_line

#: A seed-1 e2e ledger's ``selection_seed``: beyond the signed 64-bit range.
BIG_SEED = 15047817276476713231

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [1e22, 1e-7, -0.0, 0.0, 1e16, 123456789.125, float("nan"), float("inf"), float("-inf")]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | floats
    | st.text()
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
optional_text = st.none() | st.text(max_size=12)
optional_int = st.none() | st.integers(min_value=0, max_value=2**64)
provenance = st.dictionaries(
    st.text(max_size=10),
    st.fixed_dictionaries(
        {
            "reference_indices": st.lists(st.integers(min_value=0, max_value=500), max_size=5),
            "selection_seed": st.none() | st.integers(min_value=0, max_value=2**64 - 1),
        }
    ),
    max_size=3,
)
records = st.builds(
    EvidenceRecord,
    kind=st.sampled_from(EVIDENCE_KINDS),
    sequence=st.integers(min_value=-1, max_value=2**64),
    stream_time=floats | st.integers(min_value=-(2**40), max_value=2**40),
    mac=optional_text,
    fingerprint_key=optional_text,
    verdict=optional_text,
    matched_types=st.lists(st.text(max_size=8), max_size=4).map(tuple),
    provenance=provenance,
    identifier_revision=optional_int,
    cache_epoch=optional_int,
    enforcement_action=optional_text,
    from_cache=st.booleans(),
    completion_reason=st.text(max_size=10),
    detail=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
)


def with_fragments(record: EvidenceRecord) -> EvidenceRecord:
    """The record carrying pre-rendered fragments of its own three fields."""
    fragments = LineFragments.render(record.verdict, record.matched_types, record.provenance)
    return record.derive(
        verdict=fragments.verdict,
        matched_types=fragments.matched_types,
        provenance=fragments.provenance,
        fragments=fragments,
    )


class TestTemplateEncoder:
    @settings(max_examples=300, deadline=None)
    @given(records)
    @example(
        EvidenceRecord(
            kind="verdict",
            sequence=7,
            stream_time=1e22,
            mac="02:00:00:00:00:01",
            verdict="CaféCam ☃",
            matched_types=("CaféCam ☃", "EdnetCam"),
            provenance={"EdnetCam": {"reference_indices": [0, 3], "selection_seed": BIG_SEED}},
            identifier_revision=2**63,
            cache_epoch=None,
            completion_reason="idle",
            detail={"nested": {"deeper": [1e-7, -0.0, None, True, "é\n\"\\"]}},
        )
    )
    def test_every_record_kind_matches_the_json_module(self, record):
        line = encode_line(record)
        assert line == oracle_encode_line(record)
        assert encode_line(with_fragments(record)) == line
        assert line.isascii() and line.endswith("}\n") and line.count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_values_match_the_json_module(self, value):
        assert encode_json(value) == CANONICAL_JSON.encode(value)

    @pytest.mark.parametrize(
        "value, text",
        [
            (float("nan"), "NaN"),
            (float("inf"), "Infinity"),
            (float("-inf"), "-Infinity"),
            ({"t": [float("nan"), -0.0]}, '{"t":[NaN,-0.0]}'),
        ],
    )
    def test_non_finite_floats_follow_the_json_module(self, value, text):
        # The json module's default (allow_nan): written, not refused.
        assert encode_json(value) == CANONICAL_JSON.encode(value) == text

    def test_repeated_and_signed_zero_floats_render_their_own_value(self):
        zero, negative_zero, big = 0.0, -0.0, 1e22
        for value in (zero, negative_zero, zero, big, big, float("nan"), negative_zero, 2.5):
            assert encode_json(value) == CANONICAL_JSON.encode(value)

    def test_non_string_keys_follow_the_json_module(self):
        for mapping in ({2: "a", 1: "b"}, {1.5: 0, -0.0: 1}, {True: 1, False: 0}, {None: 1}):
            assert encode_json(mapping) == CANONICAL_JSON.encode(mapping)

    def test_subclasses_encode_as_their_base_type(self):
        class Text(str):
            pass

        class Number(int):
            pass

        value = {"a": Text("xé"), "b": Number(5), "c": [Number(2**65)]}
        assert encode_json(value) == CANONICAL_JSON.encode(value)
        record = EvidenceRecord(kind="verdict", mac=Text("m"), cache_epoch=Number(3))
        assert encode_line(record) == oracle_encode_line(record)

    def test_unencodable_values_are_refused(self):
        with pytest.raises(TypeError):
            CANONICAL_JSON.encode({"x": object()})
        with pytest.raises(LedgerError, match="not JSON serializable"):
            encode_json({"x": object()})
        with pytest.raises(LedgerError, match="keys must be"):
            encode_json({(1, 2): 0})
        with pytest.raises(LedgerError):
            encode_line(EvidenceRecord(kind="learn", detail={"at": object()}))

    def test_lines_decode_back_to_their_record(self):
        record = EvidenceRecord(
            kind="enforcement",
            sequence=3,
            mac="02:00:00:00:00:02",
            verdict="HueBridge",
            enforcement_action="TRUSTED",
            identifier_revision=1,
            cache_epoch=4,
            stream_time=12.5,
        )
        line = encode_line(record)
        assert decode_line(line) == record
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n" == line


class TestVerdictFragments:
    def result(self) -> IdentificationResult:
        return IdentificationResult(device_type="EdnetCam", matched_types=("EdnetCam",))

    def test_fragments_are_rendered_once_per_result(self):
        result = self.result()
        fragments = verdict_fragments(result)
        assert verdict_fragments(result) is fragments
        assert verdict_fragments(self.result()) is not fragments
        assert fragments.verdict_json == '"EdnetCam"'
        assert fragments.matched_types_json == '["EdnetCam"]'

    def test_fragments_go_with_their_result(self):
        result = self.result()
        probe = weakref.ref(verdict_fragments(result))
        del result
        gc.collect()
        assert probe() is None

    def test_fragments_that_no_longer_describe_the_record_are_ignored(self):
        fragments = LineFragments.render("EdnetCam", ("EdnetCam",), {})
        record = EvidenceRecord(
            kind="verdict",
            verdict="EdnetCam",
            matched_types=fragments.matched_types,
            provenance=fragments.provenance,
            fragments=fragments,
        )
        changed = record.derive(matched_types=("Other",))
        assert '"matched_types":["Other"]' in encode_line(changed)
        assert encode_line(changed) == oracle_encode_line(changed)
        assert record == record.derive(fragments=None)
