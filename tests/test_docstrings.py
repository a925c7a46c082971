"""Docstring examples are executable documentation; they must not rot.

Runs doctest over the public-API modules that carry runnable examples.
CI mirrors this with ``pytest --doctest-modules`` on the same list (a test
below holds the two lists equal), so the examples are exercised both in
the tier-1 suite and the docs job.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

import repro.distance.damerau_levenshtein
import repro.features.fingerprint
import repro.features.packet_features
import repro.gateway.enforcement
import repro.identification.autopilot
import repro.identification.lifecycle
import repro.ml.compiled
import repro.net.addresses
import repro.net.batch
import repro.net.pcap
import repro.obs.evidence
import repro.obs.hub
import repro.obs.ledger
import repro.obs.metrics
import repro.streaming.assembler
import repro.streaming.dispatcher

DOCTESTED_MODULES = [
    repro.distance.damerau_levenshtein,
    repro.features.fingerprint,
    repro.features.packet_features,
    repro.gateway.enforcement,
    repro.identification.autopilot,
    repro.identification.lifecycle,
    repro.ml.compiled,
    repro.net.addresses,
    repro.net.batch,
    repro.net.pcap,
    repro.obs.evidence,
    repro.obs.hub,
    repro.obs.ledger,
    repro.obs.metrics,
    repro.streaming.assembler,
    repro.streaming.dispatcher,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests_pass(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its runnable examples"
    assert result.failed == 0


def test_ci_doctests_the_same_modules():
    """The docs job's ``--doctest-modules`` paths are this file's list."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
    command = workflow.read_text().split("--doctest-modules", 1)[1].split("- name:", 1)[0]
    ci_modules = re.findall(r"src/(\S+)\.py", command)
    assert sorted(path.replace("/", ".") for path in ci_modules) == sorted(
        module.__name__ for module in DOCTESTED_MODULES
    )


def test_public_api_is_documented():
    """Every re-exported name on the package root carries a docstring."""
    import repro

    undocumented = []
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        if isinstance(obj, str):  # UNKNOWN_DEVICE_TYPE, __version__
            continue
        if not (getattr(obj, "__doc__", None) or "").strip():
            undocumented.append(name)
    assert undocumented == []
