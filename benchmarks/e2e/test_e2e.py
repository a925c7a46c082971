"""Quick self-test of the end-to-end benchmark (quick sizes, well under 30 s).

Run from the repository root::

    python -m pytest benchmarks/e2e/test_e2e.py -q

It drives the benchmark exactly as a driver does -- fresh processes
through ``python -m benchmarks.e2e ... --trace 0|1`` -- and checks what
the benchmark promises: the printed metric names are the ones
BENCHMARK.json declares, the traced layer times reconcile with the
traced wall time, identical runs reach identical verdicts, no device
goes without a verdict, the host-speed sampler covers every repetition
and stops with its context, and the benchmark's own files pass
repro-lint.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--quick", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    detail = json.loads(out.read_text())
    assert detail["result"] == last
    return detail


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e")
    return {
        "first": _run(directory / "first.json", "onboard_clones", 0),
        "second": _run(directory / "second.json", "onboard_clones", 0),
        "traced": _run(directory / "traced.json", "forward", 1),
    }


def test_metric_names_and_units_match_benchmark_json(runs):
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    printed = {name: metric["unit"] for name, metric in runs["first"]["result"]["metrics"].items()}
    assert printed == declared
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    printed = {name: metric["unit"] for name, metric in runs["traced"]["result"]["metrics"].items()}
    assert printed == declared


def test_traced_layer_times_reconcile_with_wall_time(runs):
    metrics = {name: m["value"] for name, m in runs["traced"]["result"]["metrics"].items()}
    layered = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert layered + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )
    assert 0.0 <= metrics["trace.unattributed_frac"] <= 0.15
    assert runs["traced"]["checks"]["trace_reconciles"]


def test_identical_runs_reach_identical_verdicts(runs):
    first, second = runs["first"], runs["second"]
    assert first["input_digest"] == second["input_digest"]
    assert first["verdict_digest"] == second["verdict_digest"]
    assert first["checks"]["digest_stable"] and second["checks"]["digest_stable"]


def test_every_device_gets_a_verdict(runs):
    for detail in runs.values():
        assert detail["result"]["failed"] == 0
        assert detail["result"]["correct"], detail["checks"]


def test_host_speed_is_sampled_for_every_repetition(runs):
    detail = runs["first"]
    assert detail["wall_clock"].keys() == detail["result"]["metrics"].keys()
    for rep in detail["repetitions"]:
        assert rep["slowness"] > 0 and rep["verdict_slowness"] > 0


def test_host_speed_samples_only_while_open():
    from benchmarks.e2e.hostspeed import PERIOD_S, HostSpeed

    host = HostSpeed()
    with host:
        mark = host.mark()
        deadline = time.perf_counter() + 20 * PERIOD_S
        while time.perf_counter() < deadline:
            pass
        assert host.slowness(mark) > 0
    taken = len(host.samples)
    time.sleep(5 * PERIOD_S)
    assert len(host.samples) == taken
    with pytest.raises(ValueError):
        host.slowness(host.mark())


def test_benchmark_passes_repro_lint():
    """Canonical result JSON and seeded RNG (the shipped gate), and --
    because the shipped config exempts benchmark harnesses from the
    wall-clock ban -- ``perf_counter`` as the only clock."""
    completed = subprocess.run(
        [sys.executable, "-m", "tools.lint", "benchmarks/e2e"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr

    from tools.lint import LintConfig, lint_paths
    from tools.lint.config import RuleScope

    config = LintConfig.default()
    scopes = {**config.scopes, "no-wallclock": RuleScope(include=("benchmarks/e2e/",))}
    findings, scanned = lint_paths(
        [ROOT / "benchmarks" / "e2e"], LintConfig(rules=config.rules, scopes=scopes), root=ROOT
    )
    assert scanned > 0
    assert findings == [], "\n".join(finding.render() for finding in findings)
