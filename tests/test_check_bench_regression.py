"""tools/check_bench_regression: the CI throughput guard fails closed."""

from __future__ import annotations

import json

import pytest

from tools.check_bench_regression import GUARDED_RATIOS, main


def _write(path, speedup=None, section="columnar_datapath"):
    body = {"packets_per_second": 100_000.0}
    if speedup is not None:
        body["speedup_over_scalar"] = speedup
    path.write_text(json.dumps({section: body}))
    return path


def _check(tmp_path, baseline, current):
    return main(
        ["--baseline", str(_write(tmp_path / "baseline.json", **baseline)),
         "--current", str(_write(tmp_path / "current.json", **current))]
    )


def test_the_guard_keys_on_the_speedup_the_bench_writes():
    assert GUARDED_RATIOS == (("columnar_datapath", "speedup_over_scalar"),)


def test_a_ratio_within_tolerance_passes(tmp_path, capsys):
    assert _check(tmp_path, {"speedup": 2.4}, {"speedup": 1.7}) == 0
    assert "ok    columnar_datapath.speedup_over_scalar" in capsys.readouterr().out


def test_a_ratio_below_the_floor_fails(tmp_path):
    assert _check(tmp_path, {"speedup": 2.4}, {"speedup": 1.6}) == 1


@pytest.mark.parametrize(
    "baseline, current",
    [
        ({"speedup": 2.4}, {}),  # the bench stopped writing the metric
        ({"speedup": 2.4}, {"speedup": 3.0, "section": "renamed"}),
        ({}, {"speedup": 3.0}),  # the baseline lost it
    ],
    ids=["metric-dropped", "section-renamed", "baseline-missing"],
)
def test_a_missing_guarded_ratio_fails(tmp_path, capsys, baseline, current):
    assert _check(tmp_path, baseline, current) == 1
    out = capsys.readouterr().out
    assert "FAIL  columnar_datapath.speedup_over_scalar: missing in" in out
    assert "check_bench_regression: FAILED" in out


def test_a_missing_advisory_absolute_only_skips(tmp_path, capsys):
    # Neither file has the ``stream`` section: advisory, so no failure.
    assert _check(tmp_path, {"speedup": 2.4}, {"speedup": 2.4}) == 0
    assert "SKIP  stream.packets_per_second" in capsys.readouterr().out
