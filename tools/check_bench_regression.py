#!/usr/bin/env python3
"""Throughput-regression guard for ``BENCH_streaming_throughput.json``.

Compares a freshly produced benchmark trajectory file against the
committed baseline and fails (exit 1) only on a real regression of a
machine-independent metric.  Dependency-free (stdlib only) so it runs on
any CI runner.

Two classes of metric are checked:

* **Guarded ratios** -- same-process comparisons such as
  ``columnar_datapath.speedup_over_scalar`` (batched pipeline vs the
  per-packet reference on the same machine, same run).  These cancel out
  host speed, so a drop beyond the tolerance (default 30%) is a genuine
  datapath regression and hard-fails.
* **Advisory absolutes** -- raw ``packets_per_second`` numbers.  These
  are whatever the current host can do; a CI container is not the
  machine that recorded the committed baseline, so they are printed and
  compared but never fail the build on their own.

Usage::

    python tools/check_bench_regression.py \
        --baseline BENCH_streaming_throughput.json \
        --current bench-results/BENCH_streaming_throughput.json \
        [--tolerance 0.30]

A guarded ratio missing from either file fails the check: a renamed or
dropped section would otherwise switch the guard off unnoticed.  A
missing advisory absolute is skipped with a note.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from tools._common import load_json, report
except ImportError:  # script context: `python tools/check_bench_regression.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _common import load_json, report

#: (section, metric) pairs whose regression beyond the tolerance fails the
#: build.  All are same-run ratios, immune to host-speed differences.
GUARDED_RATIOS = (
    ("columnar_datapath", "speedup_over_scalar"),
)

#: (section, metric) pairs reported for trend visibility only.
ADVISORY_ABSOLUTES = (
    ("stream", "packets_per_second"),
    ("columnar_datapath", "packets_per_second"),
    ("columnar_datapath", "scalar_packets_per_second"),
)


def metric(document: dict, section: str, name: str):
    body = document.get(section)
    if not isinstance(body, dict):
        return None
    value = body.get(name)
    return value if isinstance(value, (int, float)) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_streaming_throughput.json")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly produced benchmark file to vet")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="fractional regression allowed on guarded "
                             "ratios before hard failure (default 0.30)")
    args = parser.parse_args(argv)

    baseline = load_json(args.baseline, what="baseline benchmark file")
    current = load_json(args.current, what="current benchmark file")
    failures = []

    print(f"baseline: {args.baseline}  (recorded {baseline.get('recorded_at', '?')}, "
          f"quick_mode={baseline.get('quick_mode')})")
    print(f"current:  {args.current}  (recorded {current.get('recorded_at', '?')}, "
          f"quick_mode={current.get('quick_mode')})")
    print()

    for section, name in GUARDED_RATIOS:
        base = metric(baseline, section, name)
        now = metric(current, section, name)
        label = f"{section}.{name}"
        if base is None or now is None:
            missing = "baseline" if base is None else "current"
            print(f"FAIL  {label}: missing in {missing} file")
            failures.append(f"{label} is missing in the {missing} file")
            continue
        floor = base * (1.0 - args.tolerance)
        verdict = "ok" if now >= floor else "REGRESSION"
        print(f"{'FAIL' if now < floor else 'ok':4.4}  {label}: "
              f"{now:.3f} vs baseline {base:.3f} "
              f"(floor {floor:.3f}, tolerance {args.tolerance:.0%}) -- {verdict}")
        if now < floor:
            failures.append(
                f"{label} regressed beyond {args.tolerance:.0%}: "
                f"{now:.3f} < {floor:.3f} (baseline {base:.3f})"
            )

    print()
    for section, name in ADVISORY_ABSOLUTES:
        base = metric(baseline, section, name)
        now = metric(current, section, name)
        label = f"{section}.{name}"
        if base is None or now is None:
            print(f"SKIP  {label}: missing in "
                  f"{'baseline' if base is None else 'current'} file")
            continue
        delta = (now - base) / base if base else 0.0
        print(f"info  {label}: {now:,.0f} vs baseline {base:,.0f} "
              f"({delta:+.0%}, advisory -- host speeds differ)")

    print()
    return report("check_bench_regression", failures, ok_label="guarded ratios within tolerance")


if __name__ == "__main__":
    sys.exit(main())
