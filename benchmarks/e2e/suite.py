"""Suites of fresh-process runs, and the comparison of two suites.

A suite runs each workload ``--repeats`` times untraced plus once traced,
every run in a fresh single-threaded Python process, one after another
(so ``peak_rss_mb`` is per run and no run inherits another's allocator or
garbage-collector debt).  Its result file holds, per workload and metric,
every run's value with their median and quartiles, plus the input and
verdict digests ``compare`` insists on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

SCHEMA = 1
#: A child run exceeding this is broken, not slow (runs take ~10-30 s).
CHILD_TIMEOUT_S = 600


def _child(root: Path, args: argparse.Namespace, workload: str, trace: int, out: Path) -> dict:
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(out),
    ]
    if args.quick:
        command.append("--quick")
    completed = subprocess.run(
        command, cwd=root, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited with {completed.returncode}")
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _aggregate(runs: list[dict], traced: dict) -> dict[str, Any]:
    digests = sorted({run["input_digest"] for run in runs + [traced]})
    if len(digests) != 1:
        raise SystemExit(f"runs of one workload saw different inputs: {digests}")
    metrics = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": first["unit"], "values": values, "q1": q1, "median": median, "q3": q3,
        }
    return {
        "input_digest": digests[0],
        "verdict_digests": sorted({run["verdict_digest"] for run in runs + [traced]}),
        "correct": all(run["result"]["correct"] for run in runs + [traced]),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "failed_checks": sorted(
            {name for run in runs + [traced] for name, ok in run["checks"].items() if not ok}
        ),
        "metrics": metrics,
        "per_layer": traced["result"]["metrics"],
        "trace_dir": traced["trace_dir"],
    }


def run_suite(args: argparse.Namespace, root: Path, workdir: Path) -> int:
    """Every (or one) workload: untraced repeats + one traced run; write results."""
    from benchmarks.e2e.inputs import WORKLOADS

    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    workloads = WORKLOADS if args.workload is None else (args.workload,)
    if any(workload not in WORKLOADS for workload in workloads):
        raise SystemExit(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    results: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        for workload in workloads:
            runs = []
            for index in range(args.repeats):
                print(f"[{workload}] run {index + 1}/{args.repeats}", file=sys.stderr)
                out = Path(scratch) / f"{workload}-{index}.json"
                runs.append(_child(root, args, workload, 0, out))
            print(f"[{workload}] traced run", file=sys.stderr)
            traced = _child(root, args, workload, 1, Path(scratch) / f"{workload}-traced.json")
            results[workload] = _aggregate(runs, traced)
    document = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "quick": args.quick,
        "workloads": results,
    }
    out = args.out or workdir / "results" / f"suite__seed-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")

    for workload, result in results.items():
        status = "correct" if result["correct"] else "INCORRECT " + ",".join(
            result["failed_checks"]
        )
        print(f"{workload}: {status}, failed {result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(
                f"  {name:<20} median {metric['median']:>12.6g} {metric['unit']:<6}"
                f" q1 {metric['q1']:.6g} q3 {metric['q3']:.6g}"
            )
        print(f"  per-layer tables: {result['trace_dir']}")
    print(f"results: {out}")
    return 0 if all(result["correct"] for result in results.values()) else 1


# --------------------------------------------------------------------- #
# Comparison.
# --------------------------------------------------------------------- #
def judge(before: dict, after: dict, better: str, bound: float) -> str:
    """better / worse / within bound / unresolved, for one metric.

    A metric whose run-to-run spread (quartile distance over median) on
    either side exceeds its bound is unresolved -- unless every run of
    ``after`` reads better than every run of ``before``.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = before["median"]
    change = sign * (after["median"] - base) / base  # > 0: worse
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (before, after) if side["median"]
    )
    if spread > bound:
        if all(sign * a < sign * b for a in after["values"] for b in before["values"]):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(path_a: Path, path_b: Path, benchmark_json: Path) -> int:
    """Compare two suite result files; non-zero on any regression."""
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    bounds = {
        metric["name"]: metric for metric in json.loads(benchmark_json.read_text())["end_to_end"]
    }
    if sorted(a) != sorted(b):
        print(f"refusing to compare: workloads differ ({sorted(a)} vs {sorted(b)})")
        return 2
    mismatched = [w for w in sorted(a) if a[w]["input_digest"] != b[w]["input_digest"]]
    if mismatched:
        print(f"refusing to compare: input digests differ for {', '.join(mismatched)}")
        return 2
    regressions = []
    for workload in sorted(a):
        before, after = a[workload], b[workload]
        print(f"{workload}:")
        for name, metric in bounds.items():
            verdict = judge(before["metrics"][name], after["metrics"][name],
                            metric["better"], metric["bound"])
            print(
                f"  {name:<16} A {before['metrics'][name]['median']:>12.6g}"
                f" [{before['metrics'][name]['q1']:.6g}, {before['metrics'][name]['q3']:.6g}]"
                f"  B {after['metrics'][name]['median']:>12.6g}"
                f" [{after['metrics'][name]['q1']:.6g}, {after['metrics'][name]['q3']:.6g}]"
                f" {metric['unit']:<6} bound {metric['bound']:.0%}: {verdict}"
            )
            if verdict == "worse":
                regressions.append(f"{workload} {name} worse")
        failed_a = before["failed"] / before["attempted"]
        failed_b = after["failed"] / after["attempted"]
        print(f"  failed_frac      A {failed_a:.6g}  B {failed_b:.6g}")
        if failed_b > failed_a:
            regressions.append(f"{workload} failed_frac higher")
        if before["verdict_digests"] != after["verdict_digests"] or len(
            after["verdict_digests"]
        ) != 1:
            regressions.append(f"{workload} verdict digest mismatch")
            print("  verdict digest   MISMATCH")
        else:
            print("  verdict digest   identical")
    print("regressions: " + (", ".join(regressions) if regressions else "none"))
    return 1 if regressions else 0
