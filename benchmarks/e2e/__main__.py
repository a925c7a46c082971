"""Command line of the end-to-end benchmark.

One run (what an automated driver calls; ``--trace`` selects it)::

    python -m benchmarks.e2e --workload onboard_unique --seed 1 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

A suite (no ``--trace``) runs every workload (or ``--workload W``) as
``--repeats`` fresh untraced processes plus one traced process, prints
each metric's median and quartiles, and writes them to ``--out``::

    python -m benchmarks.e2e --seed 1 --repeats 5 --out a.json
    python -m benchmarks.e2e --compare a.json b.json

The benchmark builds nothing: it imports ``repro`` from the ``src/`` tree
of the checkout it lives in, and refuses to run without one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
WORKDIR = ROOT / "benchmarks" / "e2e" / ".work"
#: Set-up (train + save + build) repetitions per run; setup_s is their median.
SETUP_REPEATS = 3


def _import_repro() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks.e2e: no repro source tree under {source}; "
            "run the benchmark from a full checkout of the repository"
        )
    # One thread per run: the load is the one process under test.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"benchmarks.e2e: imported repro from {repro.__file__}, not {source}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end, per-layer benchmark of the build_gateway() facade.",
    )
    parser.add_argument("--workload", help="one workload (default: all, suite mode only)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="measured window per run (default 15)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="run once in this process: 0 end-to-end metrics, 1 per-layer metrics",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="untraced runs per workload in a suite"
    )
    parser.add_argument("--out", type=Path, help="write the run's or suite's result file")
    parser.add_argument("--quick", action="store_true", help="small inputs (self-test)")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("A", "B"),
        help="compare two suite result files against the BENCHMARK.json bounds",
    )
    return parser


def _single(args: argparse.Namespace) -> int:
    from benchmarks.e2e.inputs import FULL, QUICK, WORKLOADS, workload_input
    from benchmarks.e2e.run import execute

    if args.workload not in WORKLOADS:
        raise SystemExit(f"--workload must be one of {', '.join(WORKLOADS)}")
    sizes = QUICK if args.quick else FULL
    workload = workload_input(WORKDIR, args.workload, args.seed, sizes)
    outcome = execute(
        workload,
        WORKDIR,
        seconds=args.seconds,
        trace=bool(args.trace),
        setup_repeats=1 if args.quick else SETUP_REPEATS,
        forward_packets=sizes.forward_packets,
    )
    for name, metric in outcome.metrics.items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    failing = sorted(name for name, passed in outcome.checks.items() if not passed)
    print(f"checks: {'all passed' if not failing else 'FAILED ' + ', '.join(failing)}")
    if outcome.trace_dir is not None:
        print(f"per-layer tables: {outcome.trace_dir}")
    if args.out is not None:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "input_digest": workload.digest,
            "verdict_digest": outcome.verdict_digest,
            "checks": outcome.checks,
            "repetitions": outcome.repetitions,
            "wall_clock": outcome.wall_clock,
            "trace_dir": outcome.trace_dir,
            "result": outcome.result(),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(detail, sort_keys=True, indent=2) + "\n")
    print(json.dumps(outcome.result(), sort_keys=True, separators=(", ", ": ")))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare is not None:
        from benchmarks.e2e.suite import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    _import_repro()
    if args.trace is not None:
        return _single(args)
    from benchmarks.e2e.suite import run_suite

    return run_suite(args, ROOT, WORKDIR)


if __name__ == "__main__":
    sys.exit(main())
