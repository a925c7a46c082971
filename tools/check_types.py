#!/usr/bin/env python3
"""Typed-core gate: run mypy over the packages that promise full annotations.

The typed core is ``repro.net``, ``repro.obs``, ``repro.fleet`` and
``repro.sdn`` -- the wire-format, evidence, fleet-coordination and
flow-table layers, where a type error means a corrupted artifact or a
misrouted packet rather than a stack trace.  The
``[tool.mypy]`` table in ``pyproject.toml`` holds the per-module
strictness; this script only picks the targets and normalises the exit.

mypy is a dev dependency, not a runtime one.  When it is not installed
(minimal containers, the stdlib-only local loop) the gate *skips* with
exit 0 and says so -- CI installs ``.[dev]`` and therefore always runs
the real check.  Pass ``--require`` to turn a missing mypy into a
failure (what the CI job does, so a broken install cannot masquerade
as a pass).
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys

try:
    from tools._common import REPO_ROOT, report
except ImportError:  # running as `python tools/check_types.py`
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _common import REPO_ROOT, report

#: The packages the mypy gate is strict about, in lint order.
TYPED_CORE = (
    "src/repro/net",
    "src/repro/obs",
    "src/repro/fleet",
    "src/repro/sdn",
)


def mypy_available() -> bool:
    return importlib.util.find_spec("mypy") is not None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail (exit 1) when mypy is not installed instead of skipping",
    )
    args = parser.parse_args(argv)

    if not mypy_available():
        if args.require:
            return report(
                "check_types",
                ["mypy is not installed but --require was passed (pip install '.[dev]')"],
            )
        print("check_types: SKIPPED (mypy not installed; pip install '.[dev]' to enable)")
        return 0

    command = [sys.executable, "-m", "mypy", *TYPED_CORE]
    completed = subprocess.run(command, cwd=REPO_ROOT)
    errors = [] if completed.returncode == 0 else [
        f"mypy exited {completed.returncode} on the typed core ({', '.join(TYPED_CORE)})"
    ]
    return report("check_types", errors, ok_label="typed core is clean")


if __name__ == "__main__":
    raise SystemExit(main())
