"""Shared fixtures and configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section and prints the corresponding rows/series.  The identification
benchmarks are the expensive ones; their scale is controlled through
environment variables so that a full paper-scale run can be requested
explicitly:

* ``REPRO_BENCH_RUNS``   -- setup runs per device-type (paper: 20, default: 12)
* ``REPRO_BENCH_FOLDS``  -- cross-validation folds      (paper: 10, default: 5)
* ``REPRO_BENCH_REPEATS``-- cross-validation repetitions (paper: 10, default: 1)
* ``REPRO_BENCH_QUICK``  -- set to ``1`` for CI smoke runs (small batches)
* ``REPRO_BENCH_OUT``    -- directory for ``BENCH_*.json`` trajectory files
  (default: ``benchmarks/.results/``, which git ignores, so a local run
  never overwrites the baselines committed at the repository root;
  refresh a baseline on purpose with ``REPRO_BENCH_OUT=.`` from the root)

Example paper-scale invocation::

    REPRO_BENCH_RUNS=20 REPRO_BENCH_FOLDS=10 pytest benchmarks/ --benchmark-only

Benchmarks that track the performance trajectory write their headline
numbers to ``BENCH_<name>.json`` through the :func:`write_bench_json`
helper (exposed as the ``bench_report`` fixture); CI uploads those files
as artifacts on every run.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.builder import generate_fingerprint_dataset
from repro.eval.experiments import evaluate_identification
from repro.identification.identifier import DeviceTypeIdentifier

BENCH_RUNS_PER_TYPE = int(os.environ.get("REPRO_BENCH_RUNS", "12"))
BENCH_FOLDS = int(os.environ.get("REPRO_BENCH_FOLDS", "5"))
BENCH_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "1"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"
BENCH_OUTPUT_DIR = Path(
    os.environ.get("REPRO_BENCH_OUT", str(Path(__file__).resolve().parent / ".results"))
)


def write_bench_json(name: str, payload: dict) -> Path:
    """Record a benchmark's headline numbers as ``BENCH_<name>.json``.

    The file is the perf trajectory CI uploads as an artifact; keep the
    payload small (headline scalars, not raw samples).
    """
    BENCH_OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    document = {
        "benchmark": name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick_mode": BENCH_QUICK,
        "config": {
            "runs_per_type": BENCH_RUNS_PER_TYPE,
            "folds": BENCH_FOLDS,
            "repeats": BENCH_REPEATS,
            "seed": BENCH_SEED,
        },
        **payload,
    }
    path = BENCH_OUTPUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def make_section_reporter(name: str):
    """A per-file accumulator for multi-benchmark ``BENCH_<name>.json``.

    Several benchmarks in one file report into one trajectory document;
    each records its section through the returned callable and the merged
    document is rewritten, so the file is complete whenever every
    benchmark ran and partial (but valid) for a lone run.

    Each section is stamped with ``run_metadata`` (python/numpy version,
    machine) so a trajectory point can be attributed to its toolchain;
    pass ``identifier=`` and/or ``cache_epoch=`` to additionally record
    the identifier revision and cache generation the numbers were
    measured under -- the same stamps the evidence ledger carries.
    """
    sections: dict = {}

    def report(
        bench_report,
        section: str,
        payload: dict,
        identifier=None,
        cache_epoch=None,
    ) -> None:
        metadata = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        }
        if identifier is not None:
            metadata["identifier_revision"] = identifier.revision
        if cache_epoch is not None:
            metadata["cache_epoch"] = cache_epoch
        sections[section] = {**payload, "run_metadata": metadata}
        bench_report(name, dict(sections))

    return report


@pytest.fixture(scope="session")
def bench_report():
    """The ``BENCH_*.json`` writer, as a fixture for the benchmark files."""
    return write_bench_json


@pytest.fixture(scope="session")
def bench_dataset():
    """The synthetic evaluation dataset (27 device-types, Table II)."""
    return generate_fingerprint_dataset(runs_per_type=BENCH_RUNS_PER_TYPE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_identifier(bench_dataset):
    """An identifier trained on the full benchmark dataset (for Table IV)."""
    return DeviceTypeIdentifier.train(bench_dataset.to_registry(), random_state=BENCH_SEED)


class _EvaluationCache:
    """Caches the cross-validated evaluation so Fig. 5 and Table III share it."""

    def __init__(self) -> None:
        self.evaluation = None

    def get(self, dataset):
        if self.evaluation is None:
            self.evaluation = evaluate_identification(
                dataset,
                n_splits=BENCH_FOLDS,
                repetitions=BENCH_REPEATS,
                random_state=BENCH_SEED,
            )
        return self.evaluation


@pytest.fixture(scope="session")
def evaluation_cache():
    return _EvaluationCache()
