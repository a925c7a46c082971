"""Batched vs per-sample forest inference on the identification workload.

A fitted forest is flat node arrays (:mod:`repro.ml.compiled`) whose
descent advances a whole batch level by level.  This benchmark measures
what batching buys on the paper's fixed-length fingerprints:

* *forest level* -- one Random Forest scoring a large fingerprint batch
  in one call, against one call per sample of the same forest; and
* *bank level* -- a full :class:`~repro.identification.ClassifierBank`
  scoring a ``(batch x device-types)`` matrix through its fused forest
  stack the way the streaming dispatcher does, against a per-sample,
  per-type loop of forest calls (at batch 192) and against one forest
  call per type (at batch 12, the facade's mean batch).  The fused scores
  must be bitwise equal to the per-type forests.

Headline numbers land in ``BENCH_compiled_inference.json`` so CI tracks
the speedup over time.  ``REPRO_BENCH_QUICK=1`` shrinks the batch for
smoke runs.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import BENCH_QUICK, BENCH_SEED
from repro.identification.classifier_bank import POSITIVE_LABEL
from repro.ml.forest import RandomForestClassifier

FOREST_BATCH = 2000 if BENCH_QUICK else 6000
BANK_BATCH = 48 if BENCH_QUICK else 192
#: The facade's mean dispatch batch (``identification.mean_batch`` of the
#: end-to-end benchmark's ``onboard_unique`` workload).
FACADE_BATCH = 12
COMPILED_REPEATS = 3

# The acceptance floor for the subsystem is 5x at full scale.  Quick mode
# runs on small batches on shared CI runners, where single-shot wall-clock
# is noisy; assert only a sanity floor there and let the uploaded
# BENCH_*.json carry the real trajectory.
SPEEDUP_FLOOR = 2.0 if BENCH_QUICK else 5.0


def _timed(function, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall-clock of ``function()`` and its result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_compiled_forest_speedup(bench_dataset, bench_report):
    registry = bench_dataset.to_registry()
    X, labels = registry.training_matrices()
    forest = RandomForestClassifier(n_estimators=10, random_state=BENCH_SEED).fit(X, labels)

    rng = np.random.default_rng(BENCH_SEED)
    batch = X[rng.integers(0, len(X), size=FOREST_BATCH)].astype(np.float64)

    per_sample_seconds, per_sample = _timed(
        lambda: np.vstack([forest.predict_proba(row) for row in batch])
    )
    batched_seconds, vectorized = _timed(
        lambda: forest.predict_proba(batch), repeats=COMPILED_REPEATS
    )
    speedup = per_sample_seconds / batched_seconds

    print()
    print("Forest inference (single multiclass forest)")
    print(f"  batch size                     {len(batch)}")
    print(f"  trees / total nodes            {forest.n_estimators} / {forest.node_count}")
    print(f"  per-sample predict_proba       {per_sample_seconds * 1000:.1f} ms")
    print(f"  batched predict_proba          {batched_seconds * 1000:.2f} ms")
    print(f"  speedup                        {speedup:.1f}x")

    # Batching must be a pure optimisation: identical outputs.
    assert np.array_equal(per_sample, vectorized)
    assert speedup >= SPEEDUP_FLOOR

    bench_report(
        "compiled_inference",
        {
            "forest": {
                "batch_size": int(len(batch)),
                "n_estimators": forest.n_estimators,
                "node_count": forest.node_count,
                "per_sample_seconds": per_sample_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
            }
        },
    )


def _per_type_scores(bank, matrix):
    """One compiled-forest call per type: the pre-fusion bank, as the oracle."""
    types = bank.device_types
    positive = np.zeros((len(matrix), len(types)))
    accepted = np.zeros((len(matrix), len(types)), dtype=bool)
    for column, device_type in enumerate(types):
        forest = bank.classifier_of(device_type).compiled
        probabilities = forest.predict_proba(matrix)
        positive_column = list(forest.classes_).index(POSITIVE_LABEL)
        positive[:, column] = probabilities[:, positive_column]
        accepted[:, column] = np.argmax(probabilities, axis=1) == positive_column
    return positive, accepted


def test_bank_batch_scoring_speedup(bench_identifier, bench_dataset, bench_report):
    bank = bench_identifier.bank
    fingerprints = bench_dataset.fingerprints
    rng = np.random.default_rng(BENCH_SEED + 1)
    chosen = [fingerprints[int(i)] for i in rng.integers(0, len(fingerprints), size=BANK_BATCH)]
    matrix = np.stack(
        [fingerprint.to_fixed_vector(bank.fixed_packet_count) for fingerprint in chosen]
    ).astype(np.float64)

    def per_sample_loop():
        # Per sample, per type, one forest call on a single row.
        verdicts = []
        for row in matrix:
            for device_type in bank.device_types:
                verdicts.append(bank.classifier_of(device_type).compiled.predict_proba(row))
        return verdicts

    per_sample_seconds, _ = _timed(per_sample_loop)
    batched_seconds, scores = _timed(lambda: bank.score_batch(matrix), repeats=COMPILED_REPEATS)
    speedup = per_sample_seconds / batched_seconds

    facade = matrix[:FACADE_BATCH]
    per_type_seconds, _ = _timed(lambda: _per_type_scores(bank, facade), repeats=COMPILED_REPEATS)
    fused_seconds, _ = _timed(lambda: bank.score_batch(facade), repeats=COMPILED_REPEATS)
    fusion_speedup = per_type_seconds / fused_seconds

    print()
    print("Classifier bank batch scoring (batch x device-types)")
    print(f"  batch size                     {len(matrix)}")
    print(f"  device-types                   {len(bank.device_types)}")
    print(f"  per-sample, per-type loop      {per_sample_seconds * 1000:.1f} ms")
    print(f"  fused batch scoring            {batched_seconds * 1000:.2f} ms")
    print(f"  speedup                        {speedup:.1f}x")
    print(f"  batch {FACADE_BATCH}: per-type forests      {per_type_seconds * 1000:.2f} ms")
    print(f"  batch {FACADE_BATCH}: fused stack           {fused_seconds * 1000:.2f} ms")
    print(f"  batch {FACADE_BATCH}: speedup               {fusion_speedup:.1f}x")

    # The fused stack must be a pure optimisation: bitwise-equal scores.
    positive, accepted = _per_type_scores(bank, matrix)
    assert scores.positive.tobytes() == positive.tobytes()
    assert np.array_equal(scores.accepted, accepted)
    assert speedup >= SPEEDUP_FLOOR

    bench_report(
        "bank_batch_scoring",
        {
            "bank": {
                "batch_size": int(len(matrix)),
                "device_types": len(bank.device_types),
                "per_sample_seconds": per_sample_seconds,
                "batched_seconds": batched_seconds,
                "speedup": speedup,
            },
            "bank_facade_batch": {
                "batch_size": FACADE_BATCH,
                "device_types": len(bank.device_types),
                "per_type_seconds": per_type_seconds,
                "fused_seconds": fused_seconds,
                "speedup": fusion_speedup,
            },
        },
    )
