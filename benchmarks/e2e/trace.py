"""In-memory span tracer for the traced benchmark run.

The tracer wraps *public calls* of the gateway's layers from the
benchmark process -- instance attributes on the components a
:class:`~repro.api.GatewayHandle` exposes, plus three module/class
attributes patched by name -- so no file under ``src/`` changes.  Each
wrapped call records one span ``(layer, start, end, parent)``; a call
that re-enters the layer it is already inside is not split into a
second span.  Spans stay in memory (parallel typed arrays) and are
written out when the run ends.

A layer's *self time* is its spans' durations minus the durations of
their child spans.  Time inside the traced region that no span covers is
*unattributed* (pipeline glue, the benchmark's own loop), so by
construction::

    sum(self time over layers) + unattributed == traced wall time

which the self-test checks from the recorded spans.
"""

from __future__ import annotations

import csv
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Layer -> the public calls wrapped for it.  Order is the report order.
LAYERS = (
    "net.parse",
    "features.extract",
    "streaming.assemble",
    "streaming.dispatch",
    "streaming.cache",
    "identification.classify",
    "distance.discriminate",
    "gateway.sink",
    "security_service.assess",
    "gateway.enforce",
    "gateway.rule_cache",
    "identification.lifecycle",
    "sdn.flow_table",
    "sdn.lookup",
    "gateway.authorize",
    "gateway.rule_cache_lookup",
    "obs.record",
    "obs.ledger_append",
    "ml.train",
    "model_store.save",
    "api.build_gateway",
)

_NO_PARENT = -1


class Tracer:
    """Records nested spans around wrapped calls; restores what it patched."""

    def __init__(self) -> None:
        self._layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
        self.layer_of = array("i")
        self.parent_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [_NO_PARENT]
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self.wall = 0.0

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with every call recorded as a span of ``layer``."""
        layer_id = self._layer_ids[layer]
        layer_of, parent_of = self.layer_of, self.parent_of
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if parent != _NO_PARENT and layer_of[parent] == layer_id:
                return function(*args, **kwargs)
            index = len(starts)
            layer_of.append(layer_id)
            parent_of.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner: Any, name: str, layer: str) -> None:
        """Replace ``owner.name`` by its traced version until :meth:`restore`."""
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else None
        self._patches.append((owner, name, had_own, original))
        setattr(owner, name, self.wrap(layer, getattr(owner, name)))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, name, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------------ #
    # Accounting.
    # ------------------------------------------------------------------ #
    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and ``total_s`` (inclusive)."""
        layers = np.frombuffer(self.layer_of, dtype=np.int32)
        parents = np.frombuffer(self.parent_of, dtype=np.int32)
        durations = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        nested = parents != _NO_PARENT
        child_time = np.zeros(len(durations))
        np.add.at(child_time, parents[nested], durations[nested])
        self_time = durations - child_time
        calls = np.bincount(layers, minlength=len(LAYERS))
        self_sum = np.bincount(layers, weights=self_time, minlength=len(LAYERS))
        total_sum = np.bincount(layers, weights=durations, minlength=len(LAYERS))
        return {
            layer: {
                "calls": int(calls[index]),
                "self_s": float(self_sum[index]),
                "total_s": float(total_sum[index]),
            }
            for index, layer in enumerate(LAYERS)
        }

    def unattributed(self) -> float:
        """Traced wall time covered by no top-level span."""
        parents = np.frombuffer(self.parent_of, dtype=np.int32)
        durations = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        return self.wall - float(durations[parents == _NO_PARENT].sum())

    def write(self, directory: Path) -> None:
        """``spans.csv`` (every span) and ``stage_latency.csv`` (per layer)."""
        directory.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with open(directory / "spans.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "layer", "start_s", "end_s", "parent"])
            for index in range(len(self.starts)):
                writer.writerow([
                    index,
                    LAYERS[self.layer_of[index]],
                    f"{self.starts[index] - origin:.9f}",
                    f"{self.ends[index] - origin:.9f}",
                    self.parent_of[index],
                ])
        table = self.layer_table()
        with open(directory / "stage_latency.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["layer", "calls", "self_s", "total_s", "self_share"])
            for layer in LAYERS:
                row = table[layer]
                share = row["self_s"] / self.wall if self.wall else 0.0
                writer.writerow([
                    layer, row["calls"], f"{row['self_s']:.9f}", f"{row['total_s']:.9f}",
                    f"{share:.6f}",
                ])
            unattributed = self.unattributed()
            share = unattributed / self.wall if self.wall else 0.0
            writer.writerow(["(unattributed)", "", f"{unattributed:.9f}", "", f"{share:.6f}"])
            writer.writerow(["(traced wall)", "", f"{self.wall:.9f}", "", "1.000000"])
