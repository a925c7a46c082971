"""Plain-text rendering of evaluation results (the rows/series of the paper)."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.eval.experiments import OverheadRow, added_latency_share


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table with left-aligned first column."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = [render_row(list(headers)), render_row(["-" * width for width in widths])]
    lines.extend(render_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_fig5(per_type_accuracy: Mapping[str, float], overall: float) -> str:
    """Fig. 5: ratio of correct identification per device-type."""
    rows = [(name, f"{accuracy:.3f}") for name, accuracy in per_type_accuracy.items()]
    rows.append(("GLOBAL", f"{overall:.3f}"))
    return format_table(["device-type", "accuracy"], rows)


def format_confusion_matrix(matrix: np.ndarray, labels: Sequence[str]) -> str:
    """Table III: actual (rows) vs predicted (columns) identification counts."""
    headers = ["A\\P"] + [str(index + 1) for index in range(len(labels))]
    rows = []
    for row_index, label in enumerate(labels):
        rows.append([f"{row_index + 1} {label}"] + [str(int(value)) for value in matrix[row_index]])
    return format_table(headers, rows)


def format_timing_table(timing_rows: Mapping[str, tuple[float, float]]) -> str:
    """Table IV: mean (+/- stdev) time per identification step, in ms."""
    rows = [
        (step, f"{mean:.3f} ms", f"(+/-{stdev:.3f})")
        for step, (mean, stdev) in timing_rows.items()
    ]
    return format_table(["step", "mean", "stdev"], rows)


def format_latency_table(
    rows: Sequence[tuple[str, str, float, float]], path_latency_ms: Mapping[str, float]
) -> str:
    """Table V: measured per-packet gateway delay per pair beside the paper's path latency.

    ``path_latency_ms`` maps each destination to the path's latency
    without filtering, a figure cited from the paper.
    """
    formatted = []
    for source, destination, filtering_us, plain_us in rows:
        path_ms = path_latency_ms[destination]
        share = 100.0 * added_latency_share(filtering_us, plain_us, path_ms)
        cells = (f"{filtering_us:.2f}", f"{plain_us:.2f}", f"{path_ms:.1f}", f"{share:+.3f}%")
        formatted.append((source, destination, *cells))
    headers = ["source", "destination", "w/ filtering (measured µs)", "w/o filtering (measured µs)"]
    return format_table(headers + ["path w/o filtering (paper ms)", "2 x added / path"], formatted)


def format_overhead_table(rows: Mapping[str, OverheadRow]) -> str:
    """Table VI: each row's measured values and its overhead against a named base."""
    formatted = [
        (case, f"{row.with_filtering:.2f}", f"{row.without_filtering:.2f}", row.unit,
         f"{row.overhead_percent:+.3f}%", row.base)
        for case, row in rows.items()
    ]
    return format_table(["case", "w/ filtering", "w/o filtering", "unit", "overhead", "base"], formatted)


def format_series(
    x_label: str,
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    unit: str = "",
) -> str:
    """A figure rendered as columns: x value plus one column per series."""
    headers = [x_label] + [f"{name}{f' ({unit})' if unit else ''}" for name in series]
    rows = []
    for index, x_value in enumerate(x_values):
        rows.append([str(x_value)] + [f"{values[index]:.2f}" for values in series.values()])
    return format_table(headers, rows)
