"""Fig. 6c -- Security Gateway memory consumption against enforcement rules.

Paper result: memory grows roughly linearly with the number of cached
enforcement rules when filtering is enabled (reaching on the order of
100 MB at 20 000 rules) while the no-filtering memory stays flat.

Here one gateway per mode onboards 40 to 20 000 devices (one cached
enforcement rule each) through ``SecurityGateway.apply_assessment``, and
the bytes ``tracemalloc`` traces while onboarding are measured on this
host.  Those bytes are the gateway's own state, not a whole device's
resident set, so the claims checked are the structural ones: without
filtering no switch rule is installed, with filtering memory grows by a
steady amount per installed switch rule, and the per-packet
``handle_packet`` time does not grow with the rule count.
"""

import numpy as np

from repro.eval.experiments import (
    DELAY_REFERENCE,
    DELAY_WITH,
    MEMORY_WITH,
    RULES_WITH,
    RULES_WITHOUT,
    run_memory_vs_rules,
)
from repro.eval.reporting import format_series


def test_fig6c_memory_vs_enforcement_rules(benchmark):
    series = benchmark.pedantic(run_memory_vs_rules, rounds=1, iterations=1)

    print()
    print("Fig. 6c: memory, switch rules and per-packet delay vs number of enforcement rules")
    print(format_series(series.x_label, series.x_values, series.series))

    assert (series.x_values[0], series.x_values[-1]) == (40.0, 20000.0)
    with_filtering = np.array(series.series_of(MEMORY_WITH))
    rules = np.array(series.series_of(RULES_WITH))

    # Without filtering the switch holds no rule at any point.
    assert not any(series.series_of(RULES_WITHOUT))
    # With filtering memory grows by a steady amount per installed rule.
    bytes_per_rule = with_filtering[rules > 0] / rules[rules > 0]
    print("bytes per switch rule w/ filtering (measured):", np.round(bytes_per_rule * 2**20).astype(int))
    assert (np.abs(bytes_per_rule / bytes_per_rule[-1] - 1.0) <= 0.25).all()
    # Monotone non-decreasing trend (within measurement noise).
    assert (np.diff(with_filtering) > -3.0).all()
    # A hash-indexed flow table: 20 000 devices cost a packet no more than
    # twice what 40 devices cost (timed in the same passes).  A table that
    # scanned its rules would be orders of magnitude slower.
    delay, reference = series.series_of(DELAY_WITH), series.series_of(DELAY_REFERENCE)
    assert delay[-1] <= 2.0 * reference[-1]
