"""Fig. 6a -- latency against the number of concurrent flows.

Paper result: between 20 and 150 concurrent flows the latency of both
monitored device pairs grows only marginally, and the filtering and
no-filtering curves stay on top of each other.

Here the gateway's part of that latency is measured on this host: the
per-packet time of ``SecurityGateway.handle_packet``, filtering on and
off, over packets taken in turn from 20 to 150 concurrent TCP flows.
The paper's bounds apply to the round trip, two gateway traversals.
"""

import numpy as np

from repro.eval.experiments import run_latency_vs_flows
from repro.eval.reporting import format_series


def test_fig6a_latency_vs_concurrent_flows(benchmark):
    series = benchmark.pedantic(run_latency_vs_flows, rounds=1, iterations=1)

    print()
    print("Fig. 6a: per-packet gateway delay vs number of concurrent flows")
    print(format_series(series.x_label, series.x_values, series.series, unit="measured µs"))

    assert (series.x_values[0], series.x_values[-1]) == (20.0, 150.0)
    # Round-trip delay in ms: a request and its reply each cross the gateway.
    with_filtering = 2.0 * np.array(series.series_of("With Filtering")) / 1000.0
    without_filtering = 2.0 * np.array(series.series_of("Without Filtering")) / 1000.0

    # The increase over the whole sweep stays small (insignificant for UX).
    assert with_filtering.max() - with_filtering.min() < 8.0
    # Filtering and no-filtering curves stay close at every point.
    assert (np.abs(with_filtering - without_filtering) < 6.0).all()
