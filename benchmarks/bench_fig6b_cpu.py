"""Fig. 6b -- Security Gateway CPU utilisation against concurrent flows.

Paper result: CPU utilisation climbs mildly (roughly from ~37 % to ~48 %)
as the number of concurrent flows grows to 150, with the filtering curve
sitting only marginally above the no-filtering curve.

Here the CPU time of one ``SecurityGateway.handle_packet`` call is
measured on this host (``process_time_ns``), filtering on and off, over
packets taken in turn from 20 to 150 concurrent TCP flows.  A whole-Pi
utilisation has no counterpart in one process, so the claim checked is
the scaling one: the per-packet cost with filtering does not grow with
the number of flows.
"""

from repro.eval.experiments import run_cpu_vs_flows
from repro.eval.reporting import format_series


def test_fig6b_cpu_vs_concurrent_flows(benchmark):
    series = benchmark.pedantic(run_cpu_vs_flows, rounds=1, iterations=1)

    print()
    print("Fig. 6b: CPU time per packet vs number of concurrent flows")
    print(format_series(series.x_label, series.x_values, series.series, unit="measured µs CPU"))

    assert (series.x_values[0], series.x_values[-1]) == (20.0, 150.0)
    with_filtering = series.series_of("With Filtering")
    # 150 flows cost no more per packet than twice what 20 flows cost.
    assert with_filtering[-1] <= 2.0 * with_filtering[0]
