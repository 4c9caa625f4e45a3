"""§1/§7 headline claim: working density independent of deployment density.

"PEAS keeps the working node density approximately constant independent of
the node deployment density" (§7) — the property that makes lifetime linear
in N.  The bench measures the time-averaged working-set size during the
first generation across a 5x deployment range, plus the analytic
energy-budget prediction of Figure 9's slope (repro.analysis.lifetime_model).
"""

from repro.analysis import predict_lifetime, rsa_working_count
from repro.experiments import Scenario, format_table
from repro.harness import run
from repro.net import Field

POPULATIONS = (160, 320, 480, 800)


def _mean_working_first_generation(result):
    samples = [
        value
        for time, value in result.series.get("working_count", [])
        if 500.0 <= time <= 4000.0  # steady first generation
    ]
    return sum(samples) / len(samples) if samples else 0.0


def test_working_density_constant(benchmark):
    def simulate():
        rows = []
        for population in POPULATIONS:
            result = run(
                Scenario(num_nodes=population, seed=71, with_traffic=False,
                         keep_series=True, max_time_s=4500.0)
            )
            rows.append([population, _mean_working_first_generation(result)])
        return rows

    rows = benchmark.pedantic(simulate, rounds=1, iterations=1)
    saturation = rsa_working_count(Field(50.0, 50.0), 3.0)
    print()
    print(format_table(
        ["deployed nodes", "mean working (gen 1)", "working fraction"],
        [[n, f"{w:.0f}", f"{w / n:.2f}"] for n, w in rows],
        title="§7 claim: working density ~constant vs deployment density "
              f"(RSA saturation prediction: ~{saturation:.0f} workers)",
    ))
    workers = {n: w for n, w in rows}
    # From 320 up, the working set saturates: 2.5x more deployed nodes
    # changes the working count by well under 50%.
    assert workers[800] < 1.5 * workers[320]
    # The saturated level is near the RSA prediction.
    assert 0.6 * saturation < workers[800] < 1.4 * saturation
    # Meanwhile the *fraction* working drops steeply with density.
    assert workers[800] / 800 < 0.5 * workers[320] / 320


def test_lifetime_slope_prediction(benchmark):
    """Energy-budget model vs measured Figure 9 slope."""

    def simulate():
        measured = {}
        for population in (320, 640):
            result = run(
                Scenario(num_nodes=population, seed=72, with_traffic=False)
            )
            measured[population] = result.coverage_lifetimes[3]
        return measured

    measured = benchmark.pedantic(simulate, rounds=1, iterations=1)
    field = Field(50.0, 50.0)
    rate = 10.66 / 5000.0
    predicted = {
        population: predict_lifetime(field, population, failure_rate_hz=rate).lifetime_s
        for population in (320, 640)
    }
    print()
    print(format_table(
        ["nodes", "measured 3-cov (s)", "predicted (s)", "ratio"],
        [[n, measured[n], f"{predicted[n]:.0f}",
          f"{measured[n] / predicted[n]:.2f}"] for n in (320, 640)],
        title="Figure 9 slope: energy-budget prediction vs simulation",
    ))
    for population in (320, 640):
        assert 0.5 < measured[population] / predicted[population] < 2.0
    # Both agree the relationship is ~linear.
    measured_ratio = measured[640] / measured[320]
    predicted_ratio = predicted[640] / predicted[320]
    assert abs(measured_ratio - predicted_ratio) < 0.8
