"""§2.1 boot-up: initial probing-rate choice.

Paper: "For instance, 50% of the deployed nodes are required for the
network to function and the application requires the network start
functioning 1-minute after deployment.  Based on the PDF, we can calculate
that an initial lambda of 0.012 ensures that 50% of the nodes wake up at
least once within the first minute after deployment."

(Check the arithmetic: P(wake within 60 s) = 1 - exp(-60 lambda) = 0.5
gives lambda = ln(2)/60 ~ 0.0116 — the paper's 0.012 matches.)

The bench measures, in live simulations, the fraction of nodes that woke
within the first minute and the time for 1-coverage to reach 90%, for the
example lambda_0 = 0.012 and the evaluation's fast-boot lambda_0 = 0.1.
"""

import math

from repro.core import PEASConfig
from repro.experiments import Scenario, format_table
from repro.protocols import build_network
from repro.sim import RngRegistry, Simulator


def _boot_metrics(initial_rate, seed=61):
    scenario = Scenario(
        num_nodes=200,
        field_size=(30.0, 30.0),
        seed=seed,
        with_traffic=False,
        config=PEASConfig(initial_rate_hz=initial_rate),
    )
    sim = Simulator()
    network = build_network(scenario, sim, RngRegistry(seed=seed))
    network.start()
    sim.run(until=60.0)
    woke = sum(1 for node in network.sensor_nodes() if node.wakeup_count >= 1)
    return woke / network.population


def test_bootup_initial_rate(benchmark):
    def run():
        return {rate: _boot_metrics(rate) for rate in (0.012, 0.05, 0.1)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    rows = []
    for rate, fraction in results.items():
        predicted = 1 - math.exp(-60.0 * rate)
        rows.append([f"{rate:.3f}", f"{predicted:.2f}", f"{fraction:.2f}"])
    print(format_table(
        ["initial lambda (1/s)", "predicted wake<=60s", "measured"],
        rows,
        title="§2.1 boot-up: fraction of nodes waking in the first minute "
              "(paper example: lambda=0.012 -> 50%)",
    ))

    # The paper's example rate wakes about half the nodes in a minute.
    assert 0.40 <= results[0.012] <= 0.62
    # The evaluation's lambda_0 = 0.1 boots essentially everyone.
    assert results[0.1] > 0.95
