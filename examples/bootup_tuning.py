"""§2.1 boot-up tuning: picking the initial probing rate lambda_0.

"The initial value of lambda decides how quickly the network acquires
enough working nodes during the boot-up phase. ... an initial lambda of
0.012 ensures that 50% of the nodes wake up at least once within the first
minute after deployment.  Since PEAS adjusts the probing rates, we may
choose a higher lambda to ensure a fast-functioning network."

This script deploys the same network with several lambda_0 values and
measures (a) the fraction of nodes that woke in the first minute (against
the analytic 1 - exp(-60 lambda)) and (b) the time for 1-coverage to reach
90% — the boot latency the application cares about.
"""

import math

from repro.core import PEASConfig
from repro.coverage import CoverageGrid, CoverageTracker
from repro.experiments import Scenario, format_table
from repro.net import Field
from repro.protocols import build_network
from repro.sim import RngRegistry, Simulator


def boot_run(initial_rate: float, seed: int = 23):
    scenario = Scenario(
        num_nodes=320,
        seed=seed,
        with_traffic=False,
        config=PEASConfig(initial_rate_hz=initial_rate),
    )
    sim = Simulator()
    network = build_network(scenario, sim, RngRegistry(seed=seed))
    grid = CoverageGrid(Field(50.0, 50.0), sensing_range=10.0)
    tracker = CoverageTracker(sim, grid, ks=(1,), sample_interval_s=1.0)
    network.working_observers.append(tracker.on_working_change)
    network.start()
    tracker.start()
    sim.run(until=60.0)
    woke_in_minute = sum(
        1 for node in network.sensor_nodes() if node.wakeup_count >= 1
    ) / network.population
    sim.run(until=600.0)
    boot_latency = None
    for time, value in tracker.series.samples("coverage_1"):
        if value >= 0.9:
            boot_latency = time
            break
    return woke_in_minute, boot_latency


def main() -> None:
    print("Boot-up tuning: 320 nodes, varying the initial probing rate.\n")
    rows = []
    for rate in (0.005, 0.012, 0.05, 0.1):
        woke, latency = boot_run(rate)
        predicted = 1 - math.exp(-60.0 * rate)
        rows.append([
            f"{rate:.3f}",
            f"{predicted * 100:.0f}%",
            f"{woke * 100:.0f}%",
            latency if latency is not None else "not in 600s",
        ])
    print(format_table(
        ["lambda_0 (1/s)", "predicted wake<=60s", "measured wake<=60s",
         "time to 90% 1-coverage (s)"],
        rows,
        title="Initial probing rate vs boot-up speed (§2.1's example: "
              "lambda=0.012 -> 50% in one minute)",
    ))
    print(
        "\nThe evaluation (§5.2) uses lambda_0 = 0.1 'so that the number of"
        "\nworking nodes quickly stabilizes'; Adaptive Sleeping then tunes"
        "\nthe rates down to the desired lambda_d."
    )


if __name__ == "__main__":
    main()
