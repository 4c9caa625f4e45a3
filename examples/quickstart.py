"""Quickstart: run PEAS on the paper's evaluation setup and print the
headline metrics.

Builds the §5.2 scenario — 320 nodes uniformly deployed on a 50 x 50 m
field, source and sink in opposite corners, failures injected at
10.66/5000 s — runs it until every sensor battery is empty and reports the
coverage lifetimes, data delivery lifetime, wakeup count and PEAS's energy
overhead.

Run:  python examples/quickstart.py [num_nodes] [seed]
"""

import sys

from repro.experiments import Scenario, format_table
from repro.harness import run


def main() -> None:
    num_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 320
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    scenario = Scenario(num_nodes=num_nodes, seed=seed, measure_gaps=True)
    print(f"Running PEAS: {num_nodes} nodes on a 50x50m field (seed {seed})...")
    result = run(scenario)

    print(format_table(
        ["metric", "value"],
        [
            ["3-coverage lifetime (s)", result.coverage_lifetimes.get(3)],
            ["4-coverage lifetime (s)", result.coverage_lifetimes.get(4)],
            ["5-coverage lifetime (s)", result.coverage_lifetimes.get(5)],
            ["data delivery lifetime (s)", result.delivery_lifetime],
            ["total wakeups", result.total_wakeups],
            ["energy consumed (J)", f"{result.energy_total_j:.1f}"],
            ["PEAS overhead (J)", f"{result.energy_overhead_j:.2f}"],
            ["overhead ratio", f"{result.energy_overhead_ratio * 100:.3f}%"],
            ["failures injected", result.failures_injected],
            ["replacement gap p95 (s)", f"{result.extras['gap_p95_s']:.0f}"],
            ["all nodes dead at (s)", f"{result.end_time:.0f}"],
        ],
        title=f"PEAS with {num_nodes} deployed nodes",
    ))
    single_battery = 5000.0
    extension = (result.coverage_lifetimes.get(3) or 0.0) / single_battery
    print(f"\nLifetime extension over a single battery: {extension:.1f}x")
    print("(The paper's Figure 9: lifetime grows linearly with deployment size.)")


if __name__ == "__main__":
    main()
