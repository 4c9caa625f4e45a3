"""Harsh-environment robustness sweep (the §5.3 experiment, interactively).

Deploys 480 nodes and sweeps the injected failure rate from calm to the
paper's harshest setting (48 failures per 5000 s, which kills ~38% of the
population by unexpected failures).  Shows that coverage and delivery
lifetimes degrade only modestly while the failure percentage climbs —
PEAS's central robustness claim.
"""

from repro.experiments import Scenario, format_table
from repro.harness import run


def main() -> None:
    print("Robustness sweep: 480 nodes, failure rates 0..48 per 5000 s.\n")
    rows = []
    baseline_lifetime = None
    for rate in (0.0, 10.66, 26.66, 48.0):
        result = run(
            Scenario(num_nodes=480, seed=3, failure_per_5000s=rate)
        )
        lifetime = result.coverage_lifetimes.get(3)
        if rate == 0.0:
            baseline_lifetime = lifetime
        retained = (
            f"{100 * lifetime / baseline_lifetime:.0f}%"
            if baseline_lifetime and lifetime
            else "-"
        )
        rows.append([
            f"{rate:.2f}",
            f"{result.failure_fraction * 100:.0f}%",
            lifetime,
            retained,
            result.delivery_lifetime,
            result.total_wakeups,
            f"{result.energy_overhead_ratio * 100:.3f}%",
        ])

    print(format_table(
        ["failures /5000s", "nodes failed", "3-cov lifetime (s)",
         "lifetime retained", "delivery lifetime (s)", "wakeups", "overhead"],
        rows,
        title="PEAS under increasing unexpected-failure rates (§5.3)",
    ))
    print(
        "\nPaper's claims to compare against: up to ~38% of nodes fail at the"
        "\nhighest rate, coverage lifetime drops only 12-20%, wakeups"
        "\ndecrease with failure rate, and overhead stays roughly constant."
    )


if __name__ == "__main__":
    main()
