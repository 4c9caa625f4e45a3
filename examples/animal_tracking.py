"""Animal-tracking scenario: choosing lambda_d from the application's
interruption tolerance (§2.2).

The paper's running example: "if an animal-tracking sensor network allows
for monitoring interruptions up to 5 minutes, lambda_d can be set at 1 per
300 seconds to ensure that the lengths of gaps in sensing are acceptable."
The probing range is chosen from sensing redundancy needs (§2.1's example
picks 3 m).

This script runs the same deployment with three interruption tolerances
(60 s, 300 s, and the evaluation's 50 s) and reports the realized
replacement-gap distribution against each tolerance, plus the wakeup budget
each choice costs — the tension the application designer trades off.
"""

from repro.core import PEASConfig
from repro.experiments import Scenario, format_table
from repro.harness import run


def run_with_tolerance(tolerance_s: float, seed: int = 5):
    config = PEASConfig(desired_rate_hz=1.0 / tolerance_s)
    scenario = Scenario(
        num_nodes=400,
        seed=seed,
        config=config,
        with_traffic=False,
        failure_per_5000s=15.0,  # animals chew cables; weather is harsh
        measure_gaps=True,
    )
    return run(scenario)


def main() -> None:
    tolerances = (50.0, 60.0, 300.0)
    print("Animal tracking on 50x50m, 400 nodes, harsh failures (15/5000s).")
    print("Choosing lambda_d = 1/tolerance per §2.2's guidance...\n")

    rows = []
    for tolerance in tolerances:
        result = run_with_tolerance(tolerance)
        gaps_ok = result.extras["gap_p95_s"] <= 2 * tolerance
        rows.append([
            f"{tolerance:.0f}",
            f"{1.0 / tolerance:.4f}",
            f"{result.extras['gap_mean_s']:.0f}",
            f"{result.extras['gap_p95_s']:.0f}",
            result.total_wakeups,
            result.coverage_lifetimes.get(3),
            "yes" if gaps_ok else "NO",
        ])

    print(format_table(
        ["tolerance (s)", "lambda_d (1/s)", "mean gap (s)", "p95 gap (s)",
         "wakeups", "3-cov lifetime (s)", "p95 within 2x tol?"],
        rows,
        title="Interruption tolerance -> desired probing rate trade-off",
    ))
    print(
        "\nLower tolerance (faster lambda_d) buys shorter sensing gaps at the"
        "\ncost of more wakeups; the lifetime barely moves because probing"
        "\nenergy is a sub-1% overhead either way (Table 1)."
    )


if __name__ == "__main__":
    main()
