"""Data-plane energy ablation: the sink-funnel effect.

The paper evaluates PEAS with data delivery carried by GRAB but does not
charge forwarding energy in its §5 accounting (PEAS "maintains a desired
level of working sensor density ... the actual sensing data delivery is
carried out by a separate data forwarding protocol", §1).  Real
deployments pay it: every report costs tx+rx along the gradient path, and
nodes near the sink forward everyone's traffic — the classic funnel that
drains the sink's neighborhood first.

This ablation turns the charging on and measures what it costs: delivery
lifetime shrinks modestly (replacements near the sink burn through the
local reserve faster) while field-wide coverage barely moves.
"""

from repro.experiments import Scenario, format_table
from repro.harness import run

BASE = Scenario(
    num_nodes=480,
    seed=91,
    failure_per_5000s=10.66,
    report_interval_s=10.0,
)


def test_data_plane_energy_funnel(benchmark):
    def simulate():
        off = run(BASE.with_(charge_data_energy=False))
        on = run(BASE.with_(charge_data_energy=True))
        return off, on

    off, on = benchmark.pedantic(simulate, rounds=1, iterations=1)
    data_j = sum(
        joules
        for name, joules in on.energy_by_category.items()
        if name.startswith("data_")
    )
    print()
    print(format_table(
        ["data energy", "3-cov lifetime (s)", "delivery lifetime (s)",
         "data-plane energy (J)"],
        [
            ["uncharged (paper)", off.coverage_lifetimes.get(3),
             off.delivery_lifetime, 0.0],
            ["charged", on.coverage_lifetimes.get(3), on.delivery_lifetime,
             f"{data_j:.1f}"],
        ],
        title="Ablation: charging GRAB forwarding energy to path nodes "
              "(sink-funnel effect)",
    ))

    assert on.coverage_lifetimes.get(3) is not None
    assert on.delivery_lifetime is not None
    # Forwarding energy was actually spent...
    assert data_j > 0.0
    # ...and the penalty is a modest fraction, not a collapse: the paper's
    # separation of concerns (PEAS density vs forwarding cost) is fair.
    assert on.delivery_lifetime > 0.6 * off.delivery_lifetime
    assert on.coverage_lifetimes[3] > 0.8 * off.coverage_lifetimes[3]
    # Data energy must not leak into the PEAS overhead accounting.
    assert on.energy_overhead_ratio < 0.01
