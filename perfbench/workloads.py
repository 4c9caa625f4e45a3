"""The benchmark's workloads, result digests and output checks.

Every scenario seed derives from the benchmark's ``--seed``; the program
receives only the generated scenarios.

* ``fig9``: the paper's §5.2 macro point — PEAS, 480 nodes, paper defaults
  (50x50 m field, 10.66 failures per 5000 s, GRAB traffic), run until the
  network dies.
* ``dense``: 2,500 nodes on a 25x25 m field (4 nodes/m^2), failures and
  traffic off, 2,000 simulated seconds; almost the whole broadcast audience
  is asleep.
* ``sweep``: the Fig 12-14 failure-rate recipe at 100 nodes, paper
  defaults otherwise (50x50 m field, GRAB traffic), run until each network
  dies — nine §5.3 rates x two runs through ``run_sweep`` on two pool
  workers, each run warm-started from its own burn-in, into a fresh result
  store.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.experiments import FAILURE_RATES, RunError, Scenario

WORKLOADS = ("fig9", "dense", "sweep")

SWEEP_NODES = 100
SWEEP_WORKERS = 2
SWEEP_BURN_IN_S = 500.0
DENSE_HORIZON_S = 2000.0

#: Simulated horizon of the short runs the observability-cost rows time,
#: each about 0.4 s of host time on a 2-CPU host.  Most of a PEAS run's
#: events come in the boot storm of its first simulated seconds, so the
#: dense horizon is short.
OBS_HORIZON_S = {"fig9": 30.0, "dense": 2.5, "sweep": 4000.0}

#: A seed kept out of tuning the benchmark; later gains must also hold on it.
HELD_OUT_SEED = 4099


def fig9(seed: int) -> Scenario:
    return Scenario(num_nodes=480, seed=seed)


def dense(seed: int) -> Scenario:
    return Scenario(
        num_nodes=2500,
        seed=seed,
        field_size=(25.0, 25.0),
        failure_per_5000s=0.0,
        with_traffic=False,
        max_time_s=DENSE_HORIZON_S,
    )


def sweep(seed: int) -> List[Scenario]:
    """Nine failure rates x two runs, longest (lowest-rate) runs first so
    the last stragglers are short.

    Every run has its own deployment (seeds ``18N`` .. ``18N+17``), so each
    warm-start burn-in feeds one variant.  A sparse network's lifetime
    depends strongly on its deployment: sharing a deployment among several
    rates makes their run lengths move together, and the sweep's total work
    then swings with the seed (an IQR of 0.095 of the median with six
    shared deployments at 100 nodes, 0.044 with eighteen).
    """
    base = Scenario(num_nodes=SWEEP_NODES)
    runs = 2 * len(FAILURE_RATES)
    return [
        base.with_(failure_per_5000s=FAILURE_RATES[k // 2], seed=runs * seed + k)
        for k in range(runs)
    ]


def unit_scenario(workload: str, seed: int) -> Scenario:
    """The single scenario a workload's set-up time and observability-cost
    rows are measured on."""
    if workload == "fig9":
        return fig9(seed)
    if workload == "dense":
        return dense(seed)
    if workload == "sweep":
        return sweep(seed)[-1]
    raise ValueError(f"unknown workload {workload!r}")


def statistics(result: Any) -> Dict[str, Any]:
    """Every simulated statistic a speed-only change must leave identical."""
    return {
        "counters": result.counters,
        "channel_counters": result.channel_counters,
        "total_wakeups": result.total_wakeups,
        "coverage_lifetimes": {str(k): v for k, v in result.coverage_lifetimes.items()},
        "delivery_lifetime": result.delivery_lifetime,
        "end_time": result.end_time,
        "energy_total_j": result.energy_total_j,
        "energy_overhead_j": result.energy_overhead_j,
        "energy_by_category": result.energy_by_category,
        "failures_injected": result.failures_injected,
        "events_executed": result.manifest["events_executed"],
    }


def digest(result: Any) -> str:
    text = json.dumps(statistics(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_digest(digests: List[str]) -> str:
    return hashlib.sha256(" ".join(digests).encode("utf-8")).hexdigest()[:16]


def check_run(workload: str, scenario: Scenario, result: Any) -> List[str]:
    """Output checks for one run; returns what failed (empty: correct)."""
    if isinstance(result, RunError):
        return [f"seed {scenario.seed}: {result.error_type}: {result.error_message}"]
    problems = []
    channel = result.channel_counters
    stats = statistics(result)

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{workload} seed {scenario.seed}: {what}")

    need(stats["events_executed"] > 0, "no events executed")
    need(result.total_wakeups > 0, "no wakeups")
    need(result.counters.get("work_starts", 0) > 0, "no node ever started working")
    need(0.0 < result.energy_total_j, "no energy consumed")
    need(
        channel["frames_delivered"] <= channel["frames_sent"] * scenario.num_nodes,
        "more deliveries than frames could reach",
    )
    need(0.0 < result.end_time <= scenario.max_time_s, "end time out of range")
    if workload == "dense":
        need(result.end_time == scenario.max_time_s, "dense run ended early")
        need(result.failures_injected == 0, "failures injected with failures off")
        need(result.delivery_lifetime is None, "delivery lifetime with traffic off")
    else:
        need(result.end_time < scenario.max_time_s, "network never died")
        need(result.failures_injected > 0, "no failures injected")
    if workload == "fig9":
        # At 480 nodes delivery always reaches the threshold (Fig 10); a
        # sparse 100-node sweep deployment may leave the source corner
        # uncovered, so a sweep run can legitimately have none.
        need(bool(result.delivery_lifetime), "no delivery lifetime")
    return problems


def check_sweep(scenarios: List[Scenario], results: List[Any]) -> List[str]:
    """Per-run checks plus the Fig 12 shape: the highest failure rate injects
    more failures than the lowest."""
    if len(results) != len(scenarios):
        return [f"sweep returned {len(results)} results for {len(scenarios)} runs"]
    problems = []
    for scenario, result in zip(scenarios, results):
        problems += check_run("sweep", scenario, result)
    if problems:
        return problems
    by_rate: Dict[float, int] = {}
    for scenario, result in zip(scenarios, results):
        rate = scenario.failure_per_5000s
        by_rate[rate] = by_rate.get(rate, 0) + result.failures_injected
    if by_rate[max(by_rate)] <= by_rate[min(by_rate)]:
        problems.append("failures injected do not grow with the failure rate")
    return problems
