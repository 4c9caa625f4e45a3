"""Mission-level bench: event detection under failures vs lambda_d.

The §2.2 design rule says lambda_d should be chosen as 1/tolerance so that
sensing interruptions stay acceptable.  This bench generates target events
over a failing network and measures detection ratio and latency for a slow
and a fast desired probing rate — connecting the protocol knob to the
mission outcome that K-coverage (§5.1) proxies.
"""

import random

from repro.core import PEASConfig
from repro.experiments import Scenario, format_table
from repro.failures import FailureInjector, per_5000s
from repro.net import Field
from repro.protocols import build_network
from repro.sensing import DetectionMonitor, generate_events
from repro.sim import RngRegistry, Simulator


def _run(desired_rate_hz: float, seed: int = 5):
    scenario = Scenario(
        num_nodes=300,
        field_size=(40.0, 40.0),
        seed=seed,
        with_traffic=False,
        failure_per_5000s=20.0,
        config=PEASConfig(desired_rate_hz=desired_rate_hz),
    )
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    network = build_network(scenario, sim, rngs)
    events = generate_events(
        Field(*scenario.field_size), rate_hz=0.02, horizon_s=8000.0,
        dwell_s=180.0, rng=rngs.stream("events"),
    )
    monitor = DetectionMonitor(sim, events, sensing_range=10.0, min_detectors=4)
    network.working_observers.append(monitor.on_working_change)
    injector = FailureInjector(
        sim, per_5000s(scenario.failure_per_5000s), network.alive_ids,
        network.kill, rngs.stream("failures"),
    )
    network.start()
    injector.start()
    while not network.all_dead and sim.now < 9000.0:
        sim.run(until=sim.now + 500.0)
    return monitor


def test_detection_vs_desired_rate(benchmark):
    def run():
        return {rate: _run(rate) for rate in (0.004, 0.02)}

    monitors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        ["lambda_d (1/s)", "tolerance (s)", "detected", "delayed",
         "mean latency (s)"],
        [[f"{rate:.3f}", f"{1 / rate:.0f}",
          f"{monitor.detection_ratio() * 100:.1f}%",
          monitor.delayed_detections(), f"{monitor.mean_latency():.1f}"]
         for rate, monitor in monitors.items()],
        title="Mission outcome vs desired probing rate "
              "(4-observer quorum, 180 s events, failing network)",
    ))
    # Both configurations keep the mission healthy; the faster rate must
    # not be worse than the slow one.
    fast = monitors[0.02]
    slow = monitors[0.004]
    assert fast.detection_ratio() >= 0.9
    assert fast.detection_ratio() >= slow.detection_ratio() - 0.05
