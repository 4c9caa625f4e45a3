"""Mission-level evaluation: does the network actually catch events?

K-coverage (§5.1) is a proxy; this example measures the mission directly.
A Poisson stream of target events (an animal entering the field, an
intrusion, ...) appears at random positions, each dwelling a few minutes.
The PEAS network must have a working node within sensing range before the
event leaves — either immediately (the area was covered) or after a
replacement worker wakes up (bounded by the λ_d gap design, §2.2).

The script sweeps the event dwell time against the configured interruption
tolerance and reports detection ratio and latency, under heavy failure
injection.
"""

import random

from repro.experiments import Scenario, format_table
from repro.failures import FailureInjector, per_5000s
from repro.net import Field
from repro.protocols import build_network
from repro.sensing import DetectionMonitor, generate_events
from repro.sim import RngRegistry, Simulator


def run_mission(dwell_s: float, min_detectors: int = 4, seed: int = 3):
    scenario = Scenario(
        num_nodes=480,
        seed=seed,
        with_traffic=False,
        failure_per_5000s=26.66,  # harsh environment
    )
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    network = build_network(scenario, sim, rngs)
    events = generate_events(
        Field(50.0, 50.0),
        rate_hz=0.01,          # an event every ~100 s somewhere in the field
        horizon_s=16_000.0,    # reaches into the network's late life
        dwell_s=dwell_s,
        rng=rngs.stream("events"),
    )
    # The §5.2 application requires several simultaneous observers (the K of
    # K-coverage): detection needs a quorum, so local worker losses matter.
    monitor = DetectionMonitor(
        sim, events, sensing_range=10.0, min_detectors=min_detectors
    )
    network.working_observers.append(monitor.on_working_change)
    injector = FailureInjector(
        sim, per_5000s(scenario.failure_per_5000s),
        network.alive_ids, network.kill, rngs.stream("failures"),
    )
    network.start()
    injector.start()
    while not network.all_dead and sim.now < 18_000.0:
        sim.run(until=sim.now + 500.0)
    return monitor, len(events)


def main() -> None:
    print(
        "Mission: detect Poisson target events on a 480-node network under\n"
        "harsh failures (26.66/5000 s).  Sweep the detection quorum K\n"
        "(the application's K-coverage requirement).\n"
    )
    rows = []
    for quorum in (1, 4, 8, 14):
        monitor, total = run_mission(dwell_s=120.0, min_detectors=quorum)
        rows.append([
            quorum,
            total,
            f"{monitor.detection_ratio() * 100:.1f}%",
            monitor.delayed_detections(),
            f"{monitor.mean_latency():.1f}",
        ])
    print(format_table(
        ["quorum K", "events", "detected", "delayed detections",
         "mean latency (s)"],
        rows,
        title="Event detection vs required observer quorum "
              "(120 s events; lambda_d = 0.02 -> ~50 s replacement gaps)",
    ))
    print(
        "\nLow quorums are detected instantly for the whole network life:"
        "\nPEAS's working density gives huge margin over K=1.  Demanding"
        "\nquorums (K at the working-density limit) see delayed detections —"
        "\nthe event waits for a probing replacement to wake up — and misses"
        "\nonce the deployment thins late in life."
    )


if __name__ == "__main__":
    main()
