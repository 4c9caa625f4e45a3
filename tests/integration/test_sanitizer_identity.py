"""``--sanitize`` must be observation-only: a seeded run with the sanitizer
on is bit-identical to the same run with it off — same metrics, same
counters, same trace event stream.  Only ``extras["sanitizer_checks"]``
(the sanitizer's own accounting) may differ.
"""

import dataclasses

from repro.experiments import Scenario
from repro.harness import RunOptions, run
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer

SCENARIO = Scenario(
    num_nodes=24,
    seed=7,
    field_size=(30.0, 30.0),
    failure_per_5000s=5.0,
    with_traffic=False,
    measure_gaps=True,
    max_time_s=3_000.0,
)


def traced_run(sanitize):
    sink = RingBufferSink()
    result = run(SCENARIO, RunOptions(sanitize=sanitize), tracer=Tracer(sink))
    return result, sink.events()


def comparable(result):
    payload = dataclasses.asdict(result)
    payload.pop("manifest", None)  # carries wall time, differs by design
    payload["extras"] = {
        k: v for k, v in payload["extras"].items() if k != "sanitizer_checks"
    }
    return payload


def test_sanitized_run_is_bit_identical():
    plain_result, plain_trace = traced_run(sanitize=False)
    checked_result, checked_trace = traced_run(sanitize=True)

    assert comparable(plain_result) == comparable(checked_result)
    assert plain_trace == checked_trace

    # The sanitizer really ran and its accounting landed in extras.
    assert "sanitizer_checks" not in plain_result.extras
    assert checked_result.extras["sanitizer_checks"] > 0


def test_traced_sanitized_run_matches_untraced():
    # The channel selects audiences with one loop whether or not a tracer
    # is attached; a sanitized traced run (whose periodic sweep checks the
    # published listening state that loop reads) must therefore give the
    # same result as a plain untraced one.
    untraced = run(SCENARIO)
    traced, trace = traced_run(sanitize=True)

    assert comparable(traced) == comparable(untraced)
    assert any(event["ev"] == "drop" for event in trace)
