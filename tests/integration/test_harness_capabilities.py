"""Baselines run under the full capability stack via the shared harness.

Before the harness refactor only PEAS runs could be traced, profiled,
sanitized or manifest-stamped; baseline comparisons ran on a parallel
code path with none of that.  These tests pin the new guarantee: every
registered protocol accepts the same capability stack and emits the same
provenance artifacts.
"""

import pytest

from repro.experiments import Scenario
from repro.harness import RunOptions, run
from repro.obs import RingBufferSink, Tracer, validate_trace_file

SMALL = Scenario(
    num_nodes=24,
    field_size=(16.0, 16.0),
    seed=2,
    failure_per_5000s=4.0,
    with_traffic=False,
    max_time_s=2_000.0,
)

PROTOCOLS = ["duty_cycle", "gaf"]


class TestBaselineCapabilities:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_manifest_records_protocol_and_rng_streams(self, protocol):
        result = run(SMALL.with_(protocol=protocol))
        manifest = result.manifest
        assert manifest["protocol"] == protocol
        assert manifest["seed"] == SMALL.seed
        assert manifest["events_executed"] > 0
        assert "deployment" in manifest["rng_streams"]
        assert "failures" in manifest["rng_streams"]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_live_tracer_emits_and_preserves_metrics(self, protocol):
        plain = run(SMALL.with_(protocol=protocol))
        tracer = Tracer(RingBufferSink())
        traced = run(SMALL.with_(protocol=protocol), tracer=tracer)
        assert tracer.stats()["emitted"] > 0
        assert traced.end_time == plain.end_time
        assert traced.coverage_lifetimes == plain.coverage_lifetimes
        assert traced.failures_injected == plain.failures_injected
        assert traced.energy_total_j == plain.energy_total_j

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_trace_file_validates_with_manifest_sidecar(self, protocol, tmp_path):
        from repro.obs import load_manifest

        trace = tmp_path / f"{protocol}.ndjson"
        result = run(
            SMALL.with_(protocol=protocol), RunOptions(trace_path=str(trace))
        )
        assert trace.stat().st_size > 0
        assert validate_trace_file(trace) == []
        sidecar = tmp_path / f"{protocol}.manifest.json"
        manifest = load_manifest(sidecar)
        assert manifest["protocol"] == protocol
        assert manifest["trace"]["emitted"] == result.manifest["trace"]["emitted"]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_sanitize_and_profile(self, protocol):
        result = run(
            SMALL.with_(protocol=protocol),
            RunOptions(sanitize=True, profile=True),
        )
        assert result.extras["sanitizer_checks"] > 0
        assert result.profile is not None
        assert result.profile["events"] > 0

    def test_registered_spec_manifest(self, monkeypatch):
        """A custom-parameterized baseline is one more registry entry; its
        runs carry the spec's name, not an anonymous label."""
        from repro.baselines import DutyCycleProtocol
        from repro.protocols import PROTOCOLS, baseline_spec

        def factory(network, rngs):
            return DutyCycleProtocol(network, duty=0.25, rng=rngs.stream("duty"))

        spec = baseline_spec("duty_cycle_25", factory, "25% duty cycle")
        monkeypatch.setitem(PROTOCOLS, spec.name, spec)
        result = run(SMALL.with_(protocol=spec.name))
        assert result.manifest["protocol"] == "duty_cycle_25"
        assert result.end_time > 0
