"""Unit tests for run-result and scenario JSON serialization."""

import json

import pytest

from repro.experiments import (
    RunResult,
    Scenario,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
    scenario_from_dict,
    scenario_to_dict,
)


def make_result():
    return RunResult(
        num_nodes=320,
        seed=4,
        failure_rate_per_5000s=10.66,
        end_time=16000.0,
        coverage_lifetimes={3: 12500.0, 4: 11000.0, 5: None},
        delivery_lifetime=13000.0,
        total_wakeups=14200,
        energy_total_j=17123.4,
        energy_overhead_j=81.2,
        energy_by_category={"probe_tx": 20.0, "data_tx": 3.5},
        failures_injected=41,
        counters={"wakeups": 14200},
        channel_counters={"frames_sent": 99000},
        series={"coverage_3": [(0.0, 0.0), (100.0, 0.95)]},
        extras={"gap_mean_s": 123.0},
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        original = make_result()
        restored = result_from_dict(result_to_dict(original))
        assert restored.num_nodes == original.num_nodes
        assert restored.coverage_lifetimes == original.coverage_lifetimes
        assert restored.delivery_lifetime == original.delivery_lifetime
        assert restored.energy_by_category == original.energy_by_category
        assert restored.series == original.series
        assert restored.extras == original.extras
        assert restored.counters == original.counters

    def test_coverage_keys_are_ints_after_round_trip(self):
        restored = result_from_dict(result_to_dict(make_result()))
        assert all(isinstance(k, int) for k in restored.coverage_lifetimes)

    def test_none_lifetime_survives(self):
        restored = result_from_dict(result_to_dict(make_result()))
        assert restored.coverage_lifetimes[5] is None

    def test_dict_is_json_compatible(self):
        import json

        json.dumps(result_to_dict(make_result()))

    def test_unknown_schema_rejected(self):
        payload = result_to_dict(make_result())
        payload["schema"] = 99
        with pytest.raises(ValueError):
            result_from_dict(payload)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        results = [make_result(), make_result()]
        path = tmp_path / "runs.json"
        save_results(results, path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].total_wakeups == results[0].total_wakeups
        assert loaded[1].series == results[1].series

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_results(path)

    def test_round_trip_through_real_run(self, tmp_path):
        from repro.harness import run

        result = run(
            Scenario(num_nodes=20, field_size=(15.0, 15.0), seed=1,
                     with_traffic=False, max_time_s=1000.0, keep_series=True)
        )
        path = tmp_path / "real.json"
        save_results([result], path)
        (restored,) = load_results(path)
        assert restored.total_wakeups == result.total_wakeups
        assert restored.coverage_lifetimes == result.coverage_lifetimes


class TestScenarioRoundTrip:
    def test_round_trip_preserves_every_field(self):
        import dataclasses

        original = Scenario(
            num_nodes=123,
            field_size=(33.0, 44.0),
            seed=9,
            failure_per_5000s=21.33,
            protocol="gaf",
            with_traffic=True,
            keep_series=True,
            measure_gaps=True,
            max_time_s=2500.0,
        )
        restored = scenario_from_dict(scenario_to_dict(original))
        for spec in dataclasses.fields(Scenario):
            assert getattr(restored, spec.name) == getattr(original, spec.name), spec.name

    def test_round_trip_survives_json(self):
        original = Scenario(num_nodes=64, protocol="duty_cycle")
        payload = json.loads(json.dumps(scenario_to_dict(original)))
        restored = scenario_from_dict(payload)
        assert restored == original
        assert restored.protocol == "duty_cycle"
        assert isinstance(restored.field_size, tuple)
        assert isinstance(restored.coverage_ks, tuple)

    def test_golden_payload_shape(self):
        # Pin the wire format: schema marker plus one key per Scenario
        # field, with config/profile as nested dicts.
        payload = scenario_to_dict(Scenario(num_nodes=10))
        assert payload["schema"] == "peas-scenario/1"
        assert payload["protocol"] == "peas"
        assert payload["num_nodes"] == 10
        assert isinstance(payload["config"], dict)
        assert isinstance(payload["profile"], dict)
        assert isinstance(payload["field_size"], list)

    def test_unknown_schema_rejected(self):
        payload = scenario_to_dict(Scenario())
        payload["schema"] = "peas-scenario/99"
        with pytest.raises(ValueError):
            scenario_from_dict(payload)
