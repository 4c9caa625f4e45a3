"""Unit tests for the analytic lifetime model."""

import pytest

from repro.analysis import predict_lifetime, rsa_working_count
from repro.energy import MOTE_PROFILE
from repro.net import Field


class TestRsaWorkingCount:
    def test_paper_field(self):
        """50x50 m, R_p = 3 m: ~190 workers at saturation."""
        count = rsa_working_count(Field(50.0, 50.0), 3.0)
        assert 180 < count < 205

    def test_scales_with_area(self):
        small = rsa_working_count(Field(25.0, 25.0), 3.0)
        large = rsa_working_count(Field(50.0, 50.0), 3.0)
        assert large == pytest.approx(4 * small)

    def test_larger_probe_range_fewer_workers(self):
        field = Field(50.0, 50.0)
        assert rsa_working_count(field, 6.0) < rsa_working_count(field, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rsa_working_count(Field(10.0, 10.0), 0.0)


class TestPredictLifetime:
    FIELD = Field(50.0, 50.0)

    def test_linear_in_population_when_dense(self):
        p320 = predict_lifetime(self.FIELD, 320)
        p640 = predict_lifetime(self.FIELD, 640)
        assert p640.lifetime_s == pytest.approx(2 * p320.lifetime_s, rel=0.01)

    def test_sparse_regime_one_battery(self):
        """Below the RSA saturation, everyone works: ~one battery life."""
        prediction = predict_lifetime(self.FIELD, 160)
        assert 4300 < prediction.lifetime_s < 5100

    def test_failures_shorten_lifetime(self):
        calm = predict_lifetime(self.FIELD, 480)
        harsh = predict_lifetime(self.FIELD, 480, failure_rate_hz=48 / 5000.0)
        assert harsh.lifetime_s < calm.lifetime_s
        # The paper's robustness band: a modest drop, not a collapse.
        assert harsh.lifetime_s > 0.6 * calm.lifetime_s

    def test_prediction_matches_simulation_within_factor(self):
        """The energy-budget model should land in the same ballpark as the
        measured Figure 9 values (it ignores transition losses, so it is an
        upper-ish bound)."""
        from repro.experiments import Scenario
        from repro.harness import run

        measured = run(
            Scenario(num_nodes=480, seed=2, with_traffic=False)
        ).coverage_lifetimes[3]
        predicted = predict_lifetime(
            self.FIELD, 480, failure_rate_hz=10.66 / 5000.0
        ).lifetime_s
        assert measured is not None
        assert 0.5 < measured / predicted < 2.0

    def test_slope_per_node(self):
        prediction = predict_lifetime(self.FIELD, 640)
        assert prediction.slope_per_node() == pytest.approx(
            prediction.lifetime_s / 640
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_lifetime(self.FIELD, 0)
        with pytest.raises(ValueError):
            predict_lifetime(self.FIELD, 100, overhead_fraction=1.0)
        with pytest.raises(ValueError):
            predict_lifetime(self.FIELD, 100, failure_rate_hz=-1.0)

    def test_burn_rate_composition(self):
        prediction = predict_lifetime(self.FIELD, 800, overhead_fraction=0.0)
        expected_burn = prediction.working_count * MOTE_PROFILE.idle_w
        assert prediction.burn_rate_w == pytest.approx(expected_burn)
