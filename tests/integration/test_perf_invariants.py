"""Golden-seed determinism: the perf fast paths must not change behavior.

The stationary-topology optimizations (neighbor caching, event-kernel fast
loop, channel memoization) are pure optimizations — for a fixed scenario
seed the :class:`RunResult` must be bit-identical whether the neighbor
cache is enabled (default) or disabled (brute-force ``within()`` on every
transmit, via ``REPRO_NEIGHBOR_CACHE=0``).
"""

import dataclasses

import pytest

from repro.experiments.scenario import Scenario
from repro.harness import run

GOLDEN = Scenario(
    num_nodes=80,
    field_size=(25.0, 25.0),
    seed=11,
    failure_per_5000s=5.0,
    measure_gaps=True,
    keep_series=True,
)


def result_fingerprint(result):
    """Every RunResult field, exact — no tolerances anywhere.

    The manifest is dropped: its timing block (wall clock, peak RSS) is
    volatile by design, and everything reproducible in it (seed, config
    hash, rng streams) is covered by its own tests.  ``profile`` is None
    on unprofiled runs but popped too for symmetry.
    """
    fingerprint = dataclasses.asdict(result)
    fingerprint.pop("manifest", None)
    fingerprint.pop("profile", None)
    return fingerprint


@pytest.fixture(scope="module")
def cached_result():
    return run(GOLDEN)


class TestGoldenSeedDeterminism:
    def test_rerun_is_bit_identical(self, cached_result):
        again = run(GOLDEN)
        assert result_fingerprint(again) == result_fingerprint(cached_result)

    def test_neighbor_cache_off_is_bit_identical(self, cached_result, monkeypatch):
        monkeypatch.setenv("REPRO_NEIGHBOR_CACHE", "0")
        brute = run(GOLDEN)
        assert result_fingerprint(brute) == result_fingerprint(cached_result)

    def test_golden_result_is_plausible(self, cached_result):
        # Sanity floor so a silently-empty run can't pass the equality tests.
        assert cached_result.total_wakeups > 0
        assert cached_result.coverage_lifetimes.get(3, 0.0) > 0.0
        assert cached_result.energy_total_j > 0.0
