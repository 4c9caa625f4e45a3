"""Sweep telemetry end to end: byte-neutrality, exact live counts, exports.

The contract has two halves.  Metrics collection must be *free* when off
and *invisible* when on — identical results and traces, because every
instrument is read outside the event loop.  And the sweep's counts must be
exact: the parent counts each settled run, retry and quarantine once, in
serial and pooled mode alike, so the live line never runs ahead of the
sweep and ``finish()`` writes schema-valid exports from the same counts.
"""

import io
import json
import multiprocessing
import re

import pytest

from repro.experiments import (
    RunError,
    Scenario,
    SweepTelemetry,
    expand_seeds,
    result_to_dict,
    run_sweep,
)
from repro.harness import RunOptions, run
from repro.obs import diff_runs, load_run, render_diff, validate_metrics_file
from repro.obs.metrics import METRIC_NAMES, MetricsRegistry

BASE = Scenario(
    num_nodes=12,
    field_size=(12.0, 12.0),
    failure_per_5000s=4.0,
    with_traffic=False,
    max_time_s=1_500.0,
)


def _comparable(result):
    """The result, minus wall-clock provenance and the metrics block."""
    payload = result_to_dict(result)
    payload["manifest"] = dict(payload["manifest"])
    payload["manifest"].pop("timing", None)
    payload.pop("metrics", None)
    return payload


class TestByteNeutrality:
    def test_results_identical_with_metrics_on(self):
        plain = run(BASE)
        metered = run(BASE, RunOptions(metrics=True))
        assert _comparable(metered) == _comparable(plain)
        assert plain.metrics is None
        assert metered.metrics

    def test_collected_samples_tell_the_runs_story(self):
        result = run(BASE, RunOptions(metrics=True))
        by_name = {}
        for sample in result.metrics:
            by_name.setdefault(sample["name"], []).append(sample)
        assert by_name["peas_runs_total"][0]["value"] == 1
        assert by_name["peas_sim_events_total"][0]["value"] > 0
        assert by_name["peas_sim_heap_size"][0]["value"] > 0
        labels = by_name["peas_runs_total"][0]["labels"]
        assert labels["protocol"] == "peas"
        assert labels["status"] == "ok"
        # Samples merge cleanly into a registry (the sweep-level path).
        registry = MetricsRegistry()
        registry.merge(result.metrics)
        registry.merge(result.metrics)
        assert registry.counter(
            "peas_runs_total", **labels
        ).value == 2


class _EveryTick(SweepTelemetry):
    """Renders a progress line on every count change (no throttle), so a
    test sees each intermediate count, not only the final one."""

    def _render(self, force=False):
        super()._render(force=True)


class TestSerialTelemetry:
    def test_progress_and_exports(self, tmp_path):
        stream = io.StringIO()
        telemetry = SweepTelemetry(
            tmp_path / "out", label="unit", stream=stream, live=False
        )
        scenarios = expand_seeds([BASE], [0, 1])
        results = run_sweep(
            scenarios, options=RunOptions(metrics=True), telemetry=telemetry
        )
        assert len(results) == 2
        out = stream.getvalue()
        assert "[unit] 2/2 runs (100%)" in out
        assert telemetry.done == 2 and telemetry.errors == 0

        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["schema"] == "peas-sweep-manifest/1"
        assert manifest["runs"] == 2 and manifest["ok"] == 2
        assert manifest["protocols"] == ["peas"]
        assert manifest["seed_range"] == [0, 1]
        assert len(manifest["config_hashes"]) == 2
        prom = (tmp_path / "out" / "metrics.prom").read_text()
        assert "# TYPE peas_sweep_runs_total counter" in prom
        assert 'peas_sweep_runs_total{status="ok"} 2' in prom

    @pytest.mark.parametrize("processes", [None, 2])
    def test_exports_survive_failed_runs(self, tmp_path, processes):
        stream = io.StringIO()
        telemetry = _EveryTick(tmp_path / "out", stream=stream, live=False)
        # Constructs fine but fails inside the worker: GAF rejects a
        # clock-drift plan (same trick as the fault-injection tests).
        from repro.faults import ClockDriftFault, FaultPlan

        bad = BASE.with_(
            protocol="gaf",
            fault_plan=FaultPlan((ClockDriftFault(max_skew=0.05),)),
        )
        results = run_sweep(
            expand_seeds([BASE], [0, 1, 2]) + [bad],
            processes=processes,
            errors="collect",
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        assert isinstance(results[3], RunError)
        failed = sum(isinstance(r, RunError) for r in results)
        # Every live line is exact: the failing run is retried once and
        # quarantined, but counted as one run and one error.
        for line in stream.getvalue().splitlines():
            done, total = map(int, re.search(r"(\d+)/(\d+) runs", line).groups())
            assert done <= total, line
            errors = re.search(r"(\d+) errors", line)
            assert errors is None or int(errors.group(1)) <= failed, line
        assert telemetry.done == 4 and telemetry.errors == 1
        assert telemetry.retries == 1
        assert telemetry.quarantined == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["ok"] == 3 and manifest["errors"] == 1
        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []


class TestPooledTelemetry:
    def test_start_spawns_no_process(self, tmp_path):
        before = set(multiprocessing.active_children())
        telemetry = SweepTelemetry(tmp_path / "out", stream=io.StringIO())
        telemetry.start(4, processes=2)
        assert set(multiprocessing.active_children()) == before

    def test_pooled_sweep_counts_each_run_once(self, tmp_path):
        telemetry = SweepTelemetry(
            tmp_path / "out", label="pooled", stream=io.StringIO(), live=False
        )
        scenarios = expand_seeds([BASE], [0, 1, 2, 3])
        results = run_sweep(
            scenarios,
            processes=2,
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        assert len(results) == 4
        assert telemetry.done == 4 and telemetry.errors == 0
        assert validate_metrics_file(tmp_path / "out" / "metrics.ndjson") == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["runs"] == 4 and manifest["ok"] == 4
        assert manifest["workers"] == 2
        # The whole peas-sweep-manifest/1 field set: counts the parent
        # takes, provenance, and nothing reported by workers.
        assert set(manifest) == {
            "argv", "config_digest", "config_hashes", "errors", "git_sha",
            "label", "ok", "peak_rss_mb", "pool_restarts", "protocols",
            "quarantined", "retries", "runs", "schema", "seed_range",
            "store", "wall_s", "warm_start", "workers",
        }
        # Per-run samples merged: 4 runs' counters folded into one export.
        record = load_run(tmp_path / "out")
        key = next(
            k for k in record.samples
            if k[0] == "peas_runs_total" and ("status", "ok") in k[1]
        )
        assert record.samples[key]["value"] == 4


class TestDiffWorkflow:
    def run_sweep_with_export(self, tmp_path, name, seeds):
        telemetry = SweepTelemetry(
            tmp_path / name, label=name, stream=io.StringIO(), live=False
        )
        run_sweep(
            expand_seeds([BASE], seeds),
            options=RunOptions(metrics=True),
            telemetry=telemetry,
        )
        return tmp_path / name

    def test_identical_sweeps_diff_clean(self, tmp_path):
        a = self.run_sweep_with_export(tmp_path, "a", [0, 1])
        b = self.run_sweep_with_export(tmp_path, "b", [0, 1])
        diff = diff_runs(load_run(a), load_run(b))
        # Same config digest and git SHA; only the label + wall-clock
        # instruments move.
        drift_fields = [f for f, _va, _vb in diff.drift]
        assert "git_sha" not in drift_fields
        assert "config_digest" not in drift_fields
        moved = {d.name for d in diff.changed}
        assert moved <= {"peas_sweep_wall_seconds", "peas_run_wall_seconds",
                         "peas_run_rss_mb"}
        assert diff.unchanged > 5

    def test_diff_reports_real_movement(self, tmp_path):
        a = self.run_sweep_with_export(tmp_path, "a", [0])
        b = self.run_sweep_with_export(tmp_path, "b", [0, 1, 2])
        diff = diff_runs(load_run(a), load_run(b))
        assert ("runs", 1, 3) in diff.drift
        report = render_diff(diff)
        assert "provenance drift" in report
        assert "peas_runs_total" in report
        assert "metrics moved" in report


class TestRunErrorSummary:
    def test_summary_carries_coordinates_and_traceback_tail(self):
        error = RunError(
            scenario=Scenario(num_nodes=10, seed=7),
            error_type="ValueError",
            error_message="boom",
            traceback_text=(
                "Traceback (most recent call last):\n"
                '  File "pool.py", line 1, in plumbing\n'
                '  File "runner.py", line 2, in _run\n'
                '  File "node.py", line 3, in _wake\n'
                "ValueError: boom\n"
            ),
        )
        text = error.summary()
        head, *tail = text.splitlines()
        assert head == "peas/n=10/seed=7: ValueError: boom"
        # Last three non-empty traceback lines, indented; pool plumbing
        # (the head of the trace) is elided.
        assert len(tail) == 3
        assert tail[0] == '      File "runner.py", line 2, in _run'
        assert tail[-1] == "    ValueError: boom"
        assert "pool.py" not in text

    def test_summary_without_traceback_is_one_line(self):
        error = RunError(
            scenario=Scenario(num_nodes=5, seed=1),
            error_type="RuntimeError",
            error_message="x",
            traceback_text="",
        )
        assert error.summary() == "peas/n=5/seed=1: RuntimeError: x"


def test_metric_catalogue_matches_prometheus_conventions():
    # Counters end in _total (or a unit), gauges/histograms carry units.
    for name, (kind, _help) in METRIC_NAMES.items():
        if kind == "counter":
            assert name.endswith(("_total", "_seconds")), name
