"""Unit tests for engine profiling (``repro.sim.profiling`` + the
``Simulator.profiled`` hook)."""

import pytest

from repro.sim import EngineProfiler, SimulationError, Simulator
from repro.sim.profiling import (
    _GAUGE_PERIOD,
    _GAUGE_SERIES_CAP,
    LabelStats,
)


class TestLabelStats:
    def test_accumulates(self):
        stats = LabelStats()
        stats.record(1e-6)
        stats.record(3e-6)
        assert stats.count == 2
        assert stats.total_s == pytest.approx(4e-6)
        assert stats.min_s == pytest.approx(1e-6)
        assert stats.max_s == pytest.approx(3e-6)

    def test_as_dict_reports_microseconds(self):
        stats = LabelStats()
        stats.record(1e-6)
        stats.record(3e-6)
        assert stats.as_dict() == {
            "count": 2,
            "total_ms": 0.004,
            "mean_us": 2.0,
            "min_us": 1.0,
            "max_us": 3.0,
        }


class TestEngineProfiler:
    def test_record_and_as_dict(self):
        profiler = EngineProfiler()
        profiler.record("a", 2e-6)
        profiler.record("a", 2e-6)
        profiler.record("b", 10e-6)
        profiler.sample_gauges(heap_size=8, live=5)
        payload = profiler.as_dict()
        assert payload["events"] == 3
        # Sorted by total self-time: b (10us) before a (4us).
        assert list(payload["by_label"]) == ["b", "a"]
        assert payload["gauges"] == {
            "max_heap": 8,
            "max_live": 5,
            "max_tombstones": 3,
            "series": [],
        }

    def test_report_renders(self):
        profiler = EngineProfiler()
        profiler.record("tick", 5e-6)
        text = profiler.report()
        assert "engine profile" in text
        assert "tick" in text

    def test_render_from_dict_matches_report(self):
        profiler = EngineProfiler()
        profiler.record("tick", 5e-6)
        assert EngineProfiler.render(profiler.as_dict()) == profiler.report()

    def test_render_limit(self):
        profiler = EngineProfiler()
        for i in range(5):
            profiler.record(f"label{i}", 1e-6)
        text = EngineProfiler.render(profiler.as_dict(), limit=2)
        assert sum(1 for line in text.splitlines() if "label" in line and "label0" != line) >= 1
        assert len(text.splitlines()) == 5  # 3 header lines + 2 label rows


class TestGaugeSeries:
    def test_timed_samples_extend_the_series(self):
        profiler = EngineProfiler()
        profiler.sample_gauges(heap_size=4, live=3, now=10.0)
        profiler.sample_gauges(heap_size=8, live=5, now=20.0)
        profiler.sample_gauges(heap_size=2, live=1)  # untimed: high-water only
        assert profiler.gauge_series == [(10.0, 4, 3), (20.0, 8, 5)]
        assert profiler.as_dict()["gauges"]["series"] == [[10.0, 4, 3], [20.0, 8, 5]]

    def test_decimation_bounds_memory_and_spans_the_run(self):
        profiler = EngineProfiler()
        n = _GAUGE_SERIES_CAP * 4
        for i in range(n):
            profiler.sample_gauges(heap_size=i, live=i, now=float(i))
        series = profiler.gauge_series
        assert len(series) <= _GAUGE_SERIES_CAP
        # Still covers the whole run: first sample kept, last near the end.
        assert series[0][0] == 0.0
        assert series[-1][0] >= n - profiler._gauge_stride
        times = [t for t, _h, _l in series]
        assert times == sorted(times)

    def test_render_gauges_sparklines(self):
        profiler = EngineProfiler()
        for i in range(100):
            profiler.sample_gauges(heap_size=100 + i, live=60 + i, now=float(i) * 10)
        text = EngineProfiler.render_gauges(profiler.as_dict())
        assert "max heap 199" in text
        assert "heap size" in text and "live evts" in text and "tombstone%" in text
        assert "t=[0s..990s]" in text

    def test_render_gauges_degrades_without_series(self):
        # Profiles recorded before the series existed still render.
        text = EngineProfiler.render_gauges(
            {"gauges": {"max_heap": 5, "max_live": 4, "max_tombstones": 1}}
        )
        assert text == "gauges: max heap 5, max live 4, max tombstones 1"

    def test_engine_run_populates_series(self):
        sim = Simulator()

        def noop():
            pass

        for i in range(2 * _GAUGE_PERIOD):
            sim.schedule(float(i), noop, label="tick")
        with sim.profiled() as prof:
            sim.run()
        assert prof.gauge_series
        assert all(t >= 0.0 for t, _h, _l in prof.gauge_series)
        rendered = EngineProfiler.render(prof.as_dict())
        assert "heap size" in rendered


class TestProfiledRuns:
    def test_profiled_context_counts_dispatches(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i, label="tick")
        sim.schedule(0.5, fired.append, -1)  # unlabeled -> callback qualname
        with sim.profiled() as prof:
            sim.run()
        assert len(fired) == 11
        assert prof.events == 11
        assert prof.labels["tick"].count == 10
        assert sim.profiler is None  # detached on exit

    def test_profiled_results_match_unprofiled(self):
        def collect(sim):
            order = []
            for i in range(50):
                sim.schedule(float(50 - i), order.append, i, label="tick")
            return order

        plain_sim = Simulator()
        plain = collect(plain_sim)
        plain_sim.run()

        prof_sim = Simulator()
        profiled = collect(prof_sim)
        with prof_sim.profiled():
            prof_sim.run()
        assert profiled == plain
        assert prof_sim.now == plain_sim.now
        assert prof_sim.events_executed == plain_sim.events_executed

    def test_double_attach_rejected(self):
        sim = Simulator()
        with sim.profiled():
            with pytest.raises(SimulationError):
                with sim.profiled():
                    pass

    def test_gauges_sampled_during_run(self):
        sim = Simulator()

        def noop():
            pass

        for i in range(2 * _GAUGE_PERIOD):
            sim.schedule(float(i), noop, label="tick")
        with sim.profiled() as prof:
            sim.run()
        assert prof.max_heap >= 1
        assert prof.max_live >= 1

    def test_tombstones_property(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        victim = sim.schedule(2.0, lambda: None)
        assert sim.tombstones == 0
        victim.cancel()
        assert sim.tombstones == 1
        keep.cancel()  # silence unused warning; both cancelled now
        assert sim.tombstones == 2
