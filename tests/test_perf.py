"""Tests for the perf-counter registry (repro.perf)."""

import json

from repro.perf import PerfCounters


class TestCounters:
    def test_incr_and_count(self):
        perf = PerfCounters()
        assert perf.count("x") == 0
        perf.incr("x")
        perf.incr("x", 4)
        assert perf.count("x") == 5

    def test_counters_are_independent(self):
        a, b = PerfCounters(), PerfCounters()
        a.incr("x")
        assert b.count("x") == 0


class TestTimings:
    def test_timed_accumulates(self):
        perf = PerfCounters()
        with perf.timed("phase"):
            pass
        first = perf.seconds("phase")
        assert first >= 0.0
        with perf.timed("phase"):
            pass
        assert perf.seconds("phase") >= first

    def test_timed_records_on_exception(self):
        perf = PerfCounters()
        try:
            with perf.timed("phase"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "phase_s" in perf.snapshot()

    def test_add_time_direct(self):
        perf = PerfCounters()
        perf.add_time("run", 1.5)
        perf.add_time("run", 0.5)
        assert perf.seconds("run") == 2.0


class TestGauges:
    def test_set_and_read(self):
        perf = PerfCounters()
        assert perf.gauge("qps") is None
        perf.set_gauge("qps", 100.0)
        perf.set_gauge("qps", 200.0)  # last write wins
        assert perf.gauge("qps") == 200.0


class TestDerived:
    def test_hit_rate(self):
        perf = PerfCounters()
        assert perf.hit_rate("hits", "misses") is None
        perf.incr("hits", 9)
        perf.incr("misses", 1)
        assert perf.hit_rate("hits", "misses") == 0.9

    def test_rate(self):
        perf = PerfCounters()
        assert perf.rate("events", "run") is None
        perf.incr("events", 100)
        perf.add_time("run", 2.0)
        assert perf.rate("events", "run") == 50.0


class TestAggregation:
    def test_snapshot_flattens_with_suffix(self):
        perf = PerfCounters()
        perf.incr("queries", 3)
        perf.add_time("run", 1.0)
        perf.set_gauge("qps", 3.0)
        snap = perf.snapshot()
        assert snap == {"queries": 3, "run_s": 1.0, "qps": 3.0}

    def test_merge(self):
        a, b = PerfCounters(), PerfCounters()
        a.incr("x", 1)
        b.incr("x", 2)
        b.add_time("run", 0.5)
        b.set_gauge("qps", 7.0)
        a.merge(b)
        assert a.count("x") == 3
        assert a.seconds("run") == 0.5
        assert a.gauge("qps") == 7.0

    def test_reset(self):
        perf = PerfCounters()
        perf.incr("x")
        perf.add_time("run", 1.0)
        perf.set_gauge("qps", 1.0)
        perf.reset()
        assert perf.snapshot() == {}

    def test_to_json_round_trips(self):
        perf = PerfCounters()
        perf.incr("queries", 42)
        assert json.loads(perf.to_json()) == {"queries": 42}


class TestReportRendering:
    def test_render_perf_counters(self):
        from repro.experiments.report import render_perf_counters
        perf = PerfCounters()
        assert "no perf counters" in render_perf_counters(perf)
        perf.incr("server.wire_cache_hits", 9)
        perf.incr("server.wire_cache_misses", 1)
        perf.incr("replay.events_processed", 100)
        perf.incr("replay.queries_scheduled", 50)
        perf.add_time("replay.run", 2.0)
        text = render_perf_counters(perf)
        assert "server.wire_cache_hit_rate" in text
        assert "0.900" in text
        assert "replay.events_per_wall_s" in text
        assert "50" in text  # events/sec = 100 / 2.0
