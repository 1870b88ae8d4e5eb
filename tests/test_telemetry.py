"""Unit tests for the telemetry subsystem (spans, metrics, Chrome export)."""

import json

import pytest

from repro.device.stats import DeviceStats
from repro.telemetry import (
    NULL_SPAN,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    TelemetryHub,
    Tracer,
    activated,
    active_hub,
    chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    """Deterministic injectable clock, advanced manually in seconds."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


# ----------------------------------------------------------------------
# tracer nesting


class TestTracerNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("pim.mult") as outer:
            with tracer.span("mult.reduction") as inner:
                assert tracer.active is inner
                assert tracer.depth == 2
            assert tracer.active is outer
        assert tracer.active is None
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.children == []

    def test_iter_spans_depth_first_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                with tracer.span("d"):
                    pass
        with tracer.span("e"):
            pass
        assert [s.name for s in tracer.iter_spans()] == list("abcde")
        assert tracer.span_count() == 5

    def test_find_returns_all_matches_in_order(self):
        tracer = Tracer()
        with tracer.span("x", category="core", step=1):
            with tracer.span("x", step=2):
                pass
        found = tracer.find("x")
        assert [s.attrs["step"] for s in found] == [1, 2]
        assert tracer.find("missing") == []

    def test_wall_times_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(1e-6)  # 1 us after the epoch
        with tracer.span("outer") as outer:
            clock.advance(3e-6)
            with tracer.span("inner") as inner:
                clock.advance(2e-6)
        assert outer.start_us == pytest.approx(1.0)
        assert inner.start_us == pytest.approx(4.0)
        assert inner.duration_us == pytest.approx(2.0)
        assert outer.duration_us == pytest.approx(5.0)

    def test_annotate_merges_and_overwrites(self):
        tracer = Tracer()
        with tracer.span("op", cycles=1) as span:
            span.annotate(cycles=64, energy_pj=2.5)
        assert span.attrs == {"cycles": 64, "energy_pj": 2.5}

    def test_exception_marks_error_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.depth == 0
        inner = tracer.find("inner")[0]
        assert inner.attrs["error"] == "ValueError"

    def test_leaked_inner_span_is_unwound_by_outer_exit(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        outer.__enter__()
        inner = tracer.span("inner")
        inner.__enter__()
        # The outer exit unwinds past the leaked inner span.
        outer.__exit__(None, None, None)
        assert tracer.depth == 0
        assert outer.children == [inner]

    def test_instants_recorded_with_timestamps(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.advance(5e-6)
        tracer.instant("resilience.retry", attempt=2)
        (instant,) = tracer.instants
        assert instant["name"] == "resilience.retry"
        assert instant["ts_us"] == pytest.approx(5.0)
        assert instant["attrs"] == {"attempt": 2}

    def test_clear_refuses_with_open_spans(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(RuntimeError):
            tracer.clear()
        span.__exit__(None, None, None)
        tracer.clear()
        assert tracer.roots == [] and tracer.instants == []


# ----------------------------------------------------------------------
# null tracer: zero overhead


class TestNullTracer:
    def test_span_returns_shared_singleton(self):
        tracer = NullTracer()
        a = tracer.span("pim.mult", cycles=64)
        b = tracer.span("anything.else")
        assert a is b is NULL_SPAN
        assert NULL_TRACER.span("x") is NULL_SPAN

    def test_no_span_objects_allocated(self):
        # The singleton has no per-instance storage at all: entering,
        # annotating and exiting allocate nothing and record nothing.
        assert NULL_SPAN.__slots__ == ()
        with NULL_TRACER.span("op") as span:
            assert span.annotate(cycles=1) is span
        assert NULL_SPAN.attrs == {}
        assert NULL_TRACER.span_count() == 0
        assert list(NULL_TRACER.iter_spans()) == []

    def test_instant_and_clear_are_noops(self):
        NULL_TRACER.instant("event", x=1)
        assert NULL_TRACER.instants == ()
        NULL_TRACER.clear()
        assert NULL_TRACER.find("event") == []
        assert NULL_TRACER.active is None
        assert NULL_TRACER.depth == 0

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NULL_TRACER.enabled is False


# ----------------------------------------------------------------------
# metrics


class TestCounterGauge:
    def test_counter_monotonic(self):
        c = Counter("ops")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_add(self):
        g = Gauge("depth")
        g.set(3)
        g.add(-1)
        assert g.value == 2


class TestHistogramBuckets:
    def test_exact_edge_lands_in_its_bucket(self):
        h = Histogram("h", edges=(1, 2, 4, 8))
        # bucket i counts edges[i-1] < v <= edges[i]
        for value in (1, 2, 4, 8):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1, 0]

    def test_between_edges_rounds_up(self):
        h = Histogram("h", edges=(1, 2, 4, 8))
        h.observe(3)  # 2 < 3 <= 4
        assert h.counts == [0, 0, 1, 0, 0]

    def test_overflow_bucket_catches_everything_above(self):
        h = Histogram("h", edges=(1, 2, 4, 8))
        h.observe(9)
        h.observe(10_000)
        assert h.counts == [0, 0, 0, 0, 2]
        assert h.count == 2

    def test_below_first_edge_lands_in_first_bucket(self):
        h = Histogram("h", edges=(1, 2))
        h.observe(0)
        h.observe(-5)
        assert h.counts == [2, 0, 0]

    def test_summary_stats(self):
        h = Histogram("h", edges=(10,))
        for v in (2, 4, 6):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 12
        assert h.mean == pytest.approx(4.0)
        assert h.min == 2 and h.max == 6
        d = h.as_dict()
        assert d["edges"] == [10]
        assert d["counts"] == [3, 0]

    def test_counts_length_is_edges_plus_one(self):
        h = Histogram("h", edges=(1, 2, 3))
        assert len(h.counts) == 4

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", edges=(3, 2))
        with pytest.raises(ValueError):
            Histogram("h", edges=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        h = reg.histogram("h", edges=(1, 2))
        assert reg.histogram("h") is h
        assert len(reg) == 3

    def test_histogram_first_use_requires_edges(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.histogram("unseen")

    def test_histogram_edge_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", edges=(1, 2, 3))

    def test_cross_kind_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x", edges=(1,))

    def test_as_dict_snapshot_is_non_destructive(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.histogram("h", edges=(1,)).observe(5)
        first = reg.as_dict()
        second = reg.as_dict()
        assert first == second
        # Mutating the snapshot must not touch the registry.
        first["counters"]["c"] = 999
        first["histograms"]["h"]["counts"][0] = 999
        assert reg.counter("c").value == 3
        assert reg.histogram("h").counts == [0, 1]


# ----------------------------------------------------------------------
# chrome export


class TestChromeTrace:
    def _traced(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("pim.mult", category="pim") as outer:
            clock.advance(2e-6)
            with tracer.span("mult.reduction", category="core") as inner:
                clock.advance(1e-6)
                inner.annotate(cycles=8)
            outer.annotate(cycles=64, energy_pj=680.6)
        tracer.instant("resilience.retry", category="resilience", attempt=2)
        return tracer

    def test_document_schema(self):
        doc = chrome_trace(self._traced())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "coruscant-pim"
        phases = [e["ph"] for e in events]
        assert phases == ["M", "X", "X", "i"]

    def test_complete_events_carry_ts_dur_args(self):
        doc = chrome_trace(self._traced())
        outer = next(
            e for e in doc["traceEvents"] if e.get("name") == "pim.mult"
        )
        assert outer["cat"] == "pim"
        assert outer["ts"] == pytest.approx(0.0)
        assert outer["dur"] == pytest.approx(3.0)
        assert outer["args"] == {"cycles": 64, "energy_pj": 680.6}
        inner = next(
            e
            for e in doc["traceEvents"]
            if e.get("name") == "mult.reduction"
        )
        # Nested by timestamp containment on the same pid/tid.
        assert inner["pid"] == outer["pid"]
        assert inner["tid"] == outer["tid"]
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_instant_events_are_thread_scoped(self):
        doc = chrome_trace(self._traced())
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["name"] == "resilience.retry"
        assert instant["args"] == {"attempt": 2}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        document = write_chrome_trace(self._traced(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded == document
        assert loaded["traceEvents"]

    def test_custom_process_name(self):
        doc = chrome_trace(self._traced(), process_name="my-sim")
        assert doc["traceEvents"][0]["args"]["name"] == "my-sim"


# ----------------------------------------------------------------------
# hub helpers + runtime activation


class TestTelemetryHub:
    def test_device_op_counters(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        hub.claim(stats)
        stats.record("shift", cycles=1, energy_pj=0.2, count=3)
        counters = hub.metrics_dict()["counters"]
        assert counters["device.ops"] == 3
        assert counters["device.shift.count"] == 3
        assert counters["device.cycles"] == 3
        assert counters["device.energy_pj"] == pytest.approx(0.6)

    def test_memory_access_hit_rate_gauge(self):
        hub = TelemetryHub()
        hub.memory_access(is_write=False, row_hit=True)
        hub.memory_access(is_write=True, row_hit=False)
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["mem.reads"] == 1
        assert snapshot["counters"]["mem.writes"] == 1
        assert snapshot["gauges"]["mem.row_buffer_hit_rate"] == 0.5

    def test_resilient_op_retry_depth_histogram(self):
        hub = TelemetryHub()
        hub.resilient_op(1, "clean")
        hub.resilient_op(3, "retried")
        snapshot = hub.metrics_dict()
        assert snapshot["counters"]["resilience.verdict.clean"] == 1
        assert snapshot["counters"]["resilience.verdict.retried"] == 1
        hist = snapshot["histograms"]["resilience.retry_depth"]
        assert hist["count"] == 2
        assert hist["counts"][0] == 1  # attempts == 1
        assert hist["counts"][2] == 1  # attempts == 3

    def test_activated_scopes_and_restores(self):
        hub_a, hub_b = TelemetryHub(), TelemetryHub()
        assert active_hub() is None
        with activated(hub_a):
            assert active_hub() is hub_a
            with activated(hub_b):
                assert active_hub() is hub_b
            assert active_hub() is hub_a
        assert active_hub() is None

    def test_device_op_per_op_cycles_and_energy(self):
        hub = TelemetryHub()
        stats = DeviceStats()
        hub.claim(stats)
        stats.record("shift", cycles=1, energy_pj=0.2, count=3)
        stats.record("transverse_read", cycles=2, energy_pj=0.1)
        counters = hub.metrics_dict()["counters"]
        assert counters["device.shift.cycles"] == 3
        assert counters["device.shift.energy_pj"] == pytest.approx(0.6)
        assert counters["device.transverse_read.cycles"] == 2
        assert counters["device.cycles"] == 5


# ----------------------------------------------------------------------
# derived quantiles


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("h", edges=(1, 2))
        assert h.quantile(0.5) is None
        d = h.as_dict()
        assert d["p50"] is None and d["p90"] is None and d["p99"] is None

    def test_quantile_bounds_validated(self):
        h = Histogram("h", edges=(1,))
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_single_value_collapses_all_quantiles(self):
        h = Histogram("h", edges=(10, 20))
        h.observe(7)
        for q in (0.0, 0.5, 0.9, 1.0):
            assert h.quantile(q) == pytest.approx(7.0)

    def test_interpolates_within_one_bucket(self):
        # 100 observations uniform over (10, 20]: p50 should sit near
        # the bucket's midpoint, p90 near its upper end.
        h = Histogram("h", edges=(10, 20, 30))
        for i in range(100):
            h.observe(10.1 + i * 0.099)
        assert h.quantile(0.5) == pytest.approx(15.0, abs=1.0)
        assert h.quantile(0.9) == pytest.approx(19.0, abs=1.0)
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_quantiles_across_buckets(self):
        h = Histogram("h", edges=(1, 2, 4, 8))
        for value in (0.5, 1.5, 1.6, 3.0, 3.5, 3.9, 5.0, 6.0, 7.0, 8.0):
            h.observe(value)
        p50 = h.quantile(0.5)
        assert 2 < p50 <= 4  # the 5th of 10 observations is 3.5
        p90 = h.quantile(0.9)
        assert 4 < p90 <= 8

    def test_overflow_bucket_clamps_to_observed_max(self):
        h = Histogram("h", edges=(1, 2))
        for value in (5, 50, 500):
            h.observe(value)
        # All mass in the overflow bucket: estimates interpolate between
        # the last edge and the observed max, never beyond.
        assert h.quantile(0.99) <= 500
        assert h.quantile(1.0) == pytest.approx(500)
        assert h.quantile(0.01) >= 2  # overflow bucket's lower bound

    def test_first_bucket_uses_observed_min_not_minus_infinity(self):
        h = Histogram("h", edges=(10, 20))
        h.observe(4)
        h.observe(6)
        p50 = h.quantile(0.5)
        assert 4 <= p50 <= 6

    def test_as_dict_exposes_p50_p90_p99(self):
        h = Histogram("h", edges=(1, 2, 4, 8, 16))
        for value in range(1, 11):
            h.observe(value)
        d = h.as_dict()
        assert d["p50"] == pytest.approx(h.quantile(0.50))
        assert d["p90"] == pytest.approx(h.quantile(0.90))
        assert d["p99"] == pytest.approx(h.quantile(0.99))
        assert d["p50"] <= d["p90"] <= d["p99"] <= h.max


# ----------------------------------------------------------------------
# chrome export edge cases


class TestChromeTraceEdgeCases:
    def test_empty_tracer_exports_only_metadata(self):
        doc = chrome_trace(Tracer())
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        json.dumps(doc)

    def test_null_tracer_exports_only_metadata(self):
        doc = chrome_trace(NULL_TRACER)
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]

    def test_deeply_nested_spans_preserve_containment(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        depth = 40
        spans = []
        for i in range(depth):
            span = tracer.span(f"level{i}")
            span.__enter__()
            spans.append(span)
            clock.advance(1e-6)
        for span in reversed(spans):
            clock.advance(1e-6)
            span.__exit__(None, None, None)
        doc = chrome_trace(tracer)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == depth
        # Start-time sorted = outermost first; each child is contained
        # within its parent's interval.
        for parent, child in zip(events, events[1:]):
            assert parent["ts"] <= child["ts"]
            assert (
                child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-9
            )

    def test_instants_interleave_with_spans_by_timestamp(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.instant("before")  # ts 0
        clock.advance(5e-6)
        with tracer.span("work"):  # ts 5
            clock.advance(2e-6)
            tracer.instant("during")  # ts 7
            clock.advance(2e-6)
        clock.advance(1e-6)
        tracer.instant("after")  # ts 10
        doc = chrome_trace(tracer)
        names = [e["name"] for e in doc["traceEvents"][1:]]
        assert names == ["before", "work", "during", "after"]
        timestamps = [e["ts"] for e in doc["traceEvents"][1:]]
        assert timestamps == sorted(timestamps)

    def test_equal_timestamps_keep_parent_before_child(self):
        # Zero-duration nesting: the stable sort must not reorder a
        # child before the parent that contains it.
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = chrome_trace(tracer)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names == ["outer", "inner"]
