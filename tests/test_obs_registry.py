"""Unit tests for the observability registry and instruments."""

import pytest

from repro.errors import ConfigError
from repro.obs.events import (
    BallotElected,
    EVENT_TYPES,
    EventRecord,
    QCFlagChanged,
    event_from_dict,
    event_to_dict,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Instrumented,
    MetricsRegistry,
)
from repro.obs.exporters import MemorySink


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", pid=1)
        c.inc()
        c.inc(4)
        assert reg.counter_value("x_total", pid=1) == 5.0

    def test_negative_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("x_total").inc(-1)

    def test_label_sets_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("x_total", pid=1).inc()
        reg.counter("x_total", pid=2).inc(2)
        assert reg.counter_value("x_total", pid=1) == 1.0
        assert reg.counter_value("x_total", pid=2) == 2.0
        assert reg.sum_counter("x_total") == 3.0

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x_total", a=1, b=2).inc()
        assert reg.counter_value("x_total", b=2, a=1) == 1.0

    def test_untouched_counter_reads_zero(self):
        reg = MetricsRegistry()
        assert reg.counter_value("nope_total", pid=9) == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("qc", pid=1)
        g.set(1.0)
        g.inc()
        g.dec(0.5)
        assert g.value == pytest.approx(1.5)


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = Histogram("lat", ())
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(7.0)
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == pytest.approx(7.0 / 3.0)

    def test_quantile_bounds_error(self):
        h = Histogram("lat", ())
        for v in range(1, 101):
            h.observe(float(v))
        # HDR buckets guarantee ~12% relative error.
        assert h.quantile(0.5) == pytest.approx(50.0, rel=0.15)
        assert h.quantile(0.99) == pytest.approx(99.0, rel=0.15)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_quantile_empty(self):
        h = Histogram("lat", ())
        assert h.quantile(0.5) == 0.0

    def test_quantile_out_of_range(self):
        h = Histogram("lat", ())
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_overflow_bucket(self):
        h = Histogram("lat", ())
        h.observe(1e9)  # beyond the top bound (~16.7 M)
        assert h.nonempty_buckets() == [(float("inf"), 1)]

    def test_nonempty_buckets_sorted(self):
        h = Histogram("lat", ())
        for v in (0.5, 100.0, 3.0):
            h.observe(v)
        bounds = [b for b, _ in h.nonempty_buckets()]
        assert bounds == sorted(bounds)


    def test_nonempty_buckets_sum_to_count_overflow_included(self):
        """What every export of a histogram relies on: the non-empty
        buckets, the overflow bucket among them, account for every
        observation exactly once."""
        h = Histogram("lat", ())
        for v in (0.3, 0.9, 2.5, 2.5, 40.0, 1e9):
            h.observe(v)
        buckets = h.nonempty_buckets()
        assert buckets[-1] == (float("inf"), 1)
        assert sum(n for _, n in buckets) == h.count == 6
        assert h.sum == sum((0.3, 0.9, 2.5, 2.5, 40.0, 1e9))


class TestRegistryEvents:
    def test_emit_stamps_clock(self):
        t = [0.0]
        reg = MetricsRegistry(clock=lambda: t[0])
        sink = MemorySink()
        reg.add_sink(sink)
        t[0] = 42.0
        reg.emit(BallotElected(pid=1, leader=2, ballot=3))
        assert len(sink) == 1
        assert sink.records[0].at_ms == 42.0
        assert sink.records[0].event.leader == 2

    def test_set_clock_rewires(self):
        reg = MetricsRegistry()
        reg.set_clock(lambda: 7.0)
        assert reg.now_ms() == 7.0

    def test_fan_out_to_multiple_sinks(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        a, b = MemorySink(), MemorySink()
        reg.add_sink(a)
        reg.add_sink(b)
        reg.emit(QCFlagChanged(pid=1, quorum_connected=False))
        assert len(a) == 1 and len(b) == 1

    def test_remove_sink(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        sink = MemorySink()
        reg.add_sink(sink)
        reg.remove_sink(sink)
        reg.emit(QCFlagChanged(pid=1, quorum_connected=False))
        assert len(sink) == 0

    def test_add_sink_deduplicates(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        sink = MemorySink()
        reg.add_sink(sink)
        reg.add_sink(sink)
        reg.emit(QCFlagChanged(pid=1, quorum_connected=True))
        assert len(sink) == 1


class TestNullRegistry:
    def test_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_mutations_are_noops(self):
        sink = MemorySink()
        NULL_REGISTRY.add_sink(sink)
        NULL_REGISTRY.emit(BallotElected(pid=1, leader=1, ballot=1))
        assert len(sink) == 0
        assert NULL_REGISTRY.sinks == ()

    def test_instruments_do_not_accumulate(self):
        NULL_REGISTRY.counter("leak_total", pid=1).inc(100)
        assert NULL_REGISTRY.counter_value("leak_total", pid=1) == 0.0
        assert list(NULL_REGISTRY.metrics()) == []

    def test_set_clock_noop(self):
        NULL_REGISTRY.set_clock(lambda: 123.0)
        assert NULL_REGISTRY.now_ms() == 0.0


class TestInstrumented:
    def test_default_is_null(self):
        class Thing(Instrumented):
            pass

        assert Thing().obs is NULL_REGISTRY
        assert not Thing()._obs.enabled

    def test_set_observability_propagates(self):
        class Child(Instrumented):
            pass

        class Parent(Instrumented):
            def __init__(self):
                self.child = Child()

            def _on_observability(self, registry):
                self.child.set_observability(registry)

        parent = Parent()
        reg = MetricsRegistry()
        parent.set_observability(reg)
        assert parent.obs is reg
        assert parent.child.obs is reg


class TestEventSerialization:
    def test_round_trip_every_kind(self):
        for kind, cls in EVENT_TYPES.items():
            record = EventRecord(at_ms=12.5, event=cls())
            data = event_to_dict(record)
            back = event_from_dict(data)
            assert back.at_ms == 12.5
            assert back.event == record.event
            assert back.event.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            event_from_dict({"at_ms": 0.0, "kind": "NotAThing"})

    def test_tuples_become_lists_and_back(self):
        from repro.obs.events import StopSignDecided

        record = EventRecord(0.0, StopSignDecided(
            pid=1, config_id=0, next_config_id=1, servers=(1, 2, 3)))
        data = event_to_dict(record)
        assert data["servers"] == [1, 2, 3]
        back = event_from_dict(data)
        assert back.event.servers == (1, 2, 3)
