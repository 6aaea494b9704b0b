"""Tests for the observability exporters: memory and JSON-lines."""

import io

import pytest

from repro.errors import ConfigError
from repro.obs.events import (
    BallotElected,
    ClientReplyDecided,
    EventRecord,
    RoleChanged,
)
from repro.obs.exporters import (
    JsonLinesSink,
    MemorySink,
    metrics_snapshot,
    read_jsonl,
)
from repro.obs.registry import MetricsRegistry


def populated_registry():
    reg = MetricsRegistry(clock=lambda: 100.0)
    reg.counter("repro_decided_entries_total", pid=1).inc(10)
    reg.counter("repro_decided_entries_total", pid=2).inc(20)
    reg.gauge("repro_quorum_connected", pid=1).set(1.0)
    hist = reg.histogram("repro_propose_decide_latency_ms")
    for v in (1.0, 2.0, 300.0):
        hist.observe(v)
    return reg


class TestMemorySink:
    def make(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        sink = MemorySink()
        reg.add_sink(sink)
        t = [0.0]
        reg.set_clock(lambda: t[0])
        t[0] = 10.0
        reg.emit(BallotElected(pid=1, leader=1, ballot=1))
        t[0] = 20.0
        reg.emit(RoleChanged(pid=1, role="leader", protocol="sp"))
        t[0] = 30.0
        reg.emit(BallotElected(pid=2, leader=1, ballot=1))
        return sink

    def test_kinds_first_seen_order(self):
        sink = self.make()
        assert sink.kinds() == ("BallotElected", "RoleChanged")

    def test_by_kind(self):
        sink = self.make()
        assert len(sink.by_kind("BallotElected")) == 2
        assert sink.by_kind("StopSignDecided") == []

    def test_between_half_open(self):
        sink = self.make()
        window = sink.between(10.0, 30.0)
        assert [r.at_ms for r in window] == [10.0, 20.0]

    def test_clear(self):
        sink = self.make()
        sink.clear()
        assert len(sink) == 0
        assert sink.kinds() == ()


class TestJsonLinesRoundTrip:
    def test_events_and_metrics(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        reg = populated_registry()
        sink = JsonLinesSink(path)
        reg.add_sink(sink)
        reg.emit(BallotElected(pid=1, leader=3, ballot=7))
        reg.emit(ClientReplyDecided(client_id=9, seq=4))
        sink.close(reg)

        events, metrics = read_jsonl(path)
        assert [e.event.kind for e in events] == \
            ["BallotElected", "ClientReplyDecided"]
        assert events[0].at_ms == 100.0
        assert events[0].event.leader == 3
        by_name = {}
        for m in metrics:
            by_name.setdefault(m["name"], []).append(m)
        decided = by_name["repro_decided_entries_total"]
        assert sorted(m["value"] for m in decided) == [10, 20]
        assert all(m["metric"] == "counter" for m in decided)
        (hist,) = by_name["repro_propose_decide_latency_ms"]
        assert hist["metric"] == "histogram"
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(303.0)

    def test_io_handle_destination(self):
        buf = io.StringIO()
        reg = MetricsRegistry(clock=lambda: 5.0)
        sink = JsonLinesSink(buf)
        reg.add_sink(sink)
        reg.emit(RoleChanged(pid=2, role="follower", protocol="raft"))
        sink.close(reg)
        assert not buf.closed  # sink does not own externally-supplied handles
        events, _metrics = read_jsonl(buf.getvalue().splitlines())
        assert events[0].event.role == "follower"

    def test_histogram_inf_bucket_survives_json(self):
        reg = MetricsRegistry()
        reg.histogram("h_ms").observe(1e9)  # lands in the overflow bucket
        (snap,) = metrics_snapshot(reg)
        assert snap["buckets"] == [["+Inf", 1]]

    def test_unknown_tag_rejected(self):
        # "series" was a record kind once; no view reads it, so it is
        # refused like any other unknown tag.
        for tag in ("mystery", "series"):
            with pytest.raises(ConfigError, match="unknown JSON-lines"):
                read_jsonl(['{"t": "%s", "index": 0}' % tag])

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ConfigError):
            read_jsonl(['{"t": "event", "kind": "Nope", "at_ms": 0.0}'])

    def test_blank_lines_skipped(self):
        events, metrics = read_jsonl(["", "   ", ""])
        assert events == [] and metrics == []
