"""Flight recorder, watch dashboard, admin endpoint, report error paths.

The acceptance chain under test: a failing chaos schedule leaves behind a
flight dump whose JSON-lines are a valid ``repro-obs timeline`` input;
the ``watch`` dashboard catches the belief/truth gap during a partition;
and a live node answers line-delimited JSON admin requests.
"""

import asyncio
import json
import os

import pytest

from repro.chaos.engine import run_schedule
from repro.chaos.generator import generate_schedule
from repro.errors import ConfigError
from repro.obs.events import ClientReplyDecided, EventRecord, \
    HeartbeatViewReported
from repro.obs.exporters import JsonLinesSink, read_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.omni.sequence_paxos import SequencePaxos
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import PeerAddress
from repro.tools.obs_report import main as obs_main

BASE_PORT = 42900


def _view_record(pid, at_ms, peers=(2, 3)):
    return EventRecord(at_ms=at_ms, event=HeartbeatViewReported(
        pid=pid, round=1, ballot=1, leader=1, quorum_connected=True,
        connectivity=3, peers_heard=tuple(peers), phase="follower"))


class TestFlightRecorder:
    def test_capacity_bounds_each_lane(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(_view_record(1, float(i)))
        assert rec.recorded == 10
        assert len(rec) == 4
        # The *last* four survive — it's a flight recorder, not a log.
        assert [r.at_ms for r in rec.lane(1)] == [6.0, 7.0, 8.0, 9.0]

    def test_lanes_split_by_pid_with_global_lane(self):
        rec = FlightRecorder(capacity=4)
        rec.record(_view_record(2, 1.0))
        rec.record(_view_record(1, 2.0))
        rec.record(EventRecord(at_ms=3.0,
                               event=ClientReplyDecided(client_id=9, seq=0)))
        assert rec.lanes() == [1, 2, None]
        assert len(rec.lane(None)) == 1
        # Lanes evict independently: a chatty server cannot push another
        # server's (or the client's) history out of the buffer.
        for i in range(20):
            rec.record(_view_record(2, 10.0 + i))
        assert len(rec.lane(2)) == 4
        assert len(rec.lane(1)) == 1
        assert len(rec.lane(None)) == 1

    def test_dump_merges_lanes_in_time_order(self):
        rec = FlightRecorder(capacity=8)
        rec.record(_view_record(1, 5.0))
        rec.record(_view_record(2, 1.0))
        rec.record(_view_record(1, 9.0))
        rec.record(EventRecord(at_ms=7.0,
                               event=ClientReplyDecided(client_id=1, seq=3)))
        assert [r.at_ms for r in rec.dump()] == [1.0, 5.0, 7.0, 9.0]

    def test_dump_jsonl_round_trips_through_read_jsonl(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record(_view_record(1, 5.0))
        rec.record(_view_record(2, 6.5))
        path = str(tmp_path / "flight.jsonl")
        reg = MetricsRegistry()
        reg.counter("repro_test_total").inc()
        assert rec.dump_jsonl(path, reg) == 2
        events, metrics = read_jsonl(path)
        assert [r.at_ms for r in events] == [5.0, 6.5]
        assert events[0].event == rec.dump()[0].event
        assert any(m["name"] == "repro_test_total" for m in metrics)

    def test_as_dict_summary(self):
        rec = FlightRecorder(capacity=4)
        rec.record(_view_record(1, 1.0))
        rec.record(EventRecord(at_ms=2.0,
                               event=ClientReplyDecided(client_id=1)))
        assert rec.as_dict() == {
            "capacity": 4, "recorded": 2, "retained": 2,
            "lanes": {"1": 1, "global": 1},
        }
        json.dumps(rec.as_dict())

    def test_clear_and_bad_capacity(self):
        rec = FlightRecorder(capacity=2)
        rec.record(_view_record(1, 1.0))
        rec.clear()
        assert len(rec) == 0
        assert rec.recorded == 1  # lifetime counter survives a clear
        with pytest.raises(ConfigError):
            FlightRecorder(capacity=0)

    def test_depth_lane_separates_queue_samples(self):
        from repro.obs.events import QueueDepthSampled
        from repro.obs.flight import DEPTH_LANE
        rec = FlightRecorder(capacity=4)
        rec.record(_view_record(1, 1.0))
        rec.record(EventRecord(at_ms=2.0, event=QueueDepthSampled(
            queue="sp_outbox", depth=5, pid=1)))
        rec.record(EventRecord(at_ms=3.0, event=QueueDepthSampled(
            queue="sim_events", depth=2, pid=None)))
        # Depth samples ride their own lane — they never evict a server's
        # protocol history, even though one carries pid=1 (and the global
        # lane stays empty: pid=None depth samples go to the depth lane).
        assert rec.lanes() == [1, DEPTH_LANE]
        assert len(rec.lane(1)) == 1
        assert [r.event.queue for r in rec.lane(DEPTH_LANE)] == \
            ["sp_outbox", "sim_events"]
        # dump() interleaves depth samples into the time-ordered stream.
        assert [r.at_ms for r in rec.dump()] == [1.0, 2.0, 3.0]
        # And the lane evicts independently at its own capacity.
        for i in range(10):
            rec.record(EventRecord(at_ms=10.0 + i, event=QueueDepthSampled(
                queue="sp_outbox", depth=i, pid=1)))
        assert len(rec.lane(DEPTH_LANE)) == 4
        assert len(rec.lane(1)) == 1
        assert rec.as_dict()["lanes"][DEPTH_LANE] == 4
        rec.clear()
        assert len(rec) == 0 and rec.lanes() == []

    def test_timeline_renders_backlog_lane(self):
        from repro.obs.events import QueueDepthSampled
        from repro.obs.timeline import render_timeline
        events = [_view_record(1, float(t)) for t in (0, 500, 1000)]
        for at, depth in ((100.0, 1), (600.0, 12), (900.0, 3)):
            events.append(EventRecord(at_ms=at, event=QueueDepthSampled(
                queue="sp_outbox", depth=depth, pid=1)))
        events.sort(key=lambda r: r.at_ms)
        out = render_timeline(events, width=30)
        assert "backlog" in out
        assert "peak backlog: 12 (sp_outbox s1 @ 600.0 ms)" in out
        # No depth samples -> no backlog lane, rest of the render intact.
        plain = render_timeline(
            [_view_record(1, float(t)) for t in (0, 500, 1000)], width=30)
        assert "backlog" not in plain

    def test_registry_sink_integration(self):
        reg = MetricsRegistry()
        rec = FlightRecorder(capacity=4)
        reg.add_sink(rec)
        reg.emit(ClientReplyDecided(client_id=1, seq=0))
        assert rec.recorded == 1


@pytest.fixture
def promise_check_disabled(monkeypatch):
    """The injected safety bug of test_chaos_shrink: a lower-ballot
    Prepare rolls the promise back, so the chaos sweep finds violations."""
    original = SequencePaxos._on_prepare

    def patched(self, src, msg):
        if msg.n < self._storage.get_promise():
            self._storage.set_promise(msg.n)
        return original(self, src, msg)

    monkeypatch.setattr(SequencePaxos, "_on_prepare", patched)


class TestChaosFlightDump:
    """Acceptance: a failing chaos schedule dumps a flight file that
    reconstructs a valid ``repro-obs timeline``."""

    def _sweep(self):
        for seed in range(1, 6):
            schedule = generate_schedule(seed, "omni", num_servers=3,
                                         duration_ms=4_000.0, num_ops=12)
            if not run_schedule(schedule, cooldown_ms=1_000.0).ok:
                return schedule
        return None

    def test_failing_schedule_dumps_renderable_flight(
            self, promise_check_disabled, tmp_path, capsys):
        failing = self._sweep()
        assert failing is not None, "injected bug escaped the seed sweep"
        path = str(tmp_path / "crash.flight.jsonl")
        result = run_schedule(failing, cooldown_ms=1_000.0,
                              flight_path=path)
        assert not result.ok
        assert os.path.exists(path)
        events, _metrics = read_jsonl(path)
        assert events, "flight dump carried no events"
        assert all(e.at_ms >= events[0].at_ms for e in events)
        assert obs_main(["timeline", path]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out or "|" in out

    def test_passing_schedule_leaves_no_dump(self, tmp_path):
        schedule = generate_schedule(1, "omni", num_servers=3,
                                     duration_ms=2_000.0, num_ops=6)
        path = str(tmp_path / "ok.flight.jsonl")
        result = run_schedule(schedule, cooldown_ms=1_000.0,
                              flight_path=path)
        assert result.ok
        assert not os.path.exists(path)


class TestWatchCli:
    def test_watch_export_renders_matrix(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        reg = MetricsRegistry()
        sink = JsonLinesSink(path)
        reg.add_sink(sink)
        for pid, peers in ((1, (2, 3)), (2, (1, 3)), (3, (1,))):
            reg.emit(HeartbeatViewReported(
                pid=pid, round=3, ballot=2, leader=1, quorum_connected=True,
                connectivity=len(peers) + 1, peers_heard=peers,
                phase="leader" if pid == 1 else "follower"))
        sink.close(reg)
        assert obs_main(["watch", path]) == 0
        out = capsys.readouterr().out
        assert "connectivity matrix" in out
        assert "leader" in out

    def test_watch_export_without_health_events_fails(self, tmp_path,
                                                      capsys):
        path = str(tmp_path / "nohealth.jsonl")
        reg = MetricsRegistry()
        sink = JsonLinesSink(path)
        reg.add_sink(sink)
        reg.emit(ClientReplyDecided(client_id=1, seq=0))
        sink.close(reg)
        assert obs_main(["watch", path]) == 1
        err = capsys.readouterr().err
        assert "HeartbeatViewReported" in err or "health" in err

    def test_watch_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            obs_main(["watch"])
        assert exit_info.value.code == 2


class TestReportErrorPaths:
    """Satellite: empty or truncated exports exit non-zero with a clear
    message instead of a stack trace (or a silent empty report)."""

    def test_empty_export_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert obs_main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "empty" in err
        assert "enabled registry" in err

    def test_truncated_line_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "truncated.jsonl")
        reg = MetricsRegistry()
        sink = JsonLinesSink(path)
        reg.add_sink(sink)
        reg.emit(ClientReplyDecided(client_id=1, seq=0))
        sink.close(reg)
        with open(path) as fh:
            data = fh.read()
        with open(path, "w") as fh:
            fh.write(data[:len(data) - 5])  # tear the last line mid-JSON
        assert obs_main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "truncated or corrupt" in err
        assert "line" in err

    def test_non_object_line_exits_nonzero(self, tmp_path, capsys):
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "w") as fh:
            fh.write("[1, 2, 3]\n")
        assert obs_main(["report", path]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err


def _addr(pid, offset):
    return PeerAddress(pid, "127.0.0.1", BASE_PORT + offset + pid)


async def _admin_request(host, port, request):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        line = request if isinstance(request, str) else json.dumps(request)
        writer.write((line + "\n").encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), timeout=5.0)
        return json.loads(raw)
    finally:
        writer.close()


class TestAdminEndpoint:
    def _build(self, offset, tmp_path):
        cc = ClusterConfig(0, (1, 2, 3))
        addrs = {p: _addr(p, offset) for p in cc.servers}
        reg = MetricsRegistry()
        nodes = {}
        for p in cc.servers:
            server = OmniPaxosServer(OmniPaxosConfig(
                pid=p, cluster=cc, hb_period_ms=40.0, initial_leader=1))
            nodes[p] = RuntimeNode(
                server, addrs[p],
                {q: a for q, a in addrs.items() if q != p},
                tick_ms=8.0,
                obs=reg if p == 1 else None,
                admin=("127.0.0.1", 0) if p == 1 else None,
                ping_interval_ms=40.0 if p == 1 else None,
            )
        return nodes

    def test_admin_status_metrics_flight(self, tmp_path):
        async def scenario():
            nodes = self._build(0, tmp_path)
            for node in nodes.values():
                await node.start()
            try:
                host, port = nodes[1].admin_address
                await asyncio.sleep(1.0)  # let heartbeats + pings flow

                status = await _admin_request(host, port, "status")
                assert status["ok"] is True
                assert status["status"]["pid"] == 1
                assert status["status"]["phase"] in ("leader", "follower")
                assert set(status["status"]["connected_peers"]) == {2, 3}
                assert "flight" in status["status"]

                metrics = await _admin_request(host, port,
                                               {"cmd": "metrics"})
                assert metrics["ok"] is True
                names = {m["name"] for m in metrics["metrics"]}
                assert "repro_link_rtt_ms" in names

                summary = await _admin_request(host, port, "flight")
                assert summary["ok"] is True
                assert summary["flight"]["recorded"] > 0

                # The endpoint is unauthenticated: it writes no file a
                # client names.
                dump_path = tmp_path / "admin.flight.jsonl"
                refused = await _admin_request(
                    host, port, {"cmd": "flight", "path": str(dump_path)})
                assert refused["ok"] is False
                assert "flight_dump_path" in refused["error"]
                assert not dump_path.exists()

                unknown = await _admin_request(host, port, {"cmd": "bogus"})
                assert unknown["ok"] is False
                assert "unknown command" in unknown["error"]

                garbage = await _admin_request(host, port, "{not json")
                assert garbage["ok"] is False
                assert garbage["error"] == "invalid JSON request"
            finally:
                for node in nodes.values():
                    await node.stop()

        asyncio.run(scenario())

    def test_flight_verb_off_without_observability(self, tmp_path):
        async def scenario():
            cc = ClusterConfig(0, (1,))
            server = OmniPaxosServer(OmniPaxosConfig(
                pid=1, cluster=cc, hb_period_ms=40.0, initial_leader=1))
            node = RuntimeNode(server, _addr(1, 20), {},
                               tick_ms=8.0, admin=("127.0.0.1", 0))
            await node.start()
            try:
                host, port = node.admin_address
                resp = await _admin_request(host, port, "flight")
                assert resp["ok"] is False
                assert "observability" in resp["error"]
                status = await _admin_request(host, port, "status")
                assert status["ok"] is True
                assert "flight" not in status["status"]
            finally:
                await node.stop()

        asyncio.run(scenario())
