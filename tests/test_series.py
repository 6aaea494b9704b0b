"""Windowed series engine: aggregation edge cases, diff verdicts, export.

Satellite coverage for the PR 7 tentpole: empty windows are emitted (a
stall must be visible, not elided), out-of-order timestamps bucket by
their own clock, boundary entries follow half-open ``[start, end)``
semantics, clock-skewed reporters don't corrupt the grid, and the whole
pipeline — one builder over a run's records or its export, diff — is
deterministic per seed.
"""

import pytest

from repro.errors import ConfigError
from repro.obs.events import (
    ClientProposalSent,
    ClientReplyDecided,
    EventRecord,
    HeartbeatViewReported,
    QueueDepthSampled,
)
from repro.obs.exporters import JsonLinesSink, MemorySink, read_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.series import (
    SeriesWindow,
    diff_series,
    render_diff,
    series_from_events,
    series_lanes,
    sparkline,
)
from repro.sim.harness import ExperimentConfig, build_experiment


def _decided(at_ms, client_id=1, seq=0):
    return EventRecord(at_ms=at_ms,
                       event=ClientReplyDecided(client_id=client_id, seq=seq))


def _window(index, values, width=100.0, dominant=""):
    return SeriesWindow(index=index, start_ms=index * width,
                        end_ms=(index + 1) * width, values=values,
                        dominant_phase=dominant)


class TestWindowing:
    def test_empty_windows_emitted_not_elided(self):
        """A 3-window stall between two bursts must produce three explicit
        zero-rate windows — end-of-run aggregates can't see stalls."""
        events = [_decided(10.0), _decided(20.0), _decided(450.0)]
        windows = series_from_events(events, window_ms=100.0)
        assert [w.index for w in windows] == [0, 1, 2, 3, 4]
        assert [w.values["decided_per_s"] for w in windows] == \
            [20.0, 0.0, 0.0, 0.0, 10.0]
        # Percentile families are absent in empty windows, not zero.
        assert "commit_ms:p50" not in windows[1].values

    def test_out_of_order_timestamps_bucket_by_own_clock(self):
        shuffled = [_decided(250.0), _decided(10.0), _decided(260.0),
                    _decided(110.0)]
        ordered = sorted(shuffled, key=lambda r: r.at_ms)
        assert series_from_events(shuffled, window_ms=100.0) == \
            series_from_events(ordered, window_ms=100.0)

    def test_boundary_entry_belongs_to_next_window(self):
        """Half-open [start, end): a record at exactly 100.0 ms is the
        first record of window 1, not the last of window 0."""
        windows = series_from_events([_decided(100.0)], window_ms=100.0)
        assert windows[0].values["decided_per_s"] == 0.0
        assert windows[1].values["decided_per_s"] == 10.0

    def test_events_before_start_ignored(self):
        windows = series_from_events(
            [_decided(10.0), _decided(250.0)], window_ms=100.0,
            start_ms=200.0)
        assert [w.index for w in windows] == [0]
        assert windows[0].start_ms == 200.0
        assert windows[0].values["decided_per_s"] == 10.0

    def test_end_ms_extends_and_clips(self):
        windows = series_from_events([_decided(50.0)], window_ms=100.0,
                                     end_ms=400.0)
        assert len(windows) == 4  # empty tail windows up to end_ms
        clipped = series_from_events([_decided(50.0), _decided(350.0)],
                                     window_ms=100.0, end_ms=200.0)
        assert len(clipped) == 2  # the 350 ms record is outside the span
        assert clipped[1].values["decided_per_s"] == 0.0

    def test_family_presence_is_gated(self):
        """proposal/jitter families only appear when their event kinds
        occurred — a family that never existed isn't a flat zero."""
        plain = series_from_events([_decided(10.0)], window_ms=100.0)
        assert "proposal_per_s" not in plain[0].values
        assert "ble_jitter_ms:mean" not in plain[0].values
        rich = series_from_events([
            _decided(10.0),
            EventRecord(at_ms=20.0, event=ClientProposalSent(
                client_id=1, first_seq=0, count=4)),
            EventRecord(at_ms=30.0, event=HeartbeatViewReported(
                pid=1, round=1, ballot=1, leader=1, quorum_connected=True,
                connectivity=3, peers_heard=(2, 3), phase="follower",
                jitter_ms=-2.5)),
        ], window_ms=100.0)
        assert rich[0].values["proposal_per_s"] == 40.0
        assert rich[0].values["ble_jitter_ms:mean"] == 2.5  # abs()

    def test_queue_depth_window_max(self):
        events = [
            EventRecord(at_ms=10.0, event=QueueDepthSampled(
                queue="sp_outbox", depth=2, pid=1)),
            EventRecord(at_ms=60.0, event=QueueDepthSampled(
                queue="sp_outbox", depth=7, pid=2)),
            EventRecord(at_ms=90.0, event=QueueDepthSampled(
                queue="sp_outbox", depth=1, pid=1)),
        ]
        windows = series_from_events(events, window_ms=100.0)
        assert windows[0].values["queue:sp_outbox:max"] == 7.0

    def test_bad_window_width_rejected(self):
        with pytest.raises(ConfigError):
            series_from_events([], window_ms=0.0)
        with pytest.raises(ConfigError):
            series_from_events([], window_ms=-1.0)

    def test_no_events_no_windows(self):
        assert series_from_events([], window_ms=100.0) == []


class TestClockSkew:
    def test_skewed_reporter_stays_on_shared_grid(self):
        """Per-pid tick scaling (the fail-slow nemesis) slows a server's
        *activity*, but every event is stamped with the shared sim clock —
        the window grid must stay aligned and deterministic."""
        def run():
            reg = MetricsRegistry()
            sink = MemorySink()
            reg.add_sink(sink)
            exp = build_experiment(
                ExperimentConfig(protocol="omni", num_servers=3,
                                 election_timeout_ms=100.0, one_way_ms=0.5,
                                 seed=11, initial_leader=1),
                obs=reg)
            exp.attach_queue_sampler(sample_ms=50.0)
            exp.make_client(4)
            exp.cluster.run_for(1_000.0)
            laggard = [p for p in exp.cluster.pids if p != 1][0]
            exp.cluster.set_tick_scale(laggard, 10.0)
            exp.cluster.run_for(1_000.0)
            return series_from_events(sink.records, window_ms=250.0)

        first, second = run(), run()
        assert first == second
        # The grid itself is unskewed: contiguous fixed-width windows.
        for i, w in enumerate(first):
            assert w.index == i
            assert w.width_ms == pytest.approx(250.0)
        assert first[-1].end_ms == pytest.approx(250.0 * len(first))


class TestDeterminism:
    def _run(self, seed, export=None):
        reg = MetricsRegistry()
        reg.enable_tracing()
        sink = MemorySink()
        reg.add_sink(sink)
        if export is not None:
            reg.add_sink(export)
        exp = build_experiment(
            ExperimentConfig(protocol="omni", num_servers=3,
                             election_timeout_ms=100.0, one_way_ms=0.5,
                             seed=seed, initial_leader=1),
            obs=reg)
        exp.attach_queue_sampler(sample_ms=50.0)
        exp.make_client(4)
        exp.cluster.run_for(2_000.0)
        if export is not None:
            export.close(reg)
        return series_from_events(sink.records, window_ms=250.0)

    def test_same_seed_identical_windows(self):
        assert self._run(7) == self._run(7)

    def test_same_seed_diff_reports_unchanged_everywhere(self):
        diff = diff_series(self._run(7), self._run(7))
        assert diff.verdict == "unchanged"
        assert all(fd.verdict == "unchanged" for fd in diff.families)

    def test_records_in_memory_and_their_export_window_identically(
            self, tmp_path):
        """A view is a function of the export: the windows over a run's
        ``MemorySink`` records equal the windows over ``read_jsonl`` of
        that run's export — a boundary-straddling commit span and every
        ``queue:*:max`` lane land identically in both."""
        path = str(tmp_path / "run.jsonl")
        live = self._run(7, export=JsonLinesSink(path))
        events, _metrics = read_jsonl(path)
        assert live == series_from_events(events, window_ms=250.0)
        assert any(w.dominant_phase for w in live)
        assert any(f.startswith("queue:") for w in live for f in w.values)


class TestSparklines:
    def test_sparkline_shape(self):
        line = sparkline([0.0, 5.0, 10.0, None])
        assert len(line) == 4
        assert line[0] == " "  # zero renders at the ramp floor
        assert line[3] == " "  # gap for missing data
        assert line[2] == "@"  # peak renders at the ramp top

    def test_lanes_include_phase_legend(self):
        windows = [
            _window(0, {"decided_per_s": 40.0, "commit_ms:p95": 2.0},
                    dominant="replicate"),
            _window(1, {"decided_per_s": 10.0, "commit_ms:p95": 9.0},
                    dominant="apply"),
        ]
        lines = series_lanes(windows)
        assert any(line.startswith("decided_per_s") for line in lines)
        assert any(line.startswith("commit_ms:p95") for line in lines)
        phase_lane = [line for line in lines
                      if line.startswith("dominant phase")]
        assert len(phase_lane) == 1
        assert "|ra|" in phase_lane[0]

    def test_empty_series_lanes(self):
        assert series_lanes([]) == ["(no windows)"]


class TestDiffVerdicts:
    def test_latency_regression_localized(self):
        before = [_window(i, {"commit_ms:p95": 2.0}) for i in range(8)]
        after = [_window(i, {"commit_ms:p95": 2.0 if i < 4 or i > 5
                             else 20.0}) for i in range(8)]
        diff = diff_series(before, after)
        (fd,) = diff.regressed
        assert fd.family == "commit_ms:p95"
        assert fd.window_range == (4, 5)
        assert fd.range_ms == (400.0, 600.0)
        assert diff.verdict == "regressed"

    def test_rate_families_regress_downward(self):
        before = [_window(0, {"decided_per_s": 100.0})]
        worse = [_window(0, {"decided_per_s": 50.0})]
        better = [_window(0, {"decided_per_s": 200.0})]
        assert diff_series(before, worse).verdict == "regressed"
        assert diff_series(before, better).verdict == "improved"

    def test_threshold_gates_verdict(self):
        before = [_window(0, {"commit_ms:p95": 100.0})]
        after = [_window(0, {"commit_ms:p95": 105.0})]
        assert diff_series(before, after, threshold=0.10).verdict == \
            "unchanged"
        assert diff_series(before, after, threshold=0.01).verdict == \
            "regressed"

    def test_one_sided_family_added_or_removed(self):
        before = [_window(0, {"decided_per_s": 10.0})]
        after = [_window(0, {"decided_per_s": 10.0,
                             "queue:sp_outbox:max": 4.0})]
        verdicts = {fd.family: fd.verdict
                    for fd in diff_series(before, after).families}
        assert verdicts["queue:sp_outbox:max"] == "added"
        verdicts = {fd.family: fd.verdict
                    for fd in diff_series(after, before).families}
        assert verdicts["queue:sp_outbox:max"] == "removed"
        # Neither direction is a regression by itself.
        assert diff_series(before, after).verdict == "unchanged"

    def test_zero_baseline_does_not_divide_by_zero(self):
        before = [_window(0, {"queue:sp_outbox:max": 0.0})]
        after = [_window(0, {"queue:sp_outbox:max": 0.0})]
        assert diff_series(before, after).verdict == "unchanged"

    def test_window_width_mismatch_rejected(self):
        before = [_window(0, {}, width=100.0)]
        after = [SeriesWindow(index=0, start_ms=0.0, end_ms=250.0,
                              values={})]
        with pytest.raises(ConfigError):
            diff_series(before, after)

    def test_regressed_phases_cited(self):
        before = [_window(0, {"phase_ms:replicate:mean": 1.0,
                              "phase_ms:apply:mean": 1.0})]
        after = [_window(0, {"phase_ms:replicate:mean": 5.0,
                             "phase_ms:apply:mean": 1.0})]
        diff = diff_series(before, after)
        assert diff.regressed_phases == ("replicate",)
        summary = render_diff(diff)[-1]
        assert "dominant regressed phase: replicate" in summary

    def test_render_diff_caps_huge_changes(self):
        before = [_window(0, {"queue:sp_outbox:max": 0.0}),
                  _window(1, {"queue:sp_outbox:max": 1e-6})]
        after = [_window(0, {"queue:sp_outbox:max": 50.0}),
                 _window(1, {"queue:sp_outbox:max": 50.0})]
        out = "\n".join(render_diff(diff_series(before, after)))
        assert "+>999%" in out
