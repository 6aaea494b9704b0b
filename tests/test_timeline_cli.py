"""End-to-end tests: traced scenario export -> repro-obs timeline/spans.

Runs a short quorum-loss scenario with causal tracing on, then drives
the ``repro-obs`` CLI over the export and checks the acceptance criterion
that the reconstructed down-time window matches the harness's own
:class:`DecidedTracker` measurement.
"""

import re

import pytest

from repro.obs.exporters import JsonLinesSink, read_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.report import decided_tracker_from_events
from repro.obs.spans import SPAN_COMMIT, assemble_spans
from repro.obs.timeline import render_spans, render_timeline
from repro.sim.scenarios import run_partition_scenario
from repro.tools import obs_report

ELECTION_TIMEOUT_MS = 50.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced quorum-loss run: (export path, ScenarioResult)."""
    path = str(tmp_path_factory.mktemp("trace") / "smoke.jsonl")
    reg = MetricsRegistry()
    reg.enable_tracing()
    sink = JsonLinesSink(path)
    reg.add_sink(sink)
    try:
        result = run_partition_scenario(
            "omni", "quorum_loss",
            election_timeout_ms=ELECTION_TIMEOUT_MS,
            partition_duration_ms=1000.0, warmup_ms=500.0, cooldown_ms=500.0,
            obs=reg,
        )
    finally:
        sink.close(reg)
    return path, result


class TestTraceSmokeTool:
    def test_export_holds_span_events(self, smoke):
        path, result = smoke
        events, metrics = read_jsonl(path)
        kinds = {r.event.kind for r in events}
        assert {"ProposalAppended", "QuorumAccepted", "EntryApplied",
                "ClientProposalSent", "ClientReplyDecided"} <= kinds
        assert metrics  # the snapshot was appended on close
        assert result.scenario == "quorum_loss"

    def test_commit_spans_reconstruct(self, smoke):
        path, _ = smoke
        events, _ = read_jsonl(path)
        spans = assemble_spans(events)
        commits = [s for s in spans if s.kind == SPAN_COMMIT]
        assert commits
        # Every commit span has the replicate milestone and a trace id.
        assert all(s.phases[0][0] == "replicate" for s in commits)
        assert any(s.trace_id.startswith("c") for s in commits)


class TestTimelineCli:
    def test_timeline_exits_zero_with_gantt(self, smoke, capsys):
        path, _ = smoke
        assert obs_report.main(["timeline", path]) == 0
        out = capsys.readouterr().out
        assert "leader" in out and "downtime" in out
        assert "longest down-time:" in out
        # Lanes are drawn, not empty.
        assert re.search(r"decided  \|.*[.#+:].*\|", out)

    def test_downtime_matches_harness_tracker(self, smoke, capsys):
        path, result = smoke
        start, end = result.partition_at_ms, result.partition_end_ms
        assert obs_report.main([
            "timeline", path, "--start-ms", str(start), "--end-ms", str(end),
        ]) == 0
        out = capsys.readouterr().out
        m = re.search(r"longest down-time: ([0-9.]+) ms", out)
        assert m
        reconstructed = float(m.group(1))
        harness = result.downtime_ms
        # Same DecidedTracker, same window: identical up to print rounding
        # (the criterion allows one heartbeat; we land far inside it).
        assert abs(reconstructed - harness) < ELECTION_TIMEOUT_MS
        assert reconstructed == pytest.approx(harness, abs=0.05)

    def test_downtime_window_is_exact_against_tracker(self, smoke):
        path, result = smoke
        events, _ = read_jsonl(path)
        start, end = result.partition_at_ms, result.partition_end_ms
        tracker = decided_tracker_from_events(events)
        gap_start, gap_end = tracker.downtime_window(start, end)
        assert gap_end - gap_start == pytest.approx(
            result.downtime_ms, abs=1e-6)

    def test_spans_subcommand(self, smoke, capsys):
        path, _ = smoke
        assert obs_report.main(["spans", path, "--kind", "commit",
                                "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("spans ")
        assert "commit (" in out
        # At least one Gantt bar ('=' body, or '+' when a sub-column span
        # is all milestone).
        assert re.search(r"\|[ ]*[=+]", out)

    def test_timeline_renders_p99_critical_path(self, smoke, capsys):
        path, _ = smoke
        assert obs_report.main(["timeline", path]) == 0
        out = capsys.readouterr().out
        assert "p99 commit" in out
        assert "replicate" in out

    @pytest.mark.parametrize("argv", [["run.jsonl"], ["nosuchview", "x"]],
                             ids=["bare-path", "unknown-view"])
    def test_unknown_first_word_is_a_usage_error(self, argv, capsys):
        # No rewriting to `report`: a deleted or misspelt view must fail.
        with pytest.raises(SystemExit) as exit_info:
            obs_report.main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, complaint", [
        (["timeline", "--start-ms", "3000", "--end-ms", "1000"],
         "--start-ms must be before --end-ms"),
        (["spans", "--limit", "-3"], "--limit must not be negative"),
    ], ids=["timeline-inverted-bounds", "spans-negative-limit"])
    def test_what_cannot_be_honoured_is_refused(self, smoke, argv,
                                                complaint, capsys):
        path, _ = smoke
        assert obs_report.main([argv[0], path, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == complaint + "\n"

    def test_report_subcommand(self, smoke, capsys):
        path, _ = smoke
        assert obs_report.main(["report", path, "--window-ms", "1000"]) == 0
        assert "decided replies" in capsys.readouterr().out

    def test_missing_file_is_error(self, capsys):
        assert obs_report.main(["timeline", "/nonexistent.jsonl"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        assert obs_report.main([]) == 2

    def test_render_functions_pure(self, smoke):
        # The renderers are usable as a library, not just via the CLI.
        path, _ = smoke
        events, _ = read_jsonl(path)
        spans = assemble_spans(events)
        assert "timeline" in render_timeline(events, spans=spans)
        assert "spans" in render_spans(spans)
        assert render_timeline([]) == "(no events)"
        assert render_spans([]) == "(no spans)"
