"""Round-trip acceptance: export a run, reproduce the harness's numbers.

A chained partition scenario runs with a :class:`JsonLinesSink` attached;
the ``repro-obs`` report rebuilt from that file must match the harness's
own :class:`ScenarioResult` — downtime, decided counts, throughput — to
float tolerance, because the report feeds the exported timestamps through
the very same :class:`DecidedTracker`.
"""

import pathlib
import re

import pytest

from repro.chaos.generator import generate_schedule
from repro.chaos.schedule import ChaosSchedule
from repro.obs.exporters import JsonLinesSink, read_jsonl
from repro.obs.registry import MetricsRegistry
from repro.obs.report import summarize_run
from repro.sim.scenarios import run_partition_scenario
from repro.tools.chaos import main as chaos_main
from repro.tools.obs_report import main as obs_report_main

SPIKE_SCHEDULE = (pathlib.Path(__file__).parent.parent
                  / "examples" / "schedules" / "delay_spike.json")


@pytest.fixture(scope="module")
def exported_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("obs") / "chained.jsonl")
    reg = MetricsRegistry()
    sink = JsonLinesSink(path)
    reg.add_sink(sink)
    result = run_partition_scenario("omni", "chained", seed=3, obs=reg)
    sink.close(reg)
    return path, result


class TestExportReproducesHarness:
    def test_partition_window_numbers_match(self, exported_run):
        path, result = exported_run
        events, metrics = read_jsonl(path)
        report = summarize_run(
            events, metrics,
            start_ms=result.partition_at_ms,
            end_ms=result.partition_end_ms,
        )
        assert report.downtime_ms == pytest.approx(result.downtime_ms)
        assert report.decided_total == result.decided_during_partition
        span_s = (result.partition_end_ms - result.partition_at_ms) / 1000.0
        assert report.throughput_ops_s == pytest.approx(
            result.decided_during_partition / span_s)

    def test_windows_partition_the_count(self, exported_run):
        path, result = exported_run
        events, _metrics = read_jsonl(path)
        report = summarize_run(
            events,
            start_ms=result.partition_at_ms,
            end_ms=result.partition_end_ms,
        )
        assert sum(c for _w, c in report.windows) == report.decided_total

    def test_metrics_sections_present(self, exported_run):
        path, _result = exported_run
        events, metrics = read_jsonl(path)
        report = summarize_run(events, metrics)
        # 3-server chained cluster: every server sent bytes and decided.
        assert set(report.io_bytes_by_server) == {"1", "2", "3"}
        assert set(report.decided_by_server) == {"1", "2", "3"}
        assert all(v > 0 for v in report.io_bytes_by_server.values())
        assert report.event_counts["ClientReplyDecided"] > 0
        assert report.event_counts["BallotElected"] >= 1

    def test_render_mentions_key_numbers(self, exported_run):
        path, result = exported_run
        events, metrics = read_jsonl(path)
        report = summarize_run(
            events, metrics,
            start_ms=result.partition_at_ms,
            end_ms=result.partition_end_ms,
        )
        text = report.render()
        assert "throughput" in text
        assert f"{result.downtime_ms:.1f} ms" in text
        assert "decided entries per server:" in text


class TestCli:
    def test_cli_renders_report(self, exported_run, capsys):
        path, result = exported_run
        rc = obs_report_main([
            "report", path,
            "--start-ms", str(result.partition_at_ms),
            "--end-ms", str(result.partition_end_ms),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"down-time (longest): {result.downtime_ms:.1f} ms" in out

    def test_cli_window_override(self, exported_run, capsys):
        path, _result = exported_run
        assert obs_report_main(["report", path, "--window-ms", "2000"]) == 0
        assert "per-2s-window decided:" in capsys.readouterr().out

    def test_cli_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_report_main(["report", str(empty)]) == 1

    def test_cli_missing_file(self, tmp_path, capsys):
        assert obs_report_main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_cli_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": "mystery"}\n')
        assert obs_report_main(["report", str(bad)]) == 1
        assert "unknown JSON-lines record tag" in capsys.readouterr().err

    def test_cli_inverted_bounds_rejected(self, exported_run, capsys):
        path, _result = exported_run
        assert obs_report_main(
            ["report", path, "--start-ms", "5000", "--end-ms", "1000"]) == 2
        # One-sided: start past the event span inverts against the
        # defaulted end and is caught at summarize time.
        assert obs_report_main(["report", path, "--start-ms", "1e9"]) == 2

    def test_cli_nonpositive_window_rejected(self, exported_run, capsys):
        # A zero window used to loop forever in windowed_counts.
        path, _result = exported_run
        assert obs_report_main(["report", path, "--window-ms", "0"]) == 2
        assert "--window-ms must be positive" in capsys.readouterr().err


class TestSeriesAndDiffCli:
    def test_series_renders_sparkline_lanes(self, exported_run, capsys):
        path, _result = exported_run
        assert obs_report_main(["series", path, "--window-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "windows x 500 ms" in out
        assert "decided_per_s" in out

    def test_series_family_filter(self, exported_run, capsys):
        path, _result = exported_run
        assert obs_report_main(["series", path, "--window-ms", "500",
                                "--family", "decided_per_s"]) == 0
        out = capsys.readouterr().out
        assert "decided_per_s" in out

    @pytest.mark.parametrize("argv, complaint", [
        (["series", "--family", "nope"],
         "--family nope: not in this export, which has "
         "ble_jitter_ms:mean, decided_per_s"),
        (["diff", "--threshold", "-1"], "--threshold must not be negative"),
    ], ids=["series-unknown-family", "diff-negative-threshold"])
    def test_what_cannot_be_honoured_is_refused(self, exported_run, argv,
                                                complaint, capsys):
        path, _result = exported_run
        paths = [path, path] if argv[0] == "diff" else [path]
        assert obs_report_main([argv[0], *paths, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(complaint)
        assert captured.err.count("\n") == 1

    def test_diff_same_export_unchanged_exit_zero(self, exported_run,
                                                  capsys):
        path, _result = exported_run
        assert obs_report_main(["diff", path, path,
                                "--window-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "verdict: unchanged" in out

    def test_diff_localizes_a_real_delay_spike(self, tmp_path, capsys):
        """docs/OBSERVABILITY.md "Diffing two runs", end to end: the
        committed schedule (one 40 ms ``delay_spike`` op) against the same
        seeded run without it, both exported by ``repro-chaos --obs``."""
        spiked = ChaosSchedule.from_json(SPIKE_SCHEDULE.read_text())
        (op,) = spiked.ops
        plain = spiked.without_ops([0])
        # The baseline command the docs give generates exactly this.
        assert plain == generate_schedule(
            seed=spiked.seed, num_ops=0, duration_ms=spiked.duration_ms)
        plain_json = tmp_path / "plain.json"
        plain_json.write_text(plain.to_json())
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "spike.jsonl")
        assert chaos_main(["replay", str(plain_json), "--obs", a]) == 0
        assert chaos_main(["replay", str(SPIKE_SCHEDULE), "--obs", b]) == 0
        capsys.readouterr()
        assert obs_report_main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "verdict: regressed" in out
        assert "dominant regressed phase: replicate" in out
        # Localized: every regressed family names a window range that
        # starts with the spike and ends within two windows of its end.
        ranges = re.findall(r"regressed  windows \d+\.\.\d+ "
                            r"\((\d+)\.\.(\d+) ms\)", out)
        assert ranges
        spike_end = op.at_ms + op.params["duration_ms"]
        for start, end in ranges:
            assert float(start) == op.at_ms
            assert spike_end <= float(end) <= spike_end + 500.0

    def test_diff_missing_file_exits_nonzero(self, exported_run, tmp_path,
                                             capsys):
        path, _result = exported_run
        assert obs_report_main(
            ["diff", path, str(tmp_path / "nope.jsonl")]) == 1

    def test_diff_nonpositive_window_rejected(self, exported_run, capsys):
        path, _result = exported_run
        assert obs_report_main(
            ["diff", path, path, "--window-ms", "0"]) == 2
