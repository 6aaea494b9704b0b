"""Tests for the repro.bench behaviour gate: determinism across identical
runs, the decided-log digest, and the ``repro-bench smoke`` CLI against
the committed baseline.

The determinism tests are the gate's core promise: same seed + same
config => byte-identical decided logs and identical event/message counts,
no matter how long the runs took in wall-clock. Sizes here are tiny.
"""

import json
from pathlib import Path

from repro.bench.micro import bench_codec, bench_commit_loop, bench_event_queue
from repro.bench.macro import run_macro, run_runtime_macro
from repro.bench.runner import LogDigest
from repro.omni.entry import Command
from repro.tools.bench import main

BASELINE = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "bench_baseline.json")


class TestMicroDeterminism:
    def test_event_queue_counters_stable(self):
        assert bench_event_queue(2_000, seed=7) == \
            bench_event_queue(2_000, seed=7)

    def test_commit_loop_digest_and_counts_stable(self):
        a = bench_commit_loop(8, 16, seed=3)
        assert a == bench_commit_loop(8, 16, seed=3)
        assert "decided_log_digest" in a

    def test_codec_counters_stable(self):
        assert bench_codec(200) == bench_codec(200)


class TestMacroDeterminism:
    def test_same_seed_same_decided_log(self):
        """Two end-to-end sim runs with identical seed and config must
        decide the same entries in the same order at every server (equal
        digests) and process the same event/message counts."""
        a = run_macro("omni", duration_ms=500.0, cp=16, seed=5,
                      num_servers=3)
        b = run_macro("omni", duration_ms=500.0, cp=16, seed=5,
                      num_servers=3)
        assert a["decided_log_digest"] == b["decided_log_digest"]
        assert a == b
        assert a["decided_total"] > 0

    def test_different_seed_different_counters(self):
        a = run_macro("omni", duration_ms=500.0, cp=16, seed=5,
                      num_servers=3)
        b = run_macro("omni", duration_ms=500.0, cp=16, seed=6,
                      num_servers=3)
        # Seeds drive jitter-free runs too (client/network RNG streams);
        # at minimum the runs are *allowed* to differ — what matters is
        # that equality is not an artifact of the digest ignoring input.
        assert a["events_processed"] > 0
        assert b["events_processed"] > 0


class TestRuntimeDigestIdentity:
    def test_runtime_digest_is_a_function_of_the_proposals(self):
        """The runtime macro bench over real TCP must decide exactly what
        was proposed, in order, at every server — the wire and coalescing
        change how bytes move, never what the cluster decides, under
        either protocol. The expected digest is computed here from the
        proposals alone."""
        expected = LogDigest()
        for pid in (1, 2, 3):
            for idx in range(100):
                expected.record(pid, idx, Command(data=b"x" * 8,
                                                  client_id=1, seq=idx))
        for protocol in ("omni", "raft"):
            assert run_runtime_macro(protocol, n_entries=100,
                                     payload_bytes=8, seed=3) == {
                "decided_per_server": 100,
                "num_servers": 3,
                "entries_proposed": 100,
                "decided_log_digest": expected.hexdigest(),
            }, protocol


class TestLogDigest:
    def test_order_sensitive(self):
        a, b = LogDigest(), LogDigest()
        a.record(1, 0, "x")
        a.record(1, 1, "y")
        b.record(1, 0, "y")
        b.record(1, 1, "x")
        assert a.hexdigest() != b.hexdigest()

    def test_per_server_lanes(self):
        a, b = LogDigest(), LogDigest()
        a.record(1, 0, "x")
        a.record(2, 0, "y")
        b.record(1, 0, "y")
        b.record(2, 0, "x")
        assert a.hexdigest() != b.hexdigest()

    def test_interleaving_across_servers_irrelevant(self):
        """Lanes are per-server: the observation interleaving across
        servers (a wall-clock artifact) does not change the digest."""
        a, b = LogDigest(), LogDigest()
        a.record(1, 0, "x")
        a.record(2, 0, "y")
        b.record(2, 0, "y")
        b.record(1, 0, "x")
        assert a.hexdigest() == b.hexdigest()


class TestGateCli:
    """``repro-bench smoke`` is the behaviour contract every PR quotes;
    CI runs the same command (job ``bench-smoke``)."""

    def test_committed_baseline_matches(self, capsys):
        assert main(["smoke", "--baseline", str(BASELINE)]) == 0
        assert "baseline OK: 13 benches" in capsys.readouterr().out

    def test_altered_digest_fails_and_names_the_bench(self, tmp_path, capsys):
        doc = json.loads(BASELINE.read_text())
        doc["counters"]["macro.sim_vr"]["decided_log_digest"] = "0" * 64
        altered = tmp_path / "baseline.json"
        altered.write_text(json.dumps(doc))
        assert main(["smoke", "--baseline", str(altered)]) == 1
        out = capsys.readouterr().out
        assert "BASELINE DRIFT" in out
        mismatched = [line.strip() for line in out.splitlines()
                      if line.startswith("  ") and line.endswith(":")]
        assert mismatched == ["macro.sim_vr:"]
