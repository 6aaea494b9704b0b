"""Tests for the closed-loop client workload."""

import pytest

from repro.errors import ConfigError
from repro.sim.harness import ExperimentConfig, build_experiment
from repro.sim.workload import ClosedLoopClient, WorkloadParams

from tests.conftest import build_omni_cluster, run_until_leader


class TestParams:
    def test_rejects_zero_cp(self):
        with pytest.raises(ConfigError):
            WorkloadParams(concurrent_proposals=0)

    def test_rejects_bad_timing(self):
        with pytest.raises(ConfigError):
            WorkloadParams(client_tick_ms=0)


class TestClosedLoop:
    def test_keeps_cp_in_flight(self):
        sim, servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=8))
        client.start()
        sim.run_for(2000)
        assert client.decided_count > 0
        # In a closed loop, in-flight never exceeds CP.
        assert len(client._outstanding) <= 8

    def test_throughput_scales_with_cp(self):
        counts = {}
        for cp in (4, 32):
            sim, _servers = build_omni_cluster(3, initial_leader=1)
            client = ClosedLoopClient(
                sim, WorkloadParams(concurrent_proposals=cp))
            client.start()
            sim.run_for(2000)
            counts[cp] = client.decided_count
        assert counts[32] > counts[4] * 2

    def test_each_command_counted_once(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(
            sim, WorkloadParams(concurrent_proposals=4,
                                proposal_timeout_ms=50.0))  # aggressive retries
        client.start()
        sim.run_for(2000)
        # decided_count counts unique seqs; tracker records one per unique.
        assert client.tracker.count == client.decided_count

    def test_waits_when_no_leader(self):
        sim, _servers = build_omni_cluster(3)  # nobody seeded
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=4))
        client.start()
        sim.run_for(10)  # before any election completes
        assert client.proposals_sent == 0

    def test_reroutes_after_leader_crash(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(
            sim, WorkloadParams(concurrent_proposals=4,
                                proposal_timeout_ms=200.0))
        client.start()
        sim.run_for(1000)
        before = client.decided_count
        sim.crash(1)
        sim.run_for(3000)
        assert client.decided_count > before
        assert client.leader_switches >= 1

    def test_stop_ceases_proposing(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=4))
        client.start()
        sim.run_for(500)
        client.stop()
        sent = client.proposals_sent
        sim.run_for(500)
        assert client.proposals_sent == sent

    def test_start_idempotent(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=4))
        client.start()
        client.start()
        sim.run_for(300)
        assert client.decided_count > 0


class TestLatencyTracking:
    def test_latencies_recorded(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=4))
        client.start()
        sim.run_for(1000)
        assert len(client.latencies_ms) == client.decided_count
        assert all(lat >= 0 for lat in client.latencies_ms)

    def test_percentiles_ordered(self):
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=8))
        client.start()
        sim.run_for(1000)
        pct = client.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert pct["p50"] > 0

    def test_empty_percentiles(self):
        sim, _servers = build_omni_cluster(3)
        client = ClosedLoopClient(sim, WorkloadParams(concurrent_proposals=4))
        pct = client.latency_percentiles()
        assert pct == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_latency_spans_partition_retry(self):
        """A proposal delayed by a leader crash counts its full wait."""
        sim, _servers = build_omni_cluster(3, initial_leader=1)
        client = ClosedLoopClient(
            sim, WorkloadParams(concurrent_proposals=2,
                                proposal_timeout_ms=150.0))
        client.start()
        sim.run_for(500)
        baseline_p99 = client.latency_percentiles()["p99"]
        sim.crash(1)
        sim.run_for(2000)
        assert max(client.latencies_ms) > baseline_p99


class TestLiveClientTimeout:
    """The proposal timeout stretches with mid-run slowness."""

    def test_timeout_tracks_inflated_latency(self):
        exp = build_experiment(ExperimentConfig(num_servers=3))
        client = exp.make_client(concurrent_proposals=2)
        before = client.current_timeout_ms
        # A slow_link-style directed inflation lands mid-run.
        exp.network.set_latency_directed(1, 2, 500.0)
        after = client.current_timeout_ms
        assert after > before
        assert after >= 8.0 * 500.0
        # And relaxes again once the fault reverts.
        exp.network.clear_latency_directed(1, 2)
        assert client.current_timeout_ms == before

    def test_explicit_timeout_stays_fixed(self):
        exp = build_experiment(ExperimentConfig(num_servers=3))
        client = exp.make_client(concurrent_proposals=2,
                                 proposal_timeout_ms=1234.0)
        exp.network.set_latency_directed(1, 2, 500.0)
        assert client.current_timeout_ms == 1234.0
