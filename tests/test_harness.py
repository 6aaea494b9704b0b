"""Tests for the experiment harness: config validation, protocol factory,
WAN latency map, batch derivation."""

import pytest

from repro.errors import ConfigError
from repro.baselines.multipaxos import MultiPaxosReplica
from repro.baselines.raft import RaftReplica
from repro.baselines.vr import VRReplica
from repro.omni.server import OmniPaxosServer
from repro.sim.harness import (
    PROTOCOLS,
    ExperimentConfig,
    build_experiment,
    derive_max_batch,
    make_replica,
    wan_latency_map,
)


class TestConfig:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="zab")

    def test_rejects_empty_cluster(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(num_servers=0)

    def test_servers_enumerated(self):
        assert ExperimentConfig(num_servers=3).servers == (1, 2, 3)

    def test_tick_derived_from_timeout(self):
        assert ExperimentConfig(election_timeout_ms=100).effective_tick_ms == 10
        assert ExperimentConfig(election_timeout_ms=5).effective_tick_ms == 1
        assert ExperimentConfig(election_timeout_ms=50_000).effective_tick_ms == 50


class TestBatchDerivation:
    def test_infinite_egress_defaults(self):
        assert derive_max_batch(None, 100) == 4096

    def test_scales_with_egress_and_timeout(self):
        small = derive_max_batch(100.0, 100.0)
        large = derive_max_batch(1000.0, 100.0)
        assert large > small

    def test_bounded(self):
        assert derive_max_batch(1e9, 1e9) == 4096
        assert derive_max_batch(0.001, 1.0) == 16

    def test_sized_from_sample_entry_wire_size(self):
        """The bytes-per-entry divisor comes from the codec's sizing of a
        sample entry, not a hard-coded constant: a payload 10x the no-op's
        shrinks the derived batch accordingly."""
        from repro.omni.entry import Command

        noop = Command(data=bytes(8))        # 24 wire bytes
        big = Command(data=bytes(8 * 30))    # 256 wire bytes
        assert derive_max_batch(100.0, 100.0, noop) == \
            derive_max_batch(100.0, 100.0)
        small = derive_max_batch(100.0, 100.0, big)
        assert small < derive_max_batch(100.0, 100.0, noop)
        assert small >= 16

    def test_config_derives_from_the_default_sample(self):
        from repro.omni.entry import Command

        cfg = ExperimentConfig(egress_bytes_per_ms=100.0,
                               election_timeout_ms=100.0)
        assert cfg.effective_max_batch == \
            derive_max_batch(100.0, 100.0, Command(data=bytes(8)))
        assert derive_max_batch(100.0, 100.0, Command(data=bytes(1000))) \
            < cfg.effective_max_batch


class TestFactory:
    @pytest.mark.parametrize("protocol,cls", [
        ("omni", OmniPaxosServer),
        ("raft", RaftReplica),
        ("raft_pvcq", RaftReplica),
        ("multipaxos", MultiPaxosReplica),
        ("vr", VRReplica),
    ])
    def test_builds_right_type(self, protocol, cls):
        cfg = ExperimentConfig(protocol=protocol, num_servers=3)
        replica = make_replica(cfg, 1)
        assert isinstance(replica, cls)
        assert replica.pid == 1

    def test_pvcq_flags_set(self):
        cfg = ExperimentConfig(protocol="raft_pvcq", num_servers=3)
        replica = make_replica(cfg, 1)
        assert replica._config.prevote
        assert replica._config.check_quorum

    def test_plain_raft_flags_clear(self):
        cfg = ExperimentConfig(protocol="raft", num_servers=3)
        replica = make_replica(cfg, 1)
        assert not replica._config.prevote

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_experiment_elects_and_replicates(self, protocol):
        cfg = ExperimentConfig(protocol=protocol, num_servers=3,
                               election_timeout_ms=100, initial_leader=1,
                               seed=3)
        exp = build_experiment(cfg)
        client = exp.make_client(concurrent_proposals=4)
        exp.cluster.run_for(3_000)
        assert client.decided_count > 0, protocol


class TestWanLatency:
    def test_leader_links_match_paper_rtts(self):
        servers = (1, 2, 3)
        latency = wan_latency_map(servers, leader=3)
        # RTT 105 ms and 145 ms from the leader (one-way 52.5 / 72.5).
        leader_latencies = sorted(
            ms for (a, b), ms in latency.items() if 3 in (a, b)
        )
        assert leader_latencies == [52.5, 72.5]

    def test_same_zone_followers_fast(self):
        servers = (1, 2, 3, 4, 5)
        latency = wan_latency_map(servers, leader=5)
        # Followers 1 and 3 share a zone (alternating assignment).
        assert latency[(1, 3)] == 0.1

    def test_all_pairs_covered(self):
        servers = (1, 2, 3, 4, 5)
        latency = wan_latency_map(servers, leader=3)
        assert len(latency) == 10
