"""Failure-injection tests: crash-recovery with durable storage, message
loss, and link flapping (paper sections 3 and 4.1.3)."""

import pytest

from repro.omni.entry import Command
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import FileStorage
from repro.sim.cluster import SimCluster
from repro.sim.events import EventQueue
from repro.sim.network import NetworkParams, SimNetwork
from repro.util.rng import make_rng

from tests.conftest import build_omni_cluster, decided_logs_agree, run_until_leader


def cmd(i: int) -> Command:
    return Command(data=b"x", client_id=1, seq=i)


class TestDurableRecovery:
    def build_durable_cluster(self, tmp_path):
        cc = ClusterConfig(0, (1, 2, 3))
        queue = EventQueue()
        net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))

        def factory_for(pid):
            def factory(config_id):
                return FileStorage(str(tmp_path / f"s{pid}-c{config_id}.wal"))
            return factory

        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=50.0,
                storage_factory=factory_for(pid),
            ))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=5.0)
        sim.start()
        return sim, servers

    def test_file_backed_cluster_replicates(self, tmp_path):
        sim, servers = self.build_durable_cluster(tmp_path)
        leader = run_until_leader(sim)
        for i in range(10):
            sim.propose(leader, cmd(i))
        sim.run_for(100)
        assert all(s.global_log_len == 10 for s in servers.values())

    def test_state_survives_crash_on_disk(self, tmp_path):
        sim, servers = self.build_durable_cluster(tmp_path)
        leader = run_until_leader(sim)
        for i in range(5):
            sim.propose(leader, cmd(i))
        sim.run_for(100)
        follower = next(p for p in servers if p != leader)
        sim.crash(follower)
        sim.recover(follower)
        sim.run_for(500)
        assert servers[follower].global_log_len == 5
        # And it continues participating afterwards.
        for i in range(5, 8):
            sim.propose(leader, cmd(i))
        sim.run_for(200)
        assert servers[follower].global_log_len == 8

    def test_fresh_process_reopens_wal(self, tmp_path):
        """A brand-new FileStorage over the same path sees the log — the
        actual durability property, not just the simulated crash."""
        path = str(tmp_path / "solo.wal")
        storage = FileStorage(path)
        storage.append_entries([cmd(0), cmd(1)])
        storage.set_decided_idx(2)
        storage.close()
        reopened = FileStorage(path)
        assert reopened.log_len() == 2
        assert reopened.get_decided_idx() == 2
        reopened.close()


class TestRestartLiveness:
    """A restarted leader must come back with a ballot above the one it
    led with; under the same ballot BLE keeps choosing it while Sequence
    Paxos refuses to lead with it again, and the cluster stalls."""

    def _committing(self, sim, servers, leader, first_seq):
        for i in range(first_seq, first_seq + 3):
            sim.propose(leader, cmd(i))
        sim.run_for(100)
        return all(s.global_log_len == first_seq + 3
                   for s in servers.values())

    def test_leader_restarted_within_one_heartbeat_round(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        assert self._committing(sim, servers, leader, 0)
        sim.crash(leader)
        sim.recover(leader)  # before any peer's round could miss it
        leader = run_until_leader(sim, max_ms=2_000.0)
        assert self._committing(sim, servers, leader, 3)

    def test_every_server_restarted_at_once(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        assert self._committing(sim, servers, leader, 0)
        for pid in sim.pids:
            sim.crash(pid)
        for pid in sim.pids:
            sim.recover(pid)
        leader = run_until_leader(sim, max_ms=2_000.0)
        assert self._committing(sim, servers, leader, 3)


class TestMessageLoss:
    def test_progress_despite_random_loss(self):
        """Dropped messages delay but never break the protocol (retries via
        heartbeats, Accepted re-sends and session machinery)."""
        cc = ClusterConfig(0, (1, 2, 3))
        queue = EventQueue()
        net = SimNetwork(
            queue,
            NetworkParams(one_way_ms=0.1, loss_rate=0.05),
            rng=make_rng(11),
        )
        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=50.0))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=5.0)
        sim.start()
        leader = run_until_leader(sim)
        decided = 0
        for i in range(30):
            try:
                sim.propose(leader, cmd(i))
            except Exception:
                leaders = sim.leaders()
                if leaders:
                    leader = leaders[0]
            sim.run_for(50)
        sim.run_for(2000)
        assert decided_logs_agree(servers)
        assert max(s.global_log_len for s in servers.values()) > 0


class TestLinkFlapping:
    def test_repeated_flaps_converge(self):
        """Proposals fired into a flapping network may be lost (clients
        retry in practice), but the replicas always converge to one log and
        resume progress after healing."""
        sim, servers = build_omni_cluster(3, initial_leader=1)
        sim.run_for(200)
        for i in range(10):
            sim.propose(1, cmd(i))
            # Flap the 1<->2 link around the traffic.
            sim.set_link(1, 2, i % 2 == 0)
            sim.run_for(120)
        sim.heal_all_links()
        sim.run_for(1000)
        assert decided_logs_agree(servers)
        lengths = {s.global_log_len for s in servers.values()}
        assert len(lengths) == 1  # converged
        before = lengths.pop()
        # Progress resumes after the flapping ends.
        leader = sim.leaders()[0]
        sim.propose(leader, cmd(100))
        sim.run_for(200)
        assert all(s.global_log_len == before + 1 for s in servers.values())

    def test_session_drop_both_directions(self):
        """Whichever side hosts the leader, the PrepareReq path resyncs."""
        sim, servers = build_omni_cluster(3, initial_leader=1)
        sim.run_for(200)
        # Leader side loses follower 3.
        sim.set_link(1, 3, False)
        for i in range(3):
            sim.propose(1, cmd(i))
        sim.run_for(200)
        sim.set_link(1, 3, True)
        sim.run_for(300)
        assert servers[3].global_log_len == 3


class TestMultiCrash:
    def test_rolling_restarts(self):
        sim, servers = build_omni_cluster(5, initial_leader=3)
        sim.run_for(200)
        total = 0
        for round_no in range(3):
            for i in range(5):
                leaders = sim.leaders()
                if leaders:
                    try:
                        sim.propose(leaders[0], cmd(total))
                        total += 1
                    except Exception:
                        pass
                sim.run_for(30)
            victim = (round_no % 5) + 1
            sim.crash(victim)
            sim.run_for(400)
            sim.recover(victim)
            sim.run_for(600)
        sim.run_for(2000)
        assert decided_logs_agree(servers)
