"""Resilience of reconfiguration under partial connectivity (paper §6.1).

"In Omni-Paxos, an added server can receive the log from any other server
such as an existing follower or even a newly added server that has completed
the migration. [...] if some server is disconnected from the leader, it
cannot complete the reconfiguration [in leader-based schemes]."

These tests exercise exactly those claims: joiners cut off from the leader,
crashed donors, stragglers, and announcement retransmission over flaky
links.
"""

import pytest

from repro.omni.entry import Command

from tests.conftest import build_omni_cluster, decided_logs_agree, run_until_leader


def cmd(i: int) -> Command:
    return Command(data=b"x", client_id=1, seq=i)


def preload(sim, leader, count):
    for i in range(count):
        sim.propose(leader, cmd(i))
    sim.run_for(100)


class TestJoinerCutFromLeader:
    def test_parallel_migration_completes_without_leader(self):
        """The joiner cannot reach the leader at all, yet completes the
        join by pulling segments from the other continuing servers."""
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        preload(sim, leader, 30)
        sim.set_link(leader, 4, False)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(5_000)
        assert servers[4].global_log_len == 31
        assert tuple(sorted(servers[4].members)) == (1, 2, 3, 4)

    def test_leader_only_migration_stalls_without_leader(self):
        """Contrast (Figure 6a): when migration is restricted to a single
        designated donor and the joiner cannot reach it, the join waits
        until the link heals. A finite egress makes the migration slow
        enough to observe mid-flight."""
        sim, servers = build_omni_cluster(
            3, joiners=(4,), migration_strategy="leader",
            egress_bytes_per_ms=200.0)
        leader = run_until_leader(sim)
        for lo in range(0, 2_000, 100):
            sim.propose_batch(leader, [cmd(i) for i in range(lo, lo + 100)])
            sim.run_for(100)
        sim.run_for(2_000)
        assert servers[leader].global_log_len == 2_000
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(60)  # the announcement fixes the designated donor
        migration = servers[4]._migration
        assert migration is not None, "migration should be mid-flight"
        designated = migration.donors[0]
        sim.set_link(designated, 4, False)
        sim.run_for(5_000)
        assert servers[4].global_log_len < 2_001  # stalled
        sim.set_link(designated, 4, True)
        sim.run_for(20_000)
        assert servers[4].global_log_len == 2_001

    def test_joiner_fed_by_other_joiner(self):
        """A joiner that finished becomes a donor for its peers (the paper:
        'or even a newly added server that has completed the migration')."""
        sim, servers = build_omni_cluster(3, joiners=(4, 5))
        leader = run_until_leader(sim)
        preload(sim, leader, 30)
        # Joiner 5 can only reach joiner 4 and one old follower.
        follower = next(p for p in (1, 2, 3) if p != leader)
        for old in (1, 2, 3):
            if old != follower:
                sim.set_link(old, 5, False)
        sim.reconfigure(leader, (1, 2, 3, 4, 5))
        sim.run_for(8_000)
        assert servers[5].global_log_len == 31
        assert tuple(sorted(servers[5].members)) == (1, 2, 3, 4, 5)


class TestDonorFailures:
    def test_crashed_donor_rotated_away(self):
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        preload(sim, leader, 30)
        victim = next(p for p in (1, 2, 3) if p != leader)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.crash(victim)
        sim.run_for(6_000)
        assert servers[4].global_log_len == 31

    def test_migration_survives_joiner_blip(self):
        """The joiner drops off the network mid-migration; announcement
        retransmission and chunk retries finish the job after it returns."""
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        preload(sim, leader, 30)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(50)
        for old in (1, 2, 3):
            sim.set_link(old, 4, False)
        sim.run_for(2_000)
        for old in (1, 2, 3):
            sim.set_link(old, 4, True)
        sim.run_for(6_000)
        assert servers[4].global_log_len == 31
        assert tuple(sorted(servers[4].members)) == (1, 2, 3, 4)


class TestStragglers:
    def test_straggler_old_member_joins_late(self):
        """A continuing member partitioned through the whole reconfiguration
        catches up afterwards via announcements + migration."""
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        preload(sim, leader, 20)
        straggler = next(p for p in (1, 2, 3) if p != leader)
        for other in (1, 2, 3, 4):
            if other != straggler:
                sim.set_link(straggler, other, False)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(3_000)
        assert servers[straggler].global_log_len < 21
        sim.heal_all_links()
        sim.run_for(6_000)
        assert servers[straggler].global_log_len == 21
        assert tuple(sorted(servers[straggler].members)) == (1, 2, 3, 4)

    def test_slow_continuing_member_hands_out_each_entry_once(self):
        """A continuing member on a slow link to the leader migrates the
        tail of configuration 0 while its own instance is still deciding
        it. Only the part it has not decided itself may join its log: it
        used to append the whole migrated range after what it decided
        meanwhile (102 entries, seq 90 handed out twice)."""
        sim, servers = build_omni_cluster(5, initial_leader=3, joiners=(6,))
        sim.network.set_latency(3, 5, 10.0)
        handed = []
        sim.on_decided(lambda pid, idx, entry, _now:
                       handed.append((idx, entry)) if pid == 5 else None)
        for i in range(100):
            sim.propose(3, cmd(i))
            sim.run_for(0.5)
        sim.reconfigure(3, (1, 2, 3, 4, 5, 6))
        sim.run_for(3_000)
        assert decided_logs_agree(servers)
        assert {s.global_log_len for s in servers.values()} == {101}
        assert [idx for idx, _entry in handed] == list(range(101))
        seqs = [e.seq for _idx, e in handed if isinstance(e, Command)]
        assert sorted(seqs) == list(range(100))

    def test_new_config_makes_progress_before_straggler_joins(self):
        """The new configuration does not wait for stragglers: a majority of
        started members suffices."""
        sim, servers = build_omni_cluster(3, joiners=(4,))
        leader = run_until_leader(sim)
        preload(sim, leader, 10)
        straggler = next(p for p in (1, 2, 3) if p != leader)
        for other in (1, 2, 3, 4):
            if other != straggler:
                sim.set_link(straggler, other, False)
        sim.reconfigure(leader, (1, 2, 3, 4))
        sim.run_for(3_000)
        leaders = sim.leaders()
        assert leaders
        sim.propose(leaders[0], cmd(100))
        sim.run_for(1_000)
        active = [p for p in (1, 2, 3, 4) if p != straggler]
        lengths = {servers[p].global_log_len for p in active}
        assert lengths == {12}  # 10 + stop-sign + 1 new command
