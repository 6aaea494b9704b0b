"""Focused tests for Raft's replication flow control.

Large catch-ups (reconfiguration, recovered stragglers) must stream in
bounded windows and survive stale rejections — the machinery that keeps the
Figure-9 experiments stable under finite egress.
"""

from collections import deque

import pytest

from repro.baselines.raft import (
    AppendEntries,
    AppendEntriesReply,
    RaftConfig,
    RaftConfigChange,
    RaftReplica,
)
from repro.omni.entry import Command

from tests.test_raft import build_raft_cluster, cmd, wait_leader

T = 100.0


def make_leader_with_log(entries=100, max_batch=10):
    leader = RaftReplica(RaftConfig(
        pid=1, voters=(1, 2, 3), election_timeout_ms=T,
        max_entries_per_msg=max_batch, initial_leader=1))
    leader.preload([cmd(i) for i in range(entries)])
    leader.start(0.0)
    leader.take_outbox()
    return leader


class TestBatching:
    def test_appends_respect_max_batch(self):
        leader = make_leader_with_log(entries=100, max_batch=10)
        # Follower 2 rejects from scratch: hint 0.
        last_seq = leader._append_seq.get(2, 0)
        leader.on_message(2, AppendEntriesReply(1, False, 0, last_seq), 1.0)
        out = leader.take_outbox()
        batches = [m for d, m in out if d == 2 and isinstance(m, AppendEntries)]
        assert batches
        assert all(len(m.entries) <= 10 for m in batches)

    def test_window_bounds_inflight(self):
        leader = make_leader_with_log(entries=100, max_batch=10)
        last_seq = leader._append_seq.get(2, 0)
        leader.on_message(2, AppendEntriesReply(1, False, 0, last_seq), 1.0)
        out = [m for d, m in leader.take_outbox()
               if d == 2 and isinstance(m, AppendEntries) and m.entries]
        # With a 2-batch window, at most 2 entry-carrying messages at once.
        assert len(out) <= 2

    def test_stream_continues_on_success(self):
        leader = make_leader_with_log(entries=30, max_batch=10)
        last_seq = leader._append_seq.get(2, 0)
        leader.on_message(2, AppendEntriesReply(1, False, 0, last_seq), 1.0)
        leader.take_outbox()
        leader.on_message(2, AppendEntriesReply(1, True, 10, 0), 2.0)
        out = [m for d, m in leader.take_outbox()
               if d == 2 and isinstance(m, AppendEntries)]
        assert out and out[0].prev_idx == 10


class TestStaleRejections:
    def test_stale_rejection_ignored(self):
        """Only the most recent probe's rejection resets next_idx —
        earlier rejections from the same failure burst must not."""
        leader = make_leader_with_log(entries=100, max_batch=10)
        current = leader._append_seq.get(2, 0)
        leader.on_message(2, AppendEntriesReply(1, False, 0, current), 1.0)
        leader.take_outbox()
        progressed = leader._next_idx[2]
        assert progressed > 0
        # A stale rejection (old seq) arrives late: must be ignored.
        leader.on_message(2, AppendEntriesReply(1, False, 0, current - 1), 2.0)
        assert leader._next_idx[2] == progressed

    def test_fresh_rejection_accepted(self):
        leader = make_leader_with_log(entries=100, max_batch=10)
        current = leader._append_seq.get(2, 0)
        leader.on_message(2, AppendEntriesReply(1, False, 0, current), 1.0)
        assert leader._next_idx[2] <= 10 * 2


class TestEndToEndCatchUp:
    def test_straggler_catches_up_in_windows(self):
        sim, reps = build_raft_cluster(3, initial_leader=1)
        sim.run_for(100)
        sim.crash(3)
        for i in range(200):
            sim.propose(1, cmd(i))
        sim.run_for(200)
        sim.recover(3)
        sim.run_for(2_000)
        assert reps[3].commit_idx == 200

    def test_catch_up_under_finite_egress(self):
        from repro.sim.harness import ExperimentConfig, build_experiment

        cfg = ExperimentConfig(protocol="raft", num_servers=3,
                               election_timeout_ms=T, initial_leader=1,
                               egress_bytes_per_ms=500.0, seed=1)
        exp = build_experiment(cfg)
        exp.cluster.run_for(300)
        exp.cluster.crash(3)
        for lo in range(0, 2_000, 100):
            exp.cluster.propose_batch(
                1, [cmd(i) for i in range(lo, lo + 100)])
            exp.cluster.run_for(50)
        exp.cluster.recover(3)
        exp.cluster.run_for(15_000)
        assert exp.cluster.replica(3).commit_idx == 2_000
        # The leader never lost its seat to heartbeat starvation.
        assert exp.cluster.replica(1).is_leader


class Wire:
    """Sans-io replicas on one FIFO wire, a hand-out after every delivery
    (like the simulator). Only the leader's clock runs, so nobody
    campaigns."""

    def __init__(self, replicas):
        self.replicas = replicas
        self.queue = deque()
        self.replies_to_leader = 0
        for pid, replica in replicas.items():
            replica.start(0.0)
            self.hand_out(pid)
        self.settle()

    @classmethod
    def of(cls, voters, joiners=()):
        replicas = {pid: RaftReplica(RaftConfig(
            pid=pid, voters=voters, initial_leader=1)) for pid in voters}
        replicas.update({pid: RaftReplica(RaftConfig(pid=pid, voters=()))
                         for pid in joiners})
        return cls(replicas)

    def hand_out(self, pid):
        self.queue.extend((pid, dst, msg)
                          for dst, msg in self.replicas[pid].take_outbox())

    def settle(self, now_ms=0.0):
        while self.queue:
            src, dst, msg = self.queue.popleft()
            if dst == 1 and isinstance(msg, AppendEntriesReply):
                self.replies_to_leader += 1
            self.replicas[dst].on_message(src, msg, now_ms)
            self.hand_out(dst)

    def heartbeat(self, now_ms):
        """Followers learn the commit index from the next heartbeat."""
        self.replicas[1].tick(now_ms)
        self.hand_out(1)
        self.settle(now_ms)


class TestCommitRule:
    def test_burst_of_512_costs_the_leader_constant_work_per_reply(self):
        """512 proposals before one hand-out: what the leader does to find
        the commit index is bounded per AppendEntriesReply, not by how many
        entries are outstanding (a per-proposal scan of the uncommitted
        tail made this burst 131 328 term lookups)."""
        wire = Wire.of(voters=(1, 2, 3))
        leader = wire.replicas[1]
        lookups = []
        term_at = leader._log.term_at
        leader._log.term_at = lambda idx: lookups.append(idx) or term_at(idx)
        wire.replies_to_leader = 0
        for i in range(512):
            leader.propose(cmd(i), 0.0)
        wire.hand_out(1)
        wire.settle()
        wire.heartbeat(100.0)
        assert [r.commit_idx for r in wire.replicas.values()] == [512] * 3
        assert [e for _, e in wire.replicas[3].take_decided()] == \
            [cmd(i) for i in range(512)]
        assert wire.replies_to_leader == 4  # two for the burst, two beats
        # Per reply: one lookup in the commit rule, one for the prev_term
        # of a follow-up AppendEntries; per broadcast: one per follower.
        assert len(lookups) <= 4 * wire.replies_to_leader

    def test_single_voter_decides_inside_propose(self):
        wire = Wire.of(voters=(1,))
        leader = wire.replicas[1]
        leader.propose(cmd(0), 0.0)
        assert [e for _, e in leader.take_decided()] == [cmd(0)]
        assert leader.take_outbox() == []  # nobody to tell

    def test_three_to_one_commits_the_tail_once_the_change_applies(self):
        leader = Wire.of(voters=(1, 2, 3)).replicas[1]
        leader.propose_reconfiguration((1,), 0.0)
        for i in range(3):
            leader.propose(cmd(i), 0.0)  # behind the pending change
        leader.take_outbox()
        leader.on_message(2, AppendEntriesReply(1, True, 1), 1.0)
        # Follower 2 holds the change alone: it commits under the old
        # majority, the tail does not (1 of 3) — and now 1 is the cluster.
        assert (leader.commit_idx, leader.members) == (1, (1,))
        # The quorum relaxed with no match index moving: the next
        # successful reply commits the tail, whatever it acknowledges.
        leader.on_message(2, AppendEntriesReply(1, True, 1), 2.0)
        assert leader.commit_idx == 4
        assert [e for _, e in leader.take_decided()] == \
            [RaftConfigChange((1,))] + [cmd(i) for i in range(3)]
        leader.propose(cmd(3), 3.0)
        assert leader.commit_idx == 5  # alone: inside propose()

    def test_one_to_three_commits_the_tail_under_the_new_majority(self):
        wire = Wire.of(voters=(1,), joiners=(2, 3))
        leader = wire.replicas[1]
        leader.propose_reconfiguration((1, 2, 3), 0.0)
        for i in range(3):
            leader.propose(cmd(i), 0.0)  # behind the pending change
        # Alone in the old set the leader commits the change by itself;
        # everything behind it needs two of the new three.
        assert (leader.commit_idx, leader.members) == (1, (1, 2, 3))
        wire.hand_out(1)
        wire.settle()
        assert leader.commit_idx == 4
        wire.heartbeat(100.0)
        assert [r.commit_idx for r in wire.replicas.values()] == [4] * 3
