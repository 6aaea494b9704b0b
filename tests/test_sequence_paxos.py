"""Unit tests for Sequence Paxos (paper section 4, Figure 3).

A tiny shuttle delivers messages between hand-built replicas with full
control over ordering and connectivity, so every protocol path — prepare,
promise, accept-sync, pipelined accepts, stragglers, recovery — is testable
in isolation.
"""

from typing import Dict, Set

import pytest

from repro.errors import ConfigError, StoppedError
from repro.omni.ballot import BOTTOM, Ballot
from repro.omni.entry import Command, StopSign
from repro.omni.messages import (
    Accepted,
    AcceptDecide,
    AcceptSync,
    Decide,
    Prepare,
    PrepareReq,
    Promise,
    ProposalForward,
)
from repro.omni.sequence_paxos import (
    Phase,
    Role,
    SequencePaxos,
    SequencePaxosConfig,
)
from repro.omni.storage import InMemoryStorage


def make_sp(pid: int, n: int = 3, storage=None) -> SequencePaxos:
    peers = tuple(p for p in range(1, n + 1) if p != pid)
    return SequencePaxos(
        SequencePaxosConfig(pid=pid, peers=peers),
        storage if storage is not None else InMemoryStorage(),
    )


class Shuttle:
    """Deliver Sequence Paxos messages between replicas, FIFO per pair."""

    def __init__(self, nodes: Dict[int, SequencePaxos]):
        self.nodes = nodes
        self.down: Set[frozenset] = set()

    def cut(self, a: int, b: int) -> None:
        self.down.add(frozenset((a, b)))

    def deliver_all(self, max_rounds: int = 20) -> None:
        for _ in range(max_rounds):
            moved = False
            for pid, node in self.nodes.items():
                for dst, msg in node.take_outbox():
                    if frozenset((pid, dst)) in self.down:
                        continue
                    if dst in self.nodes:
                        self.nodes[dst].on_message(pid, msg)
                        moved = True
            if not moved:
                return

    def elect(self, pid: int, n: int = 1) -> Ballot:
        ballot = Ballot(n=n, priority=0, pid=pid)
        for node in self.nodes.values():
            node.handle_leader(ballot)
        self.deliver_all()
        return ballot


def cmd(i: int) -> Command:
    return Command(data=str(i).encode(), client_id=1, seq=i)


@pytest.fixture
def trio():
    nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
    return nodes, Shuttle(nodes)


class TestConfig:
    def test_rejects_self_in_peers(self):
        with pytest.raises(ConfigError):
            SequencePaxosConfig(pid=1, peers=(1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            SequencePaxosConfig(pid=1, peers=(2, 2))

    def test_majority(self):
        assert SequencePaxosConfig(pid=1, peers=(2, 3)).majority == 2
        assert SequencePaxosConfig(pid=1, peers=()).majority == 1


class TestLeaderTransition:
    def test_leader_event_starts_prepare(self, trio):
        nodes, net = trio
        nodes[1].handle_leader(Ballot(1, 0, 1))
        assert nodes[1].is_leader
        out = nodes[1].take_outbox()
        assert {dst for dst, _ in out} == {2, 3}
        assert all(isinstance(m, Prepare) for _, m in out)

    def test_foreign_leader_event_sets_hint(self, trio):
        nodes, _ = trio
        nodes[2].handle_leader(Ballot(1, 0, 1))
        assert not nodes[2].is_leader
        assert nodes[2].leader_pid == 1

    def test_lower_ballot_cannot_take_over(self, trio):
        nodes, net = trio
        net.elect(3, n=5)
        nodes[1].handle_leader(Ballot(2, 0, 1))
        assert not nodes[1].is_leader  # 2 < promised 5

    def test_leader_steps_down_on_higher_round(self, trio):
        nodes, net = trio
        net.elect(1, n=1)
        net.elect(2, n=2)
        assert not nodes[1].is_leader
        assert nodes[2].is_leader

    def test_single_server_config_leads_instantly(self):
        solo = make_sp(1, n=1)
        solo.handle_leader(Ballot(1, 0, 1))
        assert solo.is_leader
        assert solo.phase is Phase.ACCEPT
        solo.propose(cmd(0))
        assert solo.decided_idx == 1


class TestReplication:
    def test_propose_decides_everywhere(self, trio):
        nodes, net = trio
        net.elect(1)
        for i in range(5):
            nodes[1].propose(cmd(i))
        net.deliver_all()
        for node in nodes.values():
            assert node.decided_idx == 5
            assert [e.seq for _i, e in node.take_decided()] == list(range(5))

    def test_batched_propose_single_message(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose_batch([cmd(0), cmd(1), cmd(2)])
        out = nodes[1].take_outbox()
        accept_msgs = [m for _d, m in out if isinstance(m, AcceptDecide)]
        assert len(accept_msgs) == 2  # one per follower
        assert len(accept_msgs[0].entries) == 3

    def test_follower_forwards_proposals(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[2].propose(cmd(9))
        net.deliver_all()
        assert nodes[1].decided_idx == 1

    def test_proposals_buffered_until_leader_known(self, trio):
        nodes, net = trio
        nodes[2].propose(cmd(9))  # no leader yet: buffered
        assert nodes[2].take_outbox() == []
        net.elect(1)
        net.deliver_all()
        assert nodes[1].decided_idx == 1

    def test_decide_is_monotone(self, trio):
        nodes, net = trio
        net.elect(1)
        for i in range(3):
            nodes[1].propose(cmd(i))
        net.deliver_all()
        first = nodes[2].decided_idx
        nodes[2].on_message(1, Decide(n=nodes[2].current_round, decided_idx=1))
        assert nodes[2].decided_idx == first  # lower Decide ignored

    def test_minority_cannot_decide(self, trio):
        nodes, net = trio
        net.elect(1)
        net.cut(1, 2)
        net.cut(1, 3)
        nodes[1].propose(cmd(0))
        net.deliver_all()
        assert nodes[1].decided_idx == 0


class TestPrepareSynchronization:
    def prepare_divergence(self):
        """Build: leader 1 decided [0,1] everywhere; then 1 extends only
        itself with [2, 3] (unchosen); 3 is behind."""
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        net = Shuttle(nodes)
        net.elect(1)
        nodes[1].propose(cmd(0))
        nodes[1].propose(cmd(1))
        net.deliver_all()
        net.cut(1, 2)
        net.cut(1, 3)
        nodes[1].propose(cmd(2))
        nodes[1].propose(cmd(3))
        net.deliver_all()
        return nodes, net

    def test_trailing_leader_catches_up_in_prepare(self):
        """The constrained-election essence: a stale server takes over and
        adopts the most updated log before proposing."""
        nodes, net = self.prepare_divergence()
        assert nodes[1].log_len == 4
        # Now 3 (log length 2) becomes leader of a higher round with full
        # connectivity restored.
        net.down.clear()
        net.elect(3, n=2)
        assert nodes[3].is_leader
        # 3 must have adopted 1's longer accepted log (same acc round).
        assert nodes[3].log_len == 4
        nodes[3].propose(cmd(4))
        net.deliver_all()
        assert all(node.decided_idx == 5 for node in nodes.values())

    def test_unchosen_entries_survive_via_max_promise(self):
        """Entries accepted only at the old leader are not lost if that
        leader's log is the max among the new majority."""
        nodes, net = self.prepare_divergence()
        net.down.clear()
        net.cut(2, 3)  # force the promise majority to be {1, 2}
        net.elect(2, n=2)
        net.deliver_all()
        assert nodes[2].log_len == 4  # adopted 1's suffix [2, 3]

    def test_unchosen_entries_overwritten_when_leader_unreachable(self):
        """If the max log is unreachable, its unchosen tail may be replaced
        — allowed by Sequence Consensus (only *chosen* entries persist)."""
        nodes, net = self.prepare_divergence()
        # 1 remains cut off; 3 leads with {2, 3}.
        net.elect(3, n=2)
        assert nodes[3].is_leader
        assert nodes[3].log_len == 2
        nodes[3].propose(cmd(10))
        net.deliver_all()
        assert nodes[2].decided_idx == 3
        # Now 1 rejoins and promises the new leader: its conflicting
        # suffix [2, 3] must be overwritten via AcceptSync.
        net.down.clear()
        nodes[1].on_message(3, Prepare(
            n=Ballot(2, 0, 3),
            acc_rnd=nodes[3].storage.get_accepted_round(),
            log_idx=nodes[3].log_len,
            decided_idx=nodes[3].decided_idx,
        ))
        net.deliver_all()
        log = nodes[1].storage.get_entries(0, 10)
        assert [e.seq for e in log] == [0, 1, 10]

    def test_late_promise_gets_accept_sync(self, trio):
        nodes, net = trio
        net.cut(1, 3)
        net.elect(1)  # 3 unreachable: majority is {1, 2}
        nodes[1].propose(cmd(0))
        net.deliver_all()
        assert nodes[3].decided_idx == 0
        # Link heals: 3 asks for a Prepare and catches up (session drop).
        net.down.clear()
        nodes[3].reconnected(1)
        net.deliver_all()
        assert nodes[3].decided_idx == 1

    def test_promise_carries_leader_missing_suffix(self):
        follower = make_sp(2)
        follower.storage.append_entries([cmd(0), cmd(1), cmd(2)])
        follower.storage.set_accepted_round(Ballot(1, 0, 1))
        follower.storage.set_promise(Ballot(1, 0, 1))
        follower.on_message(3, Prepare(
            n=Ballot(2, 0, 3), acc_rnd=BOTTOM, log_idx=0, decided_idx=0,
        ))
        out = follower.take_outbox()
        ((dst, promise),) = out
        assert dst == 3
        assert isinstance(promise, Promise)
        assert len(promise.suffix) == 3  # everything the leader lacks

    def test_equal_acc_round_sends_tail_only(self):
        follower = make_sp(2)
        follower.storage.append_entries([cmd(0), cmd(1), cmd(2)])
        follower.storage.set_accepted_round(Ballot(1, 0, 1))
        follower.on_message(1, Prepare(
            n=Ballot(2, 0, 1), acc_rnd=Ballot(1, 0, 1),
            log_idx=1, decided_idx=1,
        ))
        ((_dst, promise),) = follower.take_outbox()
        assert [e.seq for e in promise.suffix] == [1, 2]

    def test_behind_follower_sends_empty_suffix(self):
        follower = make_sp(2)
        follower.on_message(1, Prepare(
            n=Ballot(2, 0, 1), acc_rnd=Ballot(1, 0, 1),
            log_idx=5, decided_idx=3,
        ))
        ((_dst, promise),) = follower.take_outbox()
        assert promise.suffix == ()


class TestObsoleteMessages:
    def test_stale_prepare_ignored_silently(self, trio):
        nodes, net = trio
        net.elect(2, n=5)
        nodes[1].on_message(3, Prepare(n=Ballot(1, 0, 3), acc_rnd=BOTTOM,
                                       log_idx=0, decided_idx=0))
        # No NACK: silence avoids the gossip that livelocks other protocols.
        assert nodes[1].take_outbox() == []

    def test_stale_accept_decide_ignored(self, trio):
        nodes, net = trio
        net.elect(2, n=5)
        before = nodes[1].log_len
        nodes[1].on_message(3, AcceptDecide(n=Ballot(1, 0, 3),
                                            entries=(cmd(0),), decided_idx=0))
        assert nodes[1].log_len == before

    def test_stale_accepted_ignored_by_leader(self, trio):
        nodes, net = trio
        net.elect(1, n=2)
        nodes[1].on_message(2, Accepted(n=Ballot(1, 0, 1), log_idx=99))
        assert nodes[1].decided_idx == 0

    def test_duplicate_promises_harmless(self, trio):
        nodes, net = trio
        net.elect(1)
        round_n = nodes[1].current_round
        promise = Promise(n=round_n, acc_rnd=BOTTOM, suffix=(),
                          log_idx=0, decided_idx=0)
        nodes[1].on_message(2, promise)
        nodes[1].on_message(2, promise)
        nodes[1].propose(cmd(0))
        net.deliver_all()
        assert nodes[1].decided_idx == 1


class TestRecovery:
    def test_prepare_req_answered_by_leader(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].on_message(3, PrepareReq())
        out = nodes[1].take_outbox()
        assert any(isinstance(m, Prepare) and d == 3 for d, m in out)

    def test_prepare_req_ignored_by_follower(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[2].on_message(3, PrepareReq())
        assert nodes[2].take_outbox() == []

    def test_fail_recover_rejoins_and_catches_up(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose(cmd(0))
        net.deliver_all()
        storage = nodes[2].storage
        nodes[2] = make_sp(2, storage=storage)  # crash: rebuild volatile
        nodes[2].fail_recover()
        assert nodes[2].phase is Phase.RECOVER
        net.deliver_all()
        nodes[1].propose(cmd(1))
        net.deliver_all()
        assert nodes[2].decided_idx == 2

    def test_recovering_replica_ignores_non_prepare(self):
        replica = make_sp(2)
        replica.fail_recover()
        replica.take_outbox()
        replica.on_message(1, AcceptDecide(n=Ballot(1, 0, 1),
                                           entries=(cmd(0),), decided_idx=0))
        assert replica.log_len == 0

    def test_leader_reconnect_sends_prepare(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].reconnected(3)
        out = nodes[1].take_outbox()
        assert any(isinstance(m, Prepare) and d == 3 for d, m in out)


class TestStopSign:
    def test_reconfiguration_appends_stopsign(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose_reconfiguration((2, 3, 4))
        net.deliver_all()
        ss = nodes[1].stopsign_decided()
        assert ss is not None
        assert ss.servers == (2, 3, 4)
        assert ss.config_id == 1

    def test_stopped_rejects_proposals(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose_reconfiguration((2, 3, 4))
        with pytest.raises(StoppedError):
            nodes[1].propose(cmd(0))

    def test_stopsign_replicates_to_followers(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose_reconfiguration((1, 2))
        net.deliver_all()
        for node in nodes.values():
            assert node.stopped()
            assert node.stopsign_decided() is not None

    def test_invalid_new_config_rejected(self, trio):
        nodes, net = trio
        net.elect(1)
        with pytest.raises(ConfigError):
            nodes[1].propose_reconfiguration(())
        with pytest.raises(ConfigError):
            nodes[1].propose_reconfiguration((2, 2))

    def test_forwarded_proposals_dropped_when_stopped(self, trio):
        nodes, net = trio
        net.elect(1)
        nodes[1].propose_reconfiguration((1, 2))
        net.deliver_all()
        rejected_before = nodes[1].stats.proposals_rejected
        nodes[1].on_message(2, ProposalForward(entries=(cmd(5),)))
        assert nodes[1].stats.proposals_rejected == rejected_before + 1

    def test_read_decided_serves_prefix(self, trio):
        nodes, net = trio
        net.elect(1)
        for i in range(4):
            nodes[1].propose(cmd(i))
        net.deliver_all()
        assert [e.seq for e in nodes[2].read_decided(1, 99)] == [1, 2, 3]
        assert [e.seq for e in nodes[2].read_decided(1, 3)] == [1, 2]
