"""Replication happens at the hand-out, not inside ``propose()``.

``propose()`` appends (and refuses, clips at a stop-sign, decides on a
one-server cluster); the messages that replicate what was appended are
built by the next ``take_outbox()``: one ``AcceptDecide`` (Raft: one
``AppendEntries``, Multi-Paxos: one ``P2a``) per follower, however many
proposals came in between. How often that is belongs to the driver: the
simulator hands out after every call, the runtime once per loop turn.
"""

import asyncio

from repro.baselines.multipaxos import (
    MultiPaxosConfig,
    MultiPaxosReplica,
    P1a,
    P2a,
)
from repro.baselines.raft import AppendEntries, RaftConfig, RaftReplica
from repro.omni.ballot import Ballot
from repro.omni.entry import StopSign
from repro.omni.messages import AcceptDecide, AcceptSync, Promise
from repro.omni.sequence_paxos import Phase
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import InMemoryStorage
from repro.obs.exporters import MemorySink
from repro.obs.registry import MetricsRegistry
from repro.replica import Replica
from repro.runtime import RuntimeNode
from repro.sim.cluster import SimCluster
from repro.sim.events import EventQueue
from repro.sim.network import NetworkParams, SimNetwork

from tests.test_sequence_paxos import Shuttle, cmd, make_sp
from tests.test_wire_runtime import make_addrs, wait_for

K = 5


def accept_decides(outbox):
    return [(dst, m) for dst, m in outbox if isinstance(m, AcceptDecide)]


def led_trio():
    """Three Sequence Paxos replicas, 1 leading in the Accept phase."""
    nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
    net = Shuttle(nodes)
    net.elect(1)
    assert nodes[1].phase is Phase.ACCEPT
    return nodes, net


class TestSequencePaxosHandout:
    def test_k_proposals_leave_as_one_message_per_follower(self):
        nodes, _ = led_trio()
        leader = nodes[1]
        for i in range(K):
            leader.propose(cmd(i))
        assert leader.log_len == K  # appended inside the call
        out = leader.take_outbox()
        sent = accept_decides(out)
        assert len(out) == len(sent) == 2
        assert {dst for dst, _ in sent} == {2, 3}
        (_, to_a), (_, to_b) = sent
        assert to_a is to_b  # one object: the runtime encodes it once
        assert to_a.entries == tuple(cmd(i) for i in range(K))
        assert (to_a.session, to_a.seq) == (1, 1)
        assert leader.take_outbox() == []  # nothing is sent twice

        leader.propose(cmd(K))
        (_, nxt), _ = accept_decides(leader.take_outbox())
        assert nxt.entries == (cmd(K),)
        assert (nxt.session, nxt.seq) == (1, 2)  # one seq per message

    def test_straggler_synced_before_the_handout_gets_entries_once(self):
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        net = Shuttle(nodes)
        net.cut(1, 3)
        net.elect(1)
        leader = nodes[1]
        for i in range(K):
            leader.propose(cmd(i))
        # 3's Promise arrives between the proposals and the hand-out.
        leader.on_message(3, Promise(
            n=leader.current_round, acc_rnd=Ballot(0, 0, 0), suffix=(),
            log_idx=0, decided_idx=0))
        out = leader.take_outbox()
        (sync,) = [m for dst, m in out if dst == 3]
        assert isinstance(sync, AcceptSync)
        assert sync.suffix == tuple(cmd(i) for i in range(K))
        ((dst, batch),) = accept_decides(out)
        assert dst == 2 and len(batch.entries) == K
        # What 3 is sent next starts after its AcceptSync.
        leader.propose(cmd(K))
        later = dict(accept_decides(leader.take_outbox()))
        assert later[3].entries == (cmd(K),)
        assert (later[3].session, later[3].seq) == (sync.session, 1)

    def test_deposed_before_the_handout_sends_nothing(self):
        nodes, _ = led_trio()
        leader = nodes[1]
        for i in range(K):
            leader.propose(cmd(i))
        leader.handle_leader(Ballot(n=2, priority=0, pid=2))
        assert not leader.is_leader
        assert leader.take_outbox() == []
        assert (leader.log_len, leader.decided_idx) == (K, 0)

    def test_stopsign_is_the_last_entry_of_the_batch(self):
        nodes, net = led_trio()
        leader = nodes[1]
        for i in range(K - 1):
            leader.propose(cmd(i))
        leader.propose_reconfiguration((1, 2, 4))
        assert leader.stopped()  # before any message exists
        (_, batch), _ = accept_decides(leader.take_outbox())
        assert len(batch.entries) == K
        assert isinstance(batch.entries[-1], StopSign)
        nodes[2].on_message(1, batch)
        net.deliver_all()
        assert leader.stopsign_decided() == batch.entries[-1]


def test_raft_k_proposals_leave_as_one_append_entries_per_follower():
    leader = RaftReplica(RaftConfig(pid=1, voters=(1, 2, 3),
                                    initial_leader=1))
    leader.start(0.0)
    leader.take_outbox()  # the first heartbeat
    for i in range(K):
        leader.propose(cmd(i), 1.0)
    assert leader.log_len == K
    out = leader.take_outbox()
    assert [dst for dst, _ in out] == [2, 3]
    for _, msg in out:
        assert isinstance(msg, AppendEntries)
        assert [slot.entry for slot in msg.entries] == \
            [cmd(i) for i in range(K)]
    assert leader.take_outbox() == []


def multipaxos_leader():
    leader = MultiPaxosReplica(MultiPaxosConfig(pid=1, peers=(2, 3),
                                                initial_leader=1))
    leader.start(0.0)
    return leader


def test_multipaxos_k_proposals_leave_as_one_p2a_per_follower():
    leader = multipaxos_leader()
    for i in range(K):
        leader.propose(cmd(i), 1.0)
    out = leader.take_outbox()
    assert [dst for dst, _ in out] == [2, 3]
    for _, msg in out:
        assert isinstance(msg, P2a)
        assert (msg.first_slot, msg.values) == \
            (0, tuple(cmd(i) for i in range(K)))
    assert leader.take_outbox() == []  # nothing is sent twice

    leader.propose(cmd(K), 2.0)
    (_, nxt), _ = leader.take_outbox()
    assert (nxt.first_slot, nxt.values) == (K, (cmd(K),))


def test_multipaxos_deposed_before_the_handout_sends_no_p2a():
    leader = multipaxos_leader()
    for i in range(K):
        leader.propose(cmd(i), 1.0)
    leader.on_message(2, P1a((2, 2), 0), 2.0)
    assert not leader.is_leader
    out = leader.take_outbox()
    assert not any(isinstance(msg, P2a) for _, msg in out)  # only the P1b
    assert leader.decided_upto == 0
    assert leader.take_outbox() == []


def test_server_crashed_before_the_handout_hands_out_nothing_unsynced():
    syncs = []

    class CountingStorage(InMemoryStorage):
        def sync(self) -> int:
            syncs.append(1)
            return 0

    cluster = ClusterConfig(0, (1, 2, 3))
    servers = {pid: OmniPaxosServer(OmniPaxosConfig(
        pid=pid, cluster=cluster, initial_leader=1,
        storage_factory=lambda cid: CountingStorage()))
        for pid in cluster.servers}
    for server in servers.values():
        server.start(0.0)
    for _ in range(4):  # Prepare, Promise, AcceptSync, Accepted
        for pid, server in servers.items():
            for dst, env in server.take_outbox():
                servers[dst].on_message(pid, env, 0.0)
    leader = servers[1]
    assert leader.sp_of_current().phase is Phase.ACCEPT

    leader.propose(cmd(0), 1.0)
    sent = leader.take_outbox()
    assert len(accept_decides((d, e.payload) for d, e in sent)) == 2

    for i in range(1, K):
        leader.propose(cmd(i), 2.0)
    del syncs[:]
    leader.crash()
    assert leader.take_outbox() == []
    assert syncs == []


class Forwarding(Replica):
    """A proxy in the style of the benchmark's ``TimedReplica``: it
    overrides the abstract methods and nothing else, forwards each to the
    replica it wraps, and keeps every hand-out."""

    def __init__(self, inner):
        self.inner = inner
        self.handouts = []

    pid = property(lambda self: self.inner.pid)
    members = property(lambda self: self.inner.members)
    is_leader = property(lambda self: self.inner.is_leader)
    leader_pid = property(lambda self: self.inner.leader_pid)

    def start(self, now_ms):
        self.inner.start(now_ms)

    def tick(self, now_ms):
        self.inner.tick(now_ms)

    def on_message(self, src, msg, now_ms):
        self.inner.on_message(src, msg, now_ms)

    def propose(self, entry, now_ms):
        self.inner.propose(entry, now_ms)

    def take_outbox(self):
        self.handouts.append(self.inner.take_outbox())
        return self.handouts[-1]

    def take_decided(self):
        return self.inner.take_decided()

    def replicated(self):
        """Entries per ``AcceptDecide``, by follower, over every hand-out."""
        sizes = {}
        for outbox in self.handouts:
            for dst, msg in accept_decides((d, e.payload) for d, e in outbox):
                sizes.setdefault(dst, []).append(len(msg.entries))
        return sizes


def forwarding_trio(hb_period_ms):
    cluster = ClusterConfig(0, (1, 2, 3))
    return {pid: Forwarding(OmniPaxosServer(OmniPaxosConfig(
        pid=pid, cluster=cluster, hb_period_ms=hb_period_ms,
        initial_leader=1))) for pid in cluster.servers}


def test_sim_driver_hands_out_after_every_call():
    queue = EventQueue()
    proxies = forwarding_trio(hb_period_ms=50.0)
    sim = SimCluster(proxies, SimNetwork(queue, NetworkParams(one_way_ms=0.1)),
                     queue, tick_ms=5.0)
    sim.start()
    sim.run_for(200.0)
    (leader,) = sim.leaders()
    del proxies[leader].handouts[:]
    for i in range(K):
        sim.propose(leader, cmd(i))
    assert proxies[leader].replicated() == {
        pid: [1] * K for pid in proxies if pid != leader}


def test_runtime_driver_hands_out_once_per_loop_turn():
    """The same K proposals, issued without yielding to the loop, leave a
    ``RuntimeNode`` as one message per follower — through a proxy that
    leaves the optional hooks at what ``Replica`` declares, on a node
    that calls all three (registry, queue sampling, link pings)."""
    proxies = forwarding_trio(hb_period_ms=40.0)
    reg = MetricsRegistry()
    sink = MemorySink()
    reg.add_sink(sink)

    async def scenario():
        addrs = make_addrs(list(proxies))
        nodes = {p: RuntimeNode(
            proxy, addrs[p], {q: a for q, a in addrs.items() if q != p},
            tick_ms=5.0, obs=reg if p == 1 else None,
            ping_interval_ms=20.0 if p == 1 else None)
            for p, proxy in proxies.items()}
        for node in nodes.values():
            await node.start()
        nodes[1].attach_queue_sampler()
        try:
            # Leadership moves once or twice while peers are still
            # dialling; whoever leads after ten heartbeat rounds stays.
            await wait_for(lambda: all(
                len(n.connected_peers) == 2 for n in nodes.values())
                and len({n.leader_pid for n in nodes.values()}) == 1
                and proxies[1].inner.status()["hb_round"] >= 10
                and len(nodes[1].status()["link_rtt_ms"]) == 2)
            leader = nodes[nodes[1].leader_pid]
            del proxies[leader.pid].handouts[:]
            for i in range(K):
                leader.propose(cmd(i))
            await wait_for(lambda: all(
                p.inner.global_log_len == K for p in proxies.values()))
        finally:
            for node in nodes.values():
                await node.stop()
        return leader.pid

    leader = asyncio.run(scenario())
    assert proxies[leader].replicated() == {
        pid: [K] for pid in proxies if pid != leader}
    assert proxies[1].obs is reg and proxies[1].inner.obs is not reg
    assert proxies[1].queue_depths() == {}
    assert proxies[1].gray_detector is None
    sampled = [r.event for r in sink.by_kind("QueueDepthSampled")]
    assert {e.queue for e in sampled} == {"tcp_write", "tcp_reconnect"}, \
        "the node sampled the mesh's queues on its ticks, the proxy has none"
    assert {e.pid for e in sampled} == {1}
