"""The durability barrier, made falsifiable.

Killing a process keeps whatever the operating system already holds, so it
cannot tell a replica that syncs before it speaks from one that does not.
A *power cut* can: :meth:`FaultyStorage.power_cut` discards everything
written since the last ``sync()`` returned. The rule under test — nothing
leaves ``OmniPaxosServer`` ahead of the state it attests — then reads: cut
every server at the same instant, at any instant, and no entry a client
was told is decided may be missing afterwards.

The negative control runs the same schedule on storages whose ``sync()``
does nothing and requires the suite to *fail* there, so it cannot pass
vacuously.
"""

import asyncio
import random

import pytest

from repro.baselines.vr import VRConfig, VRReplica
from repro.chaos.checker import DecidedLogChecker, command_validator
from repro.obs.registry import MetricsRegistry
from repro.omni.entry import Command
from repro.omni.faults import FaultyStorage
from repro.omni.messages import AcceptDecide
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import FileStorage, InMemoryStorage
from repro.runtime import RuntimeNode
from repro.sim.workload import ClosedLoopClient, WorkloadParams

from tests.conftest import build_omni_cluster, run_until_leader
from tests.test_wire_runtime import make_addrs, wait_for

CUTS = 20
HB_MS = 20.0


class NeverSyncs(FaultyStorage):
    """The bug the suite exists to catch: a barrier that does not sync."""

    def sync(self) -> int:
        return 0


def run_power_cut_schedule(n, seed, storage_cls):
    """A closed-loop client against ``n`` servers, all of which lose power
    at ``CUTS`` seeded instants. Returns the checker, the acknowledged
    sequence numbers, and the servers.

    The lights go out *inside* a server's send loop, at a seeded message:
    that message and the rest of its burst are lost, and so is whatever
    the sender would have handed out next. Cutting only between simulator
    events would never catch a server with its outbox half sent."""
    rng = random.Random(seed)
    storages = []

    def factory(config_id):
        storages.append(storage_cls(InMemoryStorage()))
        return storages[-1]

    sim, servers = build_omni_cluster(n, hb_period_ms=HB_MS,
                                      storage_factory=factory)
    client = ClosedLoopClient(sim, WorkloadParams(
        concurrent_proposals=4, proposal_timeout_ms=8 * HB_MS))
    checker = DecidedLogChecker(command_validator(lambda: client.next_seq))
    acked = set()
    sim.on_decided(checker.observe)
    sim.on_decided(lambda pid, idx, entry, now: acked.add(entry.seq))
    client.start()

    sends_left = [None]  # messages until the cut; None = not armed
    real_send = sim.network.send

    def send(src, dst, msg):
        if sends_left[0] is not None:
            sends_left[0] -= 1
            if sends_left[0] < 0:
                sends_left[0] = None
                for pid in sim.pids:
                    sim.crash(pid)
                for storage in storages:
                    storage.power_cut()
        if not sim.is_crashed(src):
            real_send(src, dst, msg)

    sim.network.send = send

    def depose_leader():
        leaders = sim.leaders()
        if leaders:
            sim.crash(leaders[0])
        return leaders

    for cut in range(CUTS):
        # Long enough to elect a leader and commit a few hundred entries.
        sim.run_for(rng.uniform(15, 25) * HB_MS)
        if cut % 3 == 1:
            # Mid-Prepare: cut while the deposed leader's successor is
            # still collecting promises.
            depose_leader()
            sim.run_for(rng.uniform(2, 6) * HB_MS)
        elif cut % 3 == 2:
            # Right after a leader change: cut within a few messages of
            # the new leader appearing.
            before = depose_leader()
            for _ in range(400):
                sim.run_for(0.5)
                if sim.leaders() and sim.leaders() != before:
                    break
        # Otherwise mid-burst, in the steady state.
        sends_left[0] = rng.randrange(0, 12)
        while sends_left[0] is not None:
            sim.run_for(0.5)
        for pid in sim.pids:
            sim.recover(pid)
    client.stop()
    sim.run_for(60 * HB_MS)
    return checker, acked, servers


def lost_acknowledged(acked, servers):
    """Acknowledged sequence numbers missing from some server's log."""
    lost = set()
    for server in servers.values():
        have = {entry.seq for entry in server.read_log()
                if isinstance(entry, Command)}
        lost |= acked - have
    return lost


@pytest.mark.parametrize("n", [3, 5])
def test_no_acknowledged_entry_is_lost_to_a_power_cut(n):
    checker, acked, servers = run_power_cut_schedule(n, seed=12 + n,
                                                     storage_cls=FaultyStorage)
    assert checker.ok, checker.violation
    assert len(acked) > 200, "the schedule must commit through the cuts"
    assert lost_acknowledged(acked, servers) == set()
    logs = [server.read_log() for server in servers.values()]
    assert all(log == logs[0] for log in logs)


def test_negative_control_a_barrier_that_does_not_sync_loses_entries():
    checker, acked, servers = run_power_cut_schedule(3, seed=15,
                                                     storage_cls=NeverSyncs)
    assert not checker.ok or lost_acknowledged(acked, servers)


def lost_to_a_vr_power_cut(storage_cls):
    """Three VR servers pumped by hand — bursts at the leader, every
    hand-out delivered — then the power goes everywhere at once with one
    more burst handed out and not yet delivered. Returns how many entries
    there were and the ``(pid, index)`` of each one some ``take_decided()``
    returned that the server's own storage no longer proves decided."""
    pids = (1, 2, 3)
    storages = {p: storage_cls(InMemoryStorage()) for p in pids}
    replicas = {p: VRReplica(VRConfig(pid=p, servers=pids, initial_leader=1),
                             storages[p]) for p in pids}
    returned = {p: [] for p in pids}

    def hand_out():
        sent = [(p, dst, msg) for p in pids
                for dst, msg in replicas[p].take_outbox()]
        for p in pids:
            returned[p] += replicas[p].take_decided()
        return sent

    def pump():
        sent = hand_out()
        while sent:
            for src, dst, msg in sent:
                replicas[dst].on_message(src, msg, 0.0)
            sent = hand_out()

    for replica in replicas.values():
        replica.start(0.0)
    pump()
    assert replicas[1].is_leader
    for burst in range(6):
        replicas[1].propose_batch(
            [Command(b"v", 1, 4 * burst + i) for i in range(4)], 0.0)
        if burst < 5:
            pump()
    assert hand_out(), "the last burst left the leader and is in flight"
    for storage in storages.values():
        storage.power_cut()
    lost = [(p, idx) for p in pids for idx, entry in returned[p]
            if storages[p].get_decided_idx() <= idx
            or storages[p].get_entries(idx, idx + 1) != (entry,)]
    return sum(map(len, returned.values())), lost


def test_vr_hands_out_nothing_ahead_of_the_disk():
    """VR rides Sequence Paxos on a ``Storage``, so it owes the barrier
    ``OmniPaxosServer`` keeps: sync before anything leaves."""
    returned, lost = lost_to_a_vr_power_cut(FaultyStorage)
    assert returned == 3 * 20, "every server decided the delivered bursts"
    assert lost == []


def test_vr_negative_control_without_sync_the_cut_loses_entries():
    returned, lost = lost_to_a_vr_power_cut(NeverSyncs)
    assert returned == 3 * 20 and lost


class CountingStorage(InMemoryStorage):
    def __init__(self, journal):
        super().__init__()
        self._journal = journal

    def sync(self) -> int:
        self._journal.append("sync")
        return 0


def test_one_loop_turn_of_proposals_costs_the_leader_one_sync():
    """N proposals issued without yielding to the loop leave in one drain:
    one ``sync()``, it comes before the first ``mesh.send``, and each
    follower is sent one ``AcceptDecide`` with all N entries."""
    proposals = 16

    async def scenario():
        journals = {p: [] for p in (1, 2, 3)}
        cc = ClusterConfig(0, (1, 2, 3))
        addrs = make_addrs(list(cc.servers))
        nodes = {p: RuntimeNode(
            OmniPaxosServer(OmniPaxosConfig(
                pid=p, cluster=cc, hb_period_ms=40.0,
                storage_factory=lambda cid, p=p: CountingStorage(journals[p]))),
            addrs[p], {q: a for q, a in addrs.items() if q != p},
            tick_ms=5.0, on_decided=lambda idx, entry: None)
            for p in cc.servers}
        for node in nodes.values():
            await node.start()
        try:
            # The first heartbeat rounds go unanswered while peers are
            # still dialling, so leadership changes hands once or twice
            # in the first 0.2 s (a seeded leader too), and a burst that
            # met a Prepare phase would leave in an AcceptSync. Whoever
            # leads after ten rounds keeps the lead.
            await wait_for(lambda: all(
                len(n.connected_peers) == 2 for n in nodes.values())
                and len({n.leader_pid for n in nodes.values()}) == 1
                and nodes[1].leader_pid is not None
                and nodes[1].status()["hb_round"] >= 10)
            leader = nodes[nodes[1].leader_pid]
            journal = journals[leader.pid]
            real_send, real_drain = leader._mesh.send, leader._drain

            def send(dst, msg):
                if isinstance(msg.payload, AcceptDecide):
                    journal.append(
                        ("replicate", dst, len(msg.payload.entries)))
                else:
                    journal.append("send")  # a heartbeat may share the cycle
                real_send(dst, msg)

            leader._mesh.send = send
            leader._drain = lambda: (journal.append("drain"), real_drain())
            leader._mesh._on_batch_end = leader._drain  # bound at construction
            leader.propose(Command(data=b"w", client_id=1, seq=0))  # warm up
            await asyncio.sleep(0.1)
            del journal[:]
            for seq in range(1, proposals + 1):
                leader.propose(Command(data=b"b", client_id=1, seq=seq))
            assert journal == [], "nothing leaves inside propose()"
            await wait_for(lambda: journal.count("drain") >= 2)
        finally:
            for node in nodes.values():
                await node.stop()
        return journal, [p for p in nodes if p != leader.pid]

    journal, followers = asyncio.run(scenario())
    first = journal[1:journal.index("drain", 1)]
    assert journal[0] == "drain"
    assert first.count("sync") == 1 and first[0] == "sync"
    # The whole burst cost two messages, both in that cycle.
    replicated = [e for e in journal if e[0] == "replicate"]
    assert sorted(replicated) == [("replicate", p, proposals)
                                  for p in followers]
    assert all(e in first for e in replicated)


@pytest.mark.parametrize("observed", [True, False])
def test_barrier_metrics_count_records_per_sync(tmp_path, observed):
    """Is a slow commit waiting on the disk, and how many records share
    each sync? Answered only when someone is listening."""
    opened = []

    def factory(config_id):
        opened.append(FileStorage(str(tmp_path / f"{len(opened)}.wal")))
        return opened[-1]

    sim, servers = build_omni_cluster(3, storage_factory=factory)
    reg = MetricsRegistry()
    if observed:
        for server in servers.values():
            server.set_observability(reg)
    leader = run_until_leader(sim)
    sim.propose_batch(leader, [Command(b"m", 1, seq) for seq in range(8)])
    sim.run_for(100)
    assert all(s.global_log_len == 8 for s in servers.values())
    for storage in opened:
        storage.close()
    syncs = reg.sum_counter("repro_storage_syncs_total")
    records = reg.sum_counter("repro_storage_sync_records_total")
    timed = sum(m.count for m in reg.metrics()
                if m.name == "repro_storage_sync_ms")
    if observed:
        assert syncs > 0 and timed == syncs
        assert records > syncs, "some sync carried more than one record"
    else:
        assert syncs == records == timed == 0
