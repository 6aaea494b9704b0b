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

The same schedule runs on the split hand-out ``RuntimeNode`` drives
(``take_ready``): a leader's ``AcceptDecide`` leaves before its own fsync,
and the cuts land in that window. There a second negative control — a
leader that counts its own acceptance at the append, before the fsync —
must fail too.
"""

import asyncio
import os
import random
import threading
from collections import Counter, deque

import pytest

from repro.baselines.vr import VRConfig, VRReplica
from repro.chaos.checker import DecidedLogChecker, command_validator
from repro.obs.registry import MetricsRegistry
from repro.omni.entry import Command
from repro.omni.faults import FaultyStorage
from repro.omni.messages import AcceptDecide
from repro.omni.sequence_paxos import Phase, SequencePaxos
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

    def fsync(self) -> None:
        pass


class SplitHandout:
    """Drives every server of a ``SimCluster`` the way ``RuntimeNode``
    does: through ``take_ready``, with the early messages sent at the
    hand-out and everything else held until the fsync completes, a seeded
    delay later: 0.05–0.5 ms on a fast disk, 1–4 ms on a slow one, against
    a 0.1 ms one-way link. Each disk is slow or fast, at even odds, for 20
    ms at a time. One fsync at a time per server, covering every write
    made before it started; a crash drops what the server held.
    ``check(pid)`` runs at every hand-out."""

    def __init__(self, sim, rng, check):
        self.sim = sim
        self.rng = rng
        self.check = check
        self.state = {}
        #: Per server: until when its disk keeps its speed, and whether
        #: that is slow.
        self.disks = {}
        #: Servers whose early messages left ahead of an fsync still
        #: running: a cut now lands between the send and the fsync.
        self.exposed = set()
        real_crash = sim.crash

        def crash(pid):
            self.state.pop(pid, None)
            self.exposed.discard(pid)
            real_crash(pid)

        sim.crash = crash
        sim._flush = self.flush

    def _of(self, pid):
        if pid not in self.state:
            self.state[pid] = {"writes": 0, "owed": [], "syncing": False,
                               "held": deque(), "held_to": Counter()}
        return self.state[pid]

    def _send(self, pid, outbox):
        for dst, msg in outbox:
            self.sim.network.send(pid, dst, msg)

    def _hand_out(self, pid, decided):
        now = self.sim.now
        for idx, entry in decided:
            for observer in self.sim._decided_observers:
                observer(pid, idx, entry, now)

    def flush(self, pid):
        ready = self.sim.replica(pid).take_ready()
        self.check(pid)
        st = self._of(pid)
        if ready.fsyncs:
            st["writes"] += 1
            st["owed"].append(ready)
        elif not st["held"]:
            self._send(pid, ready.outbox)
            self._hand_out(pid, ready.decided)
            return
        batch = []
        for dst, msg in ready.early:
            if st["held_to"][dst]:
                batch.append((dst, msg))
            else:
                self.exposed.add(pid)
                self.sim.network.send(pid, dst, msg)
        batch += ready.outbox
        st["held"].append((st["writes"], batch, ready.decided))
        st["held_to"].update(dst for dst, _ in batch)
        if not st["syncing"] and st["owed"]:
            self._start(pid, st)

    def _start(self, pid, st):
        owed, st["owed"] = st["owed"], []
        st["syncing"] = True
        covers = st["writes"]
        now = self.sim.now
        slow_until, slow = self.disks.get(pid, (0.0, False))
        if now >= slow_until:
            slow_until, slow = now + 20.0, self.rng.random() < 0.5
            self.disks[pid] = slow_until, slow
        delay = (self.rng.uniform(1.0, 4.0) if slow
                 else self.rng.uniform(0.05, 0.5))
        self.sim.queue.schedule_in(
            delay, lambda: self._done(pid, st, covers, owed))

    def _done(self, pid, st, covers, owed):
        if self.state.get(pid) is not st:
            return  # crashed meanwhile
        for fsync in dict.fromkeys(f for r in owed for f in r.fsyncs):
            fsync()
        st["syncing"] = False
        self.exposed.discard(pid)
        while st["held"] and st["held"][0][0] <= covers:
            _, batch, decided = st["held"].popleft()
            st["held_to"].subtract(dst for dst, _ in batch)
            self._send(pid, batch)
            self._hand_out(pid, decided)
        if self.state.get(pid) is not st:
            return  # the lights went out while it sent
        for ready in owed:
            ready.synced()
        self.flush(pid)  # starts the fsync the writes made meanwhile owe


def run_power_cut_schedule(n, seed, storage_cls, split=False):
    """A closed-loop client against ``n`` servers, all of which lose power
    at ``CUTS`` seeded instants. Returns the checker, the acknowledged
    ``(client, seq)`` pairs, the servers, and (``split`` only) each index
    a leader had decided at a hand-out while fewer than a majority held
    its entry on disk.

    The lights go out *inside* a server's send loop, at a seeded message:
    that message and the rest of its burst are lost, and so is whatever
    the sender would have handed out next. Cutting only between simulator
    events would never catch a server with its outbox half sent. With
    ``split`` the servers hand out through :class:`SplitHandout`, and only
    messages sent while a server's early messages are out ahead of its
    fsync count down to the cut."""
    rng = random.Random(seed)
    storages = []

    def factory(config_id):
        storages.append(storage_cls(InMemoryStorage()))
        return storages[-1]

    sim, servers = build_omni_cluster(n, hb_period_ms=HB_MS,
                                      storage_factory=factory)
    undurable = []
    handout = (SplitHandout(sim, random.Random(seed + 1),
                            lambda pid: check_decided_on_disk(pid))
               if split else None)
    client = ClosedLoopClient(sim, WorkloadParams(
        concurrent_proposals=4, proposal_timeout_ms=8 * HB_MS))
    # Split: a second, open-loop client proposes every 0.5 ms whatever is
    # outstanding, so AcceptDecides keep leaving while a slow disk holds
    # the acknowledgements back (a closed loop would wait for them).
    paced = [0]
    by_client = command_validator(lambda: client.next_seq)
    by_pacer = command_validator(lambda: paced[0], client_id=2)
    checker = DecidedLogChecker(lambda e: by_client(e) or by_pacer(e))
    acked = set()
    sim.on_decided(checker.observe)
    sim.on_decided(lambda pid, idx, entry, now: acked.add(
        (entry.client_id, entry.seq)))
    client.start()

    pacing = [split]

    def pace():
        leaders = sim.leaders()
        if pacing[0] and leaders:
            sim.propose(leaders[0], Command(b"o", 2, paced[0]))
            paced[0] += 1
        if pacing[0]:
            sim.queue.schedule_in(0.5, pace)

    pace()

    sends_left = [None]  # messages until the cut; None = not armed
    real_send = sim.network.send

    def send(src, dst, msg):
        if sends_left[0] is not None and (handout is None
                                          or handout.exposed):
            sends_left[0] -= 1
            if sends_left[0] < 0:
                sends_left[0] = None
                for pid in sim.pids:
                    sim.crash(pid)
                for storage in storages:
                    storage.power_cut()
        if not sim.is_crashed(src):
            real_send(src, dst, msg)

    def check_decided_on_disk(pid):
        """A leader's decided index must be on the disk of a majority
        whenever it hands out."""
        sp = servers[pid].sp_of_current()
        idx = sp.decided_idx
        if sp.is_leader and idx and idx not in undurable:
            last = sp.read_decided(idx - 1, idx)
            on_disk = sum(st.durable.get_entries(idx - 1, idx) == last
                          for st in storages)
            if on_disk <= n // 2:
                undurable.append(idx)

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
    pacing[0] = False
    sim.run_for(60 * HB_MS)
    return checker, acked, servers, undurable


def lost_acknowledged(acked, servers):
    """Acknowledged sequence numbers missing from some server's log."""
    lost = set()
    for server in servers.values():
        have = {(entry.client_id, entry.seq) for entry in server.read_log()
                if isinstance(entry, Command)}
        lost |= acked - have
    return lost


@pytest.mark.parametrize("n", [3, 5])
def test_no_acknowledged_entry_is_lost_to_a_power_cut(n):
    checker, acked, servers, _ = run_power_cut_schedule(
        n, seed=12 + n, storage_cls=FaultyStorage)
    assert checker.ok, checker.violation
    assert len(acked) > 200, "the schedule must commit through the cuts"
    assert lost_acknowledged(acked, servers) == set()
    logs = [server.read_log() for server in servers.values()]
    assert all(log == logs[0] for log in logs)


def test_negative_control_a_barrier_that_does_not_sync_loses_entries():
    checker, acked, servers, _ = run_power_cut_schedule(
        3, seed=15, storage_cls=NeverSyncs)
    assert not checker.ok or lost_acknowledged(acked, servers)


@pytest.mark.parametrize("n", [3, 5])
def test_no_acknowledged_entry_is_lost_when_the_leader_replicates_first(n):
    """The split hand-out: every cut lands while some server's early
    ``AcceptDecide`` is out ahead of its own fsync. Nothing acknowledged
    is lost, and no leader had decided an entry a majority did not hold
    on disk."""
    checker, acked, servers, undurable = run_power_cut_schedule(
        n, seed=12 + n, storage_cls=FaultyStorage, split=True)
    assert checker.ok, checker.violation
    assert len(acked) > 200, "the schedule must commit through the cuts"
    assert lost_acknowledged(acked, servers) == set()
    assert undurable == []
    logs = [server.read_log() for server in servers.values()]
    assert all(log == logs[0] for log in logs)


def test_negative_control_split_a_barrier_that_does_not_sync_loses_entries():
    checker, acked, servers, _ = run_power_cut_schedule(
        3, seed=15, storage_cls=NeverSyncs, split=True)
    assert not checker.ok or lost_acknowledged(acked, servers)


def test_negative_control_a_leader_counting_itself_at_append_decides_early(
        monkeypatch):
    """The leader of the parent design counted its own acceptance inside
    the append. Behind an early ``AcceptDecide`` it then decides entries
    that only a minority holds on disk. (Its ``Decide``, held behind its
    own fsync, and the per-follower order keep the decision from anyone
    until that fsync completes, so no acknowledged entry is lost: the
    suite catches the rule itself.)"""
    append = SequencePaxos._append_and_replicate

    def counts_at_append(self, entries):
        append(self, entries)
        if self.is_leader and self._phase is Phase.ACCEPT:
            self._las[self.pid] = self.log_len
            self._maybe_decide(self.log_len)

    monkeypatch.setattr(SequencePaxos, "_append_and_replicate",
                        counts_at_append)
    checker, acked, servers, undurable = run_power_cut_schedule(
        3, seed=15, storage_cls=FaultyStorage, split=True)
    assert undurable


def lost_to_a_vr_power_cut(storage_cls):
    """Three VR servers pumped by hand — bursts at the leader, every
    hand-out delivered — then the power goes everywhere at once with one
    more burst handed out and not yet delivered. Returns how many entries
    there were and the ``(pid, index)`` of each one some ``take_decided()``
    returned that the server's own storage no longer holds at that index.
    (Its decided index may fall below it: that record is synced lazily,
    and a restarted server learns it again from the leader.)"""
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
            if storages[p].get_entries(idx, idx + 1) != (entry,)]
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


async def start_settled_cluster(storage_of, on_decided=None):
    """Three started ``RuntimeNode``s whose leadership has settled; the
    storage of server ``p`` is ``storage_of(p)``, and ``on_decided(p, idx)``
    hears every hand-out."""
    cc = ClusterConfig(0, (1, 2, 3))
    addrs = make_addrs(list(cc.servers))
    nodes = {p: RuntimeNode(
        OmniPaxosServer(OmniPaxosConfig(
            pid=p, cluster=cc, hb_period_ms=40.0,
            storage_factory=lambda cid, p=p: storage_of(p))),
        addrs[p], {q: a for q, a in addrs.items() if q != p},
        tick_ms=5.0, on_decided=lambda idx, entry, p=p: (
            on_decided and on_decided(p, idx)))
        for p in cc.servers}
    for node in nodes.values():
        await node.start()
    # The first heartbeat rounds go unanswered while peers are still
    # dialling, so leadership changes hands once or twice in the first
    # 0.2 s (a seeded leader too), and a burst that met a Prepare phase
    # would leave in an AcceptSync. Whoever leads after ten rounds keeps
    # the lead.
    try:
        await wait_for(lambda: all(
            len(n.connected_peers) == 2 for n in nodes.values())
            and len({n.leader_pid for n in nodes.values()}) == 1
            and nodes[1].leader_pid is not None
            and nodes[1].status()["hb_round"] >= 10)
    except BaseException:
        for node in nodes.values():
            await node.stop()
        raise
    return nodes


def test_one_loop_turn_of_proposals_costs_the_leader_one_sync():
    """N proposals issued without yielding to the loop leave in one drain:
    one ``sync()``, it comes before the first ``mesh.send``, and each
    follower is sent one ``AcceptDecide`` with all N entries."""
    proposals = 16

    async def scenario():
        journals = {p: [] for p in (1, 2, 3)}
        nodes = await start_settled_cluster(
            lambda p: CountingStorage(journals[p]))
        try:
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


def test_one_loop_turn_of_proposals_on_disk_costs_the_leader_one_fsync(
        tmp_path, monkeypatch):
    """The same burst on ``FileStorage(sync=True)``, where the drain owes
    an fsync and it runs on the disk thread: one leader fsync for the
    burst, one ``AcceptDecide`` per follower with all N entries, and those
    are all that leaves the leader before its fsync has completed."""
    proposals = 16
    journal = []
    real_fsync = os.fsync
    storages, owners = {}, {}

    def fsync(fd):
        real_fsync(fd)
        journal.append(("fsynced", owners.get(fd)))

    def storage_of(p):
        storages[p] = FileStorage(str(tmp_path / f"{p}.wal"), sync=True)
        return storages[p]

    async def scenario():
        nodes = await start_settled_cluster(storage_of)
        owners.update((s._file.fileno(), p) for p, s in storages.items())
        monkeypatch.setattr(os, "fsync", fsync)
        try:
            leader = nodes[nodes[1].leader_pid]
            real_send = leader._mesh.send

            def send(dst, msg):
                if isinstance(msg.payload, AcceptDecide):
                    journal.append(
                        ("replicate", dst, len(msg.payload.entries)))
                else:
                    journal.append(("send", dst))
                real_send(dst, msg)

            leader._mesh.send = send
            leader.propose(Command(data=b"w", client_id=1, seq=0))  # warm up
            await asyncio.sleep(0.1)
            del journal[:]
            for seq in range(1, proposals + 1):
                leader.propose(Command(data=b"b", client_id=1, seq=seq))
            await wait_for(lambda: ("fsynced", leader.pid) in journal and
                           journal[-1][0] == "send")
            await asyncio.sleep(0.05)
            burst = list(journal)  # close() fsyncs too
        finally:
            for node in nodes.values():
                await node.stop()
            for storage in storages.values():
                storage.close()
        return burst, leader.pid, [p for p in nodes if p != leader.pid]

    journal, leader, followers = asyncio.run(scenario())
    done = journal.index(("fsynced", leader))
    assert journal.count(("fsynced", leader)) == 1
    replicated = [e for e in journal if e[0] == "replicate"]
    assert sorted(replicated) == [("replicate", p, proposals)
                                  for p in followers]
    assert sorted(journal[:done]) == sorted(replicated + [
        e for e in journal[:done] if e[0] == "fsynced"])


def test_a_closed_round_costs_each_server_one_fsync(tmp_path, monkeypatch):
    """The decided index rides the next WAL write instead of forcing an
    fsync of its own. On ``FileStorage(sync=True)`` a 16-proposal burst,
    from ``propose()`` until every server has handed it out, costs three
    fsyncs — one append per server — where it cost six when each decided
    advance was synced; and the leader fsyncs once, not twice, between a
    paced proposal and handing it out."""
    journal = []
    real_fsync = os.fsync
    storages, owners = {}, {}

    def fsync(fd):
        journal.append(("fsync", owners[fd]))
        real_fsync(fd)

    def storage_of(p):
        storages[p] = FileStorage(str(tmp_path / f"{p}.wal"), sync=True)
        return storages[p]

    def handed_out(p, idx):
        journal.append(("decided", p, idx))

    def everywhere(idx):
        return lambda: all(("decided", p, idx) in journal for p in storages)

    async def scenario():
        nodes = await start_settled_cluster(storage_of, handed_out)
        owners.update((s._file.fileno(), p) for p, s in storages.items())
        monkeypatch.setattr(os, "fsync", fsync)
        try:
            leader = nodes[nodes[1].leader_pid]
            leader.propose(Command(data=b"w", client_id=1, seq=0))  # warm up
            await wait_for(everywhere(0))
            await asyncio.sleep(0.1)
            del journal[:]
            for seq in range(1, 17):
                leader.propose(Command(data=b"b", client_id=1, seq=seq))
            await wait_for(everywhere(16))
            burst = [e for e in journal if e[0] == "fsync"]
            await asyncio.sleep(0.1)
            del journal[:]
            leader.propose(Command(data=b"p", client_id=1, seq=17))
            await wait_for(everywhere(17))
            paced = journal[:journal.index(("decided", leader.pid, 17))]
        finally:
            for node in nodes.values():
                await node.stop()
            for storage in storages.values():
                storage.close()
        return leader.pid, burst, paced

    leader, burst, paced = asyncio.run(scenario())
    assert sorted(burst) == [("fsync", p) for p in (1, 2, 3)]
    assert paced.count(("fsync", leader)) == 1


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
