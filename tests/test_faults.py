"""Storage fault injection: errors propagate, safety holds, recovery works."""

import pytest

from repro.errors import StorageError
from repro.omni.ballot import Ballot
from repro.omni.entry import Command
from repro.omni.faults import FaultyStorage
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import InMemoryStorage
from repro.sim.cluster import SimCluster
from repro.sim.events import EventQueue
from repro.sim.network import NetworkParams, SimNetwork

from tests.conftest import decided_logs_agree, run_until_leader
from tests.test_sequence_paxos import Shuttle, cmd, make_sp


class TestFaultyStorageUnit:
    def test_passthrough_when_healthy(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.append_entries(["a", "b"])
        storage.set_promise(Ballot(1, 0, 1))
        assert storage.log_len() == 2
        assert storage.get_promise() == Ballot(1, 0, 1)

    def test_fail_after_countdown(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(2)
        storage.append_entry("a")
        storage.append_entry("b")
        with pytest.raises(StorageError):
            storage.append_entry("c")
        assert storage.log_len() == 2
        assert storage.writes_failed == 1

    def test_reads_survive_faults(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.append_entry("a")
        storage.fail_after(0)
        assert storage.get_entries(0, 1) == ("a",)
        assert storage.log_len() == 1

    def test_heal_restores_writes(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0)
        with pytest.raises(StorageError):
            storage.append_entry("x")
        storage.heal()
        assert storage.append_entry("x") == 1


class TestProtocolUnderStorageFaults:
    def test_leader_append_fault_propagates(self):
        """A leader that cannot persist must surface the error to the
        proposer, not acknowledge phantom entries."""
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        faulty = FaultyStorage(nodes[1].storage)
        nodes[1] = make_sp(1, storage=faulty)
        net = Shuttle(nodes)
        net.elect(1)
        faulty.fail_after(0)
        with pytest.raises(StorageError):
            nodes[1].propose(cmd(0))

    def test_follower_fault_does_not_break_cluster(self):
        """One replica's dead disk stalls only that replica; the majority
        keeps deciding, and the replica resyncs after recovery."""
        cc = ClusterConfig(0, (1, 2, 3))
        queue = EventQueue()
        net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
        faulty = FaultyStorage(InMemoryStorage())
        storages = {1: InMemoryStorage(), 2: faulty, 3: InMemoryStorage()}
        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=50.0,
                storage_factory=lambda cid, s=storages[pid]: s))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=5.0)
        sim.start()
        leader = run_until_leader(sim)
        if leader == 2:
            pytest.skip("fault target became leader; covered by other test")
        faulty.fail_after(0)
        # The faulty follower dies on its first persistence attempt; the
        # harness treats that as a crash (fail-recovery model). Each step is
        # guarded separately: the fault fires inside event processing.
        for i in range(5):
            try:
                sim.propose(leader, cmd(i))
            except StorageError:
                pass
            try:
                sim.run_for(30)
            except StorageError:
                pass
        sim.crash(2)
        sim.run_for(100)
        survivors = {p: servers[p] for p in (1, 3)}
        for i in range(5, 8):
            sim.propose(leader, cmd(i))
        sim.run_for(100)
        assert all(s.global_log_len >= 8 for s in survivors.values())
        # Disk replaced: heal and rejoin through fail-recovery.
        faulty.heal()
        sim.recover(2)
        sim.run_for(1_000)
        assert servers[2].global_log_len == servers[leader].global_log_len
        assert decided_logs_agree(servers)

    def test_no_phantom_acknowledgement(self):
        """Entries that failed to persist never appear decided anywhere."""
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        faulty = FaultyStorage(nodes[2].storage)
        nodes[2] = make_sp(2, storage=faulty)
        net = Shuttle(nodes)
        net.elect(1)
        faulty.fail_after(0)
        # Replication to 2 explodes at the shuttle level; drop its deliveries
        # like a crashed process would.
        nodes[1].propose(cmd(0))
        try:
            net.deliver_all()
        except StorageError:
            pass
        # The majority {1, 3} still decides; 2 acknowledged nothing.
        assert nodes[1].decided_idx <= 1
        assert faulty.get_decided_idx() == 0


class TestTornWrites:
    def test_torn_append_persists_prefix_then_fails(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0, mode="torn")
        with pytest.raises(StorageError):
            storage.append_entries(["a", "b", "c", "d"])
        # Half the batch hit the disk before the "power cut".
        assert storage.log_len() == 2
        assert storage.get_entries(0, 2) == ("a", "b")
        assert storage.entries_torn == 2

    def test_only_the_tripping_write_tears(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0, mode="torn")
        with pytest.raises(StorageError):
            storage.append_entries(["a", "b"])
        # Later writes fail cleanly: the medium is dead, not torn again.
        with pytest.raises(StorageError):
            storage.append_entries(["c", "d"])
        assert storage.log_len() == 1

    def test_single_entry_batch_cannot_tear(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0, mode="torn")
        with pytest.raises(StorageError):
            storage.append_entries(["a"])
        assert storage.log_len() == 0

    def test_heal_resets_mode(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0, mode="torn")
        with pytest.raises(StorageError):
            storage.append_entries(["a", "b"])
        storage.heal()
        storage.fail_after(0)
        with pytest.raises(StorageError):
            storage.append_entries(["c", "d"])
        assert storage.log_len() == 1, "plain mode must not tear"

    def test_rejects_unknown_mode(self):
        storage = FaultyStorage(InMemoryStorage())
        with pytest.raises(ValueError):
            storage.fail_after(0, mode="sideways")

    def test_recovery_discards_torn_suffix_safely(self):
        """A follower whose disk tears mid-batch crashes; after heal +
        recovery its log is resynchronized from the leader, the torn
        (never-acknowledged) suffix is overwritten, and no invariant
        breaks — un-acked entries may be lost, acked ones may not."""
        from repro.omni.invariants import check_all

        cc = ClusterConfig(0, (1, 2, 3))
        queue = EventQueue()
        net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
        faulty = FaultyStorage(InMemoryStorage())
        storages = {1: InMemoryStorage(), 2: faulty, 3: InMemoryStorage()}
        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=50.0,
                storage_factory=lambda cid, s=storages[pid]: s))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=5.0)
        sim.start()
        leader = run_until_leader(sim)
        if leader == 2:
            pytest.skip("fault target became leader; not the torn scenario")
        sim.propose_batch(leader, [cmd(i) for i in range(4)])
        sim.run_for(50)
        # Arm the tear: the next follower-side append persists a prefix,
        # then the replica crashes (fail-recovery containment in the sim).
        faulty.fail_after(0, mode="torn")
        sim.propose_batch(leader, [cmd(i) for i in range(4, 12)])
        sim.run_for(200)
        assert faulty.entries_torn > 0, "the batch should have torn"
        assert sim.is_crashed(2), "a torn write must crash the replica"
        torn_len = faulty.log_len()
        # The majority kept going without 2.
        for i in range(12, 16):
            sim.propose(leader, cmd(i))
        sim.run_for(200)
        faulty.heal()
        sim.recover(2)
        sim.run_for(1_000)
        assert servers[2].global_log_len == servers[leader].global_log_len
        assert servers[2].global_log_len >= torn_len
        assert decided_logs_agree(servers)
        check_all(servers.values())


class TestSyncAndPowerCut:
    def test_sync_forwards_to_the_wrapped_storage(self, tmp_path):
        from repro.omni.storage import FileStorage

        inner = FileStorage(str(tmp_path / "wal.bin"))
        storage = FaultyStorage(inner)
        storage.append_entries(["a", "b"])
        storage.set_decided_idx(1)
        assert storage.sync() == 2
        assert storage.sync() == 0
        inner.close()

    def test_idle_sync_is_not_a_write(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0)
        assert storage.sync() == 0  # nothing behind it: no disk involved
        assert storage.writes_attempted == 0

    def test_fail_after_can_fail_the_sync(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(1)
        storage.append_entry("a")
        with pytest.raises(StorageError):
            storage.sync()
        assert storage.writes_failed == 1
        storage.heal()
        assert storage.sync() == 0  # InMemoryStorage has no records

    def test_power_cut_loses_exactly_the_unsynced_writes(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.append_entries(["a", "b", "c"])
        storage.set_promise(Ballot(1, 0, 1))
        storage.set_decided_idx(2)
        storage.sync()
        storage.truncate_suffix(2)
        storage.append_entries(["d", "e"])
        storage.set_promise(Ballot(5, 0, 2))
        storage.set_accepted_round(Ballot(5, 0, 2))
        storage.set_decided_idx(4)
        storage.power_cut()
        assert storage.get_entries(0, 10) == ("a", "b", "c")
        assert storage.get_promise() == Ballot(1, 0, 1)
        assert storage.get_decided_idx() == 2
        # And what is written after the cut builds on the restored state.
        storage.append_entry("f")
        storage.sync()
        storage.set_decided_idx(4)
        storage.power_cut()
        assert storage.get_entries(0, 10) == ("a", "b", "c", "f")
        assert storage.get_decided_idx() == 2

    def test_power_cut_rolls_back_compaction_and_snapshots(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.append_entries(["a", "b", "c", "d"])
        storage.set_decided_idx(4)
        storage.sync()
        storage.set_snapshot("abc", 3)
        storage.compact_prefix(3)
        storage.install_snapshot("abcdefg", 7)
        assert storage.compacted_idx() == 7
        storage.power_cut()
        assert storage.compacted_idx() == 0
        assert storage.get_snapshot() is None
        assert storage.get_entries(0, 10) == ("a", "b", "c", "d")

    def test_wrapping_a_used_storage_starts_from_its_state(self):
        inner = InMemoryStorage()
        inner.append_entries(["a", "b"])
        inner.set_decided_idx(1)
        storage = FaultyStorage(inner)
        storage.append_entry("c")
        storage.power_cut()
        assert storage.get_entries(0, 10) == ("a", "b")
        assert storage.get_decided_idx() == 1

    def test_a_torn_prefix_that_was_never_synced_is_lost_too(self):
        storage = FaultyStorage(InMemoryStorage())
        storage.fail_after(0, mode="torn")
        with pytest.raises(StorageError):
            storage.append_entries(["a", "b", "c", "d"])
        assert storage.log_len() == 2
        storage.power_cut()
        assert storage.log_len() == 0


class TestBarrierFailureInSim:
    def test_failed_sync_crashes_the_server_and_nothing_leaves(self):
        """The follower's append succeeds in memory and its sync fails at
        the barrier: the sim crashes it, the ``Accepted`` it had queued is
        never sent, the majority carries on, and it rejoins after repair."""
        from repro.omni.messages import Accepted

        cc = ClusterConfig(0, (1, 2, 3))
        queue = EventQueue()
        net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
        faulty = FaultyStorage(InMemoryStorage())
        storages = {1: InMemoryStorage(), 2: faulty, 3: InMemoryStorage()}
        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=50.0, initial_leader=1,
                storage_factory=lambda cid, s=storages[pid]: s))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=5.0)
        sim.start()
        sim.run_for(200)
        sim.propose(1, cmd(0))
        sim.run_for(50)
        assert all(s.global_log_len == 1 for s in servers.values())

        accepted_by_2 = []
        real_send = net.send

        def spy(src, dst, msg):
            if src == 2 and isinstance(msg.payload, Accepted):
                accepted_by_2.append(msg)
            real_send(src, dst, msg)

        net.send = spy
        faulty.fail_after(1)  # the append goes through, the sync does not
        sim.propose(1, cmd(1))
        sim.run_for(50)
        assert faulty.log_len() == 2, "the append itself succeeded"
        assert sim.is_crashed(2) and sim.storage_crashes == 1
        assert accepted_by_2 == [], "attested state that was never synced"
        assert servers[2].take_outbox() == []
        assert servers[1].global_log_len == servers[3].global_log_len == 2

        faulty.heal()
        sim.recover(2)
        sim.run_for(1_000)
        assert servers[2].global_log_len == 2
        assert decided_logs_agree(servers)
