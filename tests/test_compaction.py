"""Tests for log compaction (trim), storage- and protocol-level."""

import pytest

from repro.errors import CompactionError, NotLeaderError, StorageError
from repro.omni.ballot import Ballot
from repro.omni.entry import Command
from repro.omni.messages import Trim
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import FileStorage, InMemoryStorage

from tests.conftest import build_omni_cluster, run_until_leader
from tests.test_sequence_paxos import Shuttle, cmd, make_sp


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        yield InMemoryStorage()
    else:
        backend = FileStorage(str(tmp_path / "wal.bin"))
        yield backend
        backend.close()


class TestStorageCompaction:
    def test_compact_keeps_logical_indices(self, storage):
        storage.append_entries(list("abcdef"))
        storage.set_decided_idx(4)
        storage.compact_prefix(3)
        assert storage.compacted_idx() == 3
        assert storage.log_len() == 6
        assert storage.get_entries(3, 6) == ("d", "e", "f")
        assert storage.get_entry(4) == "e"

    def test_reading_compacted_range_raises(self, storage):
        storage.append_entries(list("abcd"))
        storage.set_decided_idx(3)
        storage.compact_prefix(2)
        with pytest.raises(StorageError):
            storage.get_entries(0, 4)

    def test_empty_read_at_boundary_ok(self, storage):
        storage.append_entries(list("abcd"))
        storage.set_decided_idx(3)
        storage.compact_prefix(2)
        assert storage.get_entries(1, 1) == ()

    def test_cannot_compact_undecided(self, storage):
        storage.append_entries(list("abc"))
        storage.set_decided_idx(1)
        with pytest.raises(StorageError):
            storage.compact_prefix(2)

    def test_compact_idempotent(self, storage):
        storage.append_entries(list("abc"))
        storage.set_decided_idx(3)
        storage.compact_prefix(2)
        storage.compact_prefix(1)  # lower: no-op
        storage.compact_prefix(2)  # same: no-op
        assert storage.compacted_idx() == 2

    def test_append_after_compact(self, storage):
        storage.append_entries(list("ab"))
        storage.set_decided_idx(2)
        storage.compact_prefix(2)
        assert storage.append_entry("c") == 3
        assert storage.get_entry(2) == "c"

    def test_truncate_after_compact(self, storage):
        storage.append_entries(list("abcde"))
        storage.set_decided_idx(2)
        storage.compact_prefix(2)
        storage.truncate_suffix(3)
        assert storage.log_len() == 3
        assert storage.get_entries(2, 3) == ("c",)

    def test_file_compaction_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.wal")
        first = FileStorage(path)
        first.append_entries(list("abcdef"))
        first.set_decided_idx(5)
        first.compact_prefix(4)
        first.close()
        second = FileStorage(path)
        assert second.compacted_idx() == 4
        assert second.log_len() == 6
        assert second.get_entries(4, 6) == ("e", "f")
        second.close()


class TestSequencePaxosTrim:
    def replicated_trio(self, count=6):
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        net = Shuttle(nodes)
        net.elect(1)
        for i in range(count):
            nodes[1].propose(cmd(i))
        net.deliver_all()
        return nodes, net

    def test_leader_trims_cluster_wide(self):
        nodes, net = self.replicated_trio()
        trimmed = nodes[1].trim()
        net.deliver_all()
        assert trimmed == 6
        for node in nodes.values():
            assert node.compacted_idx == 6
            assert node.log_len == 6

    def test_partial_trim(self):
        nodes, net = self.replicated_trio()
        assert nodes[1].trim(3) == 3
        net.deliver_all()
        assert all(n.compacted_idx == 3 for n in nodes.values())

    def test_trim_beyond_safe_rejected(self):
        nodes, net = self.replicated_trio()
        with pytest.raises(CompactionError):
            nodes[1].trim(99)

    def test_follower_cannot_trim(self):
        nodes, net = self.replicated_trio()
        with pytest.raises(NotLeaderError):
            nodes[2].trim()

    def test_trim_blocked_by_silent_follower(self):
        """A follower that never reported its decided index blocks the trim
        (its prefix might still be needed)."""
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        net = Shuttle(nodes)
        net.cut(1, 3)
        net.elect(1)
        nodes[1].propose(cmd(0))
        net.deliver_all()
        assert nodes[1].decided_idx == 1  # via {1, 2}
        with pytest.raises(CompactionError):
            nodes[1].trim(1)

    def test_replication_continues_after_trim(self):
        nodes, net = self.replicated_trio()
        nodes[1].trim()
        net.deliver_all()
        nodes[1].propose(cmd(100))
        net.deliver_all()
        for node in nodes.values():
            assert node.log_len == 7
            assert node.decided_idx == 7

    def test_leader_change_after_trim(self):
        """A new leader's Prepare-phase sync still works with compacted
        prefixes everywhere (indices stay logical)."""
        nodes, net = self.replicated_trio()
        nodes[1].trim()
        net.deliver_all()
        net.elect(2, n=2)
        net.deliver_all()
        nodes[2].propose(cmd(200))
        net.deliver_all()
        assert all(n.decided_idx == 7 for n in nodes.values())

    def test_stale_trim_message_ignored(self):
        nodes, net = self.replicated_trio()
        nodes[2].on_message(1, Trim(n=Ballot(0, 0, 9), trimmed_idx=6))
        assert nodes[2].compacted_idx == 0

    def test_trim_clamped_to_local_decided(self):
        """A follower whose Decide was lost only trims what it knows is
        decided (defensive clamp)."""
        follower = make_sp(2)
        follower.storage.append_entries([cmd(0), cmd(1)])
        follower.storage.set_promise(Ballot(1, 0, 1))
        follower.storage.set_decided_idx(1)
        follower.on_message(1, Trim(n=Ballot(1, 0, 1), trimmed_idx=2))
        assert follower.compacted_idx == 1


class TestServerOverTrimmedStorage:
    def test_restart_on_a_trimmed_file_storage(self, tmp_path):
        """A server restarts on a WAL whose prefix was trimmed: the
        service layer counts the decided prefix and reads nothing of it."""
        def server():
            return OmniPaxosServer(OmniPaxosConfig(
                pid=1, cluster=ClusterConfig(0, (1,)),
                storage_factory=lambda _cid: FileStorage(
                    str(tmp_path / "s.wal"))))

        first = server()
        first.start(0.0)
        for now in range(10, 510, 10):
            first.tick(float(now))
            first.take_outbox()
        assert first.is_leader
        for i in range(10):
            first.propose(Command(b"x", client_id=1, seq=i), 500.0)
        first.take_outbox()
        assert len(first.take_decided()) == 10
        assert first.sp_of_current().trim(5) == 5
        first.sp_of_current().storage.close()
        second = server()
        second.start(0.0)
        assert second.global_log_len == 10
        assert [e.seq for e in second.read_log(5)] == [5, 6, 7, 8, 9]
        with pytest.raises(StorageError):
            second.read_log(4)  # compacted away


class TestTrimRecoveryRegression:
    """Regression: recovering a replica whose log was fully compacted used
    to crash in stop-sign detection (found by the chaos soak)."""

    def test_recover_after_full_trim(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        for i in range(5):
            sim.propose(leader, Command(b"x", client_id=1, seq=i))
        sim.run_for(100)
        servers[leader].sp_of_current().trim()
        sim.run_for(100)
        follower = next(p for p in servers if p != leader)
        sim.crash(follower)
        sim.recover(follower)  # used to raise StorageError
        sim.run_for(500)
        sim.propose(leader, Command(b"x", client_id=1, seq=99))
        sim.run_for(200)
        assert servers[follower].sp_of_current().decided_idx == 6

    def test_trim_never_compacts_stopsign(self):
        from tests.test_sequence_paxos import Shuttle, cmd, make_sp
        nodes = {pid: make_sp(pid) for pid in (1, 2, 3)}
        net = Shuttle(nodes)
        net.elect(1)
        for i in range(4):
            nodes[1].propose(cmd(i))
        net.deliver_all()
        nodes[1].propose_reconfiguration((1, 2))
        net.deliver_all()
        trimmed = nodes[1].trim()
        net.deliver_all()
        assert trimmed == 4  # everything up to, but excluding, the SS
        assert nodes[1].stopsign_decided() is not None  # still readable
