"""Unit tests for the storage backends: logs, variables, durability."""

import os

import pytest

from repro.errors import StorageError
from repro.omni.ballot import BOTTOM, Ballot
from repro.omni.entry import Command
from repro.omni.storage import FileStorage, InMemoryStorage, snapshot_state


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        yield InMemoryStorage()
    else:
        backend = FileStorage(str(tmp_path / "wal.bin"))
        yield backend
        backend.close()


class TestLogOperations:
    def test_starts_empty(self, storage):
        assert storage.log_len() == 0
        assert storage.get_suffix(0) == ()

    def test_append_entry_returns_length(self, storage):
        assert storage.append_entry("a") == 1
        assert storage.append_entry("b") == 2

    def test_append_entries_batch(self, storage):
        assert storage.append_entries(["a", "b", "c"]) == 3
        assert storage.get_entries(0, 3) == ("a", "b", "c")

    def test_get_entries_clamps_bounds(self, storage):
        storage.append_entries(["a", "b"])
        assert storage.get_entries(-5, 100) == ("a", "b")
        assert storage.get_entries(1, 1) == ()

    def test_get_suffix(self, storage):
        storage.append_entries(["a", "b", "c"])
        assert storage.get_suffix(1) == ("b", "c")
        assert storage.get_suffix(3) == ()

    def test_get_entry_in_range(self, storage):
        storage.append_entries(["a", "b"])
        assert storage.get_entry(1) == "b"

    def test_get_entry_out_of_range_raises(self, storage):
        with pytest.raises(StorageError):
            storage.get_entry(0)

    def test_truncate_suffix(self, storage):
        storage.append_entries(["a", "b", "c"])
        storage.truncate_suffix(1)
        assert storage.get_entries(0, 10) == ("a",)

    def test_truncate_noop_beyond_end(self, storage):
        storage.append_entries(["a"])
        storage.truncate_suffix(5)
        assert storage.log_len() == 1

    def test_truncate_below_decided_refused(self, storage):
        storage.append_entries(["a", "b", "c"])
        storage.set_decided_idx(2)
        with pytest.raises(StorageError):
            storage.truncate_suffix(1)

    def test_truncate_at_decided_allowed(self, storage):
        storage.append_entries(["a", "b", "c"])
        storage.set_decided_idx(2)
        storage.truncate_suffix(2)
        assert storage.log_len() == 2


class TestVariables:
    def test_defaults(self, storage):
        assert storage.get_promise() == BOTTOM
        assert storage.get_accepted_round() == BOTTOM
        assert storage.get_decided_idx() == 0

    def test_promise_roundtrip(self, storage):
        storage.set_promise(Ballot(3, 1, 2))
        assert storage.get_promise() == Ballot(3, 1, 2)

    def test_accepted_round_roundtrip(self, storage):
        storage.set_accepted_round(Ballot(2, 0, 1))
        assert storage.get_accepted_round() == Ballot(2, 0, 1)

    def test_decided_idx_monotone(self, storage):
        storage.append_entries(["a", "b"])
        storage.set_decided_idx(2)
        with pytest.raises(StorageError):
            storage.set_decided_idx(1)

    def test_snapshot_state(self, storage):
        storage.append_entries(["a"])
        state = snapshot_state(storage)
        assert state["log_len"] == 1
        assert state["decided_idx"] == 0


class TestFileDurability:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        first = FileStorage(path)
        first.append_entries([Command(b"x"), Command(b"y")])
        first.set_promise(Ballot(4, 0, 2))
        first.set_accepted_round(Ballot(4, 0, 2))
        first.set_decided_idx(1)
        first.close()
        second = FileStorage(path)
        assert second.log_len() == 2
        assert second.get_promise() == Ballot(4, 0, 2)
        assert second.get_accepted_round() == Ballot(4, 0, 2)
        assert second.get_decided_idx() == 1
        second.close()

    def test_truncation_replays(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        first = FileStorage(path)
        first.append_entries(["a", "b", "c"])
        first.truncate_suffix(1)
        first.append_entry("d")
        first.close()
        second = FileStorage(path)
        assert second.get_entries(0, 10) == ("a", "d")
        second.close()

    def test_torn_final_record_is_discarded(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        first = FileStorage(path)
        first.append_entries(["a", "b"])
        first.close()
        # Simulate a crash mid-write: append garbage half-record.
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x10\x00partial")
        second = FileStorage(path)
        assert second.get_entries(0, 10) == ("a", "b")
        second.close()

    def test_torn_tail_does_not_poison_later_records(self, tmp_path):
        """Regression: the torn tail used to stay in the file, so records
        appended after a recovery landed behind the garbage and the next
        open read the torn header across them."""
        path = str(tmp_path / "wal.bin")
        first = FileStorage(path)
        first.append_entries([Command(b"x"), Command(b"y")])
        first.append_entries([Command(b"z")])
        first.close()
        os.truncate(path, os.path.getsize(path) - 20)
        second = FileStorage(path)
        assert second.log_len() == 2  # the torn record is gone
        second.append_entries([Command(b"w")])
        second.set_decided_idx(3)
        second.close()
        third = FileStorage(path)
        assert third.get_entries(0, 10) == (
            Command(b"x"), Command(b"y"), Command(b"w"))
        assert third.get_decided_idx() == 3
        third.close()

    def test_fsync_mode_writes(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path, sync=True)
        backend.append_entry("a")
        backend.close()
        assert os.path.getsize(path) > 0


class TestGroupCommit:
    def test_mutations_reach_the_file_only_at_sync(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path, sync=True)
        backend.append_entries(["a", "b"])
        backend.set_promise(Ballot(2, 0, 1))
        backend.set_decided_idx(1)
        assert backend.log_len() == 2  # reads see the view at once
        assert os.path.getsize(path) == 0
        assert backend.sync() == 3
        size = os.path.getsize(path)
        assert size > 0
        assert backend.sync() == 0
        assert os.path.getsize(path) == size
        backend.close()

    def test_one_write_and_one_fsync_per_sync(self, tmp_path, monkeypatch):
        backend = FileStorage(str(tmp_path / "wal.bin"), sync=True)
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        for i in range(16):
            backend.append_entry(i)
            backend.set_decided_idx(i + 1)
        assert backend.sync() == 32
        assert len(fsyncs) == 1
        backend.sync()
        assert len(fsyncs) == 1, "nothing pending costs no fsync"
        backend.close()

    def test_unsynced_records_are_lost_without_close(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path)
        backend.append_entry("durable")
        backend.sync()
        backend.append_entry("staged only")
        reopened = FileStorage(path)  # the first process just died
        assert reopened.get_entries(0, 10) == ("durable",)
        reopened.close()

    def test_failed_sync_leaves_file_at_the_last_sync(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path, sync=True)
        backend.append_entry("a")
        backend.sync()
        size = os.path.getsize(path)
        backend.append_entry("b")

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(StorageError):
            backend.sync()
        assert os.path.getsize(path) == size
        monkeypatch.undo()
        assert backend.sync() == 1  # the retry writes the group once
        backend.close()
        reopened = FileStorage(path)
        assert reopened.get_entries(0, 10) == ("a", "b")
        reopened.close()

    def test_in_memory_sync_is_constant(self):
        backend = InMemoryStorage()
        backend.append_entry("a")
        assert backend.sync() == 0


class TestChecksummedFraming:
    """Records are ``[u32 len][u32 crc32][body]``: a bad record with
    nothing valid after it is a torn tail, one with a valid record after
    it is corruption and refuses to open."""

    @staticmethod
    def _wal(tmp_path, groups=3):
        """A WAL of ``groups`` one-record syncs; returns the path and the
        file size after each."""
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path)
        ends = []
        for i in range(groups):
            backend.append_entries([Command(b"payload-%d" % i, 1, i)])
            backend.sync()
            ends.append(os.path.getsize(path))
        backend.close()
        return path, ends

    @staticmethod
    def _flip(path, offset):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ 0x40]))

    def test_bit_flip_in_the_middle_raises_with_offset(self, tmp_path):
        path, ends = self._wal(tmp_path)
        self._flip(path, ends[0] + 12)  # in the second record's body
        with pytest.raises(StorageError, match=f"byte offset {ends[0]}"):
            FileStorage(path)

    def test_bit_flip_in_a_length_field_mid_file_raises(self, tmp_path):
        path, ends = self._wal(tmp_path)
        self._flip(path, ends[0])  # the record now claims to run past EOF
        with pytest.raises(StorageError, match=f"byte offset {ends[0]}"):
            FileStorage(path)

    def test_bit_flip_in_the_last_record_is_a_torn_tail(self, tmp_path):
        path, ends = self._wal(tmp_path)
        self._flip(path, ends[1] + 12)
        backend = FileStorage(path)
        assert backend.log_len() == 2
        assert os.path.getsize(path) == ends[1], "tail cut off the file"
        backend.close()

    @pytest.mark.parametrize("keep", [3, 8, 11])
    def test_truncated_header_or_body(self, tmp_path, keep):
        path, ends = self._wal(tmp_path)
        os.truncate(path, ends[1] + keep)  # 3: header, 8/11: body
        backend = FileStorage(path)
        assert backend.log_len() == 2
        assert os.path.getsize(path) == ends[1]
        backend.close()

    def test_group_write_torn_between_two_records(self, tmp_path):
        """A group whose write stopped at a record boundary: the records
        that made it are kept, the rest never happened."""
        probe = FileStorage(str(tmp_path / "probe.bin"))
        probe.append_entry("b")
        probe.close()
        first_record = os.path.getsize(str(tmp_path / "probe.bin"))
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path)
        backend.append_entry("a")
        backend.sync()
        before_group = os.path.getsize(path)
        backend.append_entry("b")
        backend.set_decided_idx(2)
        backend.close()
        os.truncate(path, before_group + first_record)
        reopened = FileStorage(path)
        assert reopened.get_entries(0, 10) == ("a", "b")
        assert reopened.get_decided_idx() == 0
        assert os.path.getsize(path) == before_group + first_record
        reopened.close()

    def test_zero_filled_tail_is_not_a_record(self, tmp_path):
        path, ends = self._wal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 64)  # preallocated, never written
        backend = FileStorage(path)
        assert backend.log_len() == 3
        assert os.path.getsize(path) == ends[2]
        backend.close()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises((StorageError, OSError)):
            FileStorage(str(tmp_path / "nope" / "wal.bin"))
