"""Unit tests for the storage backends: logs, variables, durability."""

import os
import pathlib
import random
import struct
import zlib

import pytest

from repro.encoding import check_encodable
from repro.errors import StorageError, TransportError
from repro.omni import storage as storage_module
from repro.omni.ballot import BOTTOM, Ballot
from repro.omni.entry import Command
from repro.omni.storage import FileStorage, InMemoryStorage, snapshot_state

#: What every WAL file starts with: magic, then the format version.
PREFIX = b"OMNIWAL\x02"


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

    @pytest.mark.parametrize("call", [
        lambda backend: backend._reset_log_to(-5),
        lambda backend: backend._reset_log_to(1),
        lambda backend: backend.install_snapshot({}, -3),
        lambda backend: backend.set_decided_idx(10),
    ], ids=["reset-negative", "reset-below-decided", "snapshot-negative",
            "decided-past-the-log"])
    def test_out_of_range_index_refused_and_nothing_changes(self, storage,
                                                            call):
        storage.append_entries(["a", "b", "c"])
        storage.set_decided_idx(2)
        before = snapshot_state(storage)
        with pytest.raises(StorageError):
            call(storage)
        assert snapshot_state(storage) == before
        assert storage.compacted_idx() == 0
        assert storage.get_snapshot() is None

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
        first_record = (os.path.getsize(str(tmp_path / "probe.bin"))
                        - len(PREFIX))
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
        with pytest.raises(StorageError, match="cannot open"):
            FileStorage(str(tmp_path / "nope" / "wal.bin"))


def framed(body):
    """``body`` as a record whose length and checksum are right."""
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def write_file(tmp_path, content):
    (tmp_path / "wal.bin").write_bytes(content)
    return str(tmp_path / "wal.bin")


def read_file(path):
    return pathlib.Path(path).read_bytes()


#: The file format, byte for byte: one mutator call per record tag and
#: the record it stages (``[u32 len][u32 crc32][tag][argument tuple]``).
#: A change here is a format break: bump the version in ``PREFIX``,
#: append tags, never edit a pin.
GOLDEN_RECORDS = [
    (0, "append_entries",
     ([Command(b"x", 1, 2), Command(b"yz", 3, 400)],),
     "00000017a1047e8600070107021205017803020304120502797a030603a006"),
    (1, "truncate_suffix", (5,), "00000005acaf36fe010701030a"),
    (2, "set_promise", (Ballot(3, 1, 2),),
     "0000000a1ccf228602070110030603020304"),
    (3, "set_accepted_round", (Ballot(4, 0, 5),),
     "0000000aa8010eb00307011003080300030a"),
    (4, "set_decided_idx", (2,), "0000000583f794890407010304"),
    (5, "compact_prefix", (1,), "0000000557f4180c0507010302"),
    (6, "set_snapshot", ({"data": {"k": "v"}, "sessions": {7: 3}}, 1),
     "00000025f56ec1330607020a020604646174610a0106016b060176060873657373"
     "696f6e730a01030e03060302"),
    (7, "_reset_log_to", (9,), "0000000530835b080707010312"),
]
GOLDEN_BODIES = [bytes.fromhex(pin)[8:] for *_, pin in GOLDEN_RECORDS]


class TestGoldenRecords:
    def test_record_tag_table_is_pinned(self):
        assert {tag: mutator.__name__ for tag, (mutator, _)
                in storage_module._RECORDS.items()} == {
            tag: name for tag, name, _, _ in GOLDEN_RECORDS}

    def test_file_is_the_prefix_then_the_pinned_records(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path)
        expected = PREFIX  # travels in the first sync's write
        for _, name, args, pin in GOLDEN_RECORDS:
            getattr(backend, name)(*args)
            assert backend.sync() == 1
            expected += bytes.fromhex(pin)
            assert read_file(path) == expected
        backend.close()

    def test_pinned_bytes_replay_to_the_same_view(self, tmp_path):
        live = InMemoryStorage()
        for _, name, args, _ in GOLDEN_RECORDS:
            getattr(live, name)(*args)
        replayed = FileStorage(write_file(tmp_path, PREFIX + b"".join(
            bytes.fromhex(pin) for *_, pin in GOLDEN_RECORDS)))
        assert vars(live) == {key: value for key, value
                              in vars(replayed).items() if key in vars(live)}
        # A log reset leaves the snapshot alone, live and replayed alike.
        assert replayed.get_snapshot() == (
            {"data": {"k": "v"}, "sessions": {7: 3}}, 1)
        assert replayed.compacted_idx() == replayed.log_len() == 9
        replayed.close()


#: A WAL as PR 12 wrote it (no prefix; bodies in Python's own object
#: serialization, here the literal bytes of ``(0, ["a", "b"])`` and
#: ``(4, 1)``): append two entries, decide one.
PARENT_FORMAT_WAL = (
    framed(b"\x80\x05\x95\x11\x00\x00\x00\x00\x00\x00\x00K\x00]\x94("
           b"\x8c\x01a\x94\x8c\x01b\x94e\x86\x94.")
    + framed(b"\x80\x05\x95\x07\x00\x00\x00\x00\x00\x00\x00K\x04K\x01"
             b"\x86\x94."))


class TestFilePrefix:
    @pytest.mark.parametrize("content, found", [
        (b"Notes from Tuesday.\nBuy a bigger disk.\n" * 3, "no version"),
        (PARENT_FORMAT_WAL, "no version"),
        (b"OMNIWAL\x03" + GOLDEN_BODIES[1], "found version 3"),
    ], ids=["text-file", "parent-format-wal", "later-version"])
    def test_foreign_file_is_refused_and_left_untouched(
            self, tmp_path, content, found):
        """Regression: a file with no valid record used to be called one
        torn tail and truncated to nothing."""
        path = write_file(tmp_path, content)
        with pytest.raises(StorageError, match=found) as refusal:
            FileStorage(path)
        assert "expected version 2" in str(refusal.value)
        assert path in str(refusal.value)
        assert read_file(path) == content

    @pytest.mark.parametrize("keep", range(len(PREFIX)))
    def test_torn_first_write_opens_empty(self, tmp_path, keep):
        path = write_file(tmp_path, PREFIX[:keep])
        backend = FileStorage(path)
        assert backend.log_len() == 0
        backend.append_entry("a")
        backend.close()
        assert read_file(path).startswith(PREFIX)
        reopened = FileStorage(path)
        assert reopened.get_entries(0, 10) == ("a",)
        reopened.close()

    def test_torn_first_record_is_cut_back_to_the_prefix(self, tmp_path):
        record = bytes.fromhex(GOLDEN_RECORDS[0][3])
        path = write_file(tmp_path, PREFIX + record[:-3])
        backend = FileStorage(path)
        assert backend.log_len() == 0
        assert read_file(path) == PREFIX
        backend.append_entry("a")
        backend.close()
        reopened = FileStorage(path)
        assert reopened.get_entries(0, 10) == ("a",)
        reopened.close()


class TestUndecodableRecords:
    """A record whose checksum verifies is still bytes from outside the
    program: one that does not decode or apply makes the open raise
    ``StorageError`` naming the path and the record's byte offset."""

    GOOD = (bytes.fromhex(GOLDEN_RECORDS[0][3])      # two entries
            + bytes.fromhex(GOLDEN_RECORDS[4][3]))  # both decided

    @pytest.mark.parametrize("body, why", [
        (b"\x09\x07\x00", "unknown record tag 9"),
        (b"\x00\x07\x01\xff", "unknown value tag 0xff"),
        (b"\x00\x07\x01\x08\x04", "unknown value tag 0x08"),
        (GOLDEN_BODIES[1] + b"\x00", "1 trailing bytes"),
        (b"\x01\x03\x0a", "not the arguments of truncate_suffix"),
        (b"\x01\x07\x02\x03\x0a\x03\x0a",
         "not the arguments of truncate_suffix"),
        (b"\x01\x07\x01\x06\x01a", "not the arguments of truncate_suffix"),
        (b"\x02\x07\x01\x03\x02", "not the arguments of set_promise"),
        (b"\x00\x07\x01\x06\x02ab", "not the arguments of append_entries"),
        (b"\x00\x07\x01\x07\x05\x00", "IndexError"),
        (b"\x06\x07\x02\x0a\x01\x09\x00\x00\x03\x00", "unhashable"),
        (b"\x01\x07\x01\x03\x02", "refusing to truncate decided"),
        (b"\x04\x07\x01\x03\x02", "decided index must be monotone"),
        (b"\x05\x07\x01\x03\x0a", "cannot compact undecided"),
        (b"\x07\x07\x01\x03\x09", "cannot reset the log below the decided"),
        (b"\x06\x07\x02\x0a\x00\x03\x05", "negative snapshot index: -3"),
        (b"\x04\x07\x01\x03\x14", "decided past the log: 10 > 2"),
    ], ids=["record-tag", "value-tag", "tag-0x08", "trailing", "not-a-tuple",
            "count", "int-type", "ballot-type", "entries-type", "short-value",
            "unhashable-key", "truncate-decided", "decided-backwards",
            "compact-undecided", "reset-negative", "snapshot-negative",
            "decided-past-the-log"])
    def test_open_raises_storage_error_with_the_offset(self, tmp_path, body,
                                                       why):
        content = PREFIX + self.GOOD + framed(body) + self.GOOD
        path = write_file(tmp_path, content)
        offset = len(PREFIX) + len(self.GOOD)
        with pytest.raises(StorageError,
                           match=f"byte offset {offset}: .*{why}") as refusal:
            FileStorage(path)
        assert path in str(refusal.value)
        assert read_file(path) == content

    def test_fuzz_gate_only_storage_error_escapes(self, tmp_path):
        """Whatever a checksummed record holds, the open returns or raises
        ``StorageError`` — nothing else, and nothing is executed."""
        rng = random.Random(20)
        path = str(tmp_path / "wal.bin")
        refused = opened = 0
        for case in range(1_200):
            kind = case % 3
            if kind == 0:
                body = rng.randbytes(rng.randint(1, 64))
            elif kind == 1:  # a real record tag, then anything
                body = bytes([rng.randrange(8)]) + rng.randbytes(
                    rng.randint(0, 48))
            else:
                mutated = bytearray(rng.choice(GOLDEN_BODIES))
                for _ in range(rng.randint(1, 3)):
                    at = rng.randrange(len(mutated))
                    if rng.random() < 0.5:
                        mutated[at] ^= 1 << rng.randrange(8)
                    else:
                        mutated[at] = rng.randrange(256)
                body = bytes(mutated)
            write_file(tmp_path, PREFIX + self.GOOD + framed(body))
            try:
                backend = FileStorage(path)
            except StorageError:
                refused += 1
            else:
                opened += 1  # some mutations are a *different* valid call
                backend.close()
        assert refused > 800 and opened > 20


class TestUnencodableValues:
    """A value the encoding has no schema for is the caller's mistake, not
    a dead disk: it fails at the call, as at ``RuntimeNode.propose``."""

    @pytest.mark.parametrize("call", [
        lambda backend, bad: backend.append_entry(bad),
        lambda backend, bad: backend.append_entries([Command(b"ok"), bad]),
        lambda backend, bad: backend.set_snapshot({"state": bad}, 0),
    ], ids=["append_entry", "append_entries", "set_snapshot"])
    def test_fails_at_the_call_and_changes_nothing(self, tmp_path, call):
        bad = {1, 2}
        with pytest.raises(TransportError) as at_propose:
            check_encodable(bad)
        path = str(tmp_path / "wal.bin")
        backend = FileStorage(path)
        backend.append_entry(Command(b"before"))
        backend.sync()
        with pytest.raises(TransportError) as at_storage:
            call(backend, bad)
        assert str(at_storage.value) == str(at_propose.value)
        assert backend.log_len() == 1
        assert backend.get_snapshot() is None
        assert backend.sync() == 0
        backend.append_entry(Command(b"after"))
        backend.close()
        reopened = FileStorage(path)
        assert reopened.get_entries(0, 10) == (
            Command(b"before"), Command(b"after"))
        reopened.close()
