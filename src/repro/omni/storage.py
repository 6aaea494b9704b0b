"""Storage backends for Sequence Paxos replicas.

The paper assumes the fail-recovery model: "State stored in non-volatile
storage is recoverable" (section 3). A replica persists four things:

- the log of accepted entries,
- ``promise`` — the highest round it has promised (nProm),
- ``acc_rnd`` — the round its accepted log was written in,
- ``decided_idx`` — the length of the decided prefix.

:class:`InMemoryStorage` is used by the simulator (crash-recovery tests keep
the storage object across a simulated crash) and is the one place a
mutation of that state is written. :class:`FileStorage` is the same view
plus a write-ahead journal of the mutator calls that made it — checksummed
records in the value encoding of the wire (:mod:`repro.encoding`) — and
replay is those calls again, through the same code; for use with the
asyncio runtime and the failure-injection tests.

Durability is a *batch boundary*, not a per-record cost. Mutators change
the in-memory view (and, in :class:`FileStorage`, stage a record);
``sync()`` makes everything staged so far durable with one write and one
fsync, and is ``write()`` then ``fsync()``, which a caller may split
across threads. The replica writes before any message or decided entry
leaves, and everything that attests the written state waits for the
fsync (``OmniPaxosServer.take_outbox`` / ``take_decided`` sync inline;
``take_ready`` leaves the fsync to the caller). So nothing a peer or a
client is told can be ahead of the log, the promise or the accepted round
on disk, and all the records of one hand-out cycle share one fsync (group
commit). The one message allowed ahead is the leader's ``AcceptDecide``:
it attests no state of the leader's own (docs/CORRECTNESS.md).

The decided index is the exception: a restarted server learns it again
from the leader (paper section 4.1.3), so it is not worth an fsync of its
own. A decided-index record waits, staged in order, for the next
``sync()`` that has any other record to write, or for ``close()``. A
power cut can only lose a suffix of the records, so replay yields a
decided index that lags the entries on disk, never one ahead of them.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.omni.ballot import Ballot, BOTTOM

_REC_APPEND = 0
_REC_TRUNCATE = 1
_REC_PROMISE = 2
_REC_ACC_RND = 3
_REC_DECIDED = 4
_REC_COMPACT = 5
_REC_SNAPSHOT = 6
_REC_RESET = 7

#: Record header: body length, CRC-32 of the body.
_HEAD = struct.Struct(">II")

#: What every WAL starts with: a magic and the format version. Version 1
#: is the unmarked format of PR 12 (same framing, bodies in Python's own
#: object serialization); there is no reader for it.
_MAGIC = b"OMNIWAL"
_VERSION = 2
_PREFIX = _MAGIC + bytes((_VERSION,))


class Storage(ABC):
    """Persistent state of one Sequence Paxos replica.

    Log indices are *logical* and stable across compaction: after
    :meth:`compact_prefix`, entries below :meth:`compacted_idx` are gone
    from storage but every surviving entry keeps its original index.

    Every concrete storage must also define ``sync() -> int``: make every
    mutation since the previous call durable and return how many records
    it wrote (0 when it wrote none). Reads see a mutation at once, but a
    crash may lose it until ``sync()`` has returned, so whoever drives a
    replica calls it before letting out anything that attests the mutated
    state (a ``Promise``, an ``Accepted``, a decided entry); a decided
    index alone may stay volatile past it (see the module docstring). Its
    two halves go with it: ``write() -> int`` does what ``sync()`` does
    short of waiting for the disk and returns how many records now wait
    for ``fsync()``, which may run on another thread. These are
    deliberately *not* declared on this class, abstract or concrete:
    delegating proxies outside ``src/`` subclass the ABC and forward
    unknown attributes to the storage they wrap, so an inherited default
    would shadow the forwarding and silently turn the fsync off.
    """

    # -- log --------------------------------------------------------------

    @abstractmethod
    def append_entry(self, entry: Any) -> int:
        """Append one entry; return the new log length."""

    @abstractmethod
    def append_entries(self, entries: Sequence[Any]) -> int:
        """Append several entries; return the new log length."""

    @abstractmethod
    def truncate_suffix(self, from_idx: int) -> None:
        """Drop every entry at index >= ``from_idx``."""

    @abstractmethod
    def get_entries(self, from_idx: int, to_idx: int) -> Tuple[Any, ...]:
        """Entries in ``[from_idx, to_idx)``; clamped to the log bounds."""

    @abstractmethod
    def log_len(self) -> int:
        """Number of entries in the log."""

    def get_suffix(self, from_idx: int) -> Tuple[Any, ...]:
        """Entries from ``from_idx`` to the end of the log."""
        return self.get_entries(from_idx, self.log_len())

    def get_entry(self, idx: int) -> Any:
        entries = self.get_entries(idx, idx + 1)
        if not entries:
            raise StorageError(f"log index {idx} out of range")
        return entries[0]

    # -- compaction ---------------------------------------------------------

    @abstractmethod
    def compact_prefix(self, idx: int) -> None:
        """Reclaim entries below logical index ``idx``.

        Only decided entries may be compacted; callers (Sequence Paxos'
        trim) additionally ensure every server in the configuration has
        decided past ``idx`` so nobody will ever need the prefix again.
        """

    @abstractmethod
    def compacted_idx(self) -> int:
        """First logical index still present in storage."""

    # -- snapshots ------------------------------------------------------------

    @abstractmethod
    def set_snapshot(self, state: Any, covers_idx: int) -> None:
        """Record a snapshot folding entries ``[0, covers_idx)``."""

    @abstractmethod
    def get_snapshot(self) -> Optional[Tuple[Any, int]]:
        """The stored ``(state, covers_idx)`` snapshot, if any."""

    def install_snapshot(self, state: Any, covers_idx: int) -> None:
        """Adopt a snapshot received from the leader.

        Everything below ``covers_idx`` — possibly the whole log — is
        replaced by ``state``; the log's logical length becomes at least
        ``covers_idx`` and the decided index advances to cover it.
        """
        if covers_idx <= self.compacted_idx():
            self.set_snapshot(state, covers_idx)
            return
        # Drop every entry below covers_idx, then mark them compacted. If
        # the local log is shorter than covers_idx, it is discarded whole
        # (those entries are superseded by the snapshot).
        if covers_idx >= self.log_len():
            self._reset_log_to(covers_idx)
        else:
            if covers_idx > self.get_decided_idx():
                self.set_decided_idx(covers_idx)
            self.compact_prefix(covers_idx)
        if covers_idx > self.get_decided_idx():
            self.set_decided_idx(covers_idx)
        self.set_snapshot(state, covers_idx)

    @abstractmethod
    def _reset_log_to(self, logical_len: int) -> None:
        """Discard the whole log, leaving an empty log whose compacted (and
        logical) length is ``logical_len``. Snapshot-install plumbing."""

    # -- paxos variables ---------------------------------------------------

    @abstractmethod
    def set_promise(self, ballot: Ballot) -> None: ...

    @abstractmethod
    def get_promise(self) -> Ballot: ...

    @abstractmethod
    def set_accepted_round(self, ballot: Ballot) -> None: ...

    @abstractmethod
    def get_accepted_round(self) -> Ballot: ...

    @abstractmethod
    def set_decided_idx(self, idx: int) -> None: ...

    @abstractmethod
    def get_decided_idx(self) -> int: ...


class InMemoryStorage(Storage):
    """Volatile storage; survives *simulated* crashes because the test
    harness keeps the object and hands it to the restarted replica."""

    def __init__(self) -> None:
        self._log: List[Any] = []
        self._compacted = 0
        self._snapshot: Optional[Tuple[Any, int]] = None
        self._promise: Ballot = BOTTOM
        self._acc_rnd: Ballot = BOTTOM
        self._decided_idx: int = 0

    def sync(self) -> int:
        return 0  # nothing to persist: the object *is* the durable state

    def write(self) -> int:
        return self.sync()  # durable as written: nothing waits for fsync()

    def fsync(self) -> None:
        pass

    def append_entry(self, entry: Any) -> int:
        self._log.append(entry)
        return self.log_len()

    def append_entries(self, entries: Sequence[Any]) -> int:
        self._log.extend(entries)
        return self.log_len()

    def truncate_suffix(self, from_idx: int) -> None:
        if from_idx < self._decided_idx:
            raise StorageError(
                f"refusing to truncate decided entries: {from_idx} < {self._decided_idx}"
            )
        del self._log[max(from_idx - self._compacted, 0):]

    def get_entries(self, from_idx: int, to_idx: int) -> Tuple[Any, ...]:
        from_idx = max(0, from_idx)
        if from_idx < self._compacted and from_idx < to_idx:
            raise StorageError(
                f"index {from_idx} was compacted away (first kept: "
                f"{self._compacted})"
            )
        lo = from_idx - self._compacted
        hi = max(to_idx - self._compacted, lo)
        return tuple(self._log[lo:hi])

    def log_len(self) -> int:
        return self._compacted + len(self._log)

    def compact_prefix(self, idx: int) -> None:
        if idx > self._decided_idx:
            raise StorageError(
                f"cannot compact undecided entries: {idx} > {self._decided_idx}"
            )
        if idx <= self._compacted:
            return
        del self._log[:idx - self._compacted]
        self._compacted = idx

    def compacted_idx(self) -> int:
        return self._compacted

    def set_snapshot(self, state: Any, covers_idx: int) -> None:
        if covers_idx < 0:
            raise StorageError(f"negative snapshot index: {covers_idx}")
        self._snapshot = (state, covers_idx)

    def get_snapshot(self) -> Optional[Tuple[Any, int]]:
        return self._snapshot

    def _reset_log_to(self, logical_len: int) -> None:
        if logical_len < self._decided_idx:
            raise StorageError(f"cannot reset the log below the decided "
                               f"index: {logical_len} < {self._decided_idx}")
        self._log = []
        self._compacted = self._decided_idx = logical_len

    def set_promise(self, ballot: Ballot) -> None:
        self._promise = ballot

    def get_promise(self) -> Ballot:
        return self._promise

    def set_accepted_round(self, ballot: Ballot) -> None:
        self._acc_rnd = ballot

    def get_accepted_round(self) -> Ballot:
        return self._acc_rnd

    def set_decided_idx(self, idx: int) -> None:
        if idx < self._decided_idx:
            raise StorageError(
                f"decided index must be monotone: {idx} < {self._decided_idx}"
            )
        if idx > self.log_len():
            raise StorageError(f"decided past the log: {idx} > {self.log_len()}")
        self._decided_idx = idx

    def get_decided_idx(self) -> int:
        return self._decided_idx


#: The journal's schema: record tag -> the :class:`InMemoryStorage`
#: mutator a record of that tag stands for — called when the record is
#: staged and again when it is replayed — and the classes of its
#: arguments. Tags are file format: append, never renumber.
_RECORDS: Dict[int, Tuple[Callable[..., Any], Tuple[type, ...]]] = {
    _REC_APPEND: (InMemoryStorage.append_entries, (tuple,)),
    _REC_TRUNCATE: (InMemoryStorage.truncate_suffix, (int,)),
    _REC_PROMISE: (InMemoryStorage.set_promise, (Ballot,)),
    _REC_ACC_RND: (InMemoryStorage.set_accepted_round, (Ballot,)),
    _REC_DECIDED: (InMemoryStorage.set_decided_idx, (int,)),
    _REC_COMPACT: (InMemoryStorage.compact_prefix, (int,)),
    _REC_SNAPSHOT: (InMemoryStorage.set_snapshot, (object, int)),
    _REC_RESET: (InMemoryStorage._reset_log_to, (int,)),
}

#: The mutators whose records are lazy: a ``sync()`` with only these
#: pending writes nothing (see the module docstring). Every storage that
#: models durability reads this set.
LAZY_MUTATORS = frozenset({"set_decided_idx"})
_LAZY_TAGS = frozenset(tag for tag, (mutator, _) in _RECORDS.items()
                       if mutator.__name__ in LAZY_MUTATORS)


def _record_end(data: memoryview, start: int) -> Optional[int]:
    """The offset just past the record at ``start`` when it is whole and
    its checksum verifies, else ``None``."""
    body = start + _HEAD.size
    if body > len(data):
        return None
    size, crc = _HEAD.unpack_from(data, start)
    end = body + size
    # No record has an empty body, and eight zero bytes would otherwise
    # verify (crc32(b"") == 0): a zero-filled tail must not read as valid.
    if size == 0 or end > len(data) or zlib.crc32(data[body:end]) != crc:
        return None
    return end


class FileStorage(InMemoryStorage):
    """:class:`InMemoryStorage` plus a journal of the mutator calls that
    made it: an append-only file, replayed on open.

    The file is :data:`_PREFIX` (a magic and the format version), then
    records ``[u32 length][u32 crc32][body]``; a body is one record tag
    and the call's argument tuple in the tagged value encoding of
    :mod:`repro.encoding`, written and parsed by the two functions that
    write and parse a frame's payload. Every read is inherited. A mutator
    is the inherited one plus one staged record (:meth:`_journal`), and
    replay feeds each decoded record to the same inherited mutator, its
    guards included. :meth:`sync` appends everything staged with one
    ``write`` and, with ``sync=True``, one ``fsync`` — so a mutation is
    durable once the next :meth:`sync` (or :meth:`close`) has returned,
    not before; or, split, once a :meth:`fsync` that started after the
    :meth:`write` has returned. A decided-index record is lazy: a
    :meth:`sync` with nothing else staged writes nothing, and the record
    goes in the next write that has another record behind it.

    A value the encoding has no schema for raises
    :class:`~repro.errors.TransportError` at the mutator call, as
    ``RuntimeNode.propose`` does: the caller's mistake, not a dead disk,
    so not a ``StorageError``. A call that raises, for that or for a
    refused index, leaves the view and the staged bytes as they were.

    Opening raises :class:`~repro.errors.StorageError`, and leaves the
    file alone, for a file that does not start with the prefix (another
    format version, or no WAL at all — a strict prefix of it is the torn
    first write and opens empty) and for a record whose checksum verifies
    but which does not decode or apply. Replay stops at a record that is
    short or fails its checksum. If no valid record follows, it is the
    tail a crash tore: it is cut off the file, so later records are never
    written behind garbage. If a valid record does follow, the damage is
    in the middle of the log and opening raises ``StorageError``. Both
    errors name the byte offset.
    """

    def __init__(self, path: str, sync: bool = False) -> None:
        super().__init__()
        # The schema table imports every protocol and the protocols
        # import this module: resolved here, not at import time.
        from repro.encoding import read_value, write_value
        self._write_value = write_value
        self._path = path
        self._sync = sync
        #: Framed records staged since the last sync, how many, and
        #: whether one of them is not a (lazy) decided index.
        self._pending = bytearray()
        self._pending_records = 0
        self._pending_eager = False
        #: Writes made, and how many of them an fsync covers; the lock
        #: guards the second against an fsync on another thread.
        self._writes = self._fsynced = 0
        self._fsynced_lock = threading.Lock()
        #: Length of the file's verified prefix, as written.
        self._size = self._replay(read_value)
        try:
            # Unbuffered: sync() is then exactly one write system call.
            self._file = open(path, "ab", buffering=0)
        except OSError as exc:
            raise StorageError(f"cannot open {path}: {exc}") from exc
        try:
            self._file.truncate(self._size)
        except OSError as exc:
            self._file.close()
            raise StorageError(f"cannot truncate {path}: {exc}") from exc
        self._fd = self._file.fileno()

    # -- record plumbing ---------------------------------------------------

    def _replay(self, read_value: Callable[[bytes, int], Tuple[Any, int]]
                ) -> int:
        """Rebuild the view from the file; returns the offset just past
        the last good record."""
        if not os.path.exists(self._path):
            return 0
        try:
            with open(self._path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise StorageError(f"cannot read {self._path}: {exc}") from exc
        head = raw[:len(_PREFIX)]
        if head != _PREFIX:
            if _PREFIX.startswith(head):
                return 0  # the first write was torn (or never made)
            found = (f"version {head[len(_MAGIC)]}"
                     if head.startswith(_MAGIC) else
                     "no version mark (an earlier format, or not a WAL)")
            raise StorageError(
                f"{self._path}: unsupported WAL format: found {found}, "
                f"expected version {_VERSION}; the file is left untouched")
        data = memoryview(raw)
        start = len(_PREFIX)
        while start < len(data):
            end = _record_end(data, start)
            if end is None:
                for probe in range(start + 1, len(data) - _HEAD.size):
                    if _record_end(data, probe) is not None:
                        raise StorageError(
                            f"{self._path}: corrupt record at byte offset "
                            f"{start} (a valid record follows at {probe})")
                break  # a torn tail: nothing after it was ever synced
            # The checksum says these are the bytes that were written, not
            # that this program wrote them: decode and apply strictly.
            body = raw[start + _HEAD.size:end]
            try:
                if body[0] not in _RECORDS:
                    raise ValueError(f"unknown record tag {body[0]}")
                mutator, classes = _RECORDS[body[0]]
                args, pos = read_value(body, 1)
                if pos != len(body):
                    raise ValueError(f"{len(body) - pos} trailing bytes")
                if (args.__class__ is not tuple
                        or len(args) != len(classes)
                        or not all(map(isinstance, args, classes))):
                    raise TypeError(
                        f"not the arguments of {mutator.__name__}")
                mutator(self, *args)
            except Exception as exc:
                raise StorageError(
                    f"{self._path}: undecodable record at byte offset "
                    f"{start}: {exc!r}") from exc
            start = end
        return start

    def _journal(self, tag: int, *args: Any) -> Any:
        """One mutation: the inherited mutator, then its staged record."""
        body = bytearray((tag,))
        self._write_value(body, args)  # unencodable: nothing has changed
        result = _RECORDS[tag][0](self, *args)  # refused: nothing staged
        if not (self._size or self._pending):
            self._pending += _PREFIX  # travels in the first sync's write
        self._pending += _HEAD.pack(len(body), zlib.crc32(body))
        self._pending += body
        self._pending_records += 1
        self._pending_eager |= tag not in _LAZY_TAGS
        return result

    def sync(self) -> int:
        """Make every staged record durable, unless the only ones are
        lazy (:data:`LAZY_MUTATORS`); returns how many records it wrote.
        A :meth:`write` no fsync has covered yet is made durable too."""
        if self._pending_eager:
            return self._write_pending()
        if self._fsynced < self._writes:
            self.fsync()
        return 0

    def write(self) -> int:
        """:meth:`sync` short of the fsync: one ``write`` of the staged
        records, unless the only ones are lazy; returns how many records
        it wrote, which are durable once a :meth:`fsync` started after
        this call has returned."""
        return self._write_pending(fsync=False) if self._pending_eager else 0

    def fsync(self) -> None:
        """Wait until everything written so far is on the disk (nothing
        with ``sync=False``). Thread-safe against the other methods except
        :meth:`close`. On failure it raises :class:`StorageError` and
        leaves the file alone: another write may already follow the one
        it could not make durable, and replay cuts a torn tail."""
        covers = self._writes
        if self._sync:
            try:
                os.fsync(self._fd)
            except OSError as exc:
                raise StorageError(
                    f"cannot fsync {self._path}: {exc}") from exc
        with self._fsynced_lock:
            self._fsynced = max(self._fsynced, covers)

    def _write_pending(self, fsync: bool = True) -> int:
        pending = self._pending
        if not pending:
            return 0
        try:
            if self._file.write(pending) != len(pending):
                raise OSError("short write")
            if fsync and self._sync:
                os.fsync(self._fd)
        except OSError as exc:
            # Put the file back as the last sync left it: part of this
            # group followed by a retry of all of it would bury a torn
            # record in the middle of the log, which replay refuses.
            with contextlib.suppress(OSError):
                self._file.truncate(self._size)
            raise StorageError(f"cannot write {self._path}: {exc}") from exc
        self._size += len(pending)
        self._writes += 1
        if fsync:
            with self._fsynced_lock:
                self._fsynced = self._writes
        self._pending = bytearray()
        self._pending_eager = False
        records, self._pending_records = self._pending_records, 0
        return records

    def close(self) -> None:
        try:
            self._write_pending()
            if self._fsynced < self._writes:
                self.fsync()
        finally:
            self._file.close()

    # -- Storage API: the mutators ---------------------------------------------

    def append_entry(self, entry: Any) -> int:
        return self._journal(_REC_APPEND, (entry,))

    def append_entries(self, entries: Sequence[Any]) -> int:
        return self._journal(_REC_APPEND, tuple(entries))

    def truncate_suffix(self, from_idx: int) -> None:
        self._journal(_REC_TRUNCATE, from_idx)

    def compact_prefix(self, idx: int) -> None:
        self._journal(_REC_COMPACT, idx)

    def set_snapshot(self, state: Any, covers_idx: int) -> None:
        self._journal(_REC_SNAPSHOT, state, covers_idx)

    def _reset_log_to(self, logical_len: int) -> None:
        self._journal(_REC_RESET, logical_len)

    def set_promise(self, ballot: Ballot) -> None:
        self._journal(_REC_PROMISE, ballot)

    def set_accepted_round(self, ballot: Ballot) -> None:
        self._journal(_REC_ACC_RND, ballot)

    def set_decided_idx(self, idx: int) -> None:
        self._journal(_REC_DECIDED, idx)


def snapshot_state(storage: Storage) -> Optional[dict]:
    """Debugging helper: a dict view of the persistent state."""
    return {
        "log_len": storage.log_len(),
        "promise": storage.get_promise(),
        "acc_rnd": storage.get_accepted_round(),
        "decided_idx": storage.get_decided_idx(),
    }
