"""Fault-injecting storage wrapper for failure testing.

:class:`FaultyStorage` wraps any :class:`~repro.omni.storage.Storage` and
fails writes on demand (disk-full, flaky media). Sequence Paxos does not
swallow storage failures — a replica that cannot persist must crash rather
than acknowledge unpersisted state, which is what the fail-recovery model
(paper section 3) assumes. The failure-injection tests assert exactly that:
errors propagate, and after the fault clears the replica recovers through
the normal fail-recovery path with no safety loss.

The ``torn`` mode additionally persists a prefix of a batched append before
failing — the on-disk state a power cut leaves mid-batch — to assert that
recovery treats the torn suffix as never written (un-acked entries may be
lost; acked ones may not).

:meth:`FaultyStorage.power_cut` is the durability test proper: it throws
away everything written since the last ``sync()`` returned, which is what
survives when the machine loses power rather than the process dying (a
decided index counts as synced only behind another write, as in
:class:`~repro.omni.storage.FileStorage`). It makes the replica's
durability barrier falsifiable — a replica that lets an acknowledgement
out before ``sync()`` loses acknowledged entries under it.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.omni.ballot import Ballot
from repro.omni.storage import LAZY_MUTATORS, InMemoryStorage, Storage


def _image_of(storage: Storage) -> InMemoryStorage:
    """An in-memory copy of ``storage``'s current state."""
    image = InMemoryStorage()
    first = storage.compacted_idx()
    image._reset_log_to(first)
    image.append_entries(storage.get_entries(first, storage.log_len()))
    image.set_promise(storage.get_promise())
    image.set_accepted_round(storage.get_accepted_round())
    image.set_decided_idx(storage.get_decided_idx())
    snapshot = storage.get_snapshot()
    if snapshot is not None:
        image.set_snapshot(*snapshot)
    return image


class FaultyStorage(Storage):
    """A storage decorator whose writes can be made to fail — or limp.

    ``fail_after`` arms a countdown: that many more writes succeed, then
    every write raises :class:`StorageError` until :meth:`heal` is called.
    Reads always succeed (the medium is readable; appends are not).

    ``slow_writes`` is the *fail-slow* mode (``slow_disk`` chaos fault):
    writes keep succeeding but each one reports a service-time stall
    through :attr:`on_write_stall` — the hook a driver (the sim cluster)
    uses to charge the owning server's event loop for the blocked fsync.
    A slow disk is deliberately not an error: the server stays alive and
    heartbeat-reachable, which is exactly the gray failure that fail-stop
    detectors miss.
    """

    #: Supported failure modes: ``"fail"`` rejects the whole write;
    #: ``"torn"`` additionally persists a *prefix* of the batch on the
    #: triggering ``append_entries`` (a power cut mid-batch).
    MODES = ("fail", "torn")

    def __init__(self, inner: Storage):
        self._inner = inner
        self._writes_until_failure: Optional[int] = None
        self._failing = False
        self._mode = "fail"
        self._just_tripped = False
        #: Fail-slow: per-write service time (ms); 0.0 = healthy disk.
        self._slow_ms = 0.0
        #: Called with the stall (ms) for every write while slow mode is
        #: armed; wired by the driver that owns the clock.
        self.on_write_stall: Optional[Callable[[float], None]] = None
        self.writes_attempted = 0
        self.writes_failed = 0
        self.writes_slowed = 0
        self.entries_torn = 0
        #: What a power cut would leave: the wrapped storage's state as of
        #: the last sync(), kept current by replaying onto it, at each
        #: sync, the mutations made since the one before.
        self._durable = _image_of(inner)
        self._unsynced: List[Tuple[str, Tuple[Any, ...]]] = []
        #: Mutations a :meth:`write` passed on that await their :meth:`fsync`.
        self._written: List[Tuple[str, Tuple[Any, ...]]] = []

    # -- fault control ------------------------------------------------------

    def fail_after(self, writes: int, mode: str = "fail") -> None:
        """Let ``writes`` more writes succeed, then fail all writes.

        With ``mode="torn"`` the write that trips the countdown persists a
        prefix of its batch (if it is a multi-entry ``append_entries``)
        before raising — the classic torn write a crashed disk leaves
        behind. Every later write fails cleanly until :meth:`heal`.
        """
        if mode not in self.MODES:
            raise ValueError(f"unknown fault mode {mode!r}; pick {self.MODES}")
        self._mode = mode
        self._writes_until_failure = writes
        # The trip happens inside the (writes+1)-th write attempt, so the
        # ``failing`` flag flips there — that write is the one that tears.
        self._failing = False

    def slow_writes(self, per_write_ms: float) -> None:
        """Arm (or, with ``0``, disarm) the fail-slow disk.

        Every write from now on succeeds but stalls ``per_write_ms`` —
        reported through :attr:`on_write_stall` so the owning server's
        timer loop runs late. Independent of :meth:`fail_after`; both can
        be armed at once (a disk can be slow *and* about to die).
        """
        if per_write_ms < 0:
            raise ValueError("per_write_ms must be non-negative")
        self._slow_ms = per_write_ms

    def heal(self) -> None:
        """Stop failing writes and restore full disk speed."""
        self._writes_until_failure = None
        self._failing = False
        self._mode = "fail"
        self._slow_ms = 0.0

    @property
    def failing(self) -> bool:
        return self._failing

    @property
    def slow_ms(self) -> float:
        """Current per-write stall (ms); 0.0 when the disk is healthy."""
        return self._slow_ms

    def _advance_gate(self) -> bool:
        """Advance the countdown; True when this write must fail.

        Flags ``_just_tripped`` on the write that trips the countdown —
        that is the (only) write the torn mode tears.
        """
        self.writes_attempted += 1
        if self._slow_ms > 0.0:
            self.writes_slowed += 1
            if self.on_write_stall is not None:
                self.on_write_stall(self._slow_ms)
        self._just_tripped = False
        if self._writes_until_failure is not None and not self._failing:
            self._writes_until_failure -= 1
            if self._writes_until_failure < 0:
                self._failing = True
                self._just_tripped = True
        if self._failing:
            self.writes_failed += 1
            return True
        return False

    def _write_gate(self) -> None:
        if self._advance_gate():
            raise StorageError("injected storage fault (disk full)")

    def _write(self, name: str, *args: Any) -> Any:
        """One gated mutation of the wrapped storage, noted as unsynced."""
        self._write_gate()
        result = getattr(self._inner, name)(*args)
        self._unsynced.append((name, args))
        return result

    # -- durability ------------------------------------------------------------

    def sync(self) -> int:
        """Forward the barrier. A sync with writes behind it goes through
        the write gate like any write (it is the one that waits for the
        disk), so :meth:`fail_after` can fail it; only when it returns do
        those writes count as surviving a :meth:`power_cut`. Lazy writes
        alone (:data:`~repro.omni.storage.LAZY_MUTATORS`) are not behind
        it: as in :class:`FileStorage`, they wait for the next sync with
        another write."""
        if not self._written and all(
                name in LAZY_MUTATORS for name, _ in self._unsynced):
            return self._inner.sync()
        self._write_gate()
        synced = self._inner.sync()
        self._make_durable(self._written + self._unsynced)
        self._written.clear()
        self._unsynced.clear()
        return synced

    def write(self) -> int:
        """The first half of :meth:`sync`, through the write gate the same
        way; returns how many mutations now wait for :meth:`fsync` (none
        when only lazy ones are pending). A power cut still loses them."""
        if all(name in LAZY_MUTATORS for name, _ in self._unsynced):
            return self._inner.write()
        self._write_gate()
        self._inner.write()
        self._written += self._unsynced
        self._unsynced.clear()
        return len(self._written)

    def fsync(self) -> None:
        """The second half: what the writes so far passed on survives a
        :meth:`power_cut` from now on."""
        written, self._written = self._written, []
        self._inner.fsync()
        self._make_durable(written)

    def _make_durable(self, mutations: List[Tuple[str, Tuple[Any, ...]]]
                      ) -> None:
        for name, args in mutations:
            getattr(self._durable, name)(*args)

    @property
    def durable(self) -> Storage:
        """What a :meth:`power_cut` now would leave (read it, do not
        write it)."""
        return self._durable

    def power_cut(self) -> None:
        """Lose every write since the last :meth:`sync` (or :meth:`fsync`)
        returned — what the disk holds after the machine, not just the
        process, dies. The wrapped storage is replaced by an in-memory
        image of that state."""
        self._unsynced.clear()
        self._written.clear()
        self._inner = self._durable
        self._durable = _image_of(self._inner)

    # -- Storage API (writes gated, reads passed through) --------------------

    def append_entry(self, entry: Any) -> int:
        return self._write("append_entry", entry)

    def append_entries(self, entries: Sequence[Any]) -> int:
        if self._advance_gate():
            if self._mode == "torn" and self._just_tripped and len(entries) > 1:
                torn = len(entries) // 2
                self.entries_torn += torn
                self._inner.append_entries(entries[:torn])
                self._unsynced.append(("append_entries", (entries[:torn],)))
                raise StorageError(
                    f"injected torn write ({torn}/{len(entries)} entries "
                    f"persisted)"
                )
            raise StorageError("injected storage fault (disk full)")
        new_len = self._inner.append_entries(entries)
        self._unsynced.append(("append_entries", (tuple(entries),)))
        return new_len

    def truncate_suffix(self, from_idx: int) -> None:
        self._write("truncate_suffix", from_idx)

    def get_entries(self, from_idx: int, to_idx: int) -> Tuple[Any, ...]:
        return self._inner.get_entries(from_idx, to_idx)

    def log_len(self) -> int:
        return self._inner.log_len()

    def compact_prefix(self, idx: int) -> None:
        self._write("compact_prefix", idx)

    def compacted_idx(self) -> int:
        return self._inner.compacted_idx()

    def set_snapshot(self, state: Any, covers_idx: int) -> None:
        self._write("set_snapshot", state, covers_idx)

    def get_snapshot(self) -> Optional[Tuple[Any, int]]:
        return self._inner.get_snapshot()

    def _reset_log_to(self, logical_len: int) -> None:
        self._inner._reset_log_to(logical_len)
        self._unsynced.append(("_reset_log_to", (logical_len,)))

    def set_promise(self, ballot: Ballot) -> None:
        self._write("set_promise", ballot)

    def get_promise(self) -> Ballot:
        return self._inner.get_promise()

    def set_accepted_round(self, ballot: Ballot) -> None:
        self._write("set_accepted_round", ballot)

    def get_accepted_round(self) -> Ballot:
        return self._inner.get_accepted_round()

    def set_decided_idx(self, idx: int) -> None:
        self._write("set_decided_idx", idx)

    def get_decided_idx(self) -> int:
        return self._inner.get_decided_idx()
