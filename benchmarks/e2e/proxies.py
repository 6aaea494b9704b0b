"""Tracing from outside the program: a span stack and two delegating
proxies handed to the program in place of the real replica and storage.

Everything here is synchronous and single-threaded (one asyncio loop), so
a plain stack gives every span its parent::

    node.propose > replica.propose > storage.append
    replica.on_message > storage.meta
    replica.take_outbox, replica.take_decided, client.on_decided

A layer's self time is its span minus what its children cover. Sums and
counts are kept for every call; full spans are kept only while
:attr:`Tracer.keep` is on.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns, process_time_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.omni.storage import Storage
from repro.replica import Replica

#: Full spans are kept for this many commits of the closed phase.
KEEP_COMMITS = 2_000
#: Messages sampled per message type for the codec replay.
SAMPLE_PER_TYPE = 2_000


class Tracer:
    """Span stack with per-name call counts, total and self time."""

    def __init__(self) -> None:
        # The open spans, as parallel stacks (no per-span allocation).
        self._names: List[str] = []
        self._starts: List[int] = []
        self._children: List[int] = []
        self._indexes: List[int] = []
        #: Per span name: [calls, total ns, self ns].
        self._sums: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Per span name: processor ns, for spans opened with push_cpu.
        self._cpu_ns: Dict[str, int] = defaultdict(int)
        self._cpu_starts: List[int] = []
        #: While True every finished span is also stored in full.
        self.keep = False
        #: The client's completed-operation counter, stamped on kept spans.
        self.commit = 0
        self._kept = 0
        #: Kept spans as [name, start_ns, end_ns, parent_index, commit].
        self.spans: List[List[Any]] = []

    def push(self, name: str) -> None:
        index = -1
        if self.keep:
            index = len(self.spans)
            parent = self._indexes[-1] if self._indexes else -1
            self.spans.append([name, 0, 0, parent, self.commit])
        self._names.append(name)
        self._indexes.append(index)
        self._children.append(0)
        self._starts.append(perf_counter_ns())

    def pop(self) -> None:
        end = perf_counter_ns()
        start = self._starts.pop()
        duration = end - start
        sums = self._sums[self._names.pop()]
        sums[0] += 1
        sums[1] += duration
        sums[2] += duration - self._children.pop()
        index = self._indexes.pop()
        children = self._children
        if children:
            children[-1] += duration
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = start, end

    def push_cpu(self, name: str) -> None:
        """:meth:`push`, also reading the process's CPU clock: for spans
        that may block (an fsync), where wall time is not processor time.
        Reading the CPU clock costs 0.6 us, several times a span around an
        in-memory call, so only those spans use it."""
        self._cpu_starts.append(process_time_ns())
        self.push(name)

    def pop_cpu(self) -> None:
        name = self._names[-1]
        self.pop()
        self._cpu_ns[name] += process_time_ns() - self._cpu_starts.pop()

    def keep_spans(self, on: bool) -> None:
        """Keep full spans from now on (until :data:`KEEP_COMMITS` commits
        have been seen with keeping on), or pause keeping."""
        self.keep = on and self._kept < KEEP_COMMITS

    def note_commit(self, completed: int) -> None:
        if self.keep:
            self._kept += completed - self.commit
            if self._kept >= KEEP_COMMITS:
                self.keep = False
        self.commit = completed

    def reading(self) -> Dict[str, float]:
        """Cumulative sums as one flat dict (``calls:<span>``,
        ``total_ns:<span>``, ``self_ns:<span>``, and ``cpu_ns:<span>`` for
        spans opened with :meth:`push_cpu`); the caller subtracts two
        readings to cost an interval."""
        out: Dict[str, float] = {}
        for name, (calls, total_ns, self_ns) in self._sums.items():
            out[f"calls:{name}"] = calls
            out[f"total_ns:{name}"] = total_ns
            out[f"self_ns:{name}"] = self_ns
        for name, cpu_ns in self._cpu_ns.items():
            out[f"cpu_ns:{name}"] = cpu_ns
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, commit) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "commit": commit,
                }) + "\n")
        return len(self.spans)


class MessageLedger:
    """Message counts by type, and a bounded sample for the codec replay,
    shared by the three :class:`TimedReplica` proxies of one cluster."""

    def __init__(self) -> None:
        self.out_by_type: Dict[str, int] = defaultdict(int)
        self.replicate_msgs = 0
        self.replicate_entries = 0
        self._sampled: Dict[str, int] = defaultdict(int)
        #: Sampled outboxes, whole and in order, so the replay sees the
        #: same fan-out (same payload object to each follower) as the mesh.
        self.sample: List[Tuple[int, List[Tuple[int, Any]]]] = []

    def reading(self) -> Dict[str, float]:
        """Cumulative counts as one flat dict (``out:<message type>``,
        ``replicate_msgs``, ``replicate_entries``)."""
        out: Dict[str, float] = {f"out:{name}": count
                                 for name, count in self.out_by_type.items()}
        out["replicate_msgs"] = self.replicate_msgs
        out["replicate_entries"] = self.replicate_entries
        return out

    def record_outbox(self, pid: int, outbox: List[Tuple[int, Any]]) -> None:
        keep = False
        for _, msg in outbox:
            inner = getattr(msg, "payload", msg)
            name = inner.__class__.__name__
            self.out_by_type[name] += 1
            entries = getattr(inner, "entries", None)
            if entries:
                self.replicate_msgs += 1
                self.replicate_entries += len(entries)
            if self._sampled[name] < SAMPLE_PER_TYPE:
                self._sampled[name] += 1
                keep = True
        if keep:
            self.sample.append((pid, outbox))


class TimedReplica(Replica):
    """A :class:`~repro.replica.Replica` that times every interface call
    of the replica it wraps and counts what leaves its outbox."""

    def __init__(self, inner: Replica, tracer: Tracer,
                 ledger: MessageLedger) -> None:
        self._inner = inner
        self._tracer = tracer
        self._ledger = ledger

    def __getattr__(self, name: str) -> Any:
        # Hooks the runtime looks up by name (set_observability,
        # queue_depths, gray_detector, ...) go straight to the replica.
        return getattr(self._inner, name)

    def set_observability(self, registry: Any) -> None:
        """Swallowed: the registry handed to ``RuntimeNode`` is there for
        the transport's counters. Forwarding it would switch on the
        replica's own event emission, whose cost the spans around the
        replica would then report as protocol time."""

    @property
    def pid(self) -> int:
        return self._inner.pid

    @property
    def members(self) -> Tuple[int, ...]:
        return self._inner.members

    @property
    def is_leader(self) -> bool:
        return self._inner.is_leader

    @property
    def leader_pid(self) -> Optional[int]:
        return self._inner.leader_pid

    def _timed(self, name: str, method, *args) -> Any:
        tracer = self._tracer
        tracer.push(name)
        try:
            return method(*args)
        finally:
            tracer.pop()

    def start(self, now_ms: float) -> None:
        self._timed("replica.start", self._inner.start, now_ms)

    def tick(self, now_ms: float) -> None:
        self._timed("replica.tick", self._inner.tick, now_ms)

    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        self._timed("replica.on_message", self._inner.on_message,
                    src, msg, now_ms)

    def propose(self, entry: Any, now_ms: float) -> None:
        self._timed("replica.propose", self._inner.propose, entry, now_ms)

    def propose_batch(self, entries: List[Any], now_ms: float) -> None:
        self._timed("replica.propose", self._inner.propose_batch,
                    entries, now_ms)

    def take_outbox(self) -> List[Tuple[int, Any]]:
        outbox = self._timed("replica.take_outbox", self._inner.take_outbox)
        if outbox:
            self._ledger.record_outbox(self._inner.pid, outbox)
        return outbox

    def take_decided(self) -> List[Tuple[int, Any]]:
        return self._timed("replica.take_decided", self._inner.take_decided)

    def status(self) -> Dict[str, Any]:
        return self._timed("replica.status", self._inner.status)

    def on_session_drop(self, peer: int, now_ms: float) -> None:
        self._timed("replica.on_session_drop", self._inner.on_session_drop,
                    peer, now_ms)

    def crash(self) -> None:
        self._timed("replica.crash", self._inner.crash)

    def recover(self, now_ms: float) -> None:
        self._timed("replica.recover", self._inner.recover, now_ms)


class TimedStorage(Storage):
    """A :class:`~repro.omni.storage.Storage` that times the calls that
    write or copy (append, the three paxos variables, bulk reads) and
    counts what they carry. The constant-time getters are delegated
    untimed: Sequence Paxos reads them several times per message, and a
    span around each would cost more than the call."""

    def __init__(self, inner: Storage, tracer: Tracer,
                 blocking: bool = False) -> None:
        self._inner = inner
        # A storage that waits on a disk also reads the CPU clock: there,
        # wall time is not processor time.
        self._push, self._pop = ((tracer.push_cpu, tracer.pop_cpu)
                                 if blocking else (tracer.push, tracer.pop))
        self.entries_appended = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)  # e.g. FileStorage.close

    def _timed(self, name: str, method, *args) -> Any:
        self._push(name)
        try:
            return method(*args)
        finally:
            self._pop()

    # -- log -----------------------------------------------------------------

    def append_entry(self, entry: Any) -> int:
        self.entries_appended += 1
        return self._timed("storage.append", self._inner.append_entry, entry)

    def append_entries(self, entries: Sequence[Any]) -> int:
        self.entries_appended += len(entries)
        return self._timed("storage.append", self._inner.append_entries,
                           entries)

    def truncate_suffix(self, from_idx: int) -> None:
        self._timed("storage.other", self._inner.truncate_suffix, from_idx)

    def get_entries(self, from_idx: int, to_idx: int) -> Tuple[Any, ...]:
        return self._timed("storage.read", self._inner.get_entries,
                           from_idx, to_idx)

    def get_suffix(self, from_idx: int) -> Tuple[Any, ...]:
        return self._timed("storage.read", self._inner.get_suffix, from_idx)

    def get_entry(self, idx: int) -> Any:
        return self._timed("storage.read", self._inner.get_entry, idx)

    def log_len(self) -> int:
        return self._inner.log_len()

    # -- compaction and snapshots ----------------------------------------------

    def compact_prefix(self, idx: int) -> None:
        self._timed("storage.other", self._inner.compact_prefix, idx)

    def compacted_idx(self) -> int:
        return self._inner.compacted_idx()

    def set_snapshot(self, state: Any, covers_idx: int) -> None:
        self._timed("storage.other", self._inner.set_snapshot,
                    state, covers_idx)

    def get_snapshot(self) -> Optional[Tuple[Any, int]]:
        return self._inner.get_snapshot()

    def install_snapshot(self, state: Any, covers_idx: int) -> None:
        self._timed("storage.other", self._inner.install_snapshot,
                    state, covers_idx)

    def _reset_log_to(self, logical_len: int) -> None:
        # The base class reaches this only from its own install_snapshot,
        # which this proxy delegates whole, so nothing calls it here.
        raise NotImplementedError("TimedStorage delegates install_snapshot")

    # -- paxos variables -----------------------------------------------------------

    def set_promise(self, ballot: Any) -> None:
        self._timed("storage.meta", self._inner.set_promise, ballot)

    def get_promise(self) -> Any:
        return self._inner.get_promise()

    def set_accepted_round(self, ballot: Any) -> None:
        self._timed("storage.meta", self._inner.set_accepted_round, ballot)

    def get_accepted_round(self) -> Any:
        return self._inner.get_accepted_round()

    def set_decided_idx(self, idx: int) -> None:
        self._timed("storage.meta", self._inner.set_decided_idx, idx)

    def get_decided_idx(self) -> int:
        return self._inner.get_decided_idx()
