"""Replicated key-value store state machine.

Commands are encoded into :class:`~repro.omni.entry.Command` payloads so the
replication layer stays oblivious to their semantics. The state machine is
deterministic; every replica that applies the same decided prefix holds the
same map — the tests assert exactly this across partitions and recoveries.

Supported operations: ``put``, ``get``, ``delete``, ``cas`` (compare-and-
swap). A ``get`` goes through the log, which makes it linearizable; the
leader may also serve a local read under its read lease
(:meth:`ReplicatedKVStore.read_leased`).

Client sessions: each command carries ``(client_id, seq)``; a command whose
sequence number is not greater than the session's last applied one is a
duplicate (a client retry that raced a decided original) and is skipped, so
retried writes stay exactly-once.

Decided entries are client input: an entry that does not decode to a KV
command is skipped and changes neither the map nor the sessions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.omni.entry import Command, is_stopsign

OP_PUT = "put"
OP_GET = "get"
OP_DELETE = "delete"
OP_CAS = "cas"
_OPS = (OP_PUT, OP_GET, OP_DELETE, OP_CAS)


class KVError(ReproError):
    """Invalid key-value command or payload."""


@dataclass(frozen=True)
class KVCommand:
    """One key-value operation."""

    op: str
    key: str
    value: Optional[str] = None
    expected: Optional[str] = None  # for cas

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise KVError(f"unknown op {self.op!r}")
        if not isinstance(self.key, str) or not all(
                v is None or isinstance(v, str)
                for v in (self.value, self.expected)):
            raise KVError("key, value and expected must be strings")
        if self.op == OP_PUT and self.value is None:
            raise KVError("put needs a value")
        if self.op == OP_CAS and self.value is None:
            raise KVError("cas needs a value")


@dataclass(frozen=True)
class KVResult:
    """Outcome of one applied command."""

    op: str
    key: str
    value: Optional[str]
    ok: bool
    #: Global log index the command was applied at.
    log_idx: int


def encode_command(cmd: KVCommand, client_id: int = 0, seq: int = 0) -> Command:
    """Serialize a KV command into a replication-layer Command."""
    payload = {"op": cmd.op, "key": cmd.key}
    if cmd.value is not None:
        payload["value"] = cmd.value
    if cmd.expected is not None:
        payload["expected"] = cmd.expected
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return Command(data=data, client_id=client_id, seq=seq)


def decode_command(entry: Command) -> KVCommand:
    """Deserialize a replication-layer Command back into a KV command;
    :class:`KVError` for an entry of any other shape."""
    if not isinstance(entry.data, bytes) or not all(
            isinstance(n, int) for n in (entry.client_id, entry.seq)):
        raise KVError(f"not a KV entry: {entry!r}")
    try:
        payload = json.loads(entry.data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise KVError(f"malformed KV payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise KVError(f"KV payload is not an object: {payload!r}")
    try:
        return KVCommand(
            op=payload["op"],
            key=payload["key"],
            value=payload.get("value"),
            expected=payload.get("expected"),
        )
    except KeyError as exc:
        raise KVError(f"missing field in KV payload: {exc}") from exc


def kv_snapshotter(entries, prev_state):
    """Deterministic snapshot fold for KV logs (Sequence Paxos trim).

    Folds Command entries into ``{"data": {...}, "sessions": {...}}`` so a
    leader can compact its log and synchronize stragglers with state
    instead of history. Deterministic by construction: the same entries in
    the same order produce the same state on every replica.
    """
    machine = KVStateMachine()
    if prev_state is not None:
        machine.restore(prev_state)
    for entry in entries:
        if isinstance(entry, Command):
            machine.apply(entry, 0)
    return machine.to_snapshot()


class KVStateMachine:
    """Deterministic map with client-session deduplication."""

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}
        #: Highest applied sequence number per client session.
        self._sessions: Dict[int, int] = {}

    def to_snapshot(self) -> Dict[str, Any]:
        """Serializable state for snapshot-based log compaction."""
        return {
            "data": dict(self._data),
            "sessions": dict(self._sessions),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Adopt a snapshot produced by :meth:`to_snapshot`."""
        self._data = dict(state["data"])
        self._sessions = dict(state["sessions"])

    def snapshot(self) -> Dict[str, str]:
        """A copy of the current map (for tests and debugging)."""
        return dict(self._data)

    def lookup(self, key: str) -> Optional[str]:
        """Local (non-linearizable) read of the applied state."""
        return self._data.get(key)

    def apply(self, entry: Command, log_idx: int) -> Optional[KVResult]:
        """Apply one decided entry; returns None, changing nothing, for a
        duplicate and for an entry that is not a KV command."""
        try:
            cmd = decode_command(entry)
        except KVError:
            return None
        if entry.client_id != 0:
            last = self._sessions.get(entry.client_id, -1)
            if entry.seq <= last:
                return None  # duplicate retry of an already-applied command
            self._sessions[entry.client_id] = entry.seq
        if cmd.op == OP_PUT:
            self._data[cmd.key] = cmd.value  # type: ignore[assignment]
            return KVResult(cmd.op, cmd.key, cmd.value, True, log_idx)
        if cmd.op == OP_GET:
            value = self._data.get(cmd.key)
            return KVResult(cmd.op, cmd.key, value, value is not None, log_idx)
        if cmd.op == OP_DELETE:
            existed = cmd.key in self._data
            self._data.pop(cmd.key, None)
            return KVResult(cmd.op, cmd.key, None, existed, log_idx)
        # cas
        current = self._data.get(cmd.key)
        if current == cmd.expected:
            self._data[cmd.key] = cmd.value  # type: ignore[assignment]
            return KVResult(cmd.op, cmd.key, cmd.value, True, log_idx)
        return KVResult(cmd.op, cmd.key, current, False, log_idx)


class ReplicatedKVStore:
    """A KV store served by one Omni-Paxos server.

    The caller drives the server and feeds its decided entries to
    :meth:`ingest` (a ``SimCluster.on_decided`` observer, or a
    ``RuntimeNode``'s ``on_decided`` handler); this wrapper applies them
    to the state machine and resolves pending operations. Each store instance owns a client session
    on its server, so a process embedding the store gets exactly-once writes
    even across retries.
    """

    def __init__(self, server, client_id: int = 1):
        self._server = server
        self._client_id = client_id
        self._next_seq = 0
        self._machine = KVStateMachine()
        #: seq -> result, filled as decided entries are applied.
        self._results: Dict[int, KVResult] = {}

    @property
    def server(self):
        return self._server

    @property
    def machine(self) -> KVStateMachine:
        return self._machine

    def submit(self, cmd: KVCommand, now_ms: float) -> int:
        """Propose a command; returns its session sequence number.

        The result becomes available via :meth:`result` once decided and
        applied. Raises the server's errors (NotLeaderError etc.) untouched.
        """
        seq = self._next_seq
        self._next_seq += 1
        self._server.propose(encode_command(cmd, self._client_id, seq), now_ms)
        return seq

    def ingest(self, idx: int, entry) -> Optional[KVResult]:
        """Apply one decided entry (stop-signs and foreign types skipped)."""
        if is_stopsign(entry) or not isinstance(entry, Command):
            return None
        result = self._machine.apply(entry, idx)
        if result is None:
            return None
        if entry.client_id == self._client_id:
            self._results[entry.seq] = result
        return result

    def result(self, seq: int) -> Optional[KVResult]:
        """The decided result of a submitted command, if available yet."""
        return self._results.get(seq)

    def lookup(self, key: str) -> Optional[str]:
        """Local read of this replica's applied state."""
        return self._machine.lookup(key)

    def read_leased(self, key: str, now_ms: float) -> Optional[str]:
        """Linearizable local read under the leader's read lease.

        Serves from local state without going through the log — valid only
        while the server holds a heartbeat-quorum lease (see
        :meth:`repro.omni.server.OmniPaxosServer.holds_read_lease`). The
        caller must keep the state machine caught up with the decided
        stream (the simulator's observer wiring does this synchronously).

        Raises :class:`repro.errors.NotLeaderError` without a lease; fall
        back to a log read (submit a ``get``) in that case.
        """
        from repro.errors import NotLeaderError

        if not self._server.holds_read_lease(now_ms):
            raise NotLeaderError("no read lease at this server")
        return self._machine.lookup(key)
