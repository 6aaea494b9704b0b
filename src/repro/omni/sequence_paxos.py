"""Sequence Paxos — the log replication protocol of Omni-Paxos (paper §4).

Sequence Paxos replicates a gapless, strictly growing log and satisfies the
Sequence Consensus properties:

- **SC1 Validity** — decided logs contain only proposed commands.
- **SC2 Uniform Agreement** — any two decided logs are prefix-ordered.
- **SC3 Integrity** — a server's decided log only ever grows.

A round is led by the ballot elected in BLE and has two phases. In the
*Prepare* phase the new leader synchronizes with a majority: followers report
``(acc_rnd, log_idx, decided_idx)`` and ship the suffix the leader is
missing; the leader adopts the most updated log (highest ``acc_rnd``, then
longest) which is guaranteed to contain every chosen entry, then re-syncs all
promised followers with ``AcceptSync``. In the *Accept* phase the leader
pipelines new entries with ``AcceptDecide`` over FIFO links and decides an
index once a majority has accepted it. A proposal is appended inside
``propose``; the ``AcceptDecide`` that carries it is built when the driver
next calls ``take_outbox``, one per follower for everything appended since
the last hand-out. The leader counts its own acceptance of those entries
only once the caller reports them durable (:meth:`SequencePaxos.self_accept`),
so every index it decides is on the disk of a majority.

Because leader election is fully decoupled (it only requires
quorum-connectivity, not log progress), the Prepare-phase synchronization is
what lets even a *trailing* server take over and still preserve SC1–SC3 —
the crux of surviving the constrained-election scenario.

This class is sans-io and is also reused by the VR baseline, which swaps BLE
for a view-change protocol exactly as the paper's evaluation does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CompactionError, ConfigError, NotLeaderError, StoppedError
from repro.obs.events import (
    EntryApplied,
    ProposalAppended,
    QuorumAccepted,
    RecoveryCompleted,
    RecoveryStarted,
    RoleChanged,
)
from repro.obs.registry import Instrumented
from repro.obs.spans import entry_trace_id
from repro.omni.ballot import Ballot, BOTTOM
from repro.omni.entry import SnapshotInstalled, StopSign, is_stopsign
from repro.omni.messages import (
    Accepted,
    AcceptDecide,
    AcceptSync,
    Decide,
    Prepare,
    PrepareReq,
    Promise,
    ProposalForward,
    Trim,
)
from repro.omni.storage import Storage


class Role(enum.Enum):
    LEADER = "leader"
    FOLLOWER = "follower"


class Phase(enum.Enum):
    PREPARE = "prepare"
    ACCEPT = "accept"
    RECOVER = "recover"
    NONE = "none"


@dataclass(frozen=True)
class SequencePaxosConfig:
    """Static configuration of one Sequence Paxos replica.

    ``config_id`` identifies the configuration this instance belongs to;
    instances of different configurations never exchange messages (the
    service layer enforces this via message envelopes).
    """

    pid: int
    peers: Tuple[int, ...]
    config_id: int = 0
    #: How often lost Prepare / AcceptSync exchanges are retried (driven by
    #: :meth:`SequencePaxos.tick`); only matters on lossy transports.
    resend_period_ms: float = 500.0
    #: Optional deterministic fold ``(entries, prev_state) -> state``.
    #: When set, :meth:`SequencePaxos.trim` may compact up to the *local*
    #: decided index (not just what every server has decided): stragglers
    #: below the compaction point are synchronized with the snapshot
    #: instead of the trimmed entries. Must be deterministic — every
    #: replica folds the same prefix to the same state.
    snapshotter: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.pid <= 0:
            raise ConfigError("server pids must be positive")
        if self.pid in self.peers:
            raise ConfigError("peers must not contain the server's own pid")
        if len(set(self.peers)) != len(self.peers):
            raise ConfigError("duplicate peer pids")

    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    @property
    def majority(self) -> int:
        return self.cluster_size // 2 + 1


@dataclass
class _PromiseMeta:
    """What the leader remembers about one follower's promise."""

    acc_rnd: Ballot
    log_idx: int
    decided_idx: int
    # The suffix the follower shipped; None for the leader's own entry
    # (its log is local and needs no copy).
    suffix: Optional[Tuple[Any, ...]]
    # Snapshot standing in for a compacted part of the suffix, if any.
    snapshot: Optional[Tuple[Any, int]] = None


@dataclass
class SequencePaxosStats:
    """Counters for the evaluation harness."""

    prepares_sent: int = 0
    accept_syncs_sent: int = 0
    proposals_rejected: int = 0
    rounds_led: int = 0


class SequencePaxos(Instrumented):
    """One Sequence Paxos replica (sans-io)."""

    def __init__(self, config: SequencePaxosConfig, storage: Storage):
        self._config = config
        self._storage = storage
        self._role = Role.FOLLOWER
        self._phase = Phase.NONE
        #: The round this server acts in: as leader it is our own ballot, as
        #: follower it is the round we last promised.
        self._current_round: Ballot = storage.get_promise()
        #: Best-known leader ballot (for proposal forwarding).
        self._leader_hint: Optional[Ballot] = None
        # Leader-only state.
        self._promises: Dict[int, _PromiseMeta] = {}
        self._las: Dict[int, int] = {}
        #: Last known decided index per follower (for trim validation).
        self._lds: Dict[int, int] = {}
        self._synced_peers: set = set()
        #: Per-follower log index up to which entries were handed out (in
        #: its AcceptSync or an AcceptDecide); what lies beyond it leaves
        #: in the next :meth:`take_outbox`.
        self._sent_idx: Dict[int, int] = {}
        #: Whether entries were appended since the last hand-out.
        self._unsent = False
        #: Per-follower AcceptDecide counters within a sync session.
        self._accept_seq: Dict[int, int] = {}
        #: Per-follower sync-session numbers: bumped on every AcceptSync so
        #: a reordered AcceptDecide from an older session is recognizable.
        self._accept_session: Dict[int, int] = {}
        #: Expected next AcceptDecide seq as a follower.
        self._expected_seq = 0
        #: Session of the last AcceptSync applied as a follower.
        self._expected_session = 0
        self._resync_requested = False
        self._next_retry_at: Optional[float] = None
        self._max_prom_acc_rnd: Ballot = BOTTOM
        self._max_prom_log_idx: int = 0
        #: Proposals waiting for an Accept-phase leader.
        self._buffer: List[Any] = []
        #: Whether the buffer holds a stop-sign (counts as stopped).
        self._buffered_ss = False
        self._outbox: List[Tuple[int, Any]] = []
        #: Index up to which decided entries have been drained by the caller.
        self._applied_idx = storage.get_decided_idx()
        #: Snapshot installed but not yet surfaced via take_decided.
        self._pending_snapshot: Optional[Tuple[int, SnapshotInstalled]] = None
        #: Index of a stop-sign in the local log, if any.
        self._ss_idx: Optional[int] = self._find_stopsign()
        #: Tracing-only: fan-out times of in-flight batches awaiting a
        #: quorum, as ``(log_idx, at_ms)`` — populated only when
        #: ``self._obs.tracing`` is on (bounded by the pipeline depth).
        self._trace_fanout: List[Tuple[int, float]] = []
        #: Tracing-only: ``(started_ms, reason)`` of an open recovery.
        self._trace_recovery: Optional[Tuple[float, str]] = None
        self.stats = SequencePaxosStats()

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------

    @property
    def config(self) -> SequencePaxosConfig:
        return self._config

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def role(self) -> Role:
        return self._role

    @property
    def phase(self) -> Phase:
        return self._phase

    @property
    def is_leader(self) -> bool:
        return self._role is Role.LEADER

    @property
    def current_round(self) -> Ballot:
        return self._current_round

    @property
    def leader_pid(self) -> Optional[int]:
        """The pid of the best-known leader, or None."""
        if self.is_leader:
            return self.pid
        if self._leader_hint is not None:
            return self._leader_hint.pid
        return None

    @property
    def decided_idx(self) -> int:
        return self._storage.get_decided_idx()

    @property
    def log_len(self) -> int:
        return self._storage.log_len()

    @property
    def storage(self) -> Storage:
        return self._storage

    @property
    def outbox_depth(self) -> int:
        """Messages staged for the transport but not yet taken — the
        leader's fan-out backlog when replication outruns the flush
        cadence."""
        return len(self._outbox)

    @property
    def pending_proposals(self) -> int:
        """Proposals buffered while waiting for an Accept-phase leader
        (admission backlog; drains on promotion or forward)."""
        return len(self._buffer)

    def stopped(self) -> bool:
        """True when a stop-sign is in the local log or buffered for it
        (no further proposals are admitted either way)."""
        return self._ss_idx is not None or self._buffered_ss

    def stopsign_decided(self) -> Optional[StopSign]:
        """The decided stop-sign, or None while the configuration is live."""
        if self._ss_idx is not None and self.decided_idx > self._ss_idx:
            return self._storage.get_entry(self._ss_idx)
        return None

    def read_decided(self, from_idx: int, to_idx: int) -> Tuple[Any, ...]:
        """The decided entries in ``[from_idx, to_idx)`` (``to_idx`` clamped).

        Decided entries can never be retracted, so this read is stable; the
        service layer reads the replicated log, and serves log migration,
        through it — even before this server has seen a stop-sign.
        """
        return self._storage.get_entries(from_idx, min(to_idx, self.decided_idx))

    # ------------------------------------------------------------------
    # driving: leader events, messages, proposals
    # ------------------------------------------------------------------

    def _set_role(self, role: Role) -> None:
        """Change role, emitting a :class:`RoleChanged` event on a flip."""
        if role is self._role:
            return
        self._role = role
        if self._obs.enabled:
            self._obs.emit(RoleChanged(pid=self.pid, role=role.value,
                                       protocol="sp"))

    def handle_leader(self, ballot: Ballot) -> None:
        """React to a leader event from BLE (or the VR view-change layer)."""
        if ballot.pid == self.pid:
            if ballot > self._storage.get_promise():
                self._become_leader(ballot)
        else:
            self._leader_hint = ballot
            if self.is_leader and ballot > self._current_round:
                # A higher round exists; revert to follower and wait for its
                # Prepare (paper: "If the leader detects a higher round, it
                # reverts back to being a follower").
                self._set_role(Role.FOLLOWER)
                self._phase = Phase.NONE
            self._forward_buffered()

    def on_message(self, src: int, msg: Any) -> None:
        """Dispatch one incoming protocol message from peer ``src``."""
        if self._phase is Phase.RECOVER and not isinstance(msg, Prepare):
            return  # in recovery only Prepare (or a leader event) helps us
        if isinstance(msg, Prepare):
            self._on_prepare(src, msg)
        elif isinstance(msg, Promise):
            self._on_promise(src, msg)
        elif isinstance(msg, AcceptSync):
            self._on_accept_sync(src, msg)
        elif isinstance(msg, AcceptDecide):
            self._on_accept_decide(src, msg)
        elif isinstance(msg, Accepted):
            self._on_accepted(src, msg)
        elif isinstance(msg, Decide):
            self._on_decide(src, msg)
        elif isinstance(msg, PrepareReq):
            self._on_prepare_req(src)
        elif isinstance(msg, ProposalForward):
            self._on_proposal_forward(msg)
        elif isinstance(msg, Trim):
            self._on_trim(msg)

    def propose(self, entry: Any) -> None:
        """Propose one entry for replication.

        On the Accept-phase leader the entry is appended now and leaves
        with the next :meth:`take_outbox`; otherwise it is buffered or
        forwarded to the leader.
        Raises :class:`StoppedError` once a stop-sign is in the log.
        """
        self.propose_batch([entry])

    def propose_batch(self, entries: Sequence[Any]) -> None:
        """Propose several entries at once (one append)."""
        if self.stopped():
            self.stats.proposals_rejected += len(entries)
            raise StoppedError(
                f"configuration {self._config.config_id} is stopped by a stop-sign"
            )
        if self.is_leader and self._phase is Phase.ACCEPT:
            self._append_and_replicate(entries)
        elif self.is_leader and self._phase is Phase.PREPARE:
            self._buffer_entries(entries)
        else:
            self._buffer_entries(entries)
            self._forward_buffered()

    def propose_reconfiguration(self, servers: Sequence[int],
                                metadata: Optional[bytes] = None) -> None:
        """Propose a stop-sign that moves the cluster to ``servers``.

        The stop-sign is replicated and decided like any other entry; once it
        is in the local log no further proposals are admitted in this
        configuration (paper section 6).
        """
        if len(set(servers)) != len(servers) or not servers:
            raise ConfigError("new configuration must be a non-empty set of pids")
        stopsign = StopSign(
            config_id=self._config.config_id + 1,
            servers=tuple(servers),
            metadata=metadata,
        )
        self.propose(stopsign)

    def take_outbox(self) -> List[Tuple[int, Any]]:
        """Drain pending outgoing ``(dst, message)`` pairs.

        This is where proposals turn into replication messages: whatever
        the Accept-phase leader appended since the last call leaves here,
        as one ``AcceptDecide`` per synced follower.
        """
        if self._unsent:
            self._unsent = False
            self._replicate_unsent()
        out, self._outbox = self._outbox, []
        return out

    def tick(self, now_ms: float) -> None:
        """Drive loss-recovery retries (no-op on perfect links).

        - An Accept-phase leader re-Prepares peers that never promised
          (their Prepare may have been lost).
        - A follower stuck in the Prepare phase re-requests a Prepare from
          its leader (its Promise or the AcceptSync may have been lost).
        - A recovering server re-broadcasts PrepareReq.
        """
        if self._next_retry_at is None:
            self._next_retry_at = now_ms + self._config.resend_period_ms
            return
        if now_ms < self._next_retry_at:
            return
        self._next_retry_at = now_ms + self._config.resend_period_ms
        if self.is_leader and self._phase is Phase.ACCEPT:
            for peer in self._config.peers:
                if peer not in self._promises:
                    self._send_prepare(peer)
        elif self._phase is Phase.PREPARE and not self.is_leader \
                and self._leader_hint is not None:
            self._send(self._leader_hint.pid, PrepareReq())
        elif self._phase is Phase.RECOVER:
            for peer in self._config.peers:
                self._send(peer, PrepareReq())

    def take_decided(self) -> List[Tuple[int, Any]]:
        """Drain newly decided ``(index, entry)`` pairs since the last call.

        After a snapshot installation the first drained item is
        ``(covers_idx, SnapshotInstalled(state))`` — the state standing in
        for entries ``[0, covers_idx)`` — followed by regular entries.
        """
        out: List[Tuple[int, Any]] = []
        if self._pending_snapshot is not None:
            covers, marker = self._pending_snapshot
            self._pending_snapshot = None
            if covers > self._applied_idx:
                out.append((covers, marker))
                self._applied_idx = covers
        decided = self._storage.get_decided_idx()
        if decided > self._applied_idx:
            entries = self._storage.get_entries(self._applied_idx, decided)
            out.extend(enumerate(entries, start=self._applied_idx))
            self._applied_idx = decided
        if out and self._obs_on:
            self._obs.counter("repro_decided_entries_total",
                              pid=self.pid).inc(len(out))
            if self._obs.tracing:
                self._obs.emit(EntryApplied(
                    pid=self.pid, log_idx=self._applied_idx, count=len(out)))
        return out

    # ------------------------------------------------------------------
    # failure recovery and session drops (paper section 4.1.3)
    # ------------------------------------------------------------------

    def fail_recover(self) -> None:
        """Enter recovery after a crash-restart: ask peers for a Prepare."""
        self._set_role(Role.FOLLOWER)
        self._phase = Phase.RECOVER
        self._current_round = self._storage.get_promise()
        self._trace_recovery_start("crash")
        for peer in self._config.peers:
            self._send(peer, PrepareReq())

    def reconnected(self, peer: int) -> None:
        """A link session to ``peer`` was re-established.

        Either side might have missed a leader change while the session was
        down, so ask the peer for a Prepare if it happens to be the leader;
        if *we* are the leader, re-Prepare the peer.
        """
        if self.is_leader:
            self._send_prepare(peer)
        else:
            # Only a restored session *to the leader* starts a resync; a
            # follower-follower reconnect sends the (ignored) PrepareReq
            # but involves no recovery to span.
            if self.leader_pid == peer:
                self._trace_recovery_start("session")
            self._send(peer, PrepareReq())

    def _trace_recovery_start(self, reason: str) -> None:
        """Tracing-only: open a recovery span (PrepareReq out)."""
        if not self._obs.tracing or self._trace_recovery is not None:
            return
        self._trace_recovery = (self._obs.now_ms(), reason)
        self._obs.emit(RecoveryStarted(pid=self.pid, reason=reason))

    def _trace_recovery_end(self) -> None:
        """Tracing-only: close an open recovery span (resynchronized)."""
        if self._trace_recovery is None:
            return
        started_ms, _reason = self._trace_recovery
        self._trace_recovery = None
        if not self._obs.tracing:
            return
        self._obs.emit(RecoveryCompleted(
            pid=self.pid, log_idx=self._storage.log_len()))
        self._obs.histogram("repro_recovery_duration_ms").observe(
            self._obs.now_ms() - started_ms)

    # ------------------------------------------------------------------
    # internals: outbound helpers
    # ------------------------------------------------------------------

    def _send(self, dst: int, msg: Any) -> None:
        self._outbox.append((dst, msg))

    def _send_prepare(self, peer: int) -> None:
        self.stats.prepares_sent += 1
        self._send(peer, Prepare(
            n=self._current_round,
            acc_rnd=self._storage.get_accepted_round(),
            log_idx=self._storage.log_len(),
            decided_idx=self._storage.get_decided_idx(),
        ))

    def _buffer_entries(self, entries: Sequence[Any]) -> None:
        self._buffer.extend(entries)
        if not self._buffered_ss and any(is_stopsign(e) for e in entries):
            self._buffered_ss = True

    def _take_buffer(self) -> List[Any]:
        pending, self._buffer = self._buffer, []
        self._buffered_ss = False
        return pending

    @staticmethod
    def _clip_at_stopsign(entries: Sequence[Any]) -> Tuple[List[Any], int]:
        """Keep entries up to and including the first stop-sign; anything
        after it can never be decided in this configuration (paper §6)."""
        for i, entry in enumerate(entries):
            if is_stopsign(entry):
                return list(entries[:i + 1]), len(entries) - (i + 1)
        return list(entries), 0

    def _forward_buffered(self) -> None:
        """Forward buffered proposals to the best-known leader."""
        if not self._buffer or self._leader_hint is None:
            return
        if self._leader_hint.pid == self.pid:
            return  # we are (still) the leader; the buffer drains locally
        entries = tuple(self._take_buffer())
        self._send(self._leader_hint.pid, ProposalForward(entries))

    # ------------------------------------------------------------------
    # internals: leader side
    # ------------------------------------------------------------------

    def _become_leader(self, ballot: Ballot) -> None:
        self.stats.rounds_led += 1
        self._set_role(Role.LEADER)
        self._phase = Phase.PREPARE
        self._current_round = ballot
        self._leader_hint = ballot
        self._storage.set_promise(ballot)
        self._promises = {
            self.pid: _PromiseMeta(
                acc_rnd=self._storage.get_accepted_round(),
                log_idx=self._storage.log_len(),
                decided_idx=self._storage.get_decided_idx(),
                suffix=None,
            )
        }
        self._las = {}
        self._lds = {}
        self._synced_peers = set()
        self._sent_idx = {}
        self._unsent = False
        self._accept_seq = {}
        self._accept_session = {}
        self._trace_fanout = []  # stale fan-out times from an older tenure
        for peer in self._config.peers:
            self._send_prepare(peer)
        if len(self._promises) >= self._config.majority:
            # Single-server configuration: we are our own majority.
            self._handle_majority_promises()

    def _on_promise(self, src: int, msg: Promise) -> None:
        if not self.is_leader or msg.n != self._current_round:
            return
        meta = _PromiseMeta(
            acc_rnd=msg.acc_rnd,
            log_idx=msg.log_idx,
            decided_idx=msg.decided_idx,
            suffix=msg.suffix,
            snapshot=msg.snapshot,
        )
        if self._phase is Phase.PREPARE:
            self._promises[src] = meta
            if len(self._promises) >= self._config.majority:
                self._handle_majority_promises()
        elif self._phase is Phase.ACCEPT:
            # A straggler promised after the Prepare phase completed
            # (paper section 4.1.2): synchronize it with our current log.
            self._promises[src] = meta
            self._accept_sync_follower(src, meta)

    def _handle_majority_promises(self) -> None:
        """Adopt the most updated log among the promised majority and
        synchronize every promised follower with it."""
        my_meta = self._promises[self.pid]
        # Pick the maximum (acc_rnd, log_idx); prefer ourselves on ties so
        # no copy is needed.
        best_pid = self.pid
        best_key = (my_meta.acc_rnd, my_meta.log_idx)
        for pid, meta in self._promises.items():
            key = (meta.acc_rnd, meta.log_idx)
            if key > best_key:
                best_pid, best_key = pid, key
        best = self._promises[best_pid]
        if best_pid != self.pid:
            if best.snapshot is not None:
                # The promiser compacted part of what we lack: adopt its
                # snapshot in place of the missing prefix, then the suffix.
                self._install_snapshot(best.snapshot)
                self._truncate(best.snapshot[1])
                self._append(best.suffix)
            elif best.acc_rnd > my_meta.acc_rnd:
                # The shipped suffix starts at *our* decided index, or at
                # the promiser's compacted index if a power cut took our
                # (lazily synced) decided index below a trim; our log holds
                # the chosen entries up to either. Adopt it from its start.
                self._adopt(best.log_idx - len(best.suffix), best.suffix)
            elif best.suffix:
                # Same accepted round: the suffix extends our log from our
                # own log_idx.
                self._append(best.suffix)
        self._max_prom_acc_rnd = best.acc_rnd
        self._max_prom_log_idx = best_key[1] if best_pid != self.pid else my_meta.log_idx
        self._storage.set_accepted_round(self._current_round)
        # Adopt the furthest decided index among the majority: those entries
        # are chosen, hence a prefix of the adopted log.
        max_decided = max(meta.decided_idx for meta in self._promises.values())
        if max_decided > self._storage.get_decided_idx():
            self._storage.set_decided_idx(min(max_decided, self._storage.log_len()))
        # Append proposals buffered while preparing (unless a stop-sign got
        # adopted with the new log), clipping at any buffered stop-sign so
        # nothing ever follows one in the log.
        if self._buffer:
            pending = self._take_buffer()
            if self._ss_idx is not None:
                self.stats.proposals_rejected += len(pending)
            else:
                kept, rejected = self._clip_at_stopsign(pending)
                self.stats.proposals_rejected += rejected
                self._append(kept)
        self._phase = Phase.ACCEPT
        # A recovering server that won the election resynchronized itself
        # through the majority's promises — its recovery is over too.
        self._trace_recovery_end()
        # We count our own acceptance of the adopted log once it is
        # durable (self_accept), like any append.
        self._las = {}
        for pid, meta in self._promises.items():
            if pid != self.pid:
                self._accept_sync_follower(pid, meta)

    def _sync_idx_for(self, meta: _PromiseMeta) -> int:
        """From which index must a promised follower be synchronized?

        - Same ``acc_rnd`` as the adopted log (or as our own current round):
          the follower's log agrees with ours up to
          ``min(follower_log_idx, agreement_length)``; sync from there.
        - Older ``acc_rnd``: only its decided prefix is guaranteed to agree;
          sync from its decided index.
        """
        if meta.acc_rnd == self._current_round:
            # Already accepted in this round (a re-promise after a session
            # drop): its log is a prefix of ours.
            return min(meta.log_idx, self._storage.log_len())
        if meta.acc_rnd == self._max_prom_acc_rnd:
            return min(meta.log_idx, self._max_prom_log_idx)
        return meta.decided_idx

    def _accept_sync_follower(self, pid: int, meta: _PromiseMeta) -> None:
        sync_idx = self._sync_idx_for(meta)
        snapshot = None
        if sync_idx < self._storage.compacted_idx():
            # The follower needs entries we already compacted: ship our
            # snapshot in their place. Without a snapshotter none is needed:
            # trim never outruns a decided index every follower reported,
            # and the entries under it were on the follower's disk before it
            # reported (only the index itself is synced lazily).
            snapshot = self._storage.get_snapshot()
            sync_idx = self._storage.compacted_idx()
        self.stats.accept_syncs_sent += 1
        self._synced_peers.add(pid)
        # The suffix below runs to the end of the log, so it carries any
        # entry proposed since the last hand-out: exactly once, here.
        self._sent_idx[pid] = self._storage.log_len()
        self._accept_seq[pid] = 0  # AcceptSync restarts the seq counter...
        session = self._accept_session.get(pid, 0) + 1
        self._accept_session[pid] = session  # ...in a fresh, numbered session
        self._send(pid, AcceptSync(
            n=self._current_round,
            suffix=self._storage.get_suffix(sync_idx),
            sync_idx=sync_idx,
            decided_idx=self._storage.get_decided_idx(),
            snapshot=snapshot,
            session=session,
        ))

    def _append_and_replicate(self, entries: Sequence[Any]) -> None:
        """Everything a proposal needs done inside the call: clip at a
        stop-sign and append. The ``AcceptDecide`` that replicates the
        entries is built by :meth:`take_outbox`; our own acceptance counts
        once the caller reports the append durable (:meth:`self_accept`)."""
        entries, rejected = self._clip_at_stopsign(entries)
        self.stats.proposals_rejected += rejected
        if not entries:
            return
        storage = self._storage
        start_idx = storage.log_len()
        self._append(entries)
        self._unsent = True
        if self._obs.tracing:
            log_len = storage.log_len()
            self._trace_fanout.append((log_len, self._obs.now_ms()))
            self._obs.emit(ProposalAppended(
                pid=self.pid, from_idx=start_idx, to_idx=log_len,
                protocol="sp", trace_id=entry_trace_id(entries[0]),
            ))

    def self_accept_mark(self) -> Optional[Tuple[Ballot, int]]:
        """The leader's round and log length while it holds entries it
        does not count as accepted yet, else None. Take it when the
        storage writes those entries; hand it to :meth:`self_accept` once
        that write is durable."""
        if self._phase is Phase.ACCEPT and self._role is Role.LEADER:
            log_len = self._storage.log_len()
            if self._las.get(self.pid, 0) < log_len:
                return self._current_round, log_len
        return None

    def self_accept(self, mark: Tuple[Ballot, int]) -> bool:
        """The write that ``mark`` was taken at is durable: count our own
        acceptance up to its log length, and decide if that makes a
        majority; returns whether it decided. A mark from an earlier
        tenure counts nothing: within one round's Accept phase the
        leader's log only grows, so the entries below the length are the
        ones that were written."""
        round_, log_len = mark
        if (self._phase is Phase.ACCEPT and self._role is Role.LEADER
                and round_ == self._current_round
                and log_len > self._las.get(self.pid, 0)):
            self._las[self.pid] = log_len
            return self._maybe_decide(log_len)
        return False

    def _replicate_unsent(self) -> None:
        """One ``AcceptDecide`` per synced follower, carrying the entries
        past its sent index and the current decided index.

        ``(session, seq)`` number messages, so they are assigned here. A
        leader deposed since the append sends nothing: the entries stay an
        undecided tail for the next round's Prepare phase to sort out.
        The peer iteration order (set order) is part of the deterministic
        behaviour and must not change.
        """
        if not self.is_leader or self._phase is not Phase.ACCEPT:
            return
        storage = self._storage
        log_len = storage.log_len()
        decided_idx = storage.get_decided_idx()
        round_ = self._current_round
        sent_idx = self._sent_idx
        accept_seq = self._accept_seq
        session_of = self._accept_session.get
        outbox = self._outbox
        # Followers at the same (sent index, session, seq) -- all of them,
        # in steady state -- get the same object, which the runtime's
        # frame encoder then serializes once.
        key = msg = None
        for pid in self._synced_peers:
            sent = sent_idx[pid]
            if sent >= log_len:
                continue
            sent_idx[pid] = log_len
            seq = accept_seq.get(pid, 0) + 1
            accept_seq[pid] = seq
            session = session_of(pid, 1)
            if key != (sent, session, seq):
                key = (sent, session, seq)
                msg = AcceptDecide(
                    n=round_,
                    entries=storage.get_entries(sent, log_len),
                    decided_idx=decided_idx,
                    seq=seq,
                    session=session,
                )
            outbox.append((pid, msg))

    def _on_accepted(self, src: int, msg: Accepted) -> None:
        if not self.is_leader or msg.n != self._current_round:
            return
        if self._phase is not Phase.ACCEPT:
            return
        if msg.decided_idx > self._lds.get(src, 0):
            self._lds[src] = msg.decided_idx
        previous = self._las.get(src, 0)
        if msg.log_idx > previous:
            self._las[src] = msg.log_idx
            self._maybe_decide(msg.log_idx)

    def _maybe_decide(self, candidate_idx: int) -> bool:
        """Decide ``candidate_idx`` if a majority has accepted that far;
        returns whether it did."""
        if candidate_idx <= self._storage.get_decided_idx():
            return False
        accepted = sum(1 for idx in self._las.values() if idx >= candidate_idx)
        if accepted < self._config.majority:
            return False
        self._storage.set_decided_idx(candidate_idx)
        if self._obs.tracing:
            self._obs.emit(QuorumAccepted(
                pid=self.pid, log_idx=candidate_idx, protocol="sp"))
            now = self._obs.now_ms()
            while self._trace_fanout and self._trace_fanout[0][0] <= candidate_idx:
                _, fanned_at = self._trace_fanout.pop(0)
                self._obs.histogram("repro_commit_phase_ms",
                                    phase="replicate").observe(now - fanned_at)
        msg = Decide(n=self._current_round, decided_idx=candidate_idx)
        for pid in self._synced_peers:
            self._send(pid, msg)
        return True

    def _on_prepare_req(self, src: int) -> None:
        if self.is_leader:
            self._send_prepare(src)

    # ------------------------------------------------------------------
    # log compaction (trim)
    # ------------------------------------------------------------------

    @property
    def compacted_idx(self) -> int:
        """First log index still present in storage."""
        return self._storage.compacted_idx()

    def trim(self, idx: Optional[int] = None) -> int:
        """Reclaim the log prefix below ``idx`` cluster-wide (leader only).

        Safety requires that *every* server in the configuration has
        decided past ``idx`` — otherwise a straggler could never be
        synchronized again. The leader validates this against the decided
        indices reported in Accepted messages; with ``idx=None`` it trims
        as far as currently safe. Returns the trimmed index.

        Raises :class:`NotLeaderError` on a non-leader and
        :class:`CompactionError` when the prefix is not yet decided
        everywhere (e.g. a partitioned follower has not reported).
        """
        if not self.is_leader or self._phase is not Phase.ACCEPT:
            raise NotLeaderError("only an Accept-phase leader can trim")
        ss_bound = self._ss_idx if self._ss_idx is not None else None
        if self._config.snapshotter is not None:
            # With a snapshotter, stragglers below the compaction point can
            # be synchronized with the snapshot, so the local decided index
            # is the only bound.
            safe = self._storage.get_decided_idx()
        else:
            known = [self._lds.get(peer, 0) for peer in self._config.peers]
            known.append(self._storage.get_decided_idx())
            safe = min(known)
        if ss_bound is not None:
            # Never compact the stop-sign: it is the segment boundary the
            # service layer (and recovery) relies on.
            safe = min(safe, ss_bound)
        if idx is None:
            idx = safe
        if idx > safe:
            raise CompactionError(
                f"cannot trim to {idx}: only decided everywhere up to {safe}"
            )
        if idx > self._storage.compacted_idx():
            self._compact_local(idx)
            for peer in self._config.peers:
                self._send(peer, Trim(n=self._current_round, trimmed_idx=idx))
        return idx

    def _compact_local(self, idx: int) -> None:
        """Fold the prefix into the snapshot (if configured) and compact."""
        if self._config.snapshotter is not None:
            prev = self._storage.get_snapshot()
            prev_state = prev[0] if prev is not None else None
            entries = self._storage.get_entries(
                self._storage.compacted_idx(), idx
            )
            state = self._config.snapshotter(entries, prev_state)
            self._storage.set_snapshot(state, idx)
        self._storage.compact_prefix(idx)

    def _on_trim(self, msg: Trim) -> None:
        if msg.n != self._storage.get_promise():
            return
        # The leader guarantees the prefix is recoverable (decided
        # everywhere, or snapshot-backed); clamp to the locally decided
        # prefix defensively (e.g. a lost Decide).
        idx = min(msg.trimmed_idx, self._storage.get_decided_idx())
        if idx > self._storage.compacted_idx():
            self._compact_local(idx)

    def _on_proposal_forward(self, msg: ProposalForward) -> None:
        if self.stopped():
            self.stats.proposals_rejected += len(msg.entries)
            return  # the client's retry path handles re-proposing in c_{i+1}
        if self.is_leader and self._phase is Phase.ACCEPT:
            self._append_and_replicate(msg.entries)
        elif self.is_leader and self._phase is Phase.PREPARE:
            self._buffer_entries(msg.entries)
        else:
            # We are not the leader (anymore): forward along to our hint.
            self._buffer_entries(msg.entries)
            self._forward_buffered()

    # ------------------------------------------------------------------
    # internals: follower side
    # ------------------------------------------------------------------

    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if msg.n < self._storage.get_promise():
            return  # obsolete round; no NACK — silence avoids leader gossip
        if msg.n == self._storage.get_promise() and self.is_leader:
            return  # our own round echoed back; ignore
        if msg.n > self._storage.get_promise():
            # A new leader tenure numbers its sync sessions from 1 again.
            self._expected_session = 0
        self._storage.set_promise(msg.n)
        self._set_role(Role.FOLLOWER)
        self._phase = Phase.PREPARE
        self._current_round = msg.n
        self._leader_hint = msg.n
        self._resync_requested = False
        my_acc_rnd = self._storage.get_accepted_round()
        if my_acc_rnd > msg.acc_rnd:
            # We are more updated: ship everything past the leader's decided
            # index so it can replace its non-chosen tail.
            start: Optional[int] = msg.decided_idx
        elif my_acc_rnd == msg.acc_rnd:
            # Same round: logs are prefix-ordered; ship what the leader lacks.
            start = msg.log_idx
        else:
            start = None
        snapshot = None
        if start is not None and start < self._storage.compacted_idx():
            # Part of what the leader needs was compacted here: our snapshot
            # stands in for the missing prefix.
            snapshot = self._storage.get_snapshot()
            start = self._storage.compacted_idx()
        suffix = self._storage.get_suffix(start) if start is not None else ()
        self._send(src, Promise(
            n=msg.n,
            acc_rnd=my_acc_rnd,
            suffix=suffix,
            log_idx=self._storage.log_len(),
            decided_idx=self._storage.get_decided_idx(),
            snapshot=snapshot,
        ))
        self._forward_buffered()

    def _on_accept_sync(self, src: int, msg: AcceptSync) -> None:
        if msg.n != self._storage.get_promise() or self.is_leader:
            return
        if self._phase not in (Phase.PREPARE, Phase.ACCEPT):
            return
        if msg.session <= self._expected_session:
            # A duplicated (or reordered-behind) copy of a sync we already
            # applied: re-applying would roll the log back to an old sync
            # point and desynchronize the seq counters.
            return
        # An Accept-phase follower can receive a *re*-sync when overlapping
        # Prepare/Promise exchanges raced (e.g. a session drop and a
        # PrepareReq both triggered one). The leader opened a fresh numbered
        # session when it sent this message, so it must be applied —
        # dropping it would desynchronize the counters and make every later
        # batch look stale. The sync point may lie below our decided prefix
        # (the promise it answers was stale); the suffix covers that prefix
        # with identical chosen entries, so clip.
        sync_idx = msg.sync_idx
        suffix = msg.suffix
        if msg.snapshot is not None:
            self._install_snapshot(msg.snapshot)
        decided = self._storage.get_decided_idx()
        if sync_idx < decided:
            skip = decided - sync_idx
            if skip > len(suffix):
                return  # entirely below our decided prefix: obsolete
            suffix = suffix[skip:]
            sync_idx = decided
        self._adopt(sync_idx, suffix)
        self._storage.set_accepted_round(msg.n)
        self._phase = Phase.ACCEPT
        self._expected_session = msg.session
        self._expected_seq = 0
        self._resync_requested = False
        self._trace_recovery_end()
        if msg.decided_idx > self._storage.get_decided_idx():
            self._storage.set_decided_idx(min(msg.decided_idx, self._storage.log_len()))
        self._send(src, Accepted(n=msg.n, log_idx=self._storage.log_len(),
                                 decided_idx=self._storage.get_decided_idx()))

    def _on_accept_decide(self, src: int, msg: AcceptDecide) -> None:
        if msg.n != self._storage.get_promise() or self._phase is not Phase.ACCEPT:
            return
        if self.is_leader:
            return
        if msg.session != self._expected_session:
            if msg.session > self._expected_session \
                    and not self._resync_requested:
                # The AcceptSync that opened this session never arrived:
                # resynchronize (the leader answers with a fresh Prepare).
                self._resync_requested = True
                self._send(src, PrepareReq())
            return  # an older session's straggler (reordered/duplicated)
        if msg.seq != self._expected_seq + 1:
            if msg.seq > self._expected_seq + 1 and not self._resync_requested:
                # A preceding AcceptDecide was lost (non-FIFO transport):
                # appending would corrupt the log, so resynchronize instead
                # (the leader answers PrepareReq with a fresh Prepare).
                self._resync_requested = True
                self._send(src, PrepareReq())
            return  # duplicates / stale messages are ignored either way
        self._expected_seq = msg.seq
        storage = self._storage
        self._append(msg.entries)
        log_len = storage.log_len()
        decided = storage.get_decided_idx()
        if msg.decided_idx > decided:
            decided = min(msg.decided_idx, log_len)
            storage.set_decided_idx(decided)
        self._outbox.append((src, Accepted(n=msg.n, log_idx=log_len,
                                           decided_idx=decided)))

    def _on_decide(self, src: int, msg: Decide) -> None:
        if msg.n != self._storage.get_promise() or self._phase is not Phase.ACCEPT:
            return
        if msg.decided_idx > self._storage.get_decided_idx():
            self._storage.set_decided_idx(min(msg.decided_idx, self._storage.log_len()))
            # Acknowledge the new decided watermark (one ack per Decide,
            # i.e. per batch): this is what lets the leader validate that a
            # log prefix is decided everywhere before trimming it. The ack
            # may outrun our disk's decided index, not the entries it covers.
            self._send(src, Accepted(
                n=msg.n,
                log_idx=self._storage.log_len(),
                decided_idx=self._storage.get_decided_idx(),
            ))

    # ------------------------------------------------------------------
    # internals: log bookkeeping (stop-sign tracking)
    # ------------------------------------------------------------------

    def _find_stopsign(self) -> Optional[int]:
        length = self._storage.log_len()
        if length <= self._storage.compacted_idx():
            # Fully compacted log (e.g. recovery right after a trim): the
            # final entry is not readable, and trim never compacts a
            # stop-sign, so there is none.
            return None
        if is_stopsign(self._storage.get_entry(length - 1)):
            return length - 1
        return None

    def _append(self, entries: Sequence[Any]) -> None:
        if not entries:
            return
        new_len = self._storage.append_entries(entries)
        # A stop-sign can only ever sit at the end of a log: no leader
        # appends past one, so checking the last entry of the batch suffices.
        if is_stopsign(entries[-1]):
            self._ss_idx = new_len - 1

    def _adopt(self, start: int, suffix: Sequence[Any]) -> None:
        """Make our log ``suffix`` from ``start`` on. What we already hold
        there is kept, not truncated and re-appended: after a power cut
        our decided index may lag a peer's compacted index, and a truncate
        that reached the disk without the append behind it would leave a
        gap no compacted peer can fill."""
        same = 0
        for ours, theirs in zip(self._storage.get_entries(start, start + len(suffix)),
                                suffix):
            if ours != theirs:
                break
            same += 1
        self._truncate(start + same)
        self._append(suffix[same:])

    def _install_snapshot(self, snapshot: Tuple[Any, int]) -> None:
        """Adopt a snapshot received in a Promise or AcceptSync."""
        state, covers = snapshot
        self._storage.install_snapshot(state, covers)
        self._pending_snapshot = (covers, SnapshotInstalled(state))
        if self._ss_idx is not None and self._ss_idx < covers:
            self._ss_idx = None  # folded into the snapshot

    def _truncate(self, from_idx: int) -> None:
        if from_idx >= self._storage.log_len():
            return
        self._storage.truncate_suffix(from_idx)
        if self._ss_idx is not None and self._ss_idx >= from_idx:
            self._ss_idx = None
