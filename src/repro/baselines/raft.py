"""Raft, with optional PreVote and CheckQuorum — the paper's main baseline.

This is a faithful implementation of the Raft rules that produce the
behaviours the paper demonstrates under partial connectivity:

- randomized election timeouts in ``[T, 2T)`` (the source of the high
  variance the paper records in the quorum-loss and chained scenarios),
- the *log up-to-date* voting rule ("max log"), which deadlocks Raft in the
  constrained-election scenario because the only quorum-connected server has
  a stale log,
- term propagation through rejected AppendEntries / RequestVote, the
  gossip-style channel behind the chained livelock,
- PreVote (Raft thesis section 9.6, with leader stickiness) and CheckQuorum,
  the recent mitigations [Jensen et al. 2021] that the paper evaluates as
  "Raft PV+CQ".

Reconfiguration follows the leader-centric practice of Raft systems: the
leader appends a :class:`RaftConfigChange` entry, replicates to the union of
old and new members — which means it alone streams the whole log to every
joining server — and the new member set takes effect once the entry commits.
Entries beyond the config entry need a majority of the *new* set, which is
why replacing a majority causes full downtime until a new server has caught
up (paper section 7.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError, NotLeaderError
from repro.obs.events import (
    BallotElected,
    EntryApplied,
    HeartbeatViewReported,
    ProposalAppended,
    QuorumAccepted,
    RecoveryCompleted,
    RecoveryStarted,
    RoleChanged,
)
from repro.obs.health import GrayFailureDetector, SelfDegradationMonitor
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import entry_trace_id
from repro.omni.entry import SnapshotInstalled, entry_wire_size
from repro.replica import Replica
from repro.util.rng import spawn_rng

_HEADER = 24


class RaftRole(enum.Enum):
    FOLLOWER = "follower"
    PRECANDIDATE = "precandidate"
    CANDIDATE = "candidate"
    LEADER = "leader"


# --------------------------------------------------------------------------
# wire messages
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RequestVote:
    term: int
    candidate: int
    last_log_idx: int
    last_log_term: int
    prevote: bool = False

    def wire_size(self) -> int:
        return _HEADER + 33


@dataclass(frozen=True, slots=True)
class RequestVoteReply:
    term: int
    granted: bool
    prevote: bool = False

    def wire_size(self) -> int:
        return _HEADER + 10


@dataclass(frozen=True, slots=True)
class AppendEntries:
    term: int
    leader: int
    prev_idx: int
    prev_term: int
    entries: Tuple["RaftSlot", ...]
    leader_commit: int
    #: Per-follower send sequence number, echoed in the reply so the leader
    #: can discard stale rejections (flow control, as in raft-rs).
    seq: int = 0

    def wire_size(self) -> int:
        payload = sum(8 + entry_wire_size(slot.entry) for slot in self.entries)
        return _HEADER + 44 + payload


@dataclass(frozen=True, slots=True)
class AppendEntriesReply:
    term: int
    success: bool
    #: On success: the follower's new log length. On failure: a hint of
    #: where the leader should retry from (the follower's log length).
    match_idx: int
    seq: int = 0

    def wire_size(self) -> int:
        return _HEADER + 21


@dataclass(frozen=True, slots=True)
class RaftSlot:
    """One log slot: the term it was appended in plus the client entry."""

    term: int
    entry: Any


@dataclass(frozen=True, slots=True)
class TimeoutNow:
    """Leader -> chosen successor: campaign immediately (leadership
    transfer, as in etcd/TiKV). The recipient skips PreVote — the sender is
    abdicating on purpose."""

    term: int

    def wire_size(self) -> int:
        return _HEADER + 8


@dataclass(frozen=True, slots=True)
class RaftConfigChange:
    """A membership-change log entry (takes effect when committed)."""

    servers: Tuple[int, ...]

    def wire_size(self) -> int:
        return 16 + 8 * len(self.servers)


@dataclass(frozen=True, slots=True)
class InstallSnapshot:
    """Leader -> far-behind follower: state replacing entries
    ``[0, last_idx)`` (whose final term was ``last_term``)."""

    term: int
    leader: int
    last_idx: int
    last_term: int
    state: Any
    leader_commit: int

    def wire_size(self) -> int:
        sizer = getattr(self.state, "wire_size", None)
        if sizer is not None:
            return _HEADER + 40 + sizer()
        try:
            return _HEADER + 40 + max(len(self.state), 16)
        except TypeError:
            return _HEADER + 104


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RaftConfig:
    """Static configuration of one Raft server.

    ``election_timeout_ms`` is the base T; actual timeouts randomize in
    ``[T, 2T)``. The heartbeat interval defaults to T/5 like most
    deployments. ``prevote``/``check_quorum`` enable the PV+CQ variant.
    """

    pid: int
    voters: Tuple[int, ...]
    election_timeout_ms: float = 500.0
    heartbeat_ms: Optional[float] = None
    prevote: bool = False
    check_quorum: bool = False
    #: Opt-in graceful degradation (the Raft analogue of Omni's
    #: gray-aware BLE): the server watches its own tick cadence through a
    #: :class:`~repro.obs.health.SelfDegradationMonitor`; while it scores
    #: itself fail-slow it declines candidacy and, if leader, steps down
    #: voluntarily — so a 100×-slowed leader hands over instead of
    #: heartbeating just often enough to hold the cluster hostage.
    #: Default off; default behaviour is untouched.
    gray_aware: bool = False
    max_entries_per_msg: int = 4096
    #: Deterministic fold ``(entries, prev_state) -> state``; enables
    #: snapshot-based catch-up (and is required for log compaction).
    snapshotter: Optional[Any] = None
    #: Ship an InstallSnapshot instead of streaming when a follower is
    #: more than this many entries behind the leader's snapshot point.
    snapshot_catchup_threshold: Optional[int] = None
    seed: int = 0
    initial_leader: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pid <= 0:
            raise ConfigError("pids must be positive")
        if self.voters and self.pid not in self.voters:
            # A brand-new server joining via reconfiguration starts with an
            # empty voter set and learns membership from the log.
            raise ConfigError("pid must be in voters (or voters empty for joiners)")
        if self.election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be positive")
        if self.max_entries_per_msg <= 0:
            raise ConfigError("max_entries_per_msg must be positive")

    @property
    def heartbeat_interval(self) -> float:
        if self.heartbeat_ms is not None:
            return self.heartbeat_ms
        return max(self.election_timeout_ms / 5.0, 1.0)


class RaftLog:
    """Raft's log with stable (logical) indices across snapshot installs.

    Indices are 1-based matchers externally (``len`` = last index), slots
    stored 0-based internally from ``base``. After ``install(base,
    last_term)`` the entries below ``base`` are gone, represented by the
    snapshot; ``term_at(base)`` still answers with the snapshot's last term
    so AppendEntries consistency checks keep working at the boundary.
    """

    def __init__(self) -> None:
        self._slots: List[RaftSlot] = []
        self._base = 0          # logical count of snapshotted entries
        self._base_term = 0     # term of the last snapshotted entry

    def __len__(self) -> int:
        return self._base + len(self._slots)

    @property
    def base(self) -> int:
        return self._base

    @property
    def base_term(self) -> int:
        return self._base_term

    def append(self, slot: RaftSlot) -> None:
        self._slots.append(slot)

    def extend(self, slots) -> None:
        self._slots.extend(slots)

    def term_at(self, idx: int) -> int:
        """Term of the entry at 1-based index ``idx`` (0 -> term 0)."""
        if idx == 0:
            return 0
        if idx == self._base:
            return self._base_term
        if idx < self._base:
            raise IndexError(f"index {idx} was snapshotted away")
        return self._slots[idx - self._base - 1].term

    def slot_at(self, idx: int) -> RaftSlot:
        """The slot at 1-based index ``idx``."""
        if idx <= self._base:
            raise IndexError(f"index {idx} was snapshotted away")
        return self._slots[idx - self._base - 1]

    def slice(self, lo: int, hi: int) -> Tuple[RaftSlot, ...]:
        """Slots covering 1-based indices ``(lo, hi]``."""
        return tuple(self._slots[max(lo - self._base, 0):hi - self._base])

    def truncate_from(self, idx: int) -> None:
        """Drop every entry with 1-based index > ``idx``."""
        del self._slots[max(idx - self._base, 0):]

    def covered_by_snapshot(self, idx: int) -> bool:
        """Whether 1-based index ``idx``'s entry is inside the snapshot."""
        return idx <= self._base

    def install(self, base: int, base_term: int) -> None:
        """Adopt a snapshot covering the first ``base`` entries."""
        if base <= self._base:
            return
        if base < len(self):
            # Keep the tail beyond the snapshot point.
            del self._slots[:base - self._base]
        else:
            self._slots = []
        self._base = base
        self._base_term = base_term

    def entries_from(self, lo: int) -> Tuple[RaftSlot, ...]:
        return self.slice(lo, len(self))


@dataclass
class RaftStats:
    elections_started: int = 0
    prevotes_started: int = 0
    leader_changes: int = 0
    stepdowns_check_quorum: int = 0
    stepdowns_self_degraded: int = 0
    max_term_seen: int = 0
    snapshots_sent: int = 0


# --------------------------------------------------------------------------
# the replica
# --------------------------------------------------------------------------

class RaftReplica(Replica):
    """One Raft server (sans-io)."""

    def __init__(self, config: RaftConfig):
        self._config = config
        self._rng = spawn_rng(config.seed, "raft", config.pid)
        # Persistent state (survives crash via `crash`/`recover`).
        self._term = 0
        self._voted_for: Optional[int] = None
        self._log = RaftLog()
        # Volatile state.
        self._role = RaftRole.FOLLOWER
        self._leader_id: Optional[int] = None
        self._commit_idx = 0
        self._applied_idx = 0
        self._voters: Optional[Tuple[int, ...]] = config.voters or None
        #: Uncommitted config change: (entry index, new member set).
        self._pending_config: Optional[Tuple[int, Tuple[int, ...]]] = None
        #: Everyone we replicate to (voters plus joining servers).
        self._replication_targets: Set[int] = set(config.voters)
        self._replication_targets.discard(config.pid)
        # Timers.
        self._election_deadline = 0.0
        self._heartbeat_deadline = 0.0
        self._last_leader_contact = -1e18
        # Candidate state.
        self._votes: Set[int] = set()
        self._prevotes: Set[int] = set()
        # Leader state.
        self._next_idx: Dict[int, int] = {}
        self._match_idx: Dict[int, int] = {}
        self._last_heard: Dict[int, float] = {}
        self._append_seq: Dict[int, int] = {}
        #: Whether entries were proposed since the last hand-out.
        self._unsent = False
        self._outbox: List[Tuple[int, Any]] = []
        self._decided_out: List[Tuple[int, Any]] = []
        # Transport snapshot (lazily folded committed prefix).
        self._snap_state: Any = None
        self._snap_idx = 0
        self._snap_term = 0
        self._crashed = False
        self._started = False
        #: Tracing-only: fan-out times of in-flight batches, and the
        #: start of an open crash recovery (see repro.obs.spans).
        self._trace_fanout: List[Tuple[int, float]] = []
        self._trace_recovery: Optional[float] = None
        # Health observatory: gray-failure scoring of peers, and the
        # cadence of HeartbeatViewReported emissions (Raft has no
        # heartbeat *rounds*, so views report on the heartbeat interval).
        self._gray = GrayFailureDetector(
            pid=config.pid,
            expected_interval_ms=config.heartbeat_interval,
        )
        #: Gray-aware mode only: scores this server's own tick cadence.
        #: Self-baseline mode (no expected interval) because the driver's
        #: tick period is its own healthy reference — whatever cadence the
        #: harness drives at, a fail-slow node stretches it by the
        #: slowdown factor.
        self._self_monitor: Optional[SelfDegradationMonitor] = (
            SelfDegradationMonitor(config.pid, expected_interval_ms=None)
            if config.gray_aware else None
        )
        self._last_health_at: Optional[float] = None
        self._health_round = 0
        self.stats = RaftStats()

    def _on_observability(self, registry: MetricsRegistry) -> None:
        self._gray.bind(registry)
        if self._self_monitor is not None:
            self._self_monitor.bind(registry)

    # ------------------------------------------------------------------
    # Replica interface: accessors
    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def members(self) -> Tuple[int, ...]:
        if self._voters is None:
            return (self.pid,)
        return self._voters

    @property
    def is_leader(self) -> bool:
        return self._role is RaftRole.LEADER

    @property
    def leader_pid(self) -> Optional[int]:
        return self.pid if self.is_leader else self._leader_id

    @property
    def term(self) -> int:
        return self._term

    @property
    def role(self) -> RaftRole:
        return self._role

    @property
    def commit_idx(self) -> int:
        return self._commit_idx

    @property
    def log_len(self) -> int:
        return len(self._log)

    @property
    def gray_detector(self) -> GrayFailureDetector:
        """This server's gray-failure detector (health observatory)."""
        return self._gray

    @property
    def self_degraded(self) -> bool:
        """Whether this server currently scores *itself* fail-slow.

        Always False outside ``gray_aware`` mode."""
        return (self._self_monitor is not None
                and self._self_monitor.degraded)

    def _peers_heard(self, now_ms: float) -> Tuple[int, ...]:
        """Peers heard within one election timeout.

        A Raft leader hears every follower (AppendEntriesReply); a
        follower only hears the leader — the matrix a Raft cluster can
        assemble is inherently star-shaped, which is exactly the
        comparison point against Omni-Paxos's all-pairs BLE rounds.
        """
        window = self._config.election_timeout_ms
        if self._role is RaftRole.LEADER:
            return tuple(sorted(
                p for p, at in self._last_heard.items()
                if p != self.pid and now_ms - at <= window
            ))
        leader = self._leader_id
        if leader is not None and leader != self.pid \
                and now_ms - self._last_leader_contact <= window:
            return (leader,)
        return ()

    def _report_health(self, now_ms: float) -> None:
        """Emit one :class:`HeartbeatViewReported` per heartbeat interval
        (Raft has no heartbeat rounds; the interval is the closest
        analogue). Only called with observability on."""
        if self._last_health_at is not None \
                and now_ms - self._last_health_at < self._config.heartbeat_interval:
            return
        self._last_health_at = now_ms
        self._health_round += 1
        heard = self._peers_heard(now_ms)
        self._obs.emit(HeartbeatViewReported(
            pid=self.pid,
            round=self._health_round,
            ballot=self._term,
            leader=self.leader_pid if self.leader_pid is not None else 0,
            quorum_connected=len(heard) + 1 > len(self.members) // 2,
            connectivity=len(heard) + 1,
            peers_heard=heard,
            phase=self._role.value,
            log_len=len(self._log),
            decided_idx=self._commit_idx,
        ))

    def status(self) -> Dict[str, Any]:
        """Admin introspection: this server's current health view (the
        Raft analogue of ``OmniPaxosServer.status``)."""
        now_ms = self._obs.now_ms() if self._obs.enabled else \
            max(self._last_leader_contact, self._last_health_at or 0.0)
        heard = self._peers_heard(now_ms)
        return {
            "pid": self.pid,
            "protocol": "raft",
            "phase": "crashed" if self._crashed else self._role.value,
            "ballot": self._term,
            "leader": self.leader_pid if self.leader_pid is not None else 0,
            "quorum_connected": len(heard) + 1 > len(self.members) // 2,
            "connectivity": len(heard) + 1,
            "peers_heard": list(heard),
            "hb_round": self._health_round,
            "log_len": len(self._log),
            "decided_idx": self._commit_idx,
            "degraded": self._gray.snapshot(),
            "self_health": (
                None if self._self_monitor is None
                else self._self_monitor.snapshot()
            ),
        }

    # ------------------------------------------------------------------
    # Replica interface: driving
    # ------------------------------------------------------------------

    def preload(self, entries: Sequence[Any], term: int = 1) -> None:
        """Pre-populate the log with already-committed entries (benchmark
        warm starts); must be called before :meth:`start`."""
        if self._started:
            raise ConfigError("preload must happen before start()")
        self._log = RaftLog()
        self._log.extend(RaftSlot(term, entry) for entry in entries)
        self._commit_idx = len(self._log)
        self._applied_idx = len(self._log)
        self._term = max(self._term, term)

    def start(self, now_ms: float) -> None:
        if self._started:
            return
        self._started = True
        self._reset_election_deadline(now_ms)
        seed = self._config.initial_leader
        if seed is not None and self._voters is not None:
            if seed not in self._voters:
                raise ConfigError("initial_leader must be a voter")
            self._term = 1
            self._set_leader(seed)
            if seed == self.pid:
                self._become_leader(now_ms)

    def tick(self, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        if self._self_monitor is not None:
            self._self_monitor.observe_fire(now_ms)
            if self._role is RaftRole.LEADER and self._self_monitor.degraded:
                # Gray-aware: a self-diagnosed fail-slow leader abdicates
                # voluntarily instead of limping along on just-frequent-
                # enough heartbeats. Safe in Raft — stepping down never
                # violates safety, only costs one election.
                self.stats.stepdowns_self_degraded += 1
                self._step_down(self._term, now_ms, leader=None)
        if self._role is RaftRole.LEADER:
            if now_ms >= self._heartbeat_deadline:
                self._broadcast_append(heartbeat=True)
                self._heartbeat_deadline = now_ms + self._config.heartbeat_interval
            if self._config.check_quorum and now_ms >= self._election_deadline:
                self._check_quorum(now_ms)
        else:
            if now_ms >= self._election_deadline and self._can_campaign():
                if self._config.prevote:
                    self._start_prevote(now_ms)
                else:
                    self._start_election(now_ms)
        if self._obs_on:
            self._report_health(now_ms)

    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        if self._obs_on and isinstance(msg, AppendEntries):
            # The leader's timer fired: a beacon for the gray-failure
            # detector's interval signal (mirrors BLE HeartbeatRequest).
            self._gray.observe_beacon(src, now_ms)
        if isinstance(msg, RequestVote):
            self._on_request_vote(src, msg, now_ms)
        elif isinstance(msg, RequestVoteReply):
            self._on_vote_reply(src, msg, now_ms)
        elif isinstance(msg, AppendEntries):
            self._on_append_entries(src, msg, now_ms)
        elif isinstance(msg, AppendEntriesReply):
            self._on_append_reply(src, msg, now_ms)
        elif isinstance(msg, InstallSnapshot):
            self._on_install_snapshot(src, msg, now_ms)
        elif isinstance(msg, TimeoutNow):
            self._on_timeout_now(src, msg, now_ms)

    def propose(self, entry: Any, now_ms: float) -> None:
        self.propose_batch([entry], now_ms)

    def propose_batch(self, entries: Sequence[Any], now_ms: float) -> None:
        """Append ``entries`` (leader only); the ``AppendEntries`` that
        replicate them are built by the next :meth:`take_outbox`.

        Raft clients are redirected rather than forwarded: a non-leader
        raises :class:`NotLeaderError` carrying its best leader hint.
        """
        if self._role is not RaftRole.LEADER:
            raise NotLeaderError(leader=self._leader_id)
        start = len(self._log)
        self._log.extend(RaftSlot(self._term, entry) for entry in entries)
        if self._obs.tracing and entries:
            self._trace_fanout.append((len(self._log), self._obs.now_ms()))
            self._obs.emit(ProposalAppended(
                pid=self.pid, from_idx=start, to_idx=len(self._log),
                protocol="raft", trace_id=entry_trace_id(entries[0]),
            ))
        if len(self.members) == 1:
            self._maybe_commit()  # nobody else to wait for
        self._unsent = True

    def propose_reconfiguration(self, servers: Sequence[int],
                                now_ms: float) -> None:
        """Append a membership-change entry (leader only)."""
        if self._role is not RaftRole.LEADER:
            raise NotLeaderError(leader=self._leader_id)
        if self._pending_config is not None:
            raise ConfigError("a configuration change is already in flight")
        servers = tuple(servers)
        if len(set(servers)) != len(servers) or not servers:
            raise ConfigError("invalid new member set")
        change = RaftConfigChange(servers)
        self._log.append(RaftSlot(self._term, change))
        self._pending_config = (len(self._log), servers)
        for peer in servers:
            if peer != self.pid and peer not in self._replication_targets:
                self._replication_targets.add(peer)
                self._next_idx[peer] = len(self._log)
                self._match_idx[peer] = 0
        self._broadcast_append()

    def transfer_leadership(self, target: int, now_ms: float) -> None:
        """Hand leadership to ``target`` (must be an up-to-date voter).

        The leader brings the target fully up to date, then tells it to
        campaign immediately with ``TimeoutNow`` — the target's higher term
        deposes us in one round trip, with no availability gap from waiting
        out an election timeout.
        """
        if self._role is not RaftRole.LEADER:
            raise NotLeaderError(leader=self._leader_id)
        if self._voters is None or target not in self._voters or \
                target == self.pid:
            raise ConfigError(f"{target} is not a transferable voter")
        if self._match_idx.get(target, 0) < len(self._log):
            # Catch the target up first; callers retry once it matches.
            self._send_append(target, force=True)
            raise ConfigError(f"server {target} is not caught up yet")
        self._send(target, TimeoutNow(self._term))

    def _on_timeout_now(self, src: int, msg: TimeoutNow,
                        now_ms: float) -> None:
        if msg.term != self._term or not self._can_campaign():
            return
        # Deliberate transfer: skip PreVote and campaign at once.
        self._start_election(now_ms)

    def take_outbox(self) -> List[Tuple[int, Any]]:
        if self._unsent:
            # One AppendEntries per follower for everything proposed since
            # the last hand-out (none if we were deposed in between).
            self._unsent = False
            self._broadcast_append()
        out, self._outbox = self._outbox, []
        return out

    def take_decided(self) -> List[Tuple[int, Any]]:
        out, self._decided_out = self._decided_out, []
        if out and self._obs_on:
            self._obs.counter("repro_decided_entries_total",
                              pid=self.pid).inc(len(out))
            if self._obs.tracing:
                self._obs.emit(EntryApplied(
                    pid=self.pid, log_idx=out[-1][0] + 1, count=len(out)))
        return out

    # ------------------------------------------------------------------
    # Replica interface: failures
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self._crashed = True

    def recover(self, now_ms: float) -> None:
        """Restart: persistent state (term, vote, log) survives; volatile
        state (role, commit index) is rebuilt from the leader."""
        if not self._crashed:
            return
        self._crashed = False
        if self._obs.tracing and self._trace_recovery is None:
            self._trace_recovery = self._obs.now_ms()
            self._obs.emit(RecoveryStarted(pid=self.pid, reason="crash"))
        self._set_role(RaftRole.FOLLOWER)
        self._leader_id = None
        self._commit_idx = 0
        self._applied_idx = 0
        self._votes.clear()
        self._prevotes.clear()
        self._reset_election_deadline(now_ms)

    def on_session_drop(self, peer: int, now_ms: float) -> None:
        """Raft has no session-drop protocol: retries re-establish state."""

    # ------------------------------------------------------------------
    # internals: elections
    # ------------------------------------------------------------------

    def _can_campaign(self) -> bool:
        if self.self_degraded:
            # Gray-aware: a self-diagnosed fail-slow server declines
            # candidacy — it would win (its log is fresh) and immediately
            # be the problem again.
            return False
        return self._voters is not None and self.pid in self._voters

    def _majority(self) -> int:
        assert self._voters is not None
        return len(self._voters) // 2 + 1

    def _reset_election_deadline(self, now_ms: float) -> None:
        base = self._config.election_timeout_ms
        self._election_deadline = now_ms + base + self._rng.random() * base

    def _last_log_info(self) -> Tuple[int, int]:
        last = len(self._log)
        return last, self._log.term_at(last)

    def _set_role(self, role: RaftRole) -> None:
        """Change role, emitting a :class:`RoleChanged` event on a flip."""
        if role is self._role:
            return
        self._role = role
        if role is not RaftRole.LEADER:
            self._trace_fanout.clear()  # those batches died with the tenure
        if self._obs.enabled:
            self._obs.emit(RoleChanged(pid=self.pid, role=role.value,
                                       protocol="raft"))

    def _set_leader(self, leader: Optional[int]) -> None:
        """Adopt ``leader``, emitting :class:`BallotElected` on a change."""
        if leader == self._leader_id:
            return
        self._leader_id = leader
        if leader is not None and self._obs.enabled:
            self._obs.emit(BallotElected(pid=self.pid, leader=leader,
                                         ballot=self._term))

    def _start_prevote(self, now_ms: float) -> None:
        self._set_role(RaftRole.PRECANDIDATE)
        self._prevotes = {self.pid}
        self.stats.prevotes_started += 1
        self._reset_election_deadline(now_ms)
        last_idx, last_term = self._last_log_info()
        msg = RequestVote(self._term + 1, self.pid, last_idx, last_term, prevote=True)
        for peer in self._other_voters():
            self._send(peer, msg)
        if len(self._prevotes) >= self._majority():
            self._start_election(now_ms)

    def _start_election(self, now_ms: float) -> None:
        self._set_role(RaftRole.CANDIDATE)
        self._term += 1
        self.stats.max_term_seen = max(self.stats.max_term_seen, self._term)
        self._voted_for = self.pid
        self._votes = {self.pid}
        self._leader_id = None
        self.stats.elections_started += 1
        self._reset_election_deadline(now_ms)
        last_idx, last_term = self._last_log_info()
        msg = RequestVote(self._term, self.pid, last_idx, last_term)
        for peer in self._other_voters():
            self._send(peer, msg)
        if len(self._votes) >= self._majority():
            self._become_leader(now_ms)

    def _other_voters(self) -> Tuple[int, ...]:
        assert self._voters is not None
        return tuple(p for p in self._voters if p != self.pid)

    def _log_up_to_date(self, msg: RequestVote) -> bool:
        last_idx, last_term = self._last_log_info()
        if msg.last_log_term != last_term:
            return msg.last_log_term > last_term
        return msg.last_log_idx >= last_idx

    def _on_request_vote(self, src: int, msg: RequestVote, now_ms: float) -> None:
        if msg.prevote:
            self._on_prevote_request(src, msg, now_ms)
            return
        if self._voters is not None and msg.candidate not in self._voters:
            # A server removed by a committed config change may keep
            # campaigning; ignoring it (without adopting its term) is the
            # standard etcd/TiKV guard against removed-member disruption.
            self._send(src, RequestVoteReply(self._term, False))
            return
        if msg.term > self._term:
            self._step_down(msg.term, now_ms, leader=None)
        granted = (
            msg.term == self._term
            and self._voted_for in (None, msg.candidate)
            and self._role is not RaftRole.LEADER
            and self._log_up_to_date(msg)
        )
        if granted:
            self._voted_for = msg.candidate
            self._reset_election_deadline(now_ms)
        self._send(src, RequestVoteReply(self._term, granted))

    def _on_prevote_request(self, src: int, msg: RequestVote,
                            now_ms: float) -> None:
        # Leader stickiness: refuse if we heard from a live leader within
        # the minimum election timeout — this is what keeps PV+CQ stable in
        # the chained scenario (no term churn while the leader is reachable).
        heard_recently = (
            now_ms - self._last_leader_contact < self._config.election_timeout_ms
        )
        granted = (
            msg.term >= self._term
            and not heard_recently
            and self._log_up_to_date(msg)
        )
        self._send(src, RequestVoteReply(msg.term, granted, prevote=True))

    def _on_vote_reply(self, src: int, msg: RequestVoteReply,
                       now_ms: float) -> None:
        if self._voters is None or src not in self._voters:
            return  # only votes from actual voters count toward a majority
        if msg.prevote:
            if self._role is RaftRole.PRECANDIDATE and msg.granted \
                    and msg.term == self._term + 1:
                self._prevotes.add(src)
                if len(self._prevotes) >= self._majority():
                    self._start_election(now_ms)
            return
        if msg.term > self._term:
            self._step_down(msg.term, now_ms, leader=None)
            return
        if self._role is RaftRole.CANDIDATE and msg.granted \
                and msg.term == self._term:
            self._votes.add(src)
            if len(self._votes) >= self._majority():
                self._become_leader(now_ms)

    def _become_leader(self, now_ms: float) -> None:
        self._set_role(RaftRole.LEADER)
        self._set_leader(self.pid)
        self.stats.leader_changes += 1
        self._next_idx = {p: len(self._log) for p in self._replication_targets}
        self._match_idx = {p: 0 for p in self._replication_targets}
        self._last_heard = {p: now_ms for p in self._replication_targets}
        self._heartbeat_deadline = now_ms
        self._election_deadline = now_ms + self._config.election_timeout_ms
        self._broadcast_append(heartbeat=True)

    def _step_down(self, term: int, now_ms: float,
                   leader: Optional[int]) -> None:
        if term > self._term:
            self._term = term
            self._voted_for = None
            self.stats.max_term_seen = max(self.stats.max_term_seen, term)
        self._set_role(RaftRole.FOLLOWER)
        self._set_leader(leader)
        self._votes.clear()
        self._prevotes.clear()
        self._reset_election_deadline(now_ms)

    def _check_quorum(self, now_ms: float) -> None:
        """CheckQuorum: abdicate if a majority has gone silent."""
        window = self._config.election_timeout_ms
        assert self._voters is not None
        heard = 1  # ourselves
        for peer in self._other_voters():
            if now_ms - self._last_heard.get(peer, -1e18) <= window:
                heard += 1
        if heard < self._majority():
            self.stats.stepdowns_check_quorum += 1
            self._step_down(self._term, now_ms, leader=None)
        else:
            self._election_deadline = now_ms + window

    # ------------------------------------------------------------------
    # internals: log replication
    # ------------------------------------------------------------------

    def _broadcast_append(self, heartbeat: bool = False) -> None:
        if self._role is not RaftRole.LEADER:
            return
        # In steady state every follower has the same next_idx, so the
        # per-peer log slices of one fan-out are identical; share them
        # through a broadcast-scoped memo instead of re-slicing per peer.
        memo: Dict[Tuple[int, int], Tuple[RaftSlot, ...]] = {}
        for peer in sorted(self._replication_targets):
            self._send_append(peer, force=heartbeat, slice_memo=memo)

    def _should_snapshot_to(self, next_idx: int) -> bool:
        threshold = self._config.snapshot_catchup_threshold
        if threshold is None or self._config.snapshotter is None:
            return False
        return self._commit_idx - next_idx > threshold

    def _refresh_snapshot(self) -> None:
        """Fold the committed prefix into the leader's transport snapshot."""
        if self._snap_idx >= self._commit_idx:
            return
        entries = [slot.entry
                   for slot in self._log.slice(self._snap_idx, self._commit_idx)]
        self._snap_state = self._config.snapshotter(entries, self._snap_state)
        self._snap_idx = self._commit_idx
        self._snap_term = self._log.term_at(self._snap_idx)

    def _send_snapshot(self, peer: int) -> None:
        self._refresh_snapshot()
        self.stats.snapshots_sent += 1
        self._send(peer, InstallSnapshot(
            term=self._term,
            leader=self.pid,
            last_idx=self._snap_idx,
            last_term=self._snap_term,
            state=self._snap_state,
            leader_commit=self._commit_idx,
        ))
        # Optimistically stream the tail behind the snapshot.
        self._next_idx[peer] = self._snap_idx

    def _on_install_snapshot(self, src: int, msg: InstallSnapshot,
                             now_ms: float) -> None:
        if msg.term < self._term:
            self._send(src, AppendEntriesReply(self._term, False,
                                               len(self._log)))
            return
        if msg.term > self._term or self._role is not RaftRole.FOLLOWER:
            self._step_down(msg.term, now_ms, leader=msg.leader)
        self._set_leader(msg.leader)
        self._last_leader_contact = now_ms
        self._reset_election_deadline(now_ms)
        if msg.last_idx > self._log.base:
            keep_tail = (
                msg.last_idx <= len(self._log)
                and not self._log.covered_by_snapshot(msg.last_idx)
                and self._log.term_at(msg.last_idx) == msg.last_term
            )
            if not keep_tail:
                self._log.truncate_from(min(msg.last_idx, len(self._log)))
            self._log.install(msg.last_idx, msg.last_term)
            # Retain the state: if we ever lead, peers below our base get it.
            self._snap_state = msg.state
            self._snap_idx = msg.last_idx
            self._snap_term = msg.last_term
            # Surface the snapshot to the application in the decided stream.
            self._decided_out.append(
                (msg.last_idx, SnapshotInstalled(msg.state)))
            self._applied_idx = max(self._applied_idx, msg.last_idx)
            self._commit_idx = max(self._commit_idx, msg.last_idx)
        if msg.leader_commit > self._commit_idx:
            self._set_commit(min(msg.leader_commit, len(self._log)))
        self._send(src, AppendEntriesReply(self._term, True, len(self._log)))

    def _send_append(self, peer: int, force: bool = False,
                     slice_memo: Optional[Dict[Tuple[int, int],
                                              Tuple[RaftSlot, ...]]] = None,
                     ) -> None:
        next_idx = self._next_idx.get(peer, len(self._log))
        if self._should_snapshot_to(next_idx) or \
                self._log.covered_by_snapshot(next_idx + 1):
            # Too far behind to stream (or the entries are gone): ship state.
            self._send_snapshot(peer)
            return
        max_batch = self._config.max_entries_per_msg
        # Flow control: keep at most a two-batch window of unacknowledged
        # entries in flight per follower so a slow catch-up does not flood
        # the sender queue (raft-rs "inflights" behave similarly).
        window_open = next_idx - self._match_idx.get(peer, 0) <= 2 * max_batch
        entries: Tuple[RaftSlot, ...] = ()
        if window_open:
            key = (next_idx, next_idx + max_batch)
            if slice_memo is not None and key in slice_memo:
                entries = slice_memo[key]
            else:
                entries = self._log.slice(next_idx, next_idx + max_batch)
                if slice_memo is not None:
                    slice_memo[key] = entries
        if not entries and not force:
            return
        prev_idx = next_idx
        prev_term = self._log.term_at(prev_idx)
        seq = self._append_seq.get(peer, 0) + 1
        self._append_seq[peer] = seq
        self._send(peer, AppendEntries(
            term=self._term,
            leader=self.pid,
            prev_idx=prev_idx,
            prev_term=prev_term,
            entries=entries,
            leader_commit=self._commit_idx,
            seq=seq,
        ))
        if entries:
            # Optimistic pipelining: assume success and keep streaming.
            self._next_idx[peer] = next_idx + len(entries)

    def _on_append_entries(self, src: int, msg: AppendEntries,
                           now_ms: float) -> None:
        if msg.term < self._term:
            # Reject; the stale leader learns the new term — this reply is
            # the gossip channel that drives the chained livelock.
            self._send(src, AppendEntriesReply(
                self._term, False, len(self._log), msg.seq
            ))
            return
        if msg.term > self._term or self._role is not RaftRole.FOLLOWER:
            self._step_down(msg.term, now_ms, leader=msg.leader)
        self._set_leader(msg.leader)
        self._last_leader_contact = now_ms
        self._reset_election_deadline(now_ms)
        # Consistency check at prev_idx.
        if msg.prev_idx > len(self._log) or (
            msg.prev_idx > 0
            and not self._log.covered_by_snapshot(msg.prev_idx)
            and self._log.term_at(msg.prev_idx) != msg.prev_term
        ):
            hint = min(msg.prev_idx, len(self._log))
            self._send(src, AppendEntriesReply(self._term, False, hint, msg.seq))
            return
        # Append, truncating any conflicting suffix.
        insert_at = msg.prev_idx
        for offset, slot in enumerate(msg.entries):
            idx = insert_at + offset
            if idx < len(self._log):
                if self._log.covered_by_snapshot(idx + 1):
                    continue  # already folded into our snapshot
                if self._log.term_at(idx + 1) != slot.term:
                    self._log.truncate_from(idx)
                    self._log.append(slot)
            else:
                self._log.append(slot)
        match = msg.prev_idx + len(msg.entries)
        if msg.leader_commit > self._commit_idx:
            self._set_commit(min(msg.leader_commit, match))
        self._send(src, AppendEntriesReply(self._term, True, match, msg.seq))

    def _on_append_reply(self, src: int, msg: AppendEntriesReply,
                         now_ms: float) -> None:
        if msg.term > self._term:
            self._step_down(msg.term, now_ms, leader=None)
            return
        if self._role is not RaftRole.LEADER or msg.term != self._term:
            return
        self._last_heard[src] = now_ms
        if msg.success:
            if msg.match_idx > self._match_idx.get(src, 0):
                self._match_idx[src] = msg.match_idx
            self._next_idx[src] = max(self._next_idx.get(src, 0), msg.match_idx)
            self._maybe_commit()
            if self._next_idx[src] < len(self._log):
                self._send_append(src)
        else:
            if msg.seq != self._append_seq.get(src):
                return  # stale rejection of an already-superseded probe
            # Fast backoff using the follower's length hint, then retry.
            self._next_idx[src] = min(
                msg.match_idx, max(self._next_idx.get(src, 1) - 1, 0)
            )
            self._send_append(src)

    def _quorum_match(self, voters: Sequence[int]) -> int:
        """The highest index a majority of ``voters`` holds."""
        matches = sorted(
            len(self._log) if pid == self.pid else self._match_idx.get(pid, 0)
            for pid in voters)
        return matches[(len(voters) - 1) // 2]

    def _maybe_commit(self) -> None:
        if self._role is not RaftRole.LEADER or self._voters is None:
            return
        # (Clamped: a follower's snapshot reply can report a longer, stale log.)
        idx = min(self._quorum_match(self._voters), len(self._log))
        if self._pending_config is not None and idx > self._pending_config[0]:
            # Entries past an uncommitted config change need the NEW
            # majority as well — with a majority of fresh servers this
            # stalls until one of them has caught up the whole log.
            pending_idx, new_voters = self._pending_config
            idx = max(pending_idx, min(idx, self._quorum_match(new_voters)))
        # Only entries of the current term commit by counting.
        if idx > self._commit_idx and not self._log.covered_by_snapshot(idx) \
                and self._log.term_at(idx) == self._term:
            self._set_commit(idx)

    def _set_commit(self, idx: int) -> None:
        if idx <= self._commit_idx:
            return
        self._commit_idx = idx
        if self._obs.tracing:
            if self._role is RaftRole.LEADER:
                self._obs.emit(QuorumAccepted(pid=self.pid, log_idx=idx,
                                              protocol="raft"))
                now = self._obs.now_ms()
                while self._trace_fanout and self._trace_fanout[0][0] <= idx:
                    _, fanned_at = self._trace_fanout.pop(0)
                    self._obs.histogram(
                        "repro_commit_phase_ms", phase="replicate"
                    ).observe(now - fanned_at)
            if self._trace_recovery is not None:
                # First commit advance after a restart: the leader has
                # resynchronized our log and commit watermark.
                self._obs.emit(RecoveryCompleted(pid=self.pid,
                                                 log_idx=len(self._log)))
                self._obs.histogram("repro_recovery_duration_ms").observe(
                    self._obs.now_ms() - self._trace_recovery)
                self._trace_recovery = None
        while self._applied_idx < self._commit_idx:
            slot = self._log.slot_at(self._applied_idx + 1)
            self._applied_idx += 1
            self._decided_out.append((self._applied_idx - 1, slot.entry))
            if isinstance(slot.entry, RaftConfigChange):
                self._apply_config(slot.entry, self._applied_idx)

    def _apply_config(self, change: RaftConfigChange, idx: int) -> None:
        self._voters = change.servers
        if self._pending_config is not None and self._pending_config[0] == idx:
            self._pending_config = None
        self._replication_targets = {
            p for p in change.servers if p != self.pid
        }
        if self.pid not in change.servers and self._role is RaftRole.LEADER:
            # A leader not in the new configuration steps down once the
            # change commits (standard Raft practice).
            self._set_role(RaftRole.FOLLOWER)
            self._leader_id = None

    def _send(self, dst: int, msg: Any) -> None:
        self._outbox.append((dst, msg))


#: Wire-crossing Raft messages, registered with stable binary tags in
#: `repro.encoding` (drift guarded by the codec test suite).
WIRE_MESSAGES = (
    RequestVote,
    RequestVoteReply,
    AppendEntries,
    AppendEntriesReply,
    RaftSlot,
    TimeoutNow,
    RaftConfigChange,
    InstallSnapshot,
)
