"""Multi-Paxos with per-slot decisions and failure-detector leader takeover.

Modelled on the "Paxos made moderately complex" / frankenpaxos lineage the
paper benchmarks against:

- Entries are decided **per slot**: each slot independently carries a
  ``(ballot, value)`` pair at the acceptors; a new leader recovers all
  possibly-chosen slots in Phase 1 and fills gaps with no-ops.
- Leadership is driven by a failure detector: every server *pings the
  process it believes is the leader*; a missing pong makes it suspect,
  increment its ballot past everything it has seen, and run Phase 1.
- A server's **believed leader** only changes when a new leader actually
  establishes itself (completes Phase 1 and sends Phase 2 messages to it) —
  merely observing higher ballots does not change whom it monitors. Pongs
  are process-alive replies, independent of role.

Those two rules reproduce the paper's findings exactly:

- *Quorum-loss*: the pivot keeps pinging the old leader, which is alive, so
  it never campaigns; the disconnected followers churn ballots forever but
  are not quorum-connected — deadlock for the whole partition (Figure 8a).
- *Constrained election*: the old leader is unreachable, the pivot suspects
  and campaigns; it succeeds because Multi-Paxos candidates need nothing but
  quorum-connectivity, then Phase 1 catches up its stale log (Figure 8b).
- *Chained*: the two endpoints alternately preempt each other through the
  middle server's acceptor replies — a livelock of leader changes that
  costs throughput but not total availability (Figure 8c).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, NotLeaderError
from repro.obs.events import (
    BallotElected,
    EntryApplied,
    ProposalAppended,
    QuorumAccepted,
    RecoveryCompleted,
    RecoveryStarted,
    RoleChanged,
)
from repro.obs.spans import entry_trace_id
from repro.replica import Replica
from repro.util.rng import spawn_rng

#: Gap filler for slots with no recovered value after a leader change.
NOOP = "__mp_noop__"


class MPRole(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


# --------------------------------------------------------------------------
# wire messages
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class P1a:
    """Phase-1 prepare: ballot plus the slot to recover from."""

    ballot: Tuple[int, int]
    from_slot: int


@dataclass(frozen=True, slots=True)
class P1b:
    """Phase-1 reply. ``promised > ballot`` means preempted."""

    ballot: Tuple[int, int]
    promised: Tuple[int, int]
    accepted: Tuple[Tuple[int, Tuple[int, int], Any], ...]
    decided_upto: int


@dataclass(frozen=True, slots=True)
class P2a:
    """Phase-2 accept for a batch of consecutive slots (also the leader's
    heartbeat when ``slots`` is empty)."""

    ballot: Tuple[int, int]
    first_slot: int
    values: Tuple[Any, ...]
    decided_upto: int


@dataclass(frozen=True, slots=True)
class P2b:
    """Phase-2 reply: accepted watermark, or preemption via ``promised``."""

    ballot: Tuple[int, int]
    promised: Tuple[int, int]
    accepted_upto: int


@dataclass(frozen=True, slots=True)
class Ping:
    """Failure-detector probe to the believed leader."""


@dataclass(frozen=True, slots=True)
class Pong:
    """Process-alive reply — answered regardless of role, which is exactly
    why the quorum-loss pivot never suspects the degraded leader."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MultiPaxosConfig:
    pid: int
    peers: Tuple[int, ...]
    #: Failure-detector suspicion timeout (the experiment's election timeout).
    election_timeout_ms: float = 500.0
    max_slots_per_msg: int = 4096
    seed: int = 0
    initial_leader: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pid <= 0:
            raise ConfigError("pids must be positive")
        if self.pid in self.peers:
            raise ConfigError("peers must not contain own pid")
        if self.election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be positive")

    @property
    def ping_period(self) -> float:
        """Leader heartbeat / FD ping period: a fifth of the timeout."""
        return max(self.election_timeout_ms / 5.0, 1.0)

    @property
    def backoff(self) -> float:
        """Base back-off after a failed campaign (grows linearly with
        attempts): half the timeout."""
        return self.election_timeout_ms / 2.0

    @property
    def majority(self) -> int:
        return (len(self.peers) + 1) // 2 + 1


@dataclass
class MultiPaxosStats:
    campaigns: int = 0
    preemptions: int = 0
    leader_changes: int = 0


class MultiPaxosReplica(Replica):
    """One Multi-Paxos server (proposer + acceptor + learner)."""

    def __init__(self, config: MultiPaxosConfig):
        self._config = config
        self._rng = spawn_rng(config.seed, "multipaxos", config.pid)
        # Acceptor state.
        self._promised: Tuple[int, int] = (0, 0)
        self._accepted: Dict[int, Tuple[Tuple[int, int], Any]] = {}
        self._accepted_upto = 0  # contiguous accepted prefix length
        # Learner state.
        self._decided_upto = 0
        self._applied_upto = 0
        # Proposer state.
        self._role = MPRole.FOLLOWER
        self._ballot: Tuple[int, int] = (0, config.pid)
        self._max_ballot_seen: Tuple[int, int] = (0, 0)
        self._believed_leader: Optional[int] = config.initial_leader
        self._log: List[Any] = []  # leader's view of slot values
        self._p1b: Dict[int, P1b] = {}
        self._acceptor_upto: Dict[int, int] = {}
        self._campaign_attempts = 0
        self._next_campaign_at = 0.0
        # Failure detector.
        self._last_pong = 0.0
        self._next_ping = 0.0
        #: First slot proposed since the last hand-out (None: nothing unsent).
        self._unsent_from: Optional[int] = None
        self._outbox: List[Tuple[int, Any]] = []
        self._decided_out: List[Tuple[int, Any]] = []
        self._crashed = False
        self._started = False
        #: Tracing-only: fan-out times of in-flight batches, and the
        #: start of an open crash recovery (see repro.obs.spans).
        self._trace_fanout: List[Tuple[int, float]] = []
        self._trace_recovery: Optional[float] = None
        self.stats = MultiPaxosStats()

    # ------------------------------------------------------------------
    # Replica interface: accessors
    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(sorted((self.pid,) + self._config.peers))

    @property
    def is_leader(self) -> bool:
        return self._role is MPRole.LEADER

    @property
    def leader_pid(self) -> Optional[int]:
        return self.pid if self.is_leader else self._believed_leader

    @property
    def ballot(self) -> Tuple[int, int]:
        return self._ballot

    @property
    def decided_upto(self) -> int:
        return self._decided_upto

    # ------------------------------------------------------------------
    # Replica interface: driving
    # ------------------------------------------------------------------

    def start(self, now_ms: float) -> None:
        if self._started:
            return
        self._started = True
        self._last_pong = now_ms
        self._next_ping = now_ms
        seed = self._config.initial_leader
        if seed == self.pid:
            self._ballot = (1, self.pid)
            self._max_ballot_seen = self._ballot
            self._promised = self._ballot
            self._set_role(MPRole.LEADER)
            self.stats.leader_changes += 1
            if self._obs.enabled:
                self._obs.emit(BallotElected(pid=self.pid, leader=self.pid,
                                             ballot=self._ballot[0]))

    def tick(self, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        if self._role is MPRole.LEADER:
            if now_ms >= self._next_ping:
                self._next_ping = now_ms + self._config.ping_period
                # Heartbeat: an empty P2a re-asserts leadership and carries
                # the decided watermark.
                self._broadcast(P2a(self._ballot, len(self._log), (),
                                    self._decided_upto))
            return
        # Follower / candidate: drive the failure detector.
        if now_ms >= self._next_ping:
            self._next_ping = now_ms + self._config.ping_period
            if self._believed_leader is not None \
                    and self._believed_leader != self.pid:
                self._send(self._believed_leader, Ping())
        if self._role is MPRole.CANDIDATE:
            # A contender keeps retrying Phase 1 (with back-off) until some
            # leader establishes itself — the PMMC scout-driver loop.
            if now_ms >= self._next_campaign_at:
                self._campaign(now_ms)
            return
        suspect = now_ms - self._last_pong >= self._config.election_timeout_ms
        if suspect and now_ms >= self._next_campaign_at:
            self._campaign(now_ms)

    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        if isinstance(msg, Ping):
            self._send(src, Pong())
        elif isinstance(msg, Pong):
            if src == self._believed_leader:
                self._last_pong = now_ms
        elif isinstance(msg, P1a):
            self._on_p1a(src, msg, now_ms)
        elif isinstance(msg, P1b):
            self._on_p1b(src, msg, now_ms)
        elif isinstance(msg, P2a):
            self._on_p2a(src, msg, now_ms)
        elif isinstance(msg, P2b):
            self._on_p2b(src, msg, now_ms)

    def propose(self, entry: Any, now_ms: float) -> None:
        self.propose_batch([entry], now_ms)

    def propose_batch(self, entries: Sequence[Any], now_ms: float) -> None:
        """Append and accept ``entries`` locally (leader only); the ``P2a``
        that replicates them is built by the next :meth:`take_outbox`."""
        if self._role is not MPRole.LEADER:
            raise NotLeaderError(leader=self._believed_leader)
        first = len(self._log)
        self._log.extend(entries)
        if self._obs.tracing and entries:
            self._trace_fanout.append((len(self._log), self._obs.now_ms()))
            self._obs.emit(ProposalAppended(
                pid=self.pid, from_idx=first, to_idx=len(self._log),
                protocol="multipaxos", trace_id=entry_trace_id(entries[0]),
            ))
        self._accept_locally(first, entries)
        if self._unsent_from is None:
            self._unsent_from = first
        self._maybe_decide()

    def take_outbox(self) -> List[Tuple[int, Any]]:
        if self._unsent_from is not None:
            # One P2a per follower for everything proposed since the last
            # hand-out (none if we were deposed in between).
            first, self._unsent_from = self._unsent_from, None
            if self._role is MPRole.LEADER:
                self._broadcast(P2a(self._ballot, first,
                                    tuple(self._log[first:]),
                                    self._decided_upto))
        out, self._outbox = self._outbox, []
        return out

    def take_decided(self) -> List[Tuple[int, Any]]:
        out, self._decided_out = self._decided_out, []
        if out and self._obs_on:
            self._obs.counter("repro_decided_entries_total",
                              pid=self.pid).inc(len(out))
            if self._obs.tracing:
                self._obs.emit(EntryApplied(
                    pid=self.pid, log_idx=self._applied_upto, count=len(out)))
        return out

    # ------------------------------------------------------------------
    # Replica interface: failures
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self._crashed = True

    def recover(self, now_ms: float) -> None:
        """Restart: acceptor state is persistent; leadership is volatile."""
        if not self._crashed:
            return
        self._crashed = False
        if self._obs.tracing and self._trace_recovery is None:
            self._trace_recovery = self._obs.now_ms()
            self._obs.emit(RecoveryStarted(pid=self.pid, reason="crash"))
        self._set_role(MPRole.FOLLOWER)
        self._believed_leader = None
        self._last_pong = now_ms - self._config.election_timeout_ms
        self._next_ping = now_ms
        self._applied_upto = min(self._applied_upto, self._decided_upto)

    # ------------------------------------------------------------------
    # internals: acceptor
    # ------------------------------------------------------------------

    def _set_role(self, role: MPRole) -> None:
        """Change role, emitting a :class:`RoleChanged` event on a flip."""
        if role is self._role:
            return
        self._role = role
        if role is not MPRole.LEADER:
            self._trace_fanout.clear()  # those batches died with the tenure
        if self._obs.enabled:
            self._obs.emit(RoleChanged(pid=self.pid, role=role.value,
                                       protocol="multipaxos"))

    def _observe_ballot(self, ballot: Tuple[int, int]) -> None:
        if ballot > self._max_ballot_seen:
            self._max_ballot_seen = ballot

    def _on_p1a(self, src: int, msg: P1a, now_ms: float) -> None:
        self._observe_ballot(msg.ballot)
        if msg.ballot > self._promised:
            self._promised = msg.ballot
            if self._role is not MPRole.FOLLOWER and msg.ballot > self._ballot:
                # Our own candidacy/leadership is dead at our own acceptor.
                self._preempted(msg.ballot, now_ms)
        accepted = tuple(
            (slot, ballot, value)
            for slot, (ballot, value) in sorted(self._accepted.items())
            if slot >= msg.from_slot
        )
        self._send(src, P1b(msg.ballot, self._promised, accepted,
                            self._decided_upto))

    def _on_p2a(self, src: int, msg: P2a, now_ms: float) -> None:
        self._observe_ballot(msg.ballot)
        if msg.ballot < self._promised:
            # Reject, citing the higher promise — this reply is the ballot
            # gossip that powers the chained livelock.
            self._send(src, P2b(msg.ballot, self._promised, self._accepted_upto))
            return
        self._promised = msg.ballot
        if self._role is not MPRole.FOLLOWER and msg.ballot > self._ballot:
            # An established leader's Phase 2 reached us: whatever candidacy
            # or leadership we held is over.
            self.stats.preemptions += 1
            self._set_role(MPRole.FOLLOWER)
        # The sender has established itself: adopt it as the leader we
        # monitor (this is the only place believed_leader changes).
        if src != self._believed_leader:
            self._believed_leader = src
            if self._obs.enabled:
                self._obs.emit(BallotElected(pid=self.pid, leader=src,
                                             ballot=msg.ballot[0]))
        self._last_pong = now_ms
        accepted = self._accepted
        ballot = msg.ballot
        first_slot = msg.first_slot
        for offset, value in enumerate(msg.values):
            accepted[first_slot + offset] = (ballot, value)
        self._recompute_accepted_upto()
        if msg.decided_upto > self._decided_upto:
            self._advance_decided(msg.decided_upto)
        self._send(src, P2b(msg.ballot, self._promised, self._accepted_upto))

    def _recompute_accepted_upto(self) -> None:
        upto = self._accepted_upto
        while upto in self._accepted:
            upto += 1
        self._accepted_upto = upto

    # ------------------------------------------------------------------
    # internals: proposer
    # ------------------------------------------------------------------

    def _campaign(self, now_ms: float) -> None:
        self._set_role(MPRole.CANDIDATE)
        self.stats.campaigns += 1
        self._campaign_attempts += 1
        n = max(self._max_ballot_seen[0], self._ballot[0]) + 1
        self._ballot = (n, self.pid)
        self._observe_ballot(self._ballot)
        self._p1b.clear()
        # Promise ourselves.
        if self._ballot > self._promised:
            self._promised = self._ballot
        from_slot = self._decided_upto
        self._p1b[self.pid] = P1b(
            self._ballot, self._promised,
            tuple((slot, b, v) for slot, (b, v) in sorted(self._accepted.items())
                  if slot >= from_slot),
            self._decided_upto,
        )
        # Linearly growing, jittered back-off between attempts so competing
        # non-QC candidates eventually leave a quiet window for the QC one.
        backoff = self._config.backoff * self._campaign_attempts
        self._next_campaign_at = now_ms + backoff * (0.5 + self._rng.random())
        self._broadcast(P1a(self._ballot, from_slot))
        if len(self._p1b) >= self._config.majority:
            self._become_leader(now_ms)

    def _preempted(self, by: Tuple[int, int], now_ms: float) -> None:
        """A higher ballot killed our candidacy or leadership."""
        self.stats.preemptions += 1
        if self._role is MPRole.LEADER:
            # The preemptor established itself over a majority that includes
            # some acceptor we reach; step down and monitor it from now on.
            self._set_role(MPRole.FOLLOWER)
            self._believed_leader = by[1]
            self._last_pong = now_ms
        # A preempted *candidate* stays a contender: seeing a ballot is not
        # seeing a leader, so it retries after back-off (it reverts to
        # follower only when an established leader's Phase 2 reaches it).

    def _on_p1b(self, src: int, msg: P1b, now_ms: float) -> None:
        self._observe_ballot(msg.promised)
        if self._role is not MPRole.CANDIDATE or msg.ballot != self._ballot:
            return
        if msg.promised > self._ballot:
            self._preempted(msg.promised, now_ms)
            return
        self._p1b[src] = msg
        if len(self._p1b) >= self._config.majority:
            self._become_leader(now_ms)

    def _become_leader(self, now_ms: float) -> None:
        """Phase 1 complete: adopt the highest-ballot value per slot, fill
        gaps with no-ops, and re-propose everything at our ballot."""
        replies = list(self._p1b.values())
        self._p1b.clear()
        from_slot = min(self._decided_upto,
                        min((r.decided_upto for r in replies),
                            default=self._decided_upto))
        best: Dict[int, Tuple[Tuple[int, int], Any]] = {}
        max_slot = -1
        decided = self._decided_upto
        for reply in replies:
            decided = max(decided, reply.decided_upto)
            for slot, ballot, value in reply.accepted:
                max_slot = max(max_slot, slot)
                if slot not in best or ballot > best[slot][0]:
                    best[slot] = (ballot, value)
        # Rebuild the proposer log for every slot up to the highest seen.
        del self._log[:]
        for slot in range(0, max(max_slot + 1, decided, self._decided_upto)):
            if slot in best:
                self._log.append(best[slot][1])
            elif slot in self._accepted:
                self._log.append(self._accepted[slot][1])
            else:
                self._log.append(NOOP)
        self._set_role(MPRole.LEADER)
        self._believed_leader = self.pid
        self._campaign_attempts = 0
        self._acceptor_upto = {}
        self._unsent_from = None  # the re-proposal below covers the tail
        self.stats.leader_changes += 1
        if self._obs.enabled:
            self._obs.emit(BallotElected(pid=self.pid, leader=self.pid,
                                         ballot=self._ballot[0]))
        # Re-propose the whole undecided tail at our ballot.
        tail_from = min(self._decided_upto, decided)
        values = tuple(self._log[tail_from:])
        self._accept_locally(tail_from, values)
        self._broadcast(P2a(self._ballot, tail_from, values, self._decided_upto))
        if decided > self._decided_upto:
            self._advance_decided(min(decided, self._accepted_upto))
        self._maybe_decide()

    def _accept_locally(self, first_slot: int, values: Sequence[Any]) -> None:
        accepted = self._accepted
        ballot = self._ballot
        for offset, value in enumerate(values):
            accepted[first_slot + offset] = (ballot, value)
        self._recompute_accepted_upto()

    def _on_p2b(self, src: int, msg: P2b, now_ms: float) -> None:
        self._observe_ballot(msg.promised)
        if self._role is not MPRole.LEADER or msg.ballot != self._ballot:
            return
        if msg.promised > self._ballot:
            self._preempted(msg.promised, now_ms)
            return
        previous = self._acceptor_upto.get(src, 0)
        if msg.accepted_upto > previous:
            self._acceptor_upto[src] = msg.accepted_upto
            self._maybe_decide()
        if msg.accepted_upto < len(self._log):
            # The follower is behind (gap after a leader change or a healed
            # link): stream the missing slots.
            upto = msg.accepted_upto
            chunk = tuple(
                self._log[upto:upto + self._config.max_slots_per_msg]
            )
            if chunk and msg.accepted_upto > previous - 1:
                self._send(src, P2a(self._ballot, upto, chunk,
                                    self._decided_upto))

    def _maybe_decide(self) -> None:
        if self._role is not MPRole.LEADER:
            return
        marks = sorted(
            [self._accepted_upto]
            + [self._acceptor_upto.get(p, 0) for p in self._config.peers],
            reverse=True,
        )
        watermark = marks[self._config.majority - 1]
        if watermark > self._decided_upto:
            self._advance_decided(watermark)
            if self._obs.tracing and self._decided_upto > 0:
                self._obs.emit(QuorumAccepted(
                    pid=self.pid, log_idx=self._decided_upto,
                    protocol="multipaxos"))
                now = self._obs.now_ms()
                while self._trace_fanout and \
                        self._trace_fanout[0][0] <= self._decided_upto:
                    _, fanned_at = self._trace_fanout.pop(0)
                    self._obs.histogram(
                        "repro_commit_phase_ms", phase="replicate"
                    ).observe(now - fanned_at)
            self._broadcast(P2a(self._ballot, len(self._log), (),
                                self._decided_upto))

    def _advance_decided(self, upto: int) -> None:
        upto = min(upto, self._accepted_upto)
        if upto <= self._decided_upto:
            return
        self._decided_upto = upto
        if self._obs.tracing and self._trace_recovery is not None:
            # First decided advance after a restart: caught up again.
            self._obs.emit(RecoveryCompleted(pid=self.pid,
                                             log_idx=self._decided_upto))
            self._obs.histogram("repro_recovery_duration_ms").observe(
                self._obs.now_ms() - self._trace_recovery)
            self._trace_recovery = None
        applied = self._applied_upto
        decided = self._decided_upto
        accepted = self._accepted
        out = self._decided_out
        while applied < decided:
            _ballot, value = accepted[applied]
            if value != NOOP:
                out.append((applied, value))
            applied += 1
        self._applied_upto = applied

    # ------------------------------------------------------------------

    def _broadcast(self, msg: Any) -> None:
        for peer in self._config.peers:
            self._send(peer, msg)

    def _send(self, dst: int, msg: Any) -> None:
        self._outbox.append((dst, msg))


#: Wire-crossing Multi-Paxos messages, registered with stable binary tags
#: in `repro.encoding` (drift guarded by the codec test suite).
WIRE_MESSAGES = (
    P1a,
    P1b,
    P2a,
    P2b,
    Ping,
    Pong,
)
