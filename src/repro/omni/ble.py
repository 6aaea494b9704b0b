"""Ballot Leader Election (BLE) — paper section 5.2, Figure 4.

BLE elects a *quorum-connected* (QC) server: one that is correct and has a
direct link to a majority of servers (including itself). Servers exchange
heartbeats in rounds; every heartbeat reply carries the sender's current
ballot and its quorum-connected flag. A server that received replies from a
majority in a round may run ``check_leader``:

- If the highest quorum-connected ballot seen is *lower* than the current
  leader's ballot, the leader is either unreachable or no longer QC, so this
  server bumps its own ballot past the leader's and attempts to take over.
- If it is *higher*, that ballot's owner becomes the new leader and a leader
  event is handed to Sequence Paxos.

Servers that are not quorum-connected never run ``check_leader`` and thus
never churn ballots — the key to surviving the quorum-loss and chained
scenarios of paper section 2.

The implementation is sans-io: callers feed in messages and clock ticks and
drain the outbox and leader events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.events import BallotBumped, BallotElected, QCFlagChanged
from repro.obs.registry import Instrumented
from repro.omni.ballot import Ballot, BOTTOM
from repro.omni.messages import HeartbeatReply, HeartbeatRequest


@dataclass(frozen=True)
class BLEConfig:
    """Static configuration of one BLE instance.

    ``hb_period_ms`` is the heartbeat-round length (the election timeout of
    the evaluation). ``priority`` is the optional custom ballot field for
    leader preference (paper section 5.2). ``use_qc_flag=False`` disables the
    quorum-connected flag in heartbeats — only for the ablation benchmark
    that demonstrates why the flag is necessary.
    """

    pid: int
    peers: Tuple[int, ...]
    hb_period_ms: float = 100.0
    priority: int = 0
    use_qc_flag: bool = True
    #: Paper section 8 optimization: stamp the candidate's *connectivity*
    #: (peers heard from last round) into the ballot's priority field when
    #: attempting a takeover, so better-connected servers win ties. Only
    #: applied at bump time — a stable leader is never displaced just
    #: because some server got better connected (the paper's stability
    #: argument).
    connectivity_priority: bool = False

    def __post_init__(self) -> None:
        if self.pid <= 0:
            raise ConfigError("server pids must be positive (0 is the bottom ballot)")
        if self.pid in self.peers:
            raise ConfigError("peers must not contain the server's own pid")
        if self.hb_period_ms <= 0:
            raise ConfigError("hb_period_ms must be positive")

    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    @property
    def majority(self) -> int:
        return self.cluster_size // 2 + 1


@dataclass
class BLEStats:
    """Counters exposed for the evaluation harness."""

    rounds: int = 0
    leader_changes: int = 0
    ballots_bumped: int = 0


class BallotLeaderElection(Instrumented):
    """One BLE instance (one per configuration per server)."""

    def __init__(
        self,
        config: BLEConfig,
        initial_leader: Optional[Ballot] = None,
        initial_ballot: Optional[Ballot] = None,
    ):
        """``initial_leader`` seeds a pre-elected leader (used by benchmark
        warm starts); ``initial_ballot`` restores this server's own ballot
        after a crash so it never reissues a round it may already have led
        (see the recovery discussion in the module docstring of
        :mod:`repro.omni.server`)."""
        self._config = config
        if initial_ballot is not None and initial_ballot.pid != config.pid:
            raise ConfigError("initial_ballot must carry this server's pid")
        self._current_ballot = initial_ballot or Ballot(
            n=0, priority=config.priority, pid=config.pid
        )
        #: Replies gathered in the current round: ballot -> qc flag.
        self._ballots: List[Tuple[Ballot, bool]] = []
        #: Whether this server was quorum-connected in the last round.
        self._quorum_connected = True
        self._leader: Optional[Ballot] = initial_leader
        self._hb_round = 0
        self._last_connectivity = 0
        #: Health telemetry: peers whose reply made it into the last
        #: *closed* round, their request->reply RTTs (only for replies
        #: delivered with a timestamp), and how late that round closed
        #: relative to the nominal period.
        self._last_heard: Tuple[int, ...] = ()
        self._round_rtts: Dict[int, float] = {}
        self._last_round_rtts: Dict[int, float] = {}
        self._round_started_at: Optional[float] = None
        self._last_close_at: Optional[float] = None
        self._last_round_jitter_ms: Optional[float] = None
        #: When we last observed replies from a majority (read-lease basis).
        self._last_quorum_at: Optional[float] = None
        self._now = 0.0
        self._next_timeout: Optional[float] = None
        #: When leadership was last lost (basis of the election-duration
        #: histogram); None while a leader is known.
        self._leaderless_since: Optional[float] = None
        self._outbox: List[Tuple[int, Any]] = []
        self._leader_events: List[Ballot] = []
        self.stats = BLEStats()
        if initial_leader is not None and initial_leader.pid == config.pid:
            # Bootstrapping with ourselves as the seeded leader: adopt the
            # seeded ballot so our heartbeats advertise it.
            self._current_ballot = initial_leader

    # -- public accessors ---------------------------------------------------

    @property
    def config(self) -> BLEConfig:
        return self._config

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def current_ballot(self) -> Ballot:
        return self._current_ballot

    @property
    def leader(self) -> Optional[Ballot]:
        """The ballot this server currently considers leader, if any."""
        return self._leader

    @property
    def quorum_connected(self) -> bool:
        """Whether this server was QC in the most recent completed round."""
        return self._quorum_connected

    @property
    def last_heard(self) -> Tuple[int, ...]:
        """Peers whose reply arrived within the last closed round, sorted.

        This is the row this server contributes to the health observatory's
        quorum-connectivity matrix: a peer appears exactly when both link
        directions worked within one heartbeat round."""
        return self._last_heard

    @property
    def last_connectivity(self) -> int:
        """Connectivity (peers heard + self) of the last closed round."""
        return self._last_connectivity

    @property
    def hb_round(self) -> int:
        """The current heartbeat round number."""
        return self._hb_round

    @property
    def last_round_rtts(self) -> Dict[int, float]:
        """Request->reply RTT per peer for the last closed round (ms).

        Only populated for replies delivered through the timestamped
        :meth:`on_message` form; a copy, safe to hold."""
        return dict(self._last_round_rtts)

    @property
    def last_round_jitter_ms(self) -> Optional[float]:
        """|actual - nominal| interval between the last two round closes,
        or None before two rounds have closed. Tick-grained scheduling lag
        shows up here — the heartbeat-round jitter signal the gray-failure
        detector consumes."""
        return self._last_round_jitter_ms

    # -- driving ------------------------------------------------------------

    def start(self, now_ms: float) -> None:
        """Begin heartbeat rounds; must be called once before ticking."""
        self._now = now_ms
        self._start_round(now_ms)

    def tick(self, now_ms: float) -> None:
        """Advance time; closes the round when the heartbeat period elapsed."""
        self._now = now_ms
        if self._next_timeout is None or now_ms < self._next_timeout:
            return
        self._hb_timeout()
        self._start_round(now_ms)

    def quorum_heard_within(self, now_ms: float, window_ms: float) -> bool:
        """Whether a majority of heartbeat replies arrived within
        ``window_ms`` — the basis of leader read leases: no new leader can
        have been elected while the current one keeps hearing a majority
        every round (takeovers require a round in which the leader's ballot
        was absent at some majority member)."""
        if self._last_quorum_at is None:
            return False
        return now_ms - self._last_quorum_at <= window_ms

    def on_message(self, src: int, msg: Any,
                   now_ms: Optional[float] = None) -> None:
        """Handle a heartbeat request or reply from peer ``src``.

        ``now_ms`` is optional (protocol behaviour never depends on it);
        when given, current-round replies additionally yield a per-peer
        request->reply RTT sample for the gray-failure detector.
        """
        if isinstance(msg, HeartbeatRequest):
            flag = self._quorum_connected if self._config.use_qc_flag else True
            self._send(src, HeartbeatReply(msg.round, self._current_ballot, flag))
        elif isinstance(msg, HeartbeatReply):
            if msg.round == self._hb_round:
                self._ballots.append((msg.ballot, msg.quorum_connected))
                if now_ms is not None and self._round_started_at is not None:
                    self._round_rtts[src] = now_ms - self._round_started_at
            # Late replies from older rounds are simply ignored (paper: "A
            # late heartbeat is simply ignored and does not affect
            # correctness").

    def outrank(self, ballot: Ballot) -> None:
        """Move our ballot above ``ballot`` and forget the elected leader,
        to be elected in a later round.

        The takeover step when the leader's ballot went missing — and what
        a server does when it was elected with a ballot its replication
        layer cannot lead in (one it already led with before a restart):
        the next heartbeat round then elects a round it can use.
        """
        self._current_ballot = self._current_ballot.bump(ballot)
        self._leader = None
        if self._leaderless_since is None:
            self._leaderless_since = self._now
        self.stats.ballots_bumped += 1
        if self._obs.enabled:
            self._obs.emit(BallotBumped(
                pid=self.pid, ballot=self._current_ballot.n
            ))
            self._obs.counter("repro_ballots_bumped_total",
                              pid=self.pid).inc()

    def take_outbox(self) -> List[Tuple[int, Any]]:
        """Drain pending outgoing ``(dst, message)`` pairs."""
        out, self._outbox = self._outbox, []
        return out

    def take_leader_events(self) -> List[Ballot]:
        """Drain newly elected leader ballots (to feed Sequence Paxos)."""
        events, self._leader_events = self._leader_events, []
        return events

    # -- internals ------------------------------------------------------------

    def _send(self, dst: int, msg: Any) -> None:
        self._outbox.append((dst, msg))

    def _start_round(self, now_ms: float) -> None:
        self._hb_round += 1
        self._next_timeout = now_ms + self._config.hb_period_ms
        self._round_started_at = now_ms
        for peer in self._config.peers:
            self._send(peer, HeartbeatRequest(self._hb_round))

    def _hb_timeout(self) -> None:
        """Close the current round: evaluate replies and maybe elect."""
        self.stats.rounds += 1
        # Capture the health view before the election logic consumes the
        # reply list (check_leader appends our own ballot and clears it).
        self._last_heard = tuple(sorted(
            ballot.pid for (ballot, _qc) in self._ballots
        ))
        self._last_round_rtts = self._round_rtts
        self._round_rtts = {}
        if self._last_close_at is not None:
            self._last_round_jitter_ms = abs(
                (self._now - self._last_close_at) - self._config.hb_period_ms
            )
            if self._obs.enabled:
                self._obs.gauge(
                    "repro_heartbeat_round_jitter_ms", pid=self.pid
                ).set(self._last_round_jitter_ms)
        self._last_close_at = self._now
        self._last_connectivity = len(self._ballots) + 1
        was_qc = self._quorum_connected
        if len(self._ballots) + 1 >= self._config.majority:
            self._last_quorum_at = self._now
            # We heard from a majority (counting ourselves): we are QC and
            # allowed to evaluate leadership. Our own ballot participates
            # with the flag from the *previous* round.
            self._ballots.append((self._current_ballot, self._quorum_connected))
            self._check_leader()
        else:
            self._ballots.clear()
            self._quorum_connected = False
        if self._obs.enabled and self._quorum_connected != was_qc:
            self._obs.emit(QCFlagChanged(
                pid=self.pid, quorum_connected=self._quorum_connected
            ))
            self._obs.gauge("repro_quorum_connected", pid=self.pid).set(
                1.0 if self._quorum_connected else 0.0
            )

    def _check_leader(self) -> None:
        candidates = [b for (b, qc) in self._ballots if qc]
        self._ballots = []
        self._quorum_connected = True
        top = max(candidates) if candidates else BOTTOM
        leader_ballot = self._leader if self._leader is not None else BOTTOM
        if top < leader_ballot:
            # The leader's ballot was absent (disconnected) or carried
            # qc=false: the leader cannot make progress. Bump our ballot
            # beyond the leader's and attempt to take over next round.
            if self._config.connectivity_priority:
                self._current_ballot = self._current_ballot.with_priority(
                    self._last_connectivity
                )
            self.outrank(leader_ballot)
        elif top != leader_ballot:
            # A higher quorum-connected ballot exists: elect it.
            self._leader = top
            self.stats.leader_changes += 1
            self._leader_events.append(top)
            if self._obs.enabled:
                self._obs.emit(BallotElected(
                    pid=self.pid, leader=top.pid, ballot=top.n
                ))
                self._obs.counter("repro_leader_changes_total",
                                  pid=self.pid).inc()
                if self._leaderless_since is not None:
                    self._obs.histogram("repro_election_duration_ms").observe(
                        self._now - self._leaderless_since
                    )
            self._leaderless_since = None
