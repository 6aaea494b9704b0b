"""Viewstamped Replication's leader election over Sequence Paxos.

The paper evaluates "an implementation of VR's leader election [Liskov &
Cowling 2012] with Omni-Paxos' log replication" — this module is that
hybrid. The view-change protocol keeps VR's two defining properties:

- **Round-robin primaries**: the primary of view ``v`` is
  ``servers[v mod N]``; a view change cannot pick an arbitrary server.
- **EQC**: a replica sends ``DoViewChange`` only after it has received
  ``StartViewChange`` for that view from a majority, and the new primary
  needs a majority of ``DoViewChange`` messages — the leader must be
  *elected by quorum-connected servers*, which is precisely what deadlocks
  VR in the quorum-loss and constrained-election scenarios (only one server
  is quorum-connected, so nobody can ever be EQC).
- **View-change gossip**: any replica that *hears of* a higher view joins it
  and re-broadcasts ``StartViewChange`` — the gossip channel behind the
  repeated elections of paper section 2c.

Log replication, including the synchronization of the new primary, is
delegated to :class:`repro.omni.sequence_paxos.SequencePaxos` with the view
number as the ballot — functionally equivalent to VR's log merge in
``DoViewChange``/``StartView`` but reusing the already-proven machinery,
exactly as the paper's artifact does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.obs.events import BallotElected
from repro.obs.registry import MetricsRegistry
from repro.omni.ballot import Ballot
from repro.omni.sequence_paxos import SequencePaxos, SequencePaxosConfig
from repro.omni.storage import InMemoryStorage, Storage
from repro.replica import Replica


class VRStatus(enum.Enum):
    NORMAL = "normal"
    VIEW_CHANGE = "view-change"


@dataclass(frozen=True, slots=True)
class StartViewChange:
    """'I want (or heard of) a change to view ``view``' — gossiped."""

    view: int


@dataclass(frozen=True, slots=True)
class DoViewChange:
    """Sent to the new primary by replicas that saw a majority of
    StartViewChange messages for ``view``."""

    view: int


@dataclass(frozen=True, slots=True)
class StartView:
    """The new primary announces that ``view`` is operational."""

    view: int


@dataclass(frozen=True, slots=True)
class VRPing:
    """Primary liveness heartbeat within a view."""

    view: int


@dataclass(frozen=True, slots=True)
class VRConfig:
    pid: int
    servers: Tuple[int, ...]
    election_timeout_ms: float = 500.0
    initial_leader: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pid not in self.servers:
            raise ConfigError("pid must be a member")
        if len(set(self.servers)) != len(self.servers):
            raise ConfigError("duplicate pids")
        if self.election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be positive")

    @property
    def ping_period(self) -> float:
        """Primary heartbeat period: a fifth of the timeout."""
        return max(self.election_timeout_ms / 5.0, 1.0)

    @property
    def majority(self) -> int:
        return len(self.servers) // 2 + 1

    def leader_of(self, view: int) -> int:
        ordered = tuple(sorted(self.servers))
        return ordered[view % len(ordered)]


@dataclass
class VRStats:
    view_changes_started: int = 0
    views_established: int = 0


class VRReplica(Replica):
    """One VR server: view-change election + Sequence Paxos replication."""

    def _on_observability(self, registry: MetricsRegistry) -> None:
        self._sp.set_observability(registry)

    def __init__(self, config: VRConfig, storage: Optional[Storage] = None):
        self._config = config
        peers = tuple(p for p in config.servers if p != config.pid)
        self._peers = peers
        self._sp = SequencePaxos(
            SequencePaxosConfig(pid=config.pid, peers=peers),
            storage if storage is not None else InMemoryStorage(),
        )
        self._view = 0
        self._status = VRStatus.NORMAL
        self._svc_acks: Set[int] = set()
        self._dvc_acks: Set[int] = set()
        self._sent_dvc = False
        self._last_leader_contact = 0.0
        self._view_change_started = 0.0
        self._next_ping = 0.0
        self._outbox: List[Tuple[int, Any]] = []
        self._crashed = False
        self._started = False
        self.stats = VRStats()

    # ------------------------------------------------------------------
    # Replica interface: accessors
    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def members(self) -> Tuple[int, ...]:
        return self._config.servers

    @property
    def view(self) -> int:
        return self._view

    @property
    def status(self) -> VRStatus:
        return self._status

    @property
    def is_leader(self) -> bool:
        return (
            self._status is VRStatus.NORMAL
            and self._config.leader_of(self._view) == self.pid
            and self._sp.is_leader
        )

    @property
    def leader_pid(self) -> Optional[int]:
        if self._status is VRStatus.NORMAL:
            return self._config.leader_of(self._view)
        return None

    @property
    def sequence_paxos(self) -> SequencePaxos:
        return self._sp

    # ------------------------------------------------------------------
    # Replica interface: driving
    # ------------------------------------------------------------------

    def start(self, now_ms: float) -> None:
        if self._started:
            return
        self._started = True
        self._last_leader_contact = now_ms
        seed = self._config.initial_leader
        if seed is not None:
            # Pick the first view whose round-robin primary is the seed.
            ordered = tuple(sorted(self._config.servers))
            self._view = ordered.index(seed) + len(ordered)
            if seed == self.pid:
                self._sp.handle_leader(self._view_ballot(self._view))
                self.stats.views_established += 1
            else:
                self._sp.handle_leader(
                    Ballot(n=self._view, priority=0, pid=seed)
                )

    def tick(self, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        self._sp.tick(now_ms)
        if self.is_leader:
            if now_ms >= self._next_ping:
                self._next_ping = now_ms + self._config.ping_period
                for peer in self._peers:
                    self._send(peer, VRPing(self._view))
            self._drain_sp()
            return
        timeout = self._config.election_timeout_ms
        if self._status is VRStatus.NORMAL:
            if now_ms - self._last_leader_contact >= timeout:
                self._initiate_view_change(self._view + 1, now_ms)
        else:
            if now_ms - self._view_change_started >= timeout:
                # The view change stalled (e.g. its primary is unreachable
                # or cannot collect DoViewChanges): try the next view.
                self._initiate_view_change(self._view + 1, now_ms)
        self._drain_sp()

    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        if isinstance(msg, StartViewChange):
            self._on_start_view_change(src, msg, now_ms)
        elif isinstance(msg, DoViewChange):
            self._on_do_view_change(src, msg, now_ms)
        elif isinstance(msg, StartView):
            self._on_start_view(src, msg, now_ms)
        elif isinstance(msg, VRPing):
            if self._status is VRStatus.NORMAL and msg.view == self._view:
                self._last_leader_contact = now_ms
        else:
            # Everything else is a Sequence Paxos message.
            self._sp.on_message(src, msg)
        self._drain_sp()

    def propose(self, entry: Any, now_ms: float) -> None:
        self._sp.propose(entry)

    def propose_batch(self, entries: Sequence[Any], now_ms: float) -> None:
        self._sp.propose_batch(entries)

    def take_outbox(self) -> List[Tuple[int, Any]]:
        # Sequence Paxos builds the messages for what was proposed since
        # the last hand-out in its own take_outbox.
        self._drain_sp()
        mark = None if self._crashed else self._sp.self_accept_mark()
        if self._outbox or mark is not None:
            self._sp.storage.sync()  # nothing leaves ahead of the disk
            if mark is not None:
                # The leader's appends are durable: count them.
                self._sp.self_accept(mark)
                self._drain_sp()
        out, self._outbox = self._outbox, []
        return out

    def take_decided(self) -> List[Tuple[int, Any]]:
        decided = self._sp.take_decided()
        if decided:
            self._sp.storage.sync()
        return decided

    # ------------------------------------------------------------------
    # Replica interface: failures
    # ------------------------------------------------------------------

    def crash(self) -> None:
        self._crashed = True

    def recover(self, now_ms: float) -> None:
        if not self._crashed:
            return
        self._crashed = False
        sp_storage = self._sp.storage
        self._sp = SequencePaxos(
            SequencePaxosConfig(pid=self.pid, peers=self._peers), sp_storage
        )
        self._sp.set_observability(self._obs)
        self._sp.fail_recover()
        self._view = 0
        self._status = VRStatus.NORMAL
        self._last_leader_contact = now_ms
        self._drain_sp()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _view_ballot(self, view: int) -> Ballot:
        return Ballot(n=view, priority=0, pid=self.pid)

    def _initiate_view_change(self, view: int, now_ms: float) -> None:
        self.stats.view_changes_started += 1
        self._enter_view_change(view, now_ms)
        for peer in self._peers:
            self._send(peer, StartViewChange(view))

    def _enter_view_change(self, view: int, now_ms: float) -> None:
        self._view = view
        self._status = VRStatus.VIEW_CHANGE
        self._svc_acks = {self.pid}
        self._dvc_acks = set()
        self._sent_dvc = False
        self._view_change_started = now_ms

    def _on_start_view_change(self, src: int, msg: StartViewChange,
                              now_ms: float) -> None:
        if msg.view > self._view:
            # Hearing of a higher view makes us join and re-broadcast it —
            # VR's gossip, the liveness hazard of paper section 2c.
            self._enter_view_change(msg.view, now_ms)
            for peer in self._peers:
                self._send(peer, StartViewChange(msg.view))
            self._svc_acks.add(src)
        elif msg.view == self._view and self._status is VRStatus.VIEW_CHANGE:
            self._svc_acks.add(src)
        else:
            return
        self._maybe_send_dvc(now_ms)

    def _maybe_send_dvc(self, now_ms: float) -> None:
        """EQC gate: DoViewChange only flows from replicas that saw a
        majority of StartViewChanges — i.e. quorum-connected ones."""
        if self._sent_dvc or self._status is not VRStatus.VIEW_CHANGE:
            return
        if len(self._svc_acks) < self._config.majority:
            return
        self._sent_dvc = True
        primary = self._config.leader_of(self._view)
        if primary == self.pid:
            self._dvc_acks.add(self.pid)
            self._maybe_become_primary(now_ms)
        else:
            self._send(primary, DoViewChange(self._view))

    def _on_do_view_change(self, src: int, msg: DoViewChange,
                           now_ms: float) -> None:
        if msg.view < self._view:
            return
        if msg.view > self._view:
            self._enter_view_change(msg.view, now_ms)
        if self._config.leader_of(self._view) != self.pid:
            return
        self._dvc_acks.add(src)
        self._maybe_become_primary(now_ms)

    def _maybe_become_primary(self, now_ms: float) -> None:
        if self._status is not VRStatus.VIEW_CHANGE:
            return
        if len(self._dvc_acks) < self._config.majority:
            return
        self._status = VRStatus.NORMAL
        self._last_leader_contact = now_ms
        self._next_ping = now_ms
        self.stats.views_established += 1
        if self._obs.enabled:
            self._obs.emit(BallotElected(pid=self.pid, leader=self.pid,
                                         ballot=self._view))
        self._sp.handle_leader(self._view_ballot(self._view))
        for peer in self._peers:
            self._send(peer, StartView(self._view))

    def _on_start_view(self, src: int, msg: StartView, now_ms: float) -> None:
        if msg.view < self._view:
            return
        self._view = msg.view
        self._status = VRStatus.NORMAL
        self._last_leader_contact = now_ms
        if self._obs.enabled:
            self._obs.emit(BallotElected(pid=self.pid, leader=src,
                                         ballot=msg.view))
        # Tell Sequence Paxos about the new leader so buffered proposals are
        # forwarded; log synchronization follows via its Prepare phase.
        self._sp.handle_leader(Ballot(n=msg.view, priority=0, pid=src))

    def _drain_sp(self) -> None:
        for dst, msg in self._sp.take_outbox():
            self._outbox.append((dst, msg))

    def _send(self, dst: int, msg: Any) -> None:
        self._outbox.append((dst, msg))


#: Wire-crossing VR messages, registered with stable binary tags in
#: `repro.encoding` (drift guarded by the codec test suite).
WIRE_MESSAGES = (
    StartViewChange,
    DoViewChange,
    StartView,
    VRPing,
)
