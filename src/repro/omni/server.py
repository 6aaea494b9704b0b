"""OmniPaxosServer: the composed RSM server (paper Figure 2).

One server hosts, per configuration, a Ballot Leader Election instance and a
Sequence Paxos instance, plus the *service layer* that orders the replicated
log across configurations and performs reconfiguration:

- Sequence Paxos decides entries into its storage; the service layer counts
  them into the replicated log, which it reads there (``read_log``).
- When a stop-sign is decided, the configuration is stopped. A server that
  continues into the next configuration starts its new BLE/Sequence Paxos
  instances immediately (it already holds the whole log) and announces the
  new configuration to every member. A *new* server first migrates the log
  — in parallel from any donors — before starting (paper section 6).
- Messages are wrapped in :class:`~repro.omni.messages.Envelope` so BLE and
  Sequence Paxos instances only ever talk to peers of the same
  configuration.

Crash recovery: Sequence Paxos state is persistent via
:class:`~repro.omni.storage.Storage`. On :meth:`recover` the volatile
protocol objects are rebuilt and BLE's own ballot is restored from the
persisted promise — a server must never reissue a ballot number it may
already have led with (property LE3), and the promise is a persisted upper
bound on every ballot this server ever led.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, NotLeaderError, StorageError
from repro.obs.events import (
    HeartbeatViewReported,
    MigrationCompleted,
    MigrationDonorPicked,
    MigrationSegmentReceived,
    SessionDropped,
    StopSignDecided,
)
from repro.obs.health import GrayFailureDetector
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import TraceContext, entry_trace_id
from repro.omni.ballot import Ballot
from repro.omni.ble import BallotLeaderElection, BLEConfig
from repro.omni.entry import StopSign, is_stopsign
from repro.omni.messages import (
    COMPONENT_BLE,
    COMPONENT_SERVICE,
    COMPONENT_SP,
    AcceptDecide,
    Envelope,
    HeartbeatRequest,
    JoinComplete,
    LogPullRequest,
    LogSegment,
    NewConfiguration,
)
from repro.omni.reconfig import PARALLEL, MigrationPlan, serve_pull_request
from repro.omni.sequence_paxos import SequencePaxos, SequencePaxosConfig
from repro.omni.storage import InMemoryStorage, Storage
from repro.replica import Ready, Replica

#: Each leading instance with what it may count itself for once the
#: storage writes made so far are durable (``SequencePaxos.self_accept_mark``).
_Marks = List[Tuple[SequencePaxos, Tuple[Ballot, int]]]

#: The hand-out with nothing in it (its fields are tuples: never changed).
_NOTHING = Ready()


@dataclass(frozen=True)
class ClusterConfig:
    """One configuration: an id and a fixed member set."""

    config_id: int
    servers: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigError("a configuration needs at least one server")
        if len(set(self.servers)) != len(self.servers):
            raise ConfigError("duplicate server pids in configuration")
        if any(pid <= 0 for pid in self.servers):
            raise ConfigError("server pids must be positive")

    @property
    def majority(self) -> int:
        return len(self.servers) // 2 + 1

    def peers_of(self, pid: int) -> Tuple[int, ...]:
        return tuple(p for p in self.servers if p != pid)


def _default_storage_factory(config_id: int) -> Storage:
    return InMemoryStorage()


@dataclass
class OmniPaxosConfig:
    """Static configuration of one Omni-Paxos server."""

    pid: int
    cluster: ClusterConfig
    hb_period_ms: float = 100.0
    #: Custom ballot tie-breaking priority (paper section 5.2).
    priority: int = 0
    #: Disable only for the ablation that shows why the QC flag matters.
    use_qc_flag: bool = True
    #: Prefer better-connected candidates at takeover time (paper section 8).
    connectivity_priority: bool = False
    #: ``"parallel"`` (paper, Figure 6b) or ``"leader"`` (Figure 6a ablation).
    migration_strategy: str = PARALLEL
    migration_chunk_entries: int = 10_000
    migration_retry_ms: float = 1_000.0
    #: How often continuing servers re-announce a new configuration to
    #: members that have not confirmed the join yet.
    announce_period_ms: float = 500.0
    #: Seed a pre-elected leader so benchmarks start in steady state.
    initial_leader: Optional[int] = None
    storage_factory: Callable[[int], Storage] = _default_storage_factory

    @property
    def is_joiner(self) -> bool:
        """True when this server is not in the initial configuration: it
        stays idle until a continuing server announces a configuration that
        includes it (paper section 6, adding new servers)."""
        return self.pid not in self.cluster.servers


@dataclass
class _Instance:
    """One configuration's protocol instances at this server; ``sp``'s
    storage holds the configuration's segment of the replicated log."""

    cluster: ClusterConfig
    sp: SequencePaxos
    ble: BallotLeaderElection
    #: Global log index where this configuration's segment starts.
    global_offset: int
    #: The active configuration accepts proposals and runs BLE.
    active: bool = True


@dataclass
class ServerStats:
    """Counters for the evaluation harness."""

    dropped_cross_config: int = 0
    buffered_in_transition: int = 0
    reconfigurations: int = 0


class OmniPaxosServer(Replica):
    """A complete Omni-Paxos RSM server."""

    def __init__(self, config: OmniPaxosConfig):
        self._config = config
        self._instances: Dict[int, _Instance] = {}
        self._current_cid: Optional[int] = None
        #: Length of the replicated log: every decided entry across all
        #: configurations, in order (segments end with stop-signs).
        self._log_len = 0
        #: Ranges this server migrated rather than decided, by start index.
        self._migrated: Dict[int, Tuple[Any, ...]] = {}
        self._decided_out: List[Tuple[int, Any]] = []
        self._migration: Optional[MigrationPlan] = None
        self._pending_cluster: Optional[ClusterConfig] = None
        #: Peers we still owe a NewConfiguration announcement -> deadline.
        self._announce_deadlines: Dict[int, float] = {}
        self._announce_msg: Optional[NewConfiguration] = None
        self._transition_buffer: List[Any] = []
        self._outbox: List[Tuple[int, Envelope]] = []
        #: Whether anything was proposed since the last hand-out: if so,
        #: :meth:`take_outbox` has Sequence Paxos' messages to collect.
        self._proposed = False
        #: :meth:`take_ready` hand-outs from the oldest whose fsync has not
        #: completed on, as ``(whether it owes an fsync, decided entries)``.
        #: While there are any, a write that owes nothing is not durable
        #: yet, and the caller may still hold those entries.
        self._unsynced: Deque[Tuple[bool, List[Tuple[int, Any]]]] = deque()
        #: Tracing-only: the root context of the first such proposal.
        self._proposed_trace: Optional[TraceContext] = None
        #: Tracing-only: the context to stamp on outgoing envelopes while
        #: handling one message/proposal (None outside tracing).
        self._active_trace: Optional[TraceContext] = None
        self._span_counter = 0
        self._now = 0.0
        self._started = False
        self._crashed = False
        self._migration_started_ms: Optional[float] = None
        #: Gray-failure detector over this server's peers; fed from
        #: heartbeat-beacon arrivals and BLE per-round RTTs (obs-on only).
        self._gray = GrayFailureDetector(
            pid=config.pid, expected_interval_ms=config.hb_period_ms
        )
        #: Last heartbeat round reported per config id (health views are
        #: emitted once per closed round, not once per tick).
        self._reported_round: Dict[int, int] = {}
        self.stats = ServerStats()

    def _on_observability(self, registry: MetricsRegistry) -> None:
        self._gray.bind(registry)
        # Instances may predate the wiring call; propagate to all of them.
        for inst in self._instances.values():
            inst.sp.set_observability(registry)
            inst.ble.set_observability(registry)

    # ------------------------------------------------------------------
    # Replica interface: accessors
    # ------------------------------------------------------------------

    @property
    def pid(self) -> int:
        return self._config.pid

    @property
    def members(self) -> Tuple[int, ...]:
        inst = self._current_instance()
        if inst is not None:
            return inst.cluster.servers
        if self._pending_cluster is not None:
            return self._pending_cluster.servers
        return self._config.cluster.servers

    @property
    def is_leader(self) -> bool:
        inst = self._current_instance()
        return inst is not None and inst.active and inst.sp.is_leader

    @property
    def leader_pid(self) -> Optional[int]:
        inst = self._current_instance()
        if inst is None:
            return None
        return inst.sp.leader_pid

    @property
    def current_config(self) -> Optional[ClusterConfig]:
        inst = self._current_instance()
        return inst.cluster if inst is not None else None

    @property
    def global_log_len(self) -> int:
        """Length of the decided replicated log at this server."""
        return self._log_len

    @property
    def migrating(self) -> bool:
        return self._migration is not None

    def read_log(self, from_idx: int = 0, to_idx: Optional[int] = None) -> Tuple[Any, ...]:
        """The decided replicated log in ``[from_idx, to_idx)``, clamped to
        its length, read where each entry is held: a migrated range, or the
        storage of the configuration that decided it (a compacted range
        raises :class:`StorageError`)."""
        to_idx = self._log_len if to_idx is None else min(to_idx, self._log_len)
        out: Tuple[Any, ...] = ()
        while from_idx < to_idx:
            run = self._held_run(from_idx, to_idx)
            if not run:
                raise StorageError(f"log index {from_idx} is not held here")
            out += run
            from_idx += len(run)
        return out

    def _held_run(self, lo: int, hi: int) -> Tuple[Any, ...]:
        """Entries from ``lo`` (below ``hi``) held in one place: a migrated
        range, else the segment of the last configuration starting by ``lo``."""
        for start, held in self._migrated.items():
            if start <= lo < start + len(held):
                return held[lo - start:hi - start]
        inst = [i for i in self._instances.values() if i.global_offset <= lo][-1]
        return inst.sp.read_decided(lo - inst.global_offset, hi - inst.global_offset)

    def ble_of_current(self) -> Optional[BallotLeaderElection]:
        """The active BLE instance (for tests and metrics)."""
        inst = self._current_instance()
        return inst.ble if inst is not None else None

    def sp_of_current(self) -> Optional[SequencePaxos]:
        """The active Sequence Paxos instance (for tests and metrics)."""
        inst = self._current_instance()
        return inst.sp if inst is not None else None

    @property
    def gray_detector(self) -> GrayFailureDetector:
        """This server's gray-failure detector (health observatory)."""
        return self._gray

    def status(self) -> Dict[str, Any]:
        """Admin introspection: this server's current health view.

        JSON-safe and cheap — safe to call from the sim harness, the
        runtime admin endpoint, or a test at any time, observability on or
        off (the connectivity fields only populate once heartbeat rounds
        close; the ``degraded`` map only when the obs layer feeds the
        gray-failure detector).
        """
        inst = self._current_instance()
        ble = inst.ble if inst is not None and inst.active else None
        sp = inst.sp if inst is not None else None
        leader = self.leader_pid
        return {
            "pid": self.pid,
            "protocol": "omni",
            "phase": ("crashed" if self._crashed
                      else "leader" if self.is_leader
                      else "migrating" if self.migrating
                      else "follower"),
            "config_id": inst.cluster.config_id if inst is not None else None,
            "ballot": ble.current_ballot.n if ble is not None else 0,
            "leader": leader if leader is not None else 0,
            "quorum_connected": (
                ble.quorum_connected if ble is not None else False
            ),
            "connectivity": ble.last_connectivity if ble is not None else 0,
            "peers_heard": list(ble.last_heard) if ble is not None else [],
            "hb_round": ble.hb_round if ble is not None else 0,
            "log_len": sp.log_len if sp is not None else 0,
            "decided_idx": self._log_len,
            "migrating": self.migrating,
            "degraded": self._gray.snapshot(),
        }

    def _report_health(self, inst: _Instance) -> None:
        """Emit one :class:`HeartbeatViewReported` per closed BLE round and
        feed the round's RTT samples to the gray-failure detector. Only
        called with observability on."""
        ble = inst.ble
        rounds = ble.stats.rounds
        cid = inst.cluster.config_id
        if self._reported_round.get(cid) == rounds or rounds == 0:
            return
        self._reported_round[cid] = rounds
        for peer, rtt in ble.last_round_rtts.items():
            self._gray.observe_rtt(peer, rtt)
        leader = ble.leader
        self._obs.emit(HeartbeatViewReported(
            pid=self.pid,
            round=ble.hb_round,
            ballot=ble.current_ballot.n,
            leader=leader.pid if leader is not None else 0,
            quorum_connected=ble.quorum_connected,
            connectivity=ble.last_connectivity,
            peers_heard=ble.last_heard,
            phase="leader" if self.is_leader else "follower",
            log_len=inst.sp.log_len,
            decided_idx=self._log_len,
            jitter_ms=ble.last_round_jitter_ms or 0.0,
        ))

    def queue_depths(self) -> Dict[str, int]:
        """Instantaneous staging-queue depths for the backpressure profiler
        (see ``repro.obs.prof``): the server's envelope outbox plus the
        active Sequence Paxos instance's outbox and pre-accept proposal
        buffer."""
        sp = self.sp_of_current()
        return {
            "server_outbox": len(self._outbox),
            "sp_outbox": sp.outbox_depth if sp is not None else 0,
            "sp_pending": sp.pending_proposals if sp is not None else 0,
        }

    # ------------------------------------------------------------------
    # Replica interface: driving
    # ------------------------------------------------------------------

    def start(self, now_ms: float) -> None:
        """Start the initial configuration's instances."""
        if self._started:
            return
        self._started = True
        self._now = now_ms
        if not self._config.is_joiner:
            self._start_instance(self._config.cluster, now_ms, announce=False)

    def tick(self, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        self._now = now_ms
        inst = self._current_instance()
        if inst is not None and inst.active:
            inst.ble.tick(now_ms)
            inst.sp.tick(now_ms)
            if self._obs_on:
                self._report_health(inst)
        if self._migration is not None:
            self._migration.tick(now_ms)
            self._drain_migration(now_ms)
        self._tick_announcements(now_ms)
        self._pump()

    def on_message(self, src: int, msg: Any, now_ms: float) -> None:
        if self._crashed or not self._started:
            return
        self._now = now_ms
        if not isinstance(msg, Envelope):
            raise TypeError(f"OmniPaxosServer expects Envelope, got {type(msg)!r}")
        if self._obs.tracing and msg.trace is not None:
            # Continue the incoming message's causal chain: everything this
            # handling turn sends is a child hop of the received context.
            self._active_trace = msg.trace.child(self._next_span_id())
        try:
            if msg.component == COMPONENT_SERVICE:
                self._on_service(src, msg.payload, now_ms)
            else:
                inst = self._instances.get(msg.config_id)
                if inst is None:
                    self.stats.dropped_cross_config += 1
                elif msg.component == COMPONENT_BLE:
                    if inst.active:
                        if self._obs_on and isinstance(msg.payload,
                                                       HeartbeatRequest):
                            # The peer's own timer fired: a beacon for the
                            # gray-failure detector's interval signal.
                            self._gray.observe_beacon(src, now_ms)
                        inst.ble.on_message(src, msg.payload, now_ms)
                elif msg.component == COMPONENT_SP:
                    inst.sp.on_message(src, msg.payload)
            self._pump()
        finally:
            self._active_trace = None

    def propose(self, entry: Any, now_ms: float) -> None:
        """Propose a client entry.

        While the server transitions between configurations (stop-sign in the
        log but the next instance not started yet), proposals are buffered
        and re-proposed in the new configuration in one batch — this is what
        masks reconfiguration downtime at high pipeline levels (paper §7.3).
        """
        if self._crashed or not self._started:
            raise NotLeaderError("server is down")
        self._now = now_ms
        inst = self._current_instance()
        if inst is None or not inst.active:
            if self._retired() or (self._pending_cluster is None
                                   and not self._instances):
                raise NotLeaderError("server is not part of the current configuration")
            self._transition_buffer.append(entry)
            self.stats.buffered_in_transition += 1
            return
        if inst.sp.stopped():
            self._transition_buffer.append(entry)
            self.stats.buffered_in_transition += 1
            return
        self._propose_to(inst, [entry])

    def propose_batch(self, entries: List[Any], now_ms: float) -> None:
        """Propose several entries in one append."""
        if self._crashed or not self._started:
            raise NotLeaderError("server is down")
        self._now = now_ms
        inst = self._current_instance()
        if inst is None or not inst.active or inst.sp.stopped():
            for entry in entries:
                self.propose(entry, now_ms)
            return
        if entries:
            self._propose_to(inst, entries)

    def _propose_to(self, inst: _Instance, entries: List[Any]) -> None:
        """Hand ``entries`` to Sequence Paxos, which appends them (or
        buffers or forwards) inside the call. The messages that carry
        them are collected by :meth:`take_outbox`; only a decision — a
        one-server cluster's — is applied here."""
        if self._proposed_trace is None and self._obs.tracing:
            self._proposed_trace = self._root_trace(entries[0])
        self._proposed = True
        inst.sp.propose_batch(entries)
        if self._apply_decided(inst):
            self._pump()

    def holds_read_lease(self, now_ms: float, safety: float = 0.8) -> bool:
        """Whether this leader may serve *local* linearizable reads.

        The lease argument: a BLE takeover requires some majority member to
        close a heartbeat round in which this leader's ballot was absent —
        impossible while this leader keeps collecting majority replies every
        round. If a majority was heard within ``safety * hb_period`` ago, no
        competing leader can have been elected yet, so the local decided
        state reflects every committed write. ``safety < 1`` absorbs timer
        skew between servers.
        """
        inst = self._current_instance()
        if inst is None or not inst.active or not inst.sp.is_leader:
            return False
        window = safety * self._config.hb_period_ms
        return inst.ble.quorum_heard_within(now_ms, window)

    def propose_reconfiguration(self, servers: Tuple[int, ...],
                                metadata: Optional[bytes] = None,
                                now_ms: Optional[float] = None) -> None:
        """Propose moving the cluster to member set ``servers``."""
        inst = self._current_instance()
        if inst is None or not inst.active:
            raise NotLeaderError("no active configuration at this server")
        if now_ms is not None:
            self._now = now_ms
        inst.sp.propose_reconfiguration(servers, metadata)
        self._pump()

    def take_outbox(self) -> List[Tuple[int, Envelope]]:
        if self._proposed:
            self._collect_proposed()
        marks = self._self_accept_marks()
        if self._outbox or marks:
            self._sync_storage()
            if self._self_accept(marks):
                self._sync_storage()  # whatever deciding staged
        out, self._outbox = self._outbox, []
        return out

    def take_decided(self) -> List[Tuple[int, Any]]:
        if self._crashed:
            # A dead process acknowledges nothing; recover() keeps what
            # storage proves decided and drops the rest.
            return []
        if self._decided_out:
            self._sync_storage()
        out, self._decided_out = self._decided_out, []
        return out

    def take_ready(self) -> Ready:
        """:meth:`take_outbox` and :meth:`take_decided` with the storage
        write made here and its fsync left to the caller.

        With nothing to fsync this is the synchronous hand-out: the same
        messages in the same order, released at once. Otherwise only the
        ``AcceptDecide`` messages that replicate new entries are ``early``
        (each behind nothing held for its follower), everything else
        waits for the fsync, and ``synced`` then counts the leader's own
        acceptance of what this write carried.
        """
        if self._proposed:
            self._collect_proposed()
        marks = self._self_accept_marks()
        if not (self._outbox or marks
                or (self._decided_out and not self._crashed)):
            return _NOTHING
        obs = self._obs if self._obs_on else None
        started_ms = obs.now_ms() if obs is not None else 0.0
        records, fsyncs = self._write_storage()
        if not fsyncs and not self._unsynced and self._self_accept(marks):
            more, fsyncs = self._write_storage()  # whatever deciding staged
            records += more
        out, self._outbox = self._outbox, []
        handed: List[Tuple[int, Any]] = []
        if not self._crashed:
            handed, self._decided_out = self._decided_out, []
        if fsyncs or self._unsynced:
            self._unsynced.append((bool(fsyncs), handed))
        if not fsyncs:
            return Ready(outbox=out, decided=handed)
        early: List[Tuple[int, Envelope]] = []
        held: List[Tuple[int, Envelope]] = []
        waiting = set()
        for dst, env in out:
            if dst not in waiting and env.payload.__class__ is AcceptDecide:
                early.append((dst, env))
            else:
                held.append((dst, env))
                waiting.add(dst)
        return Ready(early, held, handed, tuple(fsyncs),
                     partial(self._synced, marks, records, started_ms))

    def _collect_proposed(self) -> None:
        """Have Sequence Paxos build the messages for everything proposed
        since the last hand-out, one per follower; they carry the first
        proposal's trace."""
        self._proposed = False
        self._active_trace, self._proposed_trace = (
            self._proposed_trace, None)
        for cid, inst in self._instances.items():
            for dst, msg in inst.sp.take_outbox():
                self._post(dst, Envelope(cid, COMPONENT_SP, msg))
        self._active_trace = None

    def _self_accept_marks(self) -> _Marks:
        marks = []
        if not self._crashed:
            for inst in self._instances.values():
                mark = inst.sp.self_accept_mark()
                if mark is not None:
                    marks.append((inst.sp, mark))
        return marks

    def _self_accept(self, marks: _Marks) -> bool:
        """Count the leader's own acceptance at ``marks``; returns whether
        that decided anything (its ``Decide`` messages and entries are then
        queued)."""
        decided = False
        for sp, mark in marks:
            decided |= sp.self_accept(mark)
        if decided:
            self._pump()
        return decided

    def _write_storage(self) -> Tuple[int, List[Callable[[], None]]]:
        """Write every record staged so far, without waiting for the
        disk; returns how many records that wrote and the fsync of each
        storage that wrote any."""
        records = 0
        fsyncs = []
        for inst in self._instances.values():
            storage = inst.sp.storage
            written = storage.write()
            if written:
                records += written
                fsyncs.append(storage.fsync)
        return records, fsyncs

    def _synced(self, marks: _Marks, records: int,
                started_ms: float) -> None:
        """A :meth:`take_ready` write is durable: count its marks."""
        if self._crashed:
            return
        # The caller has let out this hand-out and those held behind it.
        unsynced = self._unsynced
        unsynced.popleft()
        while unsynced and not unsynced[0][0]:
            unsynced.popleft()
        if self._obs_on:
            self._observe_sync(records, started_ms)
        self._self_accept(marks)

    def _sync_storage(self) -> None:
        """The durability barrier of the synchronous hand-out: nothing
        leaves this replica ahead of the state it attests.

        :meth:`take_outbox` and :meth:`take_decided` hand messages and
        decided entries out only after this has made every storage
        mutation so far durable — so a ``Promise`` or ``Accepted`` cannot
        outrun the promise or entries it reports, and no client is
        acknowledged an entry a power cut could take back. Because it sits
        at the hand-out and not at each write, all the records one hand-out
        cycle produced share one write and one fsync. (:meth:`take_ready`
        keeps the same barrier with the fsync on the caller's side.) If it
        raises, nothing is handed out; the caller must :meth:`crash` this
        replica, which discards the queued messages.
        """
        obs = self._obs if self._obs_on else None
        started_ms = obs.now_ms() if obs is not None else 0.0
        records = 0
        for inst in self._instances.values():
            records += inst.sp.storage.sync()
        if obs is not None:
            self._observe_sync(records, started_ms)

    def _observe_sync(self, records: int, started_ms: float) -> None:
        """How long a barrier waited on the disk, and for how many
        records (nothing when it wrote none)."""
        if records:
            obs = self._obs
            obs.histogram("repro_storage_sync_ms", pid=self.pid).observe(
                obs.now_ms() - started_ms)
            obs.counter("repro_storage_sync_records_total",
                        pid=self.pid).inc(records)
            obs.counter("repro_storage_syncs_total", pid=self.pid).inc()

    # ------------------------------------------------------------------
    # Replica interface: failures
    # ------------------------------------------------------------------

    def on_session_drop(self, peer: int, now_ms: float) -> None:
        """A transport session to ``peer`` was re-established after a drop."""
        if self._crashed or not self._started:
            return
        self._now = now_ms
        if self._obs.enabled:
            self._obs.emit(SessionDropped(pid=self.pid, peer=peer))
        inst = self._current_instance()
        if inst is not None and peer in inst.cluster.servers:
            inst.sp.reconnected(peer)
        self._pump()

    def crash(self) -> None:
        """Lose all volatile state (persistent storage survives).

        Queued messages die with the process, and die *unsynced*: they may
        attest state a failed or never-run sync did not persist.
        """
        self._crashed = True
        self._outbox = []
        # The caller drops what it held: those entries were never handed
        # out after all.
        self._decided_out[:0] = [e for _, held in self._unsynced
                                 for e in held]
        self._unsynced.clear()
        self._proposed = False
        self._proposed_trace = None

    def recover(self, now_ms: float) -> None:
        """Restart after a crash: rebuild volatile protocol state.

        Sequence Paxos reloads from storage and enters the recover state,
        asking peers for a Prepare (paper section 4.1.3). BLE restores its
        own ballot from the persisted promise so LE3 is preserved.
        """
        if not self._crashed:
            return
        self._crashed = False
        self._now = now_ms
        inst = self._current_instance()
        if inst is None:
            return
        cluster = inst.cluster
        sp_cfg = SequencePaxosConfig(
            pid=self.pid,
            peers=cluster.peers_of(self.pid),
            config_id=cluster.config_id,
            resend_period_ms=4 * self._config.hb_period_ms,
        )
        sp = SequencePaxos(sp_cfg, inst.sp.storage)
        sp.set_observability(self._obs)
        sp.fail_recover()
        promise = sp.storage.get_promise()
        ble = BallotLeaderElection(
            self._ble_config(cluster),
            initial_ballot=Ballot(
                n=promise.n, priority=self._config.priority, pid=self.pid
            ),
        )
        ble.set_observability(self._obs)
        ble.start(now_ms)
        inst.sp = sp
        inst.ble = ble
        # Drop whatever the service layer applied or queued beyond what
        # storage proves decided: the decided index is synced lazily (with
        # the next other storage write), so a crash can leave the volatile
        # view ahead of the disk. Those entries are decided again after
        # the resync.
        proven = inst.global_offset + sp.decided_idx
        self._log_len = min(self._log_len, proven)
        self._decided_out = [(idx, entry) for idx, entry in self._decided_out
                             if idx < proven]
        self._pump()

    # ------------------------------------------------------------------
    # internals: instances and pumping
    # ------------------------------------------------------------------

    def _current_instance(self) -> Optional[_Instance]:
        if self._current_cid is None:
            return None
        return self._instances.get(self._current_cid)

    def _retired(self) -> bool:
        """True when this server is not part of any current/future config."""
        if self._pending_cluster is not None:
            return self.pid not in self._pending_cluster.servers
        inst = self._current_instance()
        return inst is not None and not inst.active

    def _ble_config(self, cluster: ClusterConfig) -> BLEConfig:
        return BLEConfig(
            pid=self.pid,
            peers=cluster.peers_of(self.pid),
            hb_period_ms=self._config.hb_period_ms,
            priority=self._config.priority,
            use_qc_flag=self._config.use_qc_flag,
            connectivity_priority=self._config.connectivity_priority,
        )

    def _start_instance(self, cluster: ClusterConfig, now_ms: float,
                        announce: bool) -> None:
        sp_cfg = SequencePaxosConfig(
            pid=self.pid,
            peers=cluster.peers_of(self.pid),
            config_id=cluster.config_id,
            resend_period_ms=4 * self._config.hb_period_ms,
        )
        storage = self._config.storage_factory(cluster.config_id)
        sp = SequencePaxos(sp_cfg, storage)
        sp.set_observability(self._obs)
        seed: Optional[Ballot] = None
        if cluster.config_id == self._config.cluster.config_id and \
                self._config.initial_leader is not None:
            if self._config.initial_leader not in cluster.servers:
                raise ConfigError("initial_leader must be a configuration member")
            seed = Ballot(n=1, priority=0, pid=self._config.initial_leader)
        ble = BallotLeaderElection(self._ble_config(cluster), initial_leader=seed)
        ble.set_observability(self._obs)
        ble.start(now_ms)
        self._instances[cluster.config_id] = _Instance(
            cluster=cluster, sp=sp, ble=ble, global_offset=self._log_len)
        # Pre-decided state from the storage factory (a restart, a preloaded
        # benchmark log) is history, not news: counted, not handed out.
        self._log_len += sp.decided_idx
        self._current_cid = cluster.config_id
        self._migration = None
        self._pending_cluster = None
        if seed is not None and seed.pid == self.pid:
            sp.handle_leader(seed)
        if announce:
            for peer in cluster.peers_of(self.pid):
                self._send_service(peer, JoinComplete(cluster.config_id))
        if self._transition_buffer:
            pending, self._transition_buffer = self._transition_buffer, []
            sp.propose_batch(pending)
        self._pump()

    def _next_span_id(self) -> str:
        self._span_counter += 1
        return f"{self.pid}.{self._span_counter}"

    def _root_trace(self, entry: Any) -> TraceContext:
        """A fresh root context for a locally proposed entry. Client
        commands get the canonical ``c<cid>-<seq>`` id so their envelope
        hops and client-side span events share one trace."""
        span_id = self._next_span_id()
        return TraceContext(entry_trace_id(entry) or f"p{span_id}",
                            span_id=span_id)

    def _post(self, dst: int, env: Envelope) -> None:
        """Queue an outgoing envelope, stamping the active trace context.

        ``_active_trace`` is only ever set while tracing is enabled, so
        the untraced hot path pays one ``is None`` check.
        """
        if self._active_trace is not None and env.trace is None:
            env = replace(env, trace=self._active_trace)
        self._outbox.append((dst, env))

    def _send_service(self, dst: int, payload: Any) -> None:
        cid = self._current_cid if self._current_cid is not None else 0
        self._post(dst, Envelope(cid, COMPONENT_SERVICE, payload))

    def _pump(self) -> None:
        """Move data between components and fill the outbox.

        Repeats until a fixed point because a leader event can generate
        Prepare messages, deciding entries can surface a stop-sign, etc.
        """
        progressed = True
        while progressed:
            progressed = False
            for cid, inst in list(self._instances.items()):
                if inst.active:
                    for ballot in inst.ble.take_leader_events():
                        promise = inst.sp.storage.get_promise()
                        if (ballot.pid == self.pid and ballot <= promise
                                and not inst.sp.is_leader):
                            # Elected in a round we cannot lead: Sequence
                            # Paxos only leads above its promise, and this
                            # ballot is one we led with before a restart
                            # (or lies below a round we promised since).
                            # Left alone we would stay BLE's choice and
                            # never lead — a leader restarted within one
                            # heartbeat round, or a whole cluster
                            # restarted at once, would stall for good.
                            inst.ble.outrank(promise)
                        else:
                            inst.sp.handle_leader(ballot)
                        progressed = True
                    for dst, msg in inst.ble.take_outbox():
                        self._post(dst, Envelope(cid, COMPONENT_BLE, msg))
                for dst, msg in inst.sp.take_outbox():
                    self._post(dst, Envelope(cid, COMPONENT_SP, msg))
                if self._apply_decided(inst):
                    progressed = True

    def _apply_decided(self, inst: _Instance) -> bool:
        """Extend the replicated log by what ``inst`` newly decided;
        returns whether there was anything."""
        decided = inst.sp.take_decided()
        for local_idx, entry in decided:
            global_idx = inst.global_offset + local_idx
            if global_idx == self._log_len:
                self._log_len += 1
                self._decided_out.append((global_idx, entry))
                if is_stopsign(entry) and inst.active:
                    self._handle_stopsign(entry)
            # else: already obtained via migration; nothing to do.
        return bool(decided)

    # ------------------------------------------------------------------
    # internals: reconfiguration (service layer)
    # ------------------------------------------------------------------

    def _handle_stopsign(self, stopsign: StopSign) -> None:
        """The current configuration decided a stop-sign: transition."""
        inst = self._current_instance()
        assert inst is not None
        inst.active = False  # old BLE stops; old SP keeps syncing stragglers
        self.stats.reconfigurations += 1
        new_cluster = ClusterConfig(stopsign.config_id, stopsign.servers)
        if self._obs.enabled:
            self._obs.emit(StopSignDecided(
                pid=self.pid,
                config_id=inst.cluster.config_id,
                next_config_id=new_cluster.config_id,
                servers=new_cluster.servers,
            ))
        donors = tuple(p for p in inst.cluster.servers if p != self.pid)
        self._announce_msg = NewConfiguration(
            config_id=new_cluster.config_id,
            servers=new_cluster.servers,
            log_len=self._log_len,
            donors=donors + (self.pid,),
            metadata=stopsign.metadata,
        )
        self._announce_deadlines = {
            peer: self._now for peer in new_cluster.servers if peer != self.pid
        }
        self._pending_cluster = new_cluster
        if self.pid in new_cluster.servers:
            self._start_instance(new_cluster, self._now, announce=True)
        else:
            self._current_cid = None  # retired: donor only

    def _tick_announcements(self, now_ms: float) -> None:
        if self._announce_msg is None:
            return
        for peer, deadline in list(self._announce_deadlines.items()):
            if now_ms >= deadline:
                self._send_service(peer, self._announce_msg)
                self._announce_deadlines[peer] = (
                    now_ms + self._config.announce_period_ms
                )

    def _on_service(self, src: int, msg: Any, now_ms: float) -> None:
        if isinstance(msg, NewConfiguration):
            self._on_new_configuration(src, msg, now_ms)
        elif isinstance(msg, LogPullRequest):
            segment = serve_pull_request(
                msg, self.read_log, self._config.migration_chunk_entries)
            if segment is not None:
                self._send_service(src, segment)
        elif isinstance(msg, LogSegment):
            if self._migration is not None:
                if self._obs.tracing:
                    self._obs.emit(MigrationSegmentReceived(
                        pid=self.pid, config_id=msg.config_id, donor=src,
                        from_idx=msg.from_idx, entries=len(msg.entries),
                    ))
                self._migration.on_segment(src, msg, now_ms)
                self._drain_migration(now_ms)
        elif isinstance(msg, JoinComplete):
            self._announce_deadlines.pop(src, None)
            if self._migration is not None and \
                    self._migration.config_id == msg.config_id:
                self._migration.add_donor(src)

    def _on_new_configuration(self, src: int, msg: NewConfiguration,
                              now_ms: float) -> None:
        if msg.config_id in self._instances:
            # Already started: confirm so the announcer stops retransmitting.
            self._send_service(src, JoinComplete(msg.config_id))
            return
        if self.pid not in msg.servers:
            return
        if self._migration is not None:
            if self._migration.config_id == msg.config_id:
                self._migration.add_donor(src)
            return
        cluster = ClusterConfig(msg.config_id, msg.servers)
        self._pending_cluster = cluster
        if self._log_len >= msg.log_len:
            self._start_instance(cluster, now_ms, announce=True)
            return
        donors = [p for p in msg.donors if p != self.pid] or [src]
        self._migration = MigrationPlan(
            config_id=msg.config_id,
            from_idx=self._log_len,
            to_idx=msg.log_len,
            donors=donors,
            strategy=self._config.migration_strategy,
            chunk_entries=self._config.migration_chunk_entries,
            retry_ms=self._config.migration_retry_ms,
        )
        self._migration_started_ms = now_ms
        self._migration.start(now_ms)
        self._drain_migration(now_ms)

    def _drain_migration(self, now_ms: float) -> None:
        migration = self._migration
        if migration is None:
            return
        for dst, req in migration.take_outbox():
            if self._obs.enabled and isinstance(req, LogPullRequest):
                self._obs.emit(MigrationDonorPicked(
                    pid=self.pid, config_id=req.config_id, donor=dst,
                    from_idx=req.from_idx, to_idx=req.to_idx,
                ))
            self._send_service(dst, req)
        if not migration.complete():
            return
        entries = migration.collected_entries()
        # Skip the head a continuing member's own instance decided meanwhile.
        held = entries[len(entries) - (migration.target_len - self._log_len):]
        if held:
            self._migrated[self._log_len] = held
            self._decided_out.extend(enumerate(held, start=self._log_len))
            self._log_len += len(held)
        if self._obs.enabled:
            started = self._migration_started_ms
            duration = now_ms - started if started is not None else 0.0
            self._obs.emit(MigrationCompleted(
                pid=self.pid, config_id=migration.config_id,
                entries=len(entries), duration_ms=duration,
            ))
            self._obs.histogram("repro_migration_duration_ms").observe(duration)
        self._migration_started_ms = None
        assert self._pending_cluster is not None
        self._start_instance(self._pending_cluster, now_ms, announce=True)
