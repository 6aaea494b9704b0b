"""SimCluster: wires protocol replicas, the network, and observers.

Any mapping of ``pid -> Replica`` can be driven — Omni-Paxos servers, Raft,
Multi-Paxos, or VR — which is what makes all the comparative experiments of
the paper runnable from one harness.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, StorageError
from repro.replica import Replica
from repro.sim.events import EventQueue
from repro.sim.network import SimNetwork

DecidedObserver = Callable[[int, int, Any, float], None]


class SimCluster:
    """Drives a set of replicas over a simulated network."""

    def __init__(
        self,
        replicas: Dict[int, Replica],
        network: SimNetwork,
        queue: EventQueue,
        tick_ms: float = 10.0,
    ):
        if not replicas:
            raise ConfigError("a cluster needs at least one replica")
        if tick_ms <= 0:
            raise ConfigError("tick_ms must be positive")
        self._replicas = dict(replicas)
        self._network = network
        self._queue = queue
        self._tick_ms = tick_ms
        self._crashed: Set[int] = set()
        self._started = False
        self._decided_observers: List[DecidedObserver] = []
        #: Per-server *effective* tick-interval multiplier (what the tick
        #: loop reads): base scale x the product of pushed layers. A server
        #: with scale 2.0 checks its timers half as often, so its election
        #: timeouts fire late relative to its peers.
        self._tick_scale: Dict[int, float] = {}
        #: Absolute base scale per pid (:meth:`set_tick_scale`).
        self._tick_base: Dict[int, float] = {}
        #: Stacked multiplicative layers per pid: ``{pid: {handle: factor}}``
        #: (:meth:`push_tick_scale` / :meth:`pop_tick_scale`). Keeping each
        #: injection as its own layer lets ``clock_skew`` and ``slow_cpu``
        #: target the same server and revert in any order without one
        #: revert clobbering the other.
        self._tick_layers: Dict[int, Dict[int, float]] = {}
        self._tick_layer_seq = 0
        #: One-shot extra delay (ms) added to a server's *next* tick — the
        #: sim model of a disk stall blocking the timer loop (``slow_disk``).
        self._tick_stall: Dict[int, float] = {}
        #: Per-server CPU cost (ms) to process one inbound message. Empty in
        #: the default model (message handling is instantaneous); a fail-slow
        #: server serializes arrivals through a busy-until gate, so its
        #: replies lag and its commit pipeline backs up while heartbeat-level
        #: liveness stays green (the gray-failure signature).
        self._msg_cost: Dict[int, float] = {}
        self._cpu_free_at: Dict[int, float] = {}
        #: Servers crashed by a failed storage write (fail-recovery model).
        self.storage_crashes = 0
        network.on_deliver(self._deliver)
        network.on_session_restored(self._session_restored)

    # -- accessors -----------------------------------------------------------

    @property
    def now(self) -> float:
        return self._queue.now

    @property
    def queue(self) -> EventQueue:
        return self._queue

    @property
    def network(self) -> SimNetwork:
        return self._network

    @property
    def pids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._replicas))

    def replica(self, pid: int) -> Replica:
        return self._replicas[pid]

    def add_replica(self, pid: int, replica: Replica) -> None:
        """Register a server that joins later (reconfiguration targets)."""
        if pid in self._replicas:
            raise ConfigError(f"pid {pid} already registered")
        self._replicas[pid] = replica
        if self._started:
            replica.start(self._queue.now)
            self._schedule_tick(pid)
            self._flush(pid)

    def replace_replica(self, pid: int, replica: Replica) -> None:
        """Swap the object driven as ``pid`` for a fresh one.

        This models a *wiped* restart (disk replaced, fail-recovery model
        violated on purpose): the new replica starts from whatever state it
        was constructed with. The running tick loop keeps driving ``pid``
        because it looks the object up by pid on every tick.
        """
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        self._replicas[pid] = replica
        self._crashed.discard(pid)
        if self._started:
            replica.start(self._queue.now)
            self._flush(pid)

    def is_crashed(self, pid: int) -> bool:
        return pid in self._crashed

    def leaders(self) -> List[int]:
        """Every alive server currently claiming leadership.

        Under partial connectivity more than one server may claim the lead
        (e.g. the stale leader in the chained scenario) — callers decide
        what to do with the set.
        """
        return [
            pid
            for pid, replica in sorted(self._replicas.items())
            if pid not in self._crashed and replica.is_leader
        ]

    def on_decided(self, observer: DecidedObserver) -> None:
        """Register ``observer(pid, global_idx, entry, now)`` for every
        newly decided entry at every server."""
        self._decided_observers.append(observer)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for pid, replica in sorted(self._replicas.items()):
            replica.start(self._queue.now)
        for pid in sorted(self._replicas):
            self._flush(pid)
            self._schedule_tick(pid)

    def run_for(self, duration_ms: float) -> None:
        self._queue.run_for(duration_ms)

    def run_until(self, until_ms: float) -> None:
        self._queue.run_until(until_ms)

    # -- client-side API ------------------------------------------------------

    def propose(self, pid: int, entry: Any) -> None:
        """Propose ``entry`` at server ``pid`` (raises if it cannot)."""
        replica = self._alive(pid)
        try:
            replica.propose(entry, self._queue.now)
        except StorageError:
            self._handle_storage_failure(pid)
            raise
        self._flush(pid)

    def propose_batch(self, pid: int, entries: List[Any]) -> None:
        replica = self._alive(pid)
        try:
            replica.propose_batch(entries, self._queue.now)
        except StorageError:
            self._handle_storage_failure(pid)
            raise
        self._flush(pid)

    def reconfigure(self, pid: int, servers: Tuple[int, ...]) -> None:
        """Propose a membership change at server ``pid`` (leader)."""
        replica = self._alive(pid)
        replica.propose_reconfiguration(tuple(servers), now_ms=self._queue.now)
        self._flush(pid)

    # -- failure injection ------------------------------------------------------

    def crash(self, pid: int) -> None:
        """Crash a server: it loses volatile state and goes silent."""
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        self._crashed.add(pid)
        self._replicas[pid].crash()
        # A crashed process's queued-but-unsent messages die with it, and
        # die unsynced: crash() comes first, so a replica with a durability
        # barrier has already dropped them and runs no sync here.
        self._replicas[pid].take_outbox()

    def recover(self, pid: int) -> None:
        """Restart a crashed server from its persistent state."""
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        self._replicas[pid].recover(self._queue.now)
        self._flush(pid)

    def set_link(self, a: int, b: int, up: bool) -> None:
        self._network.set_link(a, b, up)

    def heal_all_links(self) -> None:
        self._network.heal_all()

    def set_tick_scale(self, pid: int, factor: float) -> None:
        """Stretch (factor > 1) or shrink (factor < 1) ``pid``'s tick interval.

        Models clock skew at the timer-check granularity: a server with a
        slow clock polls its election/heartbeat deadlines less often, so
        they fire late relative to its peers. ``factor=1.0`` restores the
        nominal rate; takes effect from the next scheduled tick.

        This is the *absolute* form: it sets the base scale and discards
        any layers pushed with :meth:`push_tick_scale` (so healing a
        cluster with ``set_tick_scale(pid, 1.0)`` really restores nominal
        timing no matter what injections were stacked).
        """
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        if factor <= 0:
            raise ConfigError("tick scale factor must be positive")
        self._tick_layers.pop(pid, None)
        if factor == 1.0:
            self._tick_base.pop(pid, None)
        else:
            self._tick_base[pid] = factor
        self._recompute_tick_scale(pid)

    def push_tick_scale(self, pid: int, factor: float) -> int:
        """Stack a multiplicative tick-scale layer on ``pid``; returns a
        handle for :meth:`pop_tick_scale`.

        Layers compose: ``clock_skew`` x2 stacked on ``slow_cpu`` x100
        yields an effective x200 interval, and popping either layer (in any
        order) leaves exactly the other in force — the revert-ordering
        guarantee the self-reverting chaos ops rely on.
        """
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        if factor <= 0:
            raise ConfigError("tick scale factor must be positive")
        self._tick_layer_seq += 1
        handle = self._tick_layer_seq
        self._tick_layers.setdefault(pid, {})[handle] = factor
        self._recompute_tick_scale(pid)
        return handle

    def pop_tick_scale(self, pid: int, handle: int) -> None:
        """Remove one pushed layer (no-op if already gone — e.g. cleared
        wholesale by a heal's ``set_tick_scale(pid, 1.0)``)."""
        layers = self._tick_layers.get(pid)
        if not layers:
            return
        layers.pop(handle, None)
        if not layers:
            self._tick_layers.pop(pid, None)
        self._recompute_tick_scale(pid)

    def tick_scale_of(self, pid: int) -> float:
        """The effective tick-interval multiplier currently applied."""
        return self._tick_scale.get(pid, 1.0)

    def _recompute_tick_scale(self, pid: int) -> None:
        scale = self._tick_base.get(pid, 1.0)
        for factor in self._tick_layers.get(pid, {}).values():
            scale *= factor
        if scale == 1.0:
            self._tick_scale.pop(pid, None)
        else:
            self._tick_scale[pid] = scale

    def add_tick_stall(self, pid: int, stall_ms: float) -> None:
        """Delay ``pid``'s next timer tick by an extra ``stall_ms``.

        The sim model of a blocking disk write (``slow_disk``): the event
        loop is stuck in fsync, so timers are serviced late. Stalls
        accumulate until the next tick consumes them; message *delivery*
        is not affected (the network thread keeps draining), which is what
        keeps the failure gray rather than fail-stop.
        """
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        if stall_ms < 0:
            raise ConfigError("stall must be non-negative")
        self._tick_stall[pid] = self._tick_stall.get(pid, 0.0) + stall_ms

    def clear_tick_stall(self, pid: int) -> None:
        """Drop any accumulated not-yet-consumed tick stall (heals use
        this so a pending fsync backlog doesn't leak past the heal)."""
        self._tick_stall.pop(pid, None)

    def set_msg_cost(self, pid: int, per_msg_ms: float) -> None:
        """Charge ``pid`` this much CPU time (ms) per inbound message.

        ``0`` restores the default instantaneous handling. While set,
        arrivals are serialized through a busy-until gate: a fail-slow CPU
        still answers everything — late — so commit throughput through
        that server sags while heartbeats keep it looking alive.
        """
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        if per_msg_ms < 0:
            raise ConfigError("per-message cost must be non-negative")
        if per_msg_ms == 0.0:
            self._msg_cost.pop(pid, None)
            self._cpu_free_at.pop(pid, None)
        else:
            self._msg_cost[pid] = per_msg_ms

    def msg_cost_of(self, pid: int) -> float:
        """The per-message CPU cost currently charged to ``pid`` (ms)."""
        return self._msg_cost.get(pid, 0.0)

    # -- internals ---------------------------------------------------------------

    def _alive(self, pid: int) -> Replica:
        if pid not in self._replicas:
            raise ConfigError(f"unknown pid {pid}")
        if pid in self._crashed:
            raise ConfigError(f"server {pid} is crashed")
        return self._replicas[pid]

    def _handle_storage_failure(self, pid: int) -> None:
        """Fail-recovery model: a server whose disk write failed crashes.

        The exception surfaced mid-handler, so any messages it had queued
        this turn reflect un-persisted state — they die with the process.
        """
        self.storage_crashes += 1
        self._crashed.add(pid)
        self._replicas[pid].crash()
        self._replicas[pid].take_outbox()

    def _schedule_tick(self, pid: int) -> None:
        def tick() -> None:
            if pid in self._replicas:
                if pid not in self._crashed:
                    try:
                        self._replicas[pid].tick(self._queue.now)
                    except StorageError:
                        self._handle_storage_failure(pid)
                    else:
                        self._flush(pid)
                interval = self._tick_ms * self._tick_scale.get(pid, 1.0)
                if self._tick_stall:
                    interval += self._tick_stall.pop(pid, 0.0)
                self._queue.schedule_in(interval, tick)

        self._queue.schedule_in(self._tick_ms * self._tick_scale.get(pid, 1.0), tick)

    def _deliver(self, src: int, dst: int, msg: Any) -> None:
        # Hottest callback in the simulator: one call per delivered message.
        # The empty-dict check keeps the default path one falsy test away
        # from the historical behaviour (bit-identical schedules).
        if self._msg_cost:
            cost = self._msg_cost.get(dst)
            if cost:
                # Serialize through the slowed CPU: handling starts when
                # the previous message finishes, and takes ``cost`` ms.
                now = self._queue.now
                done = max(now, self._cpu_free_at.get(dst, 0.0)) + cost
                self._cpu_free_at[dst] = done
                self._queue.schedule(
                    done, lambda: self._deliver_now(src, dst, msg)
                )
                return
        self._deliver_now(src, dst, msg)

    def _deliver_now(self, src: int, dst: int, msg: Any) -> None:
        replica = self._replicas.get(dst)
        if replica is None or dst in self._crashed:
            return
        try:
            replica.on_message(src, msg, self._queue.now)
        except StorageError:
            self._handle_storage_failure(dst)
            return
        self._flush(dst)

    def _session_restored(self, a: int, b: int) -> None:
        now = self._queue.now
        for pid, peer in ((a, b), (b, a)):
            if pid in self._replicas and pid not in self._crashed:
                try:
                    self._replicas[pid].on_session_drop(peer, now)
                except StorageError:
                    self._handle_storage_failure(pid)
                    continue
                self._flush(pid)

    def _flush(self, pid: int) -> None:
        replica = self._replicas[pid]
        try:
            # Both calls are behind the replica's durability barrier,
            # which is where a disk that fails its sync surfaces.
            outbox = replica.take_outbox()
            if outbox:
                send = self._network.send
                for dst, msg in outbox:
                    send(pid, dst, msg)
            decided = replica.take_decided()
        except StorageError:
            self._handle_storage_failure(pid)
            return
        if decided and self._decided_observers:
            now = self._queue.now
            for idx, entry in decided:
                for observer in self._decided_observers:
                    observer(pid, idx, entry, now)
