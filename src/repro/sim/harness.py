"""Experiment harness: build comparable clusters of any protocol.

Every experiment in the paper runs the same cluster/workload under a
different protocol. This module is the single place that knows how to
instantiate each protocol with equivalent parameters:

- the *election timeout* maps to Omni-Paxos' BLE heartbeat period, Raft's
  base election timeout, Multi-Paxos' failure-detector suspicion timeout,
  and VR's view-change timeout,
- all protocols get the same network, tick resolution and seeded leader.

The supported protocol names are the evaluation's five configurations:
``"omni"``, ``"raft"``, ``"raft_pvcq"``, ``"multipaxos"``, ``"vr"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.omni.entry import Command, entry_wire_size
from repro.omni.reconfig import PARALLEL
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import InMemoryStorage, Storage
from repro.baselines.multipaxos import MultiPaxosConfig, MultiPaxosReplica
from repro.baselines.raft import RaftConfig, RaftReplica
from repro.baselines.vr import VRConfig, VRReplica
from repro.replica import Replica
from repro.sim.cluster import SimCluster
from repro.sim.events import EventQueue
from repro.sim.metrics import DecidedTracker, IOTracker
from repro.sim.network import NetworkParams, SimNetwork
from repro.sim.workload import ClosedLoopClient, WorkloadParams
from repro.util.rng import spawn_rng

PROTOCOLS = ("omni", "raft", "raft_pvcq", "multipaxos", "vr")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by every comparative experiment."""

    protocol: str = "omni"
    num_servers: int = 5
    election_timeout_ms: float = 100.0
    one_way_ms: float = 0.1
    #: Uniform random extra delay in [0, jitter_ms) per message; gives the
    #: seeded repetitions of a benchmark non-degenerate variance.
    jitter_ms: float = 0.0
    #: Optional per-link one-way latency overrides: {(a, b): ms}.
    latency_map: Dict[Tuple[int, int], float] = field(default_factory=dict)
    seed: int = 0
    initial_leader: Optional[int] = None
    #: None -> derived from the election timeout.
    tick_ms: Optional[float] = None
    #: Finite sender NIC bandwidth (bytes/ms); None = infinite.
    egress_bytes_per_ms: Optional[float] = None
    io_window_ms: float = 5000.0
    #: Omni-only: "parallel" or "leader" log migration.
    migration_strategy: str = PARALLEL
    migration_chunk_entries: int = 10_000
    #: Cap on entries per bulk replication message (Raft AppendEntries /
    #: Multi-Paxos P2a). None derives it so one message's transmission time
    #: stays well under the election timeout when egress is finite, like
    #: real systems' max-message-size settings.
    max_batch_entries: Optional[int] = None
    #: Representative log entry used to size bulk-replication batches when
    #: ``max_batch_entries`` is derived; None means the workload's 8-byte
    #: no-op command.
    batch_sample_entry: Optional[Any] = None
    #: Omni-only hook: ``wrapper(pid, storage) -> storage`` applied to every
    #: freshly created backing store, letting fault injectors (e.g. the chaos
    #: engine's FaultyStorage) interpose on disk writes per server.
    storage_wrapper: Optional[Callable[[int, Storage], Storage]] = None
    #: Opt-in graceful degradation under fail-slow faults: servers that
    #: score *themselves* degraded withdraw from leadership (Omni BLE
    #: demotes/withholds its ballot; Raft declines candidacy and a
    #: degraded leader steps down). Applies to ``omni``, ``raft`` and
    #: ``raft_pvcq``; ``multipaxos``/``vr`` have no reaction hook and
    #: ignore it. Default off — default behaviour and bench digests are
    #: untouched.
    gray_aware: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; pick one of {PROTOCOLS}"
            )
        if self.num_servers < 1:
            raise ConfigError("num_servers must be >= 1")
        if self.election_timeout_ms <= 0:
            raise ConfigError("election_timeout_ms must be positive")

    @property
    def servers(self) -> Tuple[int, ...]:
        return tuple(range(1, self.num_servers + 1))

    @property
    def effective_tick_ms(self) -> float:
        if self.tick_ms is not None:
            return self.tick_ms
        return min(max(self.election_timeout_ms / 10.0, 1.0), 50.0)

    @property
    def effective_max_batch(self) -> int:
        if self.max_batch_entries is not None:
            return self.max_batch_entries
        return derive_max_batch(self.egress_bytes_per_ms,
                                self.election_timeout_ms,
                                self.batch_sample_entry)


#: Default sizing sample for :func:`derive_max_batch`: the workload's
#: 8-byte no-op command, which the codec sizes at 24 wire bytes.
_DEFAULT_SAMPLE_ENTRY = Command(data=bytes(8))


def derive_max_batch(egress_bytes_per_ms: Optional[float],
                     election_timeout_ms: float,
                     sample_entry: Optional[object] = None) -> int:
    """Entries per bulk message such that one message transmits in ~5% of an
    election timeout — the analogue of real systems' max-message-size
    settings, which keep heartbeats from starving behind bulk catch-up
    traffic.

    Per-entry wire bytes come from the codec's own sizing
    (:func:`~repro.omni.entry.entry_wire_size`) of ``sample_entry``; the
    default sample is the workload's 8-byte no-op command (24 wire bytes).
    Workloads with larger payloads should pass a representative entry so
    the derived batch reflects their actual message sizes.
    """
    if egress_bytes_per_ms is None:
        return 4096
    if sample_entry is None:
        sample_entry = _DEFAULT_SAMPLE_ENTRY
    entry_bytes = max(entry_wire_size(sample_entry), 1)
    batch = int(egress_bytes_per_ms * 0.05 * election_timeout_ms / entry_bytes)
    return max(min(batch, 4096), 16)


@dataclass
class Experiment:
    """A built cluster plus its instruments."""

    config: ExperimentConfig
    cluster: SimCluster
    queue: EventQueue
    network: SimNetwork
    io: IOTracker
    #: Observability registry; the no-op singleton unless one was passed to
    #: :func:`build_experiment`.
    obs: MetricsRegistry = NULL_REGISTRY

    def make_client(self, concurrent_proposals: int,
                    proposal_timeout_ms: Optional[float] = None,
                    client_id: int = 1) -> ClosedLoopClient:
        """Attach a closed-loop client (the paper's CP workload)."""
        timeout_provider = None
        if proposal_timeout_ms is None:
            # Long enough that a single leader round trip never expires it,
            # short enough to re-route within an election timeout or two.
            # The latency term must use the *slowest* effective link — under
            # a WAN latency map the per-link overrides dwarf the base
            # one_way_ms, and sizing from the base alone made clients time
            # out and re-propose entries that were still in flight. It is a
            # live provider, not a one-shot computation: a ``slow_link``
            # fault injected mid-run inflates ``max_latency`` and the
            # client's patience must stretch with it, or every in-flight
            # proposal times out and gets double-proposed over the very
            # link that is struggling.
            network, config = self.network, self.config

            def timeout_provider() -> float:
                return max(
                    2.0 * config.election_timeout_ms,
                    8.0 * network.max_latency()
                    + 4.0 * config.effective_tick_ms,
                )

            proposal_timeout_ms = timeout_provider()
        params = WorkloadParams(
            client_id=client_id,
            concurrent_proposals=concurrent_proposals,
            client_tick_ms=self.config.effective_tick_ms,
            proposal_timeout_ms=proposal_timeout_ms,
        )
        client = ClosedLoopClient(self.cluster, params,
                                  timeout_provider=timeout_provider)
        client.set_observability(self.obs)
        client.start()
        return client

    # -- health observatory --------------------------------------------------

    def attach_health(self, stale_after_ms: Optional[float] = None
                      ) -> "HealthMonitor":
        """Attach a live :class:`~repro.obs.health.HealthMonitor` sink.

        Requires an enabled registry (the monitor folds the health events
        the servers emit). The default staleness bound is 20 heartbeat
        periods — long enough that a lagging reporter isn't dismissed,
        short enough that a partitioned server's claims visibly expire.
        """
        from repro.obs.health import HealthMonitor
        if not self.obs.enabled:
            raise ConfigError(
                "attach_health needs build_experiment(..., obs=<enabled "
                "registry>) — health views are events, and the null "
                "registry drops them"
            )
        if stale_after_ms is None:
            stale_after_ms = 20.0 * self.config.election_timeout_ms
        monitor = HealthMonitor(stale_after_ms=stale_after_ms)
        self.obs.add_sink(monitor)
        return monitor

    # -- queue-depth sampling ------------------------------------------------

    def attach_queue_sampler(self, sample_ms: float) -> None:
        """Schedule a recurring queue-depth sampler on the event queue.

        Every ``sample_ms`` it reads the sim event-heap depth, the
        network's in-flight count, and every live server's staging-queue
        depths (outboxes, pending proposals), publishing them as
        ``repro_queue_depth`` gauges and ``QueueDepthSampled`` events —
        the ``queue:*:max`` lanes of
        :func:`~repro.obs.series.series_from_events`. It consumes no
        randomness and only *reads* protocol state; its queue entries
        shift event sequence numbers uniformly, so decided-log digests are
        byte-identical with or without it.
        """
        from repro.obs import prof
        if not self.obs.enabled:
            raise ConfigError(
                "attach_queue_sampler needs build_experiment(..., "
                "obs=<enabled registry>) — the samples are events, and the "
                "null registry drops them"
            )
        if sample_ms <= 0:
            raise ConfigError("sample_ms must be positive")
        queue, cluster, network, obs = (self.queue, self.cluster,
                                        self.network, self.obs)
        # Per-scope delta memos so steady depths cost one emission, not
        # one per tick (sample_queue_depths skips unchanged entries).
        memos: Dict[Optional[int], Dict[str, int]] = {}

        def _sample() -> None:
            prof.sample_queue_depths(obs, {
                prof.QUEUE_SIM_EVENTS: len(queue),
                prof.QUEUE_NET_IN_FLIGHT: network.in_flight,
            }, last=memos.setdefault(None, {}))
            for pid in cluster.pids:
                if cluster.is_crashed(pid):
                    continue
                prof.sample_queue_depths(
                    obs, cluster.replica(pid).queue_depths(), pid=pid,
                    last=memos.setdefault(pid, {}))
            queue.schedule_in(sample_ms, _sample)

        queue.schedule_in(sample_ms, _sample)

    def statuses(self) -> Dict[int, Dict[str, Any]]:
        """Every live server's :meth:`~repro.replica.Replica.status` view
        (the sim-side analogue of polling each node's admin endpoint);
        crashed servers report only ``{"pid", "phase": "crashed"}``."""
        out: Dict[int, Dict[str, Any]] = {}
        for pid in self.cluster.pids:
            if self.cluster.is_crashed(pid):
                out[pid] = {"pid": pid, "phase": "crashed"}
            else:
                out[pid] = self.cluster.replica(pid).status()
        return out

    def ground_truth(self) -> Dict[Tuple[int, int], bool]:
        """The network's actual full-duplex link state, comparable to the
        health monitor's believed matrix."""
        from repro.obs.health import ground_truth_from_network
        return ground_truth_from_network(self.network, list(self.cluster.pids))


def make_replica(cfg: ExperimentConfig, pid: int,
                 servers: Optional[Tuple[int, ...]] = None) -> Replica:
    """Instantiate one replica of the configured protocol.

    ``servers`` overrides the member set (used to pre-create the joining
    servers of a reconfiguration experiment, possibly with an empty set for
    Raft joiners that learn membership from the log).
    """
    members = servers if servers is not None else cfg.servers
    if cfg.protocol == "omni":
        kwargs = {}
        if cfg.storage_wrapper is not None:
            wrapper = cfg.storage_wrapper
            kwargs["storage_factory"] = (
                lambda config_id, _pid=pid: wrapper(_pid, InMemoryStorage())
            )
        return OmniPaxosServer(OmniPaxosConfig(
            pid=pid,
            cluster=ClusterConfig(config_id=0, servers=members),
            hb_period_ms=cfg.election_timeout_ms,
            initial_leader=cfg.initial_leader,
            migration_strategy=cfg.migration_strategy,
            migration_chunk_entries=cfg.migration_chunk_entries,
            migration_retry_ms=max(2 * cfg.election_timeout_ms, 100.0),
            announce_period_ms=max(cfg.election_timeout_ms, 50.0),
            gray_aware=cfg.gray_aware,
            **kwargs,
        ))
    if cfg.protocol in ("raft", "raft_pvcq"):
        in_config = pid in members
        return RaftReplica(RaftConfig(
            pid=pid,
            voters=members if in_config else (),
            election_timeout_ms=cfg.election_timeout_ms,
            prevote=cfg.protocol == "raft_pvcq",
            check_quorum=cfg.protocol == "raft_pvcq",
            max_entries_per_msg=cfg.effective_max_batch,
            seed=cfg.seed,
            initial_leader=cfg.initial_leader if in_config else None,
            gray_aware=cfg.gray_aware,
        ))
    if cfg.protocol == "multipaxos":
        return MultiPaxosReplica(MultiPaxosConfig(
            pid=pid,
            peers=tuple(p for p in members if p != pid),
            election_timeout_ms=cfg.election_timeout_ms,
            max_slots_per_msg=cfg.effective_max_batch,
            seed=cfg.seed,
            initial_leader=cfg.initial_leader,
        ))
    if cfg.protocol == "vr":
        return VRReplica(VRConfig(
            pid=pid,
            servers=members,
            election_timeout_ms=cfg.election_timeout_ms,
            initial_leader=cfg.initial_leader,
        ))
    raise ConfigError(f"unknown protocol {cfg.protocol!r}")


def build_experiment(cfg: ExperimentConfig,
                     obs: Optional[MetricsRegistry] = None) -> Experiment:
    """Build a ready-to-run cluster of the configured protocol.

    Pass a :class:`~repro.obs.registry.MetricsRegistry` as ``obs`` to
    collect metrics and protocol events from every layer; without one the
    no-op registry is wired and instrumentation costs a single attribute
    check per site.
    """
    registry = obs if obs is not None else NULL_REGISTRY
    queue = EventQueue()
    registry.set_clock(lambda: queue.now)
    io = IOTracker(window_ms=cfg.io_window_ms)
    params = NetworkParams(
        one_way_ms=cfg.one_way_ms,
        jitter_ms=cfg.jitter_ms,
        egress_bytes_per_ms=cfg.egress_bytes_per_ms,
    )
    network = SimNetwork(
        queue, params, rng=spawn_rng(cfg.seed, "net"), io_tracker=io
    )
    network.set_observability(registry)
    for (a, b), ms in cfg.latency_map.items():
        network.set_latency(a, b, ms)
    replicas = {pid: make_replica(cfg, pid) for pid in cfg.servers}
    for replica in replicas.values():
        replica.set_observability(registry)
    cluster = SimCluster(replicas, network, queue,
                         tick_ms=cfg.effective_tick_ms)
    cluster.start()
    return Experiment(config=cfg, cluster=cluster, queue=queue,
                      network=network, io=io, obs=registry)


def wan_latency_map(servers: Tuple[int, ...],
                    leader: int) -> Dict[Tuple[int, int], float]:
    """The paper's WAN setting: RTT 105 ms and 145 ms from the leader to the
    follower groups (eu-west1 / asia-northeast1), RTT 0.2 ms within a zone.

    Followers alternate between the two remote zones; inter-zone follower
    links get the sum of their zone distances as an approximation.
    """
    zones: Dict[int, int] = {}
    remote = [p for p in servers if p != leader]
    for i, pid in enumerate(remote):
        zones[pid] = i % 2  # 0 = eu-west1, 1 = asia-northeast1
    one_way = {0: 52.5, 1: 72.5}
    latency: Dict[Tuple[int, int], float] = {}
    for i, a in enumerate(servers):
        for b in servers[i + 1:]:
            if leader in (a, b):
                other = b if a == leader else a
                latency[(a, b)] = one_way[zones[other]]
            elif zones[a] == zones[b]:
                latency[(a, b)] = 0.1
            else:
                latency[(a, b)] = one_way[0] + one_way[1]
    return latency
