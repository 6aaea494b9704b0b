"""Reconfiguration experiments (paper section 7.3, Figure 9).

A 5-server cluster with a pre-loaded log serves the closed-loop workload;
the client then proposes a reconfiguration replacing either one server or a
majority (3 of 5). New servers must obtain the whole log before they can
participate:

- **Omni-Paxos** migrates it in the service layer, in parallel from every
  continuing server (and from joiners that already finished),
- **Raft** streams it from the leader alone via AppendEntries catch-up.

With a finite per-server egress bandwidth (the NIC model in
:class:`repro.sim.network.NetworkParams`), the leader-only scheme congests
the leader and stalls client traffic — reproducing the paper's throughput
dips, recovery times, and peak leader IO.

Scale note: the paper pre-loads 5M + 10M decided 8-byte entries (120 MB per
joiner) on cloud VMs. We default to a pre-loaded log and an egress capacity
scaled down together, preserving the transfer-time-to-window ratio; absolute
MB differ, shapes (who dips, how deep, how long, peak IO ratios) hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.omni.entry import Command
from repro.omni.server import OmniPaxosServer
from repro.omni.storage import InMemoryStorage, Storage
from repro.sim.harness import Experiment, ExperimentConfig, build_experiment, make_replica
from repro.sim.workload import ClosedLoopClient

#: Default roles: five initial servers, the seeded leader is 3.
INITIAL_SERVERS = (1, 2, 3, 4, 5)
LEADER = 3
#: Replacing one server: 5 leaves, 6 joins.
NEW_CONFIG_ONE = (1, 2, 3, 4, 6)
#: Replacing a majority: {1, 4, 5} leave, {6, 7, 8} join (leader continues,
#: as in the paper where reconfiguration is proposed at the leader).
NEW_CONFIG_MAJORITY = (2, 3, 6, 7, 8)


@dataclass(frozen=True)
class ReconfigResult:
    """Measurements from one reconfiguration run."""

    protocol: str
    replace: str
    reconfig_at_ms: float
    #: (window_start_ms, decided_count) series, 5 s windows by default.
    windows: Tuple[Tuple[float, int], ...]
    #: Steady-state decided/window before the reconfiguration.
    baseline_window: float
    #: Deepest relative throughput drop after the reconfiguration (0..1).
    max_drop: float
    #: How long throughput stayed below 90% of baseline (ms).
    degraded_ms: float
    #: Longest client-visible gap after the reconfiguration (ms).
    downtime_ms: float
    #: Peak outgoing bytes in one window at the *initial* leader.
    leader_peak_window_bytes: int
    #: Total outgoing bytes at the *initial* leader during the experiment.
    leader_total_bytes: int
    #: Peak window at the busiest old-configuration server. Raft's leader
    #: can get deposed mid-reconfiguration under load (the paper observed
    #: exactly this) and another server finishes the migration, so the
    #: leader-burden comparison must follow wherever leadership lands.
    busiest_old_peak_window_bytes: int
    #: Total outgoing bytes summed over all old-configuration servers.
    old_servers_total_bytes: int
    #: When every new-config member was up and the log fully replicated.
    completed_at_ms: Optional[float]


def preloaded_storage_factory(entries: Tuple[Command, ...]):
    """An Omni-Paxos storage factory whose config-0 storage starts with
    ``entries`` already decided (benchmark pre-loading)."""

    def factory(config_id: int) -> Storage:
        storage = InMemoryStorage()
        if config_id == 0 and entries:
            storage.append_entries(entries)
            storage.set_decided_idx(len(entries))
        return storage

    return factory


def _preload_entries(count: int, entry_bytes: int) -> Tuple[Command, ...]:
    payload = bytes(entry_bytes)
    return tuple(Command(data=payload, client_id=0, seq=i) for i in range(count))


def run_reconfiguration_experiment(
    protocol: str,
    replace: str = "one",
    concurrent_proposals: int = 64,
    preload_entries: int = 200_000,
    entry_bytes: int = 8,
    egress_bytes_per_ms: float = 1_000.0,
    election_timeout_ms: float = 100.0,
    warmup_ms: float = 5_000.0,
    run_ms: float = 60_000.0,
    window_ms: float = 5_000.0,
    migration_strategy: str = "parallel",
    seed: int = 0,
) -> ReconfigResult:
    """Run one Figure-9 cell and return its measurements."""
    if protocol not in ("omni", "raft"):
        raise ConfigError(
            "reconfiguration is compared between 'omni' and 'raft' only "
            "(the paper's other baselines do not support it)"
        )
    if replace == "one":
        new_config = NEW_CONFIG_ONE
    elif replace == "majority":
        new_config = NEW_CONFIG_MAJORITY
    else:
        raise ConfigError("replace must be 'one' or 'majority'")
    joiners = tuple(p for p in new_config if p not in INITIAL_SERVERS)

    from repro.sim.harness import derive_max_batch

    cfg = ExperimentConfig(
        protocol=protocol,
        num_servers=len(INITIAL_SERVERS),
        election_timeout_ms=election_timeout_ms,
        seed=seed,
        initial_leader=LEADER,
        egress_bytes_per_ms=egress_bytes_per_ms,
        io_window_ms=window_ms,
        migration_strategy=migration_strategy,
        migration_chunk_entries=derive_max_batch(
            egress_bytes_per_ms, election_timeout_ms
        ),
    )
    preload = _preload_entries(preload_entries, entry_bytes)
    exp = _build_with_preload(cfg, preload, joiners)
    client = exp.make_client(concurrent_proposals=concurrent_proposals)
    exp.cluster.run_for(warmup_ms)
    baseline = client.tracker.throughput(0, warmup_ms) * window_ms / 1000.0
    reconfig_at = exp.cluster.now
    exp.cluster.reconfigure(LEADER, new_config)
    completed = None
    elapsed = 0.0
    poll_ms = min(window_ms, 250.0)
    while elapsed < run_ms:
        exp.cluster.run_for(poll_ms)
        elapsed += poll_ms
        if completed is None and _converged(exp, new_config, preload_entries):
            completed = exp.cluster.now - reconfig_at
    end = exp.cluster.now

    windows = tuple(client.tracker.windowed_counts(reconfig_at, end, window_ms))
    max_drop = 0.0
    degraded_ms = 0.0
    for _start, count in windows:
        if baseline > 0:
            drop = max(0.0, 1.0 - count / baseline)
            max_drop = max(max_drop, drop)
            if count < 0.9 * baseline:
                degraded_ms += window_ms
    return ReconfigResult(
        protocol=protocol,
        replace=replace,
        reconfig_at_ms=reconfig_at,
        windows=windows,
        baseline_window=baseline,
        max_drop=max_drop,
        degraded_ms=degraded_ms,
        downtime_ms=client.tracker.downtime(reconfig_at, end),
        leader_peak_window_bytes=exp.io.peak_window_bytes(LEADER),
        leader_total_bytes=exp.io.total_bytes(LEADER),
        busiest_old_peak_window_bytes=max(
            exp.io.peak_window_bytes(pid) for pid in INITIAL_SERVERS
        ),
        old_servers_total_bytes=sum(
            exp.io.total_bytes(pid) for pid in INITIAL_SERVERS
        ),
        completed_at_ms=completed,
    )


def _build_with_preload(cfg: ExperimentConfig, preload: Tuple[Command, ...],
                        joiners: Tuple[int, ...]) -> Experiment:
    """Build the experiment, pre-loading members and registering joiners."""
    from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
    from repro.sim.cluster import SimCluster
    from repro.sim.events import EventQueue
    from repro.sim.metrics import IOTracker
    from repro.sim.network import NetworkParams, SimNetwork
    from repro.util.rng import spawn_rng

    queue = EventQueue()
    io = IOTracker(window_ms=cfg.io_window_ms)
    network = SimNetwork(
        queue,
        NetworkParams(one_way_ms=cfg.one_way_ms,
                      egress_bytes_per_ms=cfg.egress_bytes_per_ms),
        rng=spawn_rng(cfg.seed, "net"),
        io_tracker=io,
    )
    replicas = {}
    all_pids = cfg.servers + joiners
    for pid in all_pids:
        if cfg.protocol == "omni":
            factory = (
                preloaded_storage_factory(preload)
                if pid in cfg.servers
                else preloaded_storage_factory(())
            )
            replicas[pid] = OmniPaxosServer(OmniPaxosConfig(
                pid=pid,
                cluster=ClusterConfig(config_id=0, servers=cfg.servers),
                hb_period_ms=cfg.election_timeout_ms,
                initial_leader=cfg.initial_leader,
                migration_strategy=cfg.migration_strategy,
                migration_chunk_entries=cfg.migration_chunk_entries,
                migration_retry_ms=max(4 * cfg.election_timeout_ms, 200.0),
                announce_period_ms=max(cfg.election_timeout_ms, 50.0),
                storage_factory=factory,
            ))
        else:
            replica = make_replica(cfg, pid)
            if pid in cfg.servers and preload:
                replica.preload(preload)
            replicas[pid] = replica
    cluster = SimCluster(replicas, network, queue,
                         tick_ms=cfg.effective_tick_ms)
    cluster.start()
    return Experiment(config=cfg, cluster=cluster, queue=queue,
                      network=network, io=io)


def _converged(exp: Experiment, new_config: Tuple[int, ...],
               preload_entries: int) -> bool:
    """True when every new-config member runs the new configuration AND
    holds the full pre-loaded log (migration / catch-up finished)."""
    for pid in new_config:
        replica = exp.cluster.replica(pid)
        if tuple(sorted(replica.members)) != tuple(sorted(new_config)):
            return False
        if isinstance(replica, OmniPaxosServer):
            current = replica.current_config
            if replica.migrating or current is None:
                return False
            # The replicated log must include the preload and the stop-sign.
            if replica.global_log_len < preload_entries + 1:
                return False
        else:  # Raft: committed past the preload and the config entry
            if replica.commit_idx < preload_entries + 1:
                return False
    return True
