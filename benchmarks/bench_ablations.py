"""Ablations for the design choices DESIGN.md calls out.

1. **QC flag in heartbeats** — without it, the quorum-loss scenario
   deadlocks even for Omni-Paxos' BLE (the old leader never signals it lost
   its quorum). This isolates *why* BLE heartbeats carry the flag.
2. **Parallel vs leader-only log migration** — same protocol, same
   workload, only the migration scheme differs (Figure 6a vs 6b).
3. **Ballot priority field** — the custom field ``c`` in ``b = (n, c, pid)``
   steers leadership without affecting liveness (paper section 5.2).
4. **Connectivity-aware ballots** — stamping measured connectivity into
   the ballot makes a better-connected candidate win the succession
   after a leader death (paper section 8).
"""

import pytest

from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.sim.cluster import SimCluster
from repro.sim.events import EventQueue
from repro.sim.network import NetworkParams, SimNetwork
from repro.sim.partitions import quorum_loss
from repro.sim.reconfig_experiment import run_reconfiguration_experiment
from repro.sim.workload import ClosedLoopClient, WorkloadParams

from benchmarks.conftest import record_rows, run_duration_ms


def _omni_cluster(use_qc_flag, priorities=None):
    cc = ClusterConfig(0, (1, 2, 3, 4, 5))
    queue = EventQueue()
    net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
    servers = {
        pid: OmniPaxosServer(OmniPaxosConfig(
            pid=pid, cluster=cc, hb_period_ms=100.0,
            use_qc_flag=use_qc_flag, initial_leader=3,
            priority=(priorities or {}).get(pid, 0),
        ))
        for pid in cc.servers
    }
    sim = SimCluster(servers, net, queue, tick_ms=10.0)
    sim.start()
    return sim


def _quorum_loss_downtime(use_qc_flag):
    sim = _omni_cluster(use_qc_flag)
    client = ClosedLoopClient(sim, WorkloadParams(
        concurrent_proposals=8, client_tick_ms=10.0,
        proposal_timeout_ms=300.0))
    client.start()
    sim.run_for(2_000)
    at = sim.now
    quorum_loss(sim, pivot=1)
    duration = run_duration_ms()
    sim.run_for(duration)
    return client.tracker.downtime(at, sim.now), duration


def test_ablation_qc_flag(benchmark):
    def run():
        with_flag, duration = _quorum_loss_downtime(True)
        without_flag, _ = _quorum_loss_downtime(False)
        return with_flag, without_flag, duration

    with_flag, without_flag, duration = benchmark.pedantic(
        run, rounds=1, iterations=1)
    record_rows("ablation_qc_flag",
                "quorum-loss down-time with vs without the QC flag",
                [f"with qc flag   : {with_flag:8.0f} ms",
                 f"without qc flag: {without_flag:8.0f} ms "
                 f"(= whole partition -> deadlock)"])
    assert with_flag < 8 * 100.0
    assert without_flag >= duration * 0.9  # deadlocked


def test_ablation_migration_strategy(benchmark):
    params = dict(
        replace="one",
        concurrent_proposals=32,
        preload_entries=150_000,
        egress_bytes_per_ms=2_000.0,
        run_ms=25_000.0,
        window_ms=2_000.0,
    )

    def run():
        parallel = run_reconfiguration_experiment(
            "omni", migration_strategy="parallel", **params)
        leader_only = run_reconfiguration_experiment(
            "omni", migration_strategy="leader", **params)
        return parallel, leader_only

    parallel, leader_only = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows(
        "ablation_migration",
        "parallel vs leader-only migration (same protocol, Figure 6)",
        [f"parallel   : complete={parallel.completed_at_ms / 1000:5.1f}s "
         f"busiest_donor_peak={parallel.busiest_old_peak_window_bytes / 1e6:5.2f}MB",
         f"leader-only: complete={leader_only.completed_at_ms / 1000:5.1f}s "
         f"busiest_donor_peak={leader_only.busiest_old_peak_window_bytes / 1e6:5.2f}MB"],
    )
    assert parallel.completed_at_ms < leader_only.completed_at_ms
    assert parallel.busiest_old_peak_window_bytes < \
        leader_only.busiest_old_peak_window_bytes


def test_ablation_ballot_priority(benchmark):
    """Priorities steer elections: with pid 1 given a high priority, it wins
    the initial election even though higher pids would win the tie-break."""

    def run():
        sim = _omni_cluster(True, priorities={1: 100})
        # Kill the seeded leader so a real election must happen.
        sim.crash(3)
        for _ in range(100):
            sim.run_for(100)
            leaders = sim.leaders()
            if leaders:
                return leaders[0]
        return None

    winner = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows("ablation_priority",
                "election winner with priority(pid 1) = 100",
                [f"winner: server {winner} (without priorities: server 5)"])
    assert winner == 1


def test_ablation_connectivity_priority(benchmark):
    """Paper section 8: stamping measured connectivity into the ballot
    makes the best-connected quorum-connected candidate win elections,
    without destabilizing a healthy leader."""
    from repro.sim.partitions import isolate_link

    def elect_after_leader_death(connectivity_priority):
        cc = ClusterConfig(0, (1, 2, 3, 4, 5))
        queue = EventQueue()
        net = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
        servers = {
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=cc, hb_period_ms=100.0, initial_leader=5,
                connectivity_priority=connectivity_priority))
            for pid in cc.servers
        }
        sim = SimCluster(servers, net, queue, tick_ms=10.0)
        sim.start()
        sim.run_for(500)
        # Degrade server 4 (the pid tie-break favourite after 5 dies):
        # it loses its link to 1 — both get connectivity 4 of 5.
        isolate_link(sim, 4, 1)
        sim.crash(5)
        for _ in range(60):
            sim.run_for(100)
            leaders = sim.leaders()
            if leaders:
                return leaders[0]
        return None

    def run():
        return (elect_after_leader_death(False),
                elect_after_leader_death(True))

    plain, aware = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows(
        "ablation_connectivity_priority",
        "election winner after leader death (server 4 degraded)",
        [f"plain pid tie-break     : server {plain} (sees 4 of 5)",
         f"connectivity-aware      : server {aware} (sees 5 of 5)"],
    )
    assert plain == 4       # highest pid wins despite worse connectivity
    assert aware in (2, 3)  # a fully-connected candidate wins
