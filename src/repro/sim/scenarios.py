"""End-to-end partition experiments (paper section 7.2, Figure 8).

:func:`run_partition_scenario` reproduces one cell of the evaluation: build
a cluster of the given protocol, warm it up under the closed-loop workload,
inject one of the three partial-connectivity scenarios, keep it partitioned
for a while, heal, and measure:

- *down-time*: the longest interval with no decided client replies
  (Figure 8a/8b),
- *recovery time*: from partition onset to the first decided reply after it,
- *decided count* during the partition window (Figure 8c),
- leader changes observed.

The constrained-election scenario disconnects the pivot from the leader
``0.8 x election_timeout`` before the partition, so the pivot misses entries
(stale log) but has not yet attempted a takeover — the same setup trick the
paper describes ("it is disconnected from the leader earlier").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.sim import partitions
from repro.sim.harness import Experiment, ExperimentConfig, build_experiment

SCENARIOS = ("quorum_loss", "constrained", "chained")

#: Conventional roles: the pivot is the server that stays connected to
#: everyone; the seeded leader is a different server.
PIVOT = 1
LEADER = 3
CHAIN_LEADER = 2


@dataclass(frozen=True)
class ScenarioResult:
    """Measurements from one scenario run."""

    protocol: str
    scenario: str
    election_timeout_ms: float
    partition_at_ms: float
    partition_end_ms: float
    #: Longest client-visible gap during the partition (ms).
    downtime_ms: float
    #: Onset-to-first-decided-reply, or None if nothing decided (deadlock).
    recovery_ms: Optional[float]
    decided_during_partition: int
    decided_before_partition: int
    #: Decided replies in the cooldown after the network healed — proof the
    #: cluster converged back regardless of what the partition did.
    decided_after_heal: int
    recovered: bool
    leaders_at_end: Tuple[int, ...]

    @property
    def downtime_in_timeouts(self) -> float:
        return self.downtime_ms / self.election_timeout_ms


def apply_scenario(exp: Experiment, scenario: str) -> None:
    """Inject the named partial partition into a running experiment."""
    cluster = exp.cluster
    if scenario == "quorum_loss":
        partitions.quorum_loss(cluster, pivot=PIVOT)
    elif scenario == "constrained":
        partitions.constrained_election(cluster, pivot=PIVOT, leader=LEADER)
    elif scenario == "chained":
        order = (CHAIN_LEADER, PIVOT, 3)
        partitions.chained(cluster, order=order)
    else:
        raise ConfigError(f"unknown scenario {scenario!r}; one of {SCENARIOS}")


def run_partition_scenario(
    protocol: str,
    scenario: str,
    election_timeout_ms: float = 100.0,
    partition_duration_ms: Optional[float] = None,
    warmup_ms: Optional[float] = None,
    cooldown_ms: Optional[float] = None,
    concurrent_proposals: int = 8,
    seed: int = 0,
    num_servers: Optional[int] = None,
    obs=None,
) -> ScenarioResult:
    """Run one (protocol, scenario) cell and return its measurements.

    ``obs`` is an optional :class:`~repro.obs.registry.MetricsRegistry`
    collecting metrics and protocol events from the run.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; one of {SCENARIOS}")
    timeout = election_timeout_ms
    if partition_duration_ms is None:
        partition_duration_ms = max(40.0 * timeout, 4_000.0)
    if warmup_ms is None:
        warmup_ms = max(10.0 * timeout, 1_000.0)
    if cooldown_ms is None:
        cooldown_ms = max(10.0 * timeout, 1_000.0)
    if num_servers is None:
        num_servers = 3 if scenario == "chained" else 5
    leader = CHAIN_LEADER if scenario == "chained" else LEADER
    cfg = ExperimentConfig(
        protocol=protocol,
        num_servers=num_servers,
        election_timeout_ms=timeout,
        seed=seed,
        initial_leader=leader,
    )
    exp = build_experiment(cfg, obs=obs)
    client = exp.make_client(concurrent_proposals=concurrent_proposals)
    exp.cluster.run_for(warmup_ms)
    if scenario == "constrained":
        # Pre-stale the pivot's log: cut pivot<->leader just under one
        # election timeout before the partition proper.
        partitions.isolate_link(exp.cluster, PIVOT, leader)
        exp.cluster.run_for(0.8 * timeout)
    decided_before = client.decided_count
    partition_at = exp.cluster.now
    apply_scenario(exp, scenario)
    exp.cluster.run_for(partition_duration_ms)
    partition_end = exp.cluster.now
    partitions.heal(exp.cluster)
    exp.cluster.run_for(cooldown_ms)
    tracker = client.tracker
    downtime = tracker.downtime(partition_at, partition_end)
    recovery = tracker.recovery_time(partition_at, partition_end)
    return ScenarioResult(
        protocol=protocol,
        scenario=scenario,
        election_timeout_ms=timeout,
        partition_at_ms=partition_at,
        partition_end_ms=partition_end,
        downtime_ms=downtime,
        recovery_ms=recovery,
        decided_during_partition=tracker.count_between(
            partition_at, partition_end
        ),
        decided_before_partition=decided_before,
        decided_after_heal=tracker.count_between(
            partition_end, exp.cluster.now
        ),
        recovered=recovery is not None
        and downtime < partition_duration_ms * 0.9,
        leaders_at_end=tuple(exp.cluster.leaders()),
    )
