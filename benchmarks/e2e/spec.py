"""What the benchmark runs and what it reports.

This module is the single description of the workloads and metrics;
``BENCHMARK.json`` at the repo root repeats the names, units, directions
and bounds, and the self-test fails when the two disagree. It imports
nothing from ``repro`` so that ``compare`` and the self-test can read it
without building a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: An operation not decided at the node it was proposed to within this
#: long counts as failed. It is never retried and never awaited.
OP_TIMEOUT_S = 2.0

#: Every timed end-to-end metric is the median over this many equal
#: windows of its phase (single-window p99 moved 3x between identical
#: runs in the prototype; window medians repeat).
WINDOWS = 5

#: Cluster set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3

#: The leader must stay unchanged this long before measurement begins.
LEADER_STABLE_S = 1.0

COMMAND_BYTES = 16
CLIENT_ID = 1
SERVERS = (1, 2, 3)
#: Seeded leader: the highest pid, which BLE's ballot order favours, so
#: the seed is not immediately overthrown (seeding pid 1 gave three
#: leader changes in the first 220 ms of the prototype).
SEED_LEADER = 3
TICK_MS = 5.0
HEARTBEAT_MS = 50.0
RAFT_ELECTION_TIMEOUT_MS = 400.0

SIM_SCENARIOS = ("quorum_loss", "constrained", "chained")
SIM_ELECTION_TIMEOUT_MS = 100.0
SIM_CP = 64
SIM_PARTITION_MS = 10_000.0
SIM_WARMUP_MS = 1_000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "tcp" or "sim"
    protocol: str = "omni"
    durable: bool = False
    #: Entries per ``propose``/``propose_batch`` call (1 = ``propose``).
    batch: int = 1
    #: Closed phase: entries outstanding.
    closed_cp: int = 0
    #: Paced phase: calls per second (a call carries ``batch`` entries).
    paced_rate: float = 0.0
    #: The traced run adds a one-server pass (the no-replication floor).
    single_node_pass: bool = False
    #: What the workload waits for, "cpu" or "disk": its throughput and
    #: latency are reported at the nominal speed of that resource (see
    #: ``speedref``).
    bound_by: str = "cpu"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "tcp-single",
        "per-message costs dominate: one propose, one protocol step and "
        "one Accepted per 16-byte entry (closed CP=64, paced 1000 ops/s)",
        "tcp", closed_cp=64, paced_rate=1000.0, single_node_pass=True),
    Workload(
        "tcp-batch",
        "32-entry propose_batch amortises per-message cost, so per-entry "
        "codec, append and decided fan-out do the work (CP=128, 100 "
        "batches/s)",
        "tcp", batch=32, closed_cp=128, paced_rate=100.0),
    Workload(
        "tcp-durable",
        "every server on FileStorage(sync=True): pickle+write+fsync per "
        "record makes omni.storage the largest cost (CP=16, paced 100 "
        "ops/s)",
        "tcp", durable=True, closed_cp=16, paced_rate=100.0,
        single_node_pass=True, bound_by="disk"),
    Workload(
        "tcp-raft",
        "same runtime and load as tcp-single with RaftReplica: separates "
        "runtime from protocol cost and holds Raft/Paxos parity to a number",
        "tcp", protocol="raft", closed_cp=64, paced_rate=1000.0),
    Workload(
        "sim-partial",
        "the paper's headline on the simulator only: quorum-loss, "
        "constrained and chained partitions; BLE + Sequence Paxos + "
        "repro.sim, no repro.runtime",
        "sim"),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen before a change counts as a regression.
    bound: Optional[float] = None
    #: Per-layer only: the end-to-end metric (and workload) it should move.
    moves: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("commit_tput", "ops/s", "higher", 0.25),
    Metric("commit_p50_ms", "ms", "lower", 0.25),
    Metric("downtime_ms", "ms", "lower", 0.15),
)


def _layer(prefix: str, moves: str, *rows: Tuple[str, str, str]):
    return tuple(Metric(f"{prefix}.{name}", unit, better, moves=moves)
                 for name, unit, better in rows)


PER_LAYER: Tuple[Metric, ...] = (
    *_layer("codec", "commit_tput on tcp-batch; little on tcp-single",
            ("encode_us_per_msg", "us", "lower"),
            ("decode_us_per_msg", "us", "lower"),
            ("bytes_per_msg", "bytes", "lower"),
            ("us_per_commit", "us", "lower")),
    *_layer("transport",
            "commit_tput on tcp-single/tcp-raft; a drop moves "
            "failed operations and client.commit_p95_ms",
            ("msgs_per_commit", "count", "lower"),
            ("bytes_per_commit", "bytes", "lower"),
            ("dropped_msgs", "count", "lower"),
            ("reconnects", "count", "lower")),
    *_layer("node", "commit_tput and commit_p50_ms on tcp-single",
            ("propose_us_per_call", "us", "lower"),
            ("self_us_per_commit", "us", "lower")),
    *_layer("loop", "client.commit_p95_ms on every tcp-*",
            ("lag_p50_ms", "ms", "lower"),
            ("lag_p95_ms", "ms", "lower")),
    *_layer("replica",
            "commit_tput on tcp-single/tcp-raft; leader_changes moves "
            "failed operations and client.commit_p95_ms",
            ("on_message_us", "us", "lower"),
            ("propose_us_per_entry", "us", "lower"),
            ("tick_us", "us", "lower"),
            ("take_outbox_us", "us", "lower"),
            ("us_per_commit", "us", "lower"),
            ("entries_per_replicate_msg", "count", "higher"),
            ("msgs_out_per_commit", "count", "lower"),
            ("leader_changes", "count", "lower"),
            ("follower_lag_p50_ms", "ms", "lower"),
            ("follower_lag_p95_ms", "ms", "lower"),
            ("single_node_us_per_commit", "us", "lower")),
    *_layer("storage",
            "commit_tput and commit_p50_ms on tcp-durable; ~0 elsewhere",
            ("append_us", "us", "lower"),
            ("entries_per_append", "count", "higher"),
            ("appends_per_commit", "count", "lower"),
            ("meta_writes_per_commit", "count", "lower"),
            ("us_per_commit", "us", "lower"),
            ("cpu_us_per_commit", "us", "lower"),
            ("bytes_per_commit", "bytes", "lower"),
            ("replay_s", "s", "lower")),
    *_layer("proc",
            "commit_tput (cpu_us_per_commit ~ 1e6 / commit_tput on one "
            "loop); RSS and gen-2 collections move client.commit_p95_ms",
            ("cpu_us_per_commit", "us", "lower"),
            ("other_us_per_commit", "us", "lower"),
            ("sys_us_per_commit", "us", "lower"),
            ("write_syscalls_per_commit", "count", "lower"),
            ("read_syscalls_per_commit", "count", "lower"),
            ("rss_bytes_per_commit", "bytes", "lower"),
            ("gc_gen2_collections", "count", "lower")),
    *_layer("client", "validity of the paced numbers",
            ("commit_p95_ms", "ms", "lower"),
            ("commit_p99_ms", "ms", "lower"),
            ("samples", "count", "higher"),
            ("gen_late_p95_ms", "ms", "lower"),
            ("us_per_op", "us", "lower"),
            ("failed_share", "ratio", "lower")),
    *_layer("sim", "downtime_ms and commit_tput on sim-partial",
            *((f"downtime_ms.{s}", "virt_ms", "lower")
              for s in SIM_SCENARIOS),
            *((f"recovery_ms.{s}", "virt_ms", "lower")
              for s in SIM_SCENARIOS),
            *((f"decided_in_partition.{s}", "count", "higher")
              for s in SIM_SCENARIOS),
            ("events_per_decided", "count", "lower"),
            ("msgs_per_decided", "count", "lower"),
            ("events_per_s", "1/s", "higher"),
            ("decided_per_s", "1/s", "higher")),
    Metric("trace.overhead_share", "ratio", "lower",
           moves="how far to trust the per-layer split"),
    Metric("bench.speed_reference_per_s", "1/s", "higher",
           moves="the machine's speed during the run; commit_tput and "
                 "commit_p50_ms are scaled by it"),
)

#: The five rows of the per-commit budget table; they sum to
#: ``proc.cpu_us_per_commit``.
BUDGET_ROWS = ("replica.us_per_commit", "storage.cpu_us_per_commit",
               "codec.us_per_commit", "client.us_per_op",
               "proc.other_us_per_commit")


@dataclass(frozen=True)
class Plan:
    """How one run spends ``--seconds`` (the measured time)."""

    warmup_s: float
    closed_s: float
    paced_s: float
    #: Traced run only: the untraced closed reference that gives
    #: ``trace.overhead_share``, and the one-server pass.
    untraced_s: float
    single_node_s: float
    setups: int
    sim_phases: int

    @classmethod
    def for_run(cls, seconds: float, trace: bool, quick: bool = False
                ) -> "Plan":
        if trace:
            # The traced run spends the same total on more passes.
            closed, paced = 0.3 * seconds, 0.3 * seconds
            untraced, single = 0.2 * seconds, 0.2 * seconds
        else:
            closed, paced = 0.5 * seconds, 0.5 * seconds
            untraced = single = 0.0
        return cls(
            warmup_s=0.5 if quick else 1.0,
            closed_s=closed, paced_s=paced,
            untraced_s=untraced, single_node_s=single,
            setups=1 if (trace or quick) else SETUPS,
            sim_phases=1 if quick else max(1, int(seconds // 2)),
        )
