"""End-to-end simulator throughput benchmarks, one per protocol.

Each macro bench builds a full experiment (cluster + closed-loop client),
runs it for a fixed stretch of *virtual* time, and reports:

- wall-clock events/sec — how fast the simulator chews through the run,
- decided entries (and decided/sec of virtual time) — protocol progress,
- a decided-log digest over every server's decided stream — the
  behavioural fingerprint that must survive any optimization, and
- optionally a per-phase commit breakdown assembled from tracing spans.

The virtual-time workload is fully determined by the seed, so two runs
with the same seed must agree on every counter and digest; only the wall
clock may differ.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, List, Optional

from repro.bench.runner import LogDigest, make_result, timed
from repro.obs.exporters import MemorySink
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import assemble_spans
from repro.sim.harness import ExperimentConfig, build_experiment


def run_macro(protocol: str, duration_ms: float, cp: int,
              seed: int = 0, num_servers: int = 5,
              trace: bool = False) -> Dict[str, Any]:
    """One end-to-end run of ``protocol`` under the closed-loop workload.

    With ``trace=True`` the run carries full causal tracing and the result
    gains a ``phases`` block (commit-span phase durations); tracing adds
    overhead, so traced numbers are not comparable to untraced ones.
    """
    cfg = ExperimentConfig(protocol=protocol, num_servers=num_servers,
                           election_timeout_ms=100.0, one_way_ms=0.1,
                           seed=seed, initial_leader=1)
    registry: Optional[MetricsRegistry] = None
    sink: Optional[MemorySink] = None
    if trace:
        registry = MetricsRegistry()
        registry.enable_tracing()
        sink = MemorySink()
        registry.add_sink(sink)

    def run() -> Dict[str, Any]:
        exp = build_experiment(cfg, obs=registry)
        digest = LogDigest()
        exp.cluster.on_decided(
            lambda pid, idx, entry, now: digest.record(pid, idx, entry))
        client = exp.make_client(concurrent_proposals=cp)
        warmup_ms = 5 * cfg.election_timeout_ms
        exp.cluster.run_for(warmup_ms)
        start_events = exp.queue.processed
        start_decided = client.tracker.count
        exp.cluster.run_for(duration_ms)
        decided = client.tracker.count - start_decided
        events = exp.queue.processed - start_events
        out: Dict[str, Any] = {
            "events": events,
            "decided": decided,
            "counters": {
                "events_processed": exp.queue.processed,
                "messages_sent": exp.network.messages_sent,
                "decided_total": client.tracker.count,
                "proposals_sent": client.proposals_sent,
                "reproposals": client.reproposals,
                "decided_log_digest": digest.hexdigest(),
            },
            "decided_per_virtual_s": round(
                decided / (duration_ms / 1000.0), 1),
        }
        return out

    out, wall = timed(run)
    result = make_result(
        f"sim_{protocol}", wall, out["events"], out["counters"],
        extra={
            "decided_entries": out["decided"],
            "decided_per_virtual_s": out["decided_per_virtual_s"],
            "decided_per_wall_s": round(out["decided"] / wall, 1)
            if wall > 0 else 0.0,
        },
    )
    if trace and sink is not None:
        result["phases"] = _phase_breakdown(sink)
    return result


def _phase_breakdown(sink: MemorySink) -> Dict[str, Any]:
    """Commit-span phase durations from the run's tracing events."""
    spans = assemble_spans(sink.records)
    phases: Dict[str, Dict[str, float]] = {}
    totals: Dict[str, list] = {}
    for span in spans:
        if span.kind != "commit":
            continue
        for phase, duration in span.phase_durations():
            totals.setdefault(phase, []).append(duration)
    for phase, values in sorted(totals.items()):
        values.sort()
        phases[phase] = {
            "count": len(values),
            "mean_ms": round(sum(values) / len(values), 3),
            "p95_ms": round(values[int(0.95 * (len(values) - 1))], 3),
        }
    return phases


def run_macro_suite(budget: Dict[str, Any], seed: int = 0,
                    trace: bool = False) -> Dict[str, Dict[str, Any]]:
    """Run the macro bench for every protocol in the budget."""
    out: Dict[str, Dict[str, Any]] = {}
    for protocol in budget["macro_protocols"]:
        out[f"sim_{protocol}"] = run_macro(
            protocol,
            duration_ms=budget["macro_duration_ms"],
            cp=budget["macro_cp"],
            seed=seed,
            trace=trace,
        )
    return out


# ----------------------------------------------------------------------
# Runtime (real TCP) macro benches — PR 9.


def _free_ports(count: int) -> List[int]:
    """OS-assigned free ports (closed immediately; the tiny reuse race is
    far less flaky than fixed port numbers under a loaded machine)."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _build_runtime_replica(protocol: str, pid: int, servers: tuple,
                           seed: int) -> Any:
    if protocol == "omni":
        from repro.omni.server import (
            ClusterConfig, OmniPaxosConfig, OmniPaxosServer,
        )
        return OmniPaxosServer(OmniPaxosConfig(
            pid=pid, cluster=ClusterConfig(0, servers),
            hb_period_ms=50.0, initial_leader=servers[0]))
    if protocol == "raft":
        from repro.baselines.raft import RaftConfig, RaftReplica
        return RaftReplica(RaftConfig(
            pid=pid, voters=servers, election_timeout_ms=400.0,
            heartbeat_ms=50.0, seed=seed + pid,
            initial_leader=servers[0]))
    raise ValueError(f"runtime macro bench has no builder for {protocol!r}")


async def _runtime_macro_run(protocol: str, n_entries: int,
                             payload_bytes: int, num_servers: int,
                             seed: int, tick_ms: float) -> Dict[str, Any]:
    from repro.omni.entry import Command
    from repro.runtime import PeerAddress, PipelineConfig, RuntimeNode

    servers = tuple(range(1, num_servers + 1))
    ports = _free_ports(num_servers)
    addrs = {p: PeerAddress(p, "127.0.0.1", ports[p - 1]) for p in servers}
    digest = LogDigest()
    decided_counts = {p: 0 for p in servers}
    all_decided = asyncio.Event()

    def make_handler(pid: int):
        def on_decided(idx: int, entry: Any) -> None:
            digest.record(pid, idx, entry)
            decided_counts[pid] += 1
            if all(c >= n_entries for c in decided_counts.values()):
                all_decided.set()
        return on_decided

    nodes = {}
    for p in servers:
        replica = _build_runtime_replica(protocol, p, servers, seed)
        nodes[p] = RuntimeNode(
            replica, addrs[p],
            {q: a for q, a in addrs.items() if q != p},
            tick_ms=tick_ms,
            on_decided=make_handler(p),
            pipeline=PipelineConfig(),
        )
    for node in nodes.values():
        await node.start()
    try:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 30.0
        leader_pid = servers[0]
        while loop.time() < deadline:
            if (all(n.leader_pid == leader_pid for n in nodes.values())
                    and all(len(n.connected_peers) == num_servers - 1
                            for n in nodes.values())):
                break
            await asyncio.sleep(0.01)
        else:
            raise RuntimeError(
                f"runtime bench: no stable leader for {protocol} in 30s")

        payload = b"x" * payload_bytes
        entries = [Command(data=payload, client_id=1, seq=i)
                   for i in range(n_entries)]
        leader = nodes[leader_pid]

        start = loop.time()
        leader.propose_batch(entries)
        await asyncio.wait_for(all_decided.wait(), timeout=120.0)
        wall = loop.time() - start
    finally:
        for node in nodes.values():
            await node.stop()

    return {
        "wall": wall,
        "counters": {
            "decided_per_server": min(decided_counts.values()),
            "num_servers": num_servers,
            "entries_proposed": n_entries,
            "decided_log_digest": digest.hexdigest(),
        },
    }


def run_runtime_macro(protocol: str = "omni",
                      n_entries: int = 2_000, payload_bytes: int = 16,
                      num_servers: int = 3, seed: int = 0,
                      tick_ms: float = 5.0) -> Dict[str, Any]:
    """Decided throughput of a live TCP cluster on localhost.

    Boots ``num_servers`` :class:`~repro.runtime.node.RuntimeNode`
    processes-in-one-loop, waits for the seeded leader, proposes
    ``n_entries`` commands at it, and measures wall-clock from first
    proposal until *every* server has decided all of them. ``ops_per_sec``
    is therefore decided entries per second end-to-end over real sockets.
    The decided-log digest depends only on what was proposed — the wire
    may change how fast entries travel, never what gets decided where.
    """
    out = asyncio.run(_runtime_macro_run(
        protocol, n_entries, payload_bytes, num_servers, seed, tick_ms))
    return make_result(
        f"runtime_{protocol}", out["wall"], n_entries, out["counters"])


def run_runtime_suite(budget: Dict[str, Any],
                      seed: int = 0) -> Dict[str, Dict[str, Any]]:
    """Run the runtime macro bench for every protocol in the budget."""
    out: Dict[str, Dict[str, Any]] = {}
    for protocol in budget["runtime_protocols"]:
        out[f"runtime_{protocol}"] = run_runtime_macro(
            protocol,
            n_entries=budget["runtime_entries"],
            payload_bytes=budget["runtime_payload_bytes"],
            seed=seed,
        )
    return out
