"""Macro benches of the behaviour gate: whole clusters, sim and live TCP.

Each sim bench builds a full experiment (cluster + closed-loop client),
runs it for a fixed stretch of *virtual* time, and returns event, message
and decided counts plus a decided-log digest over every server's decided
stream — the behavioural fingerprint that must survive any optimization.
The virtual-time workload is fully determined by the seed, so two runs
with the same seed must agree on every counter and digest. The runtime
benches do the same over real sockets, where only the decided log (not
the event interleaving) is deterministic.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, List

from repro.bench.runner import LogDigest
from repro.sim.harness import PROTOCOLS, ExperimentConfig, build_experiment


def run_macro(protocol: str, duration_ms: float, cp: int,
              seed: int = 0, num_servers: int = 5) -> Dict[str, Any]:
    """One end-to-end run of ``protocol`` under the closed-loop workload."""
    cfg = ExperimentConfig(protocol=protocol, num_servers=num_servers,
                           election_timeout_ms=100.0, one_way_ms=0.1,
                           seed=seed, initial_leader=1)
    exp = build_experiment(cfg)
    digest = LogDigest()
    exp.cluster.on_decided(
        lambda pid, idx, entry, now: digest.record(pid, idx, entry))
    client = exp.make_client(concurrent_proposals=cp)
    exp.cluster.run_for(5 * cfg.election_timeout_ms + duration_ms)
    return {
        "events_processed": exp.queue.processed,
        "messages_sent": exp.network.messages_sent,
        "decided_total": client.tracker.count,
        "proposals_sent": client.proposals_sent,
        "reproposals": client.reproposals,
        "decided_log_digest": digest.hexdigest(),
    }


def run_macro_suite(seed: int = 0) -> Dict[str, Dict[str, Any]]:
    """Every sim protocol at the gate's one size; ``{name: counters}``."""
    return {f"sim_{protocol}": run_macro(protocol, duration_ms=1_000.0,
                                         cp=32, seed=seed)
            for protocol in PROTOCOLS}


# ----------------------------------------------------------------------
# Runtime (real TCP) macro benches.


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
    from repro.runtime import PeerAddress, RuntimeNode

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
        nodes[leader_pid].propose_batch(
            [Command(data=payload, client_id=1, seq=i)
             for i in range(n_entries)])
        await asyncio.wait_for(all_decided.wait(), timeout=120.0)
    finally:
        for node in nodes.values():
            await node.stop()

    return {
        "decided_per_server": min(decided_counts.values()),
        "num_servers": num_servers,
        "entries_proposed": n_entries,
        "decided_log_digest": digest.hexdigest(),
    }


def run_runtime_macro(protocol: str = "omni",
                      n_entries: int = 2_000, payload_bytes: int = 16,
                      num_servers: int = 3, seed: int = 0,
                      tick_ms: float = 5.0) -> Dict[str, Any]:
    """What a live TCP cluster on localhost decides.

    Boots ``num_servers`` :class:`~repro.runtime.node.RuntimeNode`
    processes-in-one-loop, waits for the seeded leader, proposes
    ``n_entries`` commands at it in one batch, and waits until *every*
    server has decided all of them. The decided-log digest depends only
    on what was proposed — the wire may change how fast entries travel,
    never what gets decided where.
    """
    return asyncio.run(_runtime_macro_run(
        protocol, n_entries, payload_bytes, num_servers, seed, tick_ms))


def run_runtime_suite(seed: int = 0) -> Dict[str, Dict[str, Any]]:
    """Both runtime protocols at the gate's one size; ``{name: counters}``."""
    return {f"runtime_{protocol}": run_runtime_macro(protocol, n_entries=400,
                                                     seed=seed)
            for protocol in ("omni", "raft")}
