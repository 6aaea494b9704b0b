"""Three ``RuntimeNode``s in this process, on this loop, over 127.0.0.1.

``RuntimeNode`` defaults throughout (binary wire, 32 KiB coalescing, no
``PipelineConfig``); no message delay is injected, so latency is processor
time plus loopback. The traced variant hands each node a
:class:`~benchmarks.e2e.proxies.TimedReplica` around the real replica, a
:class:`~benchmarks.e2e.proxies.TimedStorage` around whatever the storage
factory returns, and an enabled ``MetricsRegistry`` of its own.
"""

from __future__ import annotations

import asyncio
import os
import socket
from dataclasses import dataclass
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.raft import RaftConfig, RaftReplica
from repro.obs.registry import MetricsRegistry
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.omni.storage import FileStorage, InMemoryStorage
from repro.replica import Replica
from repro.runtime import PeerAddress, RuntimeNode

from .client import Client, make_decided_handler, make_traced_handler
from .proxies import MessageLedger, TimedReplica, TimedStorage, Tracer
from .spec import (HEARTBEAT_MS, LEADER_STABLE_S, RAFT_ELECTION_TIMEOUT_MS,
                   SEED_LEADER, TICK_MS, Workload)

#: Give up on a cluster that has not settled by then.
_SETUP_TIMEOUT_S = 30.0
#: During set-up the mesh and the leaders are polled this often.
_POLL_S = 0.002
#: A set-up probe operation is re-issued after this long without a decide.
_PROBE_RETRY_S = 0.05


@dataclass
class SetupTimes:
    #: Nodes built and started -> connected, leader unchanged for 1 s.
    setup_s: float
    #: Nodes built and started -> the first operation decided: the time
    #: without service at a cold start.
    first_commit_ms: float
    #: Leader views seen during set-up, as (ms since start, view per node).
    leader_history: List[Tuple[float, Tuple[Optional[int], ...]]]


def _free_ports(count: int) -> List[int]:
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class Cluster:
    """One cluster, its client, and every server's decided stream."""

    def __init__(self, workload: Workload, seed: int,
                 servers: Tuple[int, ...], workdir: str,
                 traced: bool = False) -> None:
        self.workload = workload
        self.servers = servers
        self._seed = seed
        self.workdir = workdir
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.ledger = MessageLedger()
        self.registries: Dict[int, MetricsRegistry] = {}
        self.client = Client(servers, seed, batch=workload.batch,
                             tracer=self.tracer)
        self.streams: Dict[int, List[Any]] = {p: [] for p in servers}
        #: (pid, index reported, index expected) for every decided
        #: notification that did not extend the stream by exactly one.
        self.gaps: List[Tuple[int, int, int]] = []
        #: Traced: when every eighth index was decided, at each server.
        self.lag_marks: Dict[int, List[float]] = {}
        self.storages: List[Any] = []
        self.wal_paths: List[str] = []
        self.nodes: Dict[int, RuntimeNode] = {}

    # -- construction ----------------------------------------------------------------

    def _storage_factory(self, pid: int):
        def factory(config_id: int):
            if self.workload.durable:
                path = os.path.join(self.workdir,
                                    f"wal-{pid}-{config_id}.log")
                self.wal_paths.append(path)
                storage: Any = FileStorage(path, sync=True)
            else:
                storage = InMemoryStorage()
            if self.tracer is not None:
                storage = TimedStorage(storage, self.tracer,
                                       blocking=self.workload.durable)
            self.storages.append(storage)
            return storage
        return factory

    def _replica(self, pid: int) -> Replica:
        leader = SEED_LEADER if SEED_LEADER in self.servers else None
        if self.workload.protocol == "raft":
            replica: Replica = RaftReplica(RaftConfig(
                pid=pid, voters=self.servers,
                election_timeout_ms=RAFT_ELECTION_TIMEOUT_MS,
                heartbeat_ms=HEARTBEAT_MS, seed=self._seed * 16 + pid,
                initial_leader=leader))
        else:
            replica = OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=ClusterConfig(0, self.servers),
                hb_period_ms=HEARTBEAT_MS, initial_leader=leader,
                storage_factory=self._storage_factory(pid)))
        if self.tracer is not None:
            replica = TimedReplica(replica, self.tracer, self.ledger)
        return replica

    def _handler(self, pid: int):
        if self.tracer is None:
            return make_decided_handler(pid, self.streams[pid], self.gaps,
                                        self.client)
        return make_traced_handler(pid, self.streams[pid], self.gaps,
                                   self.client, self.tracer, self.lag_marks)

    # -- life cycle ------------------------------------------------------------------------

    async def start(self) -> SetupTimes:
        """Build and start the nodes, then wait until every node is
        connected to every peer, one operation has been decided, and all
        nodes have named the same leader for a second without change."""
        started = monotonic()
        ports = _free_ports(len(self.servers))
        addrs = {p: PeerAddress(p, "127.0.0.1", port)
                 for p, port in zip(self.servers, ports)}
        for pid in self.servers:
            obs = None
            if self.tracer is not None:
                obs = self.registries[pid] = MetricsRegistry()
            self.nodes[pid] = RuntimeNode(
                self._replica(pid), addrs[pid],
                {q: a for q, a in addrs.items() if q != pid},
                tick_ms=TICK_MS, on_decided=self._handler(pid), obs=obs)
        self.client.attach(self.nodes)
        for node in self.nodes.values():
            await node.start()

        client = self.client
        peers = len(self.servers) - 1
        history: List[Tuple[float, Tuple[Optional[int], ...]]] = []
        view: Optional[Tuple[Optional[int], ...]] = None
        stable_since = started
        probed_at = 0.0
        while True:
            now = monotonic()
            if now - started > _SETUP_TIMEOUT_S:
                raise RuntimeError(
                    f"{self.workload.name}: cluster not ready after "
                    f"{_SETUP_TIMEOUT_S:.0f} s (leader views {history[-3:]})")
            seen = tuple(n.leader_pid for n in self.nodes.values())
            if seen != view:
                view = seen
                stable_since = now
                history.append(((now - started) * 1e3, seen))
            agreed = (seen[0] is not None and len(set(seen)) == 1
                      and all(len(n.connected_peers) == peers
                              for n in self.nodes.values()))
            if agreed and client.first_done is None:
                client.expire(now)
                if now - probed_at >= _PROBE_RETRY_S:
                    probed_at = now
                    client.issue(now)
            if (agreed and client.first_done is not None
                    and now - stable_since >= LEADER_STABLE_S):
                break
            await asyncio.sleep(_POLL_S)
        await client.drain()
        return SetupTimes(
            setup_s=monotonic() - started,
            first_commit_ms=(client.first_done - started) * 1e3,
            leader_history=history)

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()
        for storage in self.storages:
            close = getattr(storage, "close", None)
            if close is not None:
                close()

    # -- registry reads (traced) ---------------------------------------------------------------

    def counter_total(self, name: str) -> float:
        return sum(reg.sum_counter(name) for reg in self.registries.values())

    def dropped_by_reason(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for reg in self.registries.values():
            for metric in reg.metrics():
                if getattr(metric, "name", "") != "repro_messages_dropped_total":
                    continue
                reason = dict(metric.labels).get("reason", "unknown")
                out[reason] = out.get(reason, 0.0) + metric.value
        return out

    def wal_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.wal_paths
                   if os.path.exists(p))
