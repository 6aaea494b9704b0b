#!/usr/bin/env python
"""A live replicated key-value store over real TCP (asyncio runtime).

Boots three Omni-Paxos servers on localhost, each serving a
:class:`repro.kv.ReplicatedKVStore`, then runs a put and a compare-and-
swap and shows every replica applying the same state. Each node hands its
decided entries to its store (``on_decided=store.ingest``).

Run with::

    python examples/kv_store_cluster.py
"""

import asyncio

from repro import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.kv import KVCommand, ReplicatedKVStore
from repro.runtime import PeerAddress, RuntimeNode

BASE_PORT = 41100
SERVERS = (1, 2, 3)


async def wait_for(predicate, timeout_s: float = 5.0, interval_s: float = 0.02):
    """Poll ``predicate`` until it returns truthy or the timeout expires."""
    deadline = asyncio.get_event_loop().time() + timeout_s
    while asyncio.get_event_loop().time() < deadline:
        value = predicate()
        if value:
            return value
        await asyncio.sleep(interval_s)
    raise TimeoutError("condition not reached in time")


async def main() -> None:
    cluster_cfg = ClusterConfig(config_id=0, servers=SERVERS)
    addrs = {pid: PeerAddress(pid, "127.0.0.1", BASE_PORT + pid) for pid in SERVERS}
    stores = {}
    nodes = {}
    for pid in SERVERS:
        server = OmniPaxosServer(
            OmniPaxosConfig(pid=pid, cluster=cluster_cfg, hb_period_ms=50.0)
        )
        stores[pid] = ReplicatedKVStore(server, client_id=pid)
        nodes[pid] = RuntimeNode(
            server,
            addrs[pid],
            {q: a for q, a in addrs.items() if q != pid},
            tick_ms=10.0,
            on_decided=stores[pid].ingest,
        )
    for node in nodes.values():
        await node.start()

    leader_pid = await wait_for(
        lambda: next((p for p in SERVERS if nodes[p].is_leader), None)
    )
    print(f"leader elected over TCP: server {leader_pid}")
    leader_store = stores[leader_pid]
    now = lambda: asyncio.get_event_loop().time() * 1000.0

    seq = leader_store.submit(KVCommand("put", "color", "blue"), now())
    await wait_for(lambda: leader_store.result(seq))
    print("put color=blue decided")

    seq = leader_store.submit(
        KVCommand("cas", "color", value="green", expected="blue"), now()
    )
    result = await wait_for(lambda: leader_store.result(seq))
    print(f"cas blue->green: ok={result.ok}")

    # Every replica applies the same state.
    await asyncio.sleep(0.3)
    for pid in SERVERS:
        print(f"server {pid} sees color={stores[pid].lookup('color')}")

    for node in nodes.values():
        await node.stop()


if __name__ == "__main__":
    asyncio.run(main())
