"""Tests for KV watches."""

from repro.kv.store import KVCommand, ReplicatedKVStore

from tests.conftest import build_omni_cluster, run_until_leader


class TestKVWatch:
    def wire(self, sim, servers):
        stores = {p: ReplicatedKVStore(servers[p], client_id=p)
                  for p in servers}
        sim.on_decided(lambda pid, idx, e, now: stores[pid].ingest(idx, e))
        return stores

    def test_watch_fires_on_put(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self.wire(sim, servers)
        seen = []
        stores[leader].watch("color", lambda k, v, i: seen.append((k, v)))
        stores[leader].submit(KVCommand("put", "color", "red"), sim.now)
        sim.run_for(100)
        assert seen == [("color", "red")]

    def test_watch_fires_on_delete_and_cas(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self.wire(sim, servers)
        seen = []
        stores[leader].watch("k", lambda key, v, i: seen.append(v))
        stores[leader].submit(KVCommand("put", "k", "1"), sim.now)
        sim.run_for(50)
        stores[leader].submit(
            KVCommand("cas", "k", value="2", expected="1"), sim.now)
        sim.run_for(50)
        stores[leader].submit(KVCommand("delete", "k"), sim.now)
        sim.run_for(50)
        assert seen == ["1", "2", None]

    def test_failed_cas_does_not_fire(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self.wire(sim, servers)
        seen = []
        stores[leader].submit(KVCommand("put", "k", "1"), sim.now)
        sim.run_for(50)
        stores[leader].watch("k", lambda key, v, i: seen.append(v))
        stores[leader].submit(
            KVCommand("cas", "k", value="9", expected="wrong"), sim.now)
        sim.run_for(50)
        assert seen == []

    def test_watch_on_every_replica(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self.wire(sim, servers)
        fired = {p: 0 for p in servers}
        for p, store in stores.items():
            store.watch("k", lambda key, v, i, p=p: fired.__setitem__(
                p, fired[p] + 1))
        stores[leader].submit(KVCommand("put", "k", "v"), sim.now)
        sim.run_for(100)
        assert all(count == 1 for count in fired.values())

    def test_unwatch(self):
        sim, servers = build_omni_cluster(3)
        leader = run_until_leader(sim)
        stores = self.wire(sim, servers)
        seen = []
        stores[leader].watch("k", lambda key, v, i: seen.append(v))
        stores[leader].unwatch("k")
        stores[leader].submit(KVCommand("put", "k", "v"), sim.now)
        sim.run_for(100)
        assert seen == []
