"""Session life cycle of the TCP mesh over real sockets: a closed mesh
ends its sessions at once and hears nothing more, and an inbound
connection ends every reconnect back-off, so a peer that comes up (at a
cold start or after a restart) is dialled back within milliseconds while a
peer that stays down costs one extra attempt per inbound connection."""

import asyncio
import random

import pytest

from repro.obs.registry import MetricsRegistry
from repro.omni.messages import PrepareReq
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.runtime import RuntimeNode, TcpMesh
from tests.test_wire_runtime import make_addrs, wait_for


class _TopJitter(random.Random):
    """Always draws the top of the jitter range, so the back-off after a
    refused dial is 50, 150, 450, 1350 ms, then the 2 s cap; records each
    range's top (three times the delay it was drawn after)."""

    def __init__(self):
        super().__init__(0)
        self.tops = []

    def uniform(self, a, b):
        self.tops.append(b)
        return b


def _mesh(pid, addrs, **kwargs):
    return TcpMesh(pid, addrs[pid],
                   {q: a for q, a in addrs.items() if q != pid},
                   on_message=kwargs.pop("on_message", lambda s, m: None),
                   **kwargs)


def _full(meshes):
    return all(len(m.connected_peers) == len(meshes) - 1
               for m in meshes.values())


async def _close_all(meshes):
    for mesh in meshes.values():
        await mesh.close()


class TestClose:
    def test_peers_lose_a_closed_mesh_without_traffic(self):
        """The listening server's ``close`` leaves accepted connections
        open; a quiet peer would keep a session to the stopped node."""
        async def scenario():
            addrs = make_addrs([1, 2, 3])
            meshes = {p: _mesh(p, addrs) for p in addrs}
            for mesh in meshes.values():
                await mesh.start()
            try:
                await wait_for(lambda: _full(meshes))
                await meshes[3].close()
                await wait_for(lambda: all(
                    3 not in meshes[p].connected_peers for p in (1, 2)),
                    timeout_s=0.2, interval_s=0.005)
            finally:
                await _close_all(meshes)

        asyncio.run(scenario())

    def test_a_frame_sent_after_close_reaches_no_handler(self):
        async def scenario():
            addrs = make_addrs([1, 2])
            inbox = []
            meshes = {1: _mesh(1, addrs),
                      2: _mesh(2, addrs, on_message=lambda s, m:
                               inbox.append(m))}
            for mesh in meshes.values():
                await mesh.start()
            try:
                await wait_for(lambda: _full(meshes))
                await meshes[2].close()
                meshes[1].send(2, PrepareReq())
                meshes[1].flush()
                await asyncio.sleep(0.1)
            finally:
                await _close_all(meshes)
            return inbox

        assert asyncio.run(scenario()) == []


class TestRedial:
    def test_cold_start_meshes_within_milliseconds_of_the_last_start(self):
        """Started one after another, mesh 1's dials to 2 and 3 and mesh
        2's dial to 3 are refused; each later start dials in and ends
        those back-offs. Without that, every session waited for its first
        50 ms back-off: some 45 ms after the last start here."""
        async def scenario():
            loop = asyncio.get_running_loop()
            addrs = make_addrs([1, 2, 3])
            reg = MetricsRegistry()
            meshes = {p: _mesh(p, addrs, rng=_TopJitter()) for p in addrs}
            meshes[1].set_observability(reg)
            try:
                for mesh in meshes.values():
                    await mesh.start()
                    last_start = loop.time()
                    await asyncio.sleep(0.005)  # its dials are refused
                await wait_for(lambda: _full(meshes), timeout_s=1.0,
                               interval_s=0.001)
                meshed_ms = (loop.time() - last_start) * 1e3
            finally:
                await _close_all(meshes)
            refused = [reg.counter_value("repro_reconnect_attempts_total",
                                         src=1, peer=p) - 1 for p in (2, 3)]
            return meshed_ms, refused

        meshed_ms, refused = asyncio.run(scenario())
        assert min(refused) >= 1  # both of mesh 1's first dials failed
        assert meshed_ms < 25.0

    def test_a_restarted_mesh_is_dialled_back_at_once(self):
        """Down for a second, mesh 3 sits deep in its peers' back-off
        (attempts at 0, 50, 200 and 650 ms, the next at 2 s); its own
        dials on restart bring both peers back within 50 ms, not when
        their delays run out."""
        async def scenario():
            loop = asyncio.get_running_loop()
            addrs = make_addrs([1, 2, 3])
            restored = []
            meshes = {p: _mesh(p, addrs, rng=_TopJitter(),
                               on_session_restored=lambda peer, p=p:
                               restored.append((p, peer, loop.time())))
                      for p in addrs}
            for mesh in meshes.values():
                await mesh.start()
            try:
                await wait_for(lambda: _full(meshes))
                await meshes[3].close()
                await asyncio.sleep(1.0)
                meshes[3] = _mesh(3, addrs)
                await meshes[3].start()
                restarted = loop.time()

                def redialled():
                    return {p: t for p, peer, t in restored
                            if peer == 3 and t >= restarted}
                await wait_for(lambda: len(redialled()) == 2, timeout_s=3.0)
            finally:
                await _close_all(meshes)
            return [(t - restarted) * 1e3 for t in redialled().values()]

        assert max(asyncio.run(scenario())) < 50.0

    def test_a_peer_still_down_costs_one_attempt_per_inbound(self):
        """Peer 3 never comes up. Undisturbed, mesh 1 would dial it at 0,
        50 and 200 ms in the first 0.6 s; three inbound connections at
        100, 300 and 500 ms each buy one immediate retry and no more, and
        the delay after each goes on growing instead of falling back to
        50 ms."""
        async def scenario():
            loop = asyncio.get_running_loop()
            addrs = make_addrs([1, 3])
            reg = MetricsRegistry()
            rng = _TopJitter()
            mesh = TcpMesh(1, addrs[1], {3: addrs[3]},
                           on_message=lambda s, m: None, rng=rng)
            mesh.set_observability(reg)

            def attempts():
                return reg.counter_value("repro_reconnect_attempts_total",
                                         src=1, peer=3)
            await mesh.start()
            started = loop.time()
            try:
                for at in (0.1, 0.3, 0.5):
                    await asyncio.sleep(started + at - loop.time())
                    before = attempts()
                    _, writer = await asyncio.open_connection(
                        addrs[1].host, addrs[1].port)
                    await wait_for(lambda: attempts() > before,
                                   timeout_s=0.05, interval_s=0.001)
                    writer.close()
                await asyncio.sleep(started + 0.6 - loop.time())
            finally:
                await mesh.close()
            return attempts(), rng.tops

        attempts, tops = asyncio.run(scenario())
        assert attempts <= 3 + 3
        assert tops == pytest.approx([0.15, 0.45, 1.35, 4.05])


class TestStartUpChurn:
    def test_the_seeded_leader_keeps_the_lead_through_start_up(self):
        """Six cold starts of a three-node cluster seeded with leader 3
        and started in pid order: no node names another leader in the
        first 0.3 s. While the return legs waited out a 50 ms back-off,
        the first heartbeat rounds went unanswered and, at this heartbeat,
        about one start in two changed leader."""
        async def one_start():
            loop = asyncio.get_running_loop()
            cc = ClusterConfig(0, (1, 2, 3))
            addrs = make_addrs(list(cc.servers))
            nodes = {p: RuntimeNode(
                OmniPaxosServer(OmniPaxosConfig(
                    pid=p, cluster=cc, hb_period_ms=30.0, initial_leader=3)),
                addrs[p], {q: a for q, a in addrs.items() if q != p},
                tick_ms=5.0) for p in cc.servers}
            started = loop.time()
            views = set()
            try:
                for node in nodes.values():
                    await node.start()
                while loop.time() - started < 0.3:
                    views |= {n.leader_pid for n in nodes.values()}
                    await asyncio.sleep(0.002)
            finally:
                for node in nodes.values():
                    await node.stop()
            return views - {None}

        async def scenario():
            return [await one_start() for _ in range(6)]

        assert asyncio.run(scenario()) == [{3}] * 6
