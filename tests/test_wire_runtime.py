"""Runtime wire-path tests: coalescing, backpressure, corrupt-frame
handling, unencodable entries, clean teardown and storage failure."""

import asyncio
import os
import platform
import socket
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from repro.errors import TransportError
from repro.obs.registry import MetricsRegistry
from repro.omni.entry import Command
from repro.omni.messages import COMPONENT_SP, Envelope, PrepareReq
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.runtime import PeerAddress, RuntimeNode, TcpMesh
from repro.runtime.codec import encode_frame


def free_ports(count):
    socks = [socket.socket() for _ in range(count)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def make_addrs(pids):
    ports = free_ports(len(pids))
    return {p: PeerAddress(p, "127.0.0.1", port)
            for p, port in zip(pids, ports)}


async def wait_for(predicate, timeout_s=15.0, interval_s=0.02):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        value = predicate()
        if value:
            return value
        await asyncio.sleep(interval_s)
    raise AssertionError("condition not reached over TCP in time")


def omni_nodes(decided, obs):
    """Three unstarted OmniPaxos nodes, 1 the initial leader and the one
    reporting to ``obs``; ``decided[pid]`` collects decided seqs."""
    cc = ClusterConfig(0, (1, 2, 3))
    addrs = make_addrs(list(cc.servers))
    return addrs, {p: RuntimeNode(
        OmniPaxosServer(OmniPaxosConfig(
            pid=p, cluster=cc, hb_period_ms=40.0, initial_leader=1)),
        addrs[p], {q: a for q, a in addrs.items() if q != p},
        tick_ms=5.0, obs=obs if p == 1 else None,
        on_decided=lambda i, e, p=p: decided[p].append(e.seq))
        for p in (1, 2, 3)}


class _StubTransport:
    def __init__(self, buffered):
        self.buffered = buffered

    def get_write_buffer_size(self):
        return self.buffered


class _StubWriter:
    """Looks enough like a StreamWriter for TcpMesh's send path."""

    def __init__(self, buffered=0):
        self.transport = _StubTransport(buffered)
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _mesh(pid=1, peers=None, obs=None, **kwargs):
    addrs = make_addrs([1, 2])
    mesh = TcpMesh(pid, addrs[pid],
                   peers if peers is not None
                   else {q: a for q, a in addrs.items() if q != pid},
                   on_message=lambda s, m: None, **kwargs)
    if obs is not None:
        mesh.set_observability(obs)
    return mesh


class TestBackpressure:
    def test_send_drops_above_high_water_mark(self):
        reg = MetricsRegistry()
        mesh = _mesh(obs=reg, max_write_buffer_bytes=1024)
        writer = _StubWriter(buffered=2048)  # already past the mark
        mesh._writers[2] = writer
        mesh.send(2, PrepareReq())
        assert writer.chunks == []
        assert reg.counter_value("repro_messages_dropped_total",
                                 src=1, reason="backpressure") == 1
        # Sent counters still billed, like SimNetwork's dropped sends.
        assert reg.counter_value("repro_messages_sent_total",
                                 src=1, kind="PrepareReq") == 1

    def test_staged_bytes_count_toward_the_mark(self):
        # Needs a running loop: without one, send degrades to write-now
        # and the staging buffer never accumulates.
        async def scenario():
            reg = MetricsRegistry()
            mesh = _mesh(obs=reg, max_write_buffer_bytes=200,
                         coalesce_bytes=10_000)
            mesh._writers[2] = _StubWriter(buffered=0)
            for i in range(100):
                mesh.send(2, Command(data=b"x" * 32, client_id=1, seq=i))
            dropped = reg.counter_value("repro_messages_dropped_total",
                                        src=1, reason="backpressure")
            assert dropped > 0
            assert len(mesh._staged[2]) <= 200

        asyncio.run(scenario())

    def test_frame_above_the_mark_crosses_an_idle_link(self):
        """The mark bounds what queues behind a peer that is not reading,
        not the size of one message: dropped on an idle link, a large
        ``AcceptSync`` would be re-sent into the same drop forever."""
        async def scenario():
            reg = MetricsRegistry()
            addrs = make_addrs([1, 2])
            inbox = []
            a = TcpMesh(1, addrs[1], {2: addrs[2]},
                        on_message=lambda s, m: None,
                        max_write_buffer_bytes=1024)
            a.set_observability(reg)
            b = TcpMesh(2, addrs[2], {1: addrs[1]},
                        on_message=lambda s, m: inbox.append(m))
            await a.start()
            await b.start()
            try:
                await wait_for(lambda: 2 in a.connected_peers)
                a.send(2, Command(data=bytes(4096), client_id=1, seq=0))
                # Still staged behind the first: this one is backpressure.
                a.send(2, Command(data=bytes(4096), client_id=1, seq=1))
                await wait_for(lambda: inbox)
                await asyncio.sleep(0.05)
            finally:
                await a.close()
                await b.close()
            return inbox, reg

        inbox, reg = asyncio.run(scenario())
        assert [(m.seq, len(m.data)) for m in inbox] == [(0, 4096)]
        assert reg.counter_value("repro_messages_dropped_total",
                                 src=1, reason="backpressure") == 1

    def test_below_mark_nothing_dropped(self):
        reg = MetricsRegistry()
        mesh = _mesh(obs=reg)
        writer = _StubWriter()
        mesh._writers[2] = writer
        mesh.send(2, PrepareReq())
        mesh.flush()
        assert len(writer.chunks) == 1
        assert reg.counter_value("repro_messages_dropped_total",
                                 src=1, reason="backpressure") == 0


class TestCoalescing:
    def test_many_sends_one_write(self):
        async def scenario():
            mesh = _mesh()
            writer = _StubWriter()
            mesh._writers[2] = writer
            for i in range(50):
                mesh.send(2, Command(data=b"x", client_id=1, seq=i))
            assert writer.chunks == []  # staged, nothing written yet
            mesh.flush()
            assert len(writer.chunks) == 1  # one syscall for all 50
            from repro.runtime.codec import FrameDecoder
            frames = FrameDecoder().feed(writer.chunks[0])
            assert len(frames) == 50
            assert [p.seq for _, p in frames] == list(range(50))  # FIFO

        asyncio.run(scenario())

    def test_size_threshold_flushes_immediately(self):
        mesh = _mesh(coalesce_bytes=64)
        writer = _StubWriter()
        mesh._writers[2] = writer
        mesh.send(2, Command(data=b"x" * 100, client_id=1, seq=0))
        assert len(writer.chunks) == 1  # exceeded threshold: flushed now

    def test_scheduled_flush_inside_event_loop(self):
        async def scenario():
            mesh = _mesh()
            writer = _StubWriter()
            mesh._writers[2] = writer
            mesh.send(2, PrepareReq())
            assert writer.chunks == []
            await asyncio.sleep(0)  # let the call_soon flush run
            return writer.chunks

        chunks = asyncio.run(scenario())
        assert len(chunks) == 1

    def test_coalesced_frames_deliver_over_real_tcp(self):
        async def scenario():
            addrs = make_addrs([1, 2])
            inbox = []
            a = TcpMesh(1, addrs[1], {2: addrs[2]},
                        on_message=lambda s, m: None)
            b = TcpMesh(2, addrs[2], {1: addrs[1]},
                        on_message=lambda s, m: inbox.append((s, m)))
            await a.start()
            await b.start()
            try:
                await wait_for(lambda: 2 in a.connected_peers)
                for i in range(200):
                    a.send(2, Command(data=b"y", client_id=1, seq=i))
                a.flush()
                await wait_for(lambda: len(inbox) == 200)
            finally:
                await a.close()
                await b.close()
            return inbox

        inbox = asyncio.run(scenario())
        assert [m.seq for _, m in inbox] == list(range(200))


#: A TcpMesh pair bouncing one small frame, in an interpreter of its own
#: (the allocator's state is the process's): prints page faults per read.
_PING_PONG = """
import asyncio, resource, sys
from repro.omni.entry import Command
from repro.runtime import PeerAddress, TcpMesh

WARM, READS = 50, 400


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


async def main(ports):
    addrs = {p: PeerAddress(p, "127.0.0.1", port)
             for p, port in zip((1, 2), ports)}
    marks, seen, done = [], [0], asyncio.Event()

    def at_a(src, msg):
        seen[0] += 1
        if seen[0] in (WARM, WARM + READS // 2):
            marks.append(faults())
        if len(marks) == 2:
            done.set()
        else:
            a.send(2, msg)

    a = TcpMesh(1, addrs[1], {2: addrs[2]}, on_message=at_a)
    b = TcpMesh(2, addrs[2], {1: addrs[1]},
                on_message=lambda src, msg: b.send(1, msg))
    await a.start()
    await b.start()
    while a.connected_peers != (2,) or b.connected_peers != (1,):
        await asyncio.sleep(0.01)
    a.send(2, Command(data=b"x" * 16, client_id=1, seq=0))
    await asyncio.wait_for(done.wait(), 30)
    await a.close()
    await b.close()
    print((marks[1] - marks[0]) / READS)

asyncio.run(main([int(p) for p in sys.argv[1:]]))
"""


class TestReadBuffers:
    def test_the_read_size_is_asyncios(self):
        from asyncio import selector_events
        from repro.runtime.transport import _ASYNCIO_READ_BYTES
        assert (selector_events._SelectorSocketTransport.max_size
                == _ASYNCIO_READ_BYTES)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's mmap threshold")
    def test_a_socket_read_takes_no_page_fault(self):
        """asyncio allocates 256 KiB per read; left to glibc's default
        threshold that is an mmap and two page faults per read whenever
        the heap has no chunk that large free, as in a fresh process."""
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _PING_PONG, *map(str, free_ports(2))],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) < 0.5


class TestCorruptFrames:
    def test_corrupt_frame_closes_connection_with_counter(self):
        async def scenario():
            addrs = make_addrs([1, 2])
            reg = MetricsRegistry()
            inbox = []
            b = TcpMesh(2, addrs[2], {}, on_message=lambda s, m:
                        inbox.append(m))
            b.set_observability(reg)
            await b.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", addrs[2].port)
                # A valid frame, then unframeable garbage.
                writer.write(encode_frame(1, PrepareReq()))
                writer.write(b"\xff\xff\xff\xff garbage")
                await writer.drain()
                await wait_for(lambda: reg.counter_value(
                    "repro_messages_dropped_total",
                    src=2, reason="corrupt_frame") == 1)
                # The receiver closed the poisoned connection cleanly.
                data = await asyncio.wait_for(reader.read(), timeout=5.0)
                assert data == b""
                writer.close()
            finally:
                await b.close()
            return inbox

        inbox = asyncio.run(scenario())
        assert inbox == [PrepareReq()]  # the good frame still delivered

    def test_unhandled_task_exceptions_absent(self):
        # The regression this PR fixes: TransportError escaping
        # _handle_inbound surfaced via the loop exception handler.
        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: failures.append(ctx))
            addrs = make_addrs([1, 2])
            b = TcpMesh(2, addrs[2], {}, on_message=lambda s, m: None)
            await b.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", addrs[2].port)
            writer.write(b"\xff\xff\xff\xffgarbage")
            await writer.drain()
            await asyncio.sleep(0.2)
            writer.close()
            await b.close()
            # Give any pending task-exception callbacks a chance to fire.
            await asyncio.sleep(0.1)
            return failures

        assert asyncio.run(scenario()) == []


    def test_rejected_payload_closes_one_connection_not_the_node(
            self, caplog):
        """A stranger's well-formed frame the replica cannot use (a bare
        int where OmniPaxosServer expects an Envelope) is handled like a
        corrupt one: counted, that connection closed, no task exception
        (the handler's traceback is logged) — and the node goes on to
        form a cluster and commit."""
        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: failures.append(ctx))
            reg = MetricsRegistry()
            decided = {1: [], 2: [], 3: []}
            addrs, nodes = omni_nodes(decided, reg)
            await nodes[1].start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", addrs[1].port)
                writer.write(encode_frame(9, 5))
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
                assert reg.counter_value("repro_messages_dropped_total",
                                         src=1, reason="rejected") == 1
                await nodes[2].start()
                await nodes[3].start()
                await wait_for(lambda: all(
                    n.leader_pid == 1 and len(n.connected_peers) == 2
                    for n in nodes.values()))
                nodes[1].propose(Command(data=b"r", client_id=1, seq=0))
                await wait_for(lambda: all(d == [0]
                                           for d in decided.values()))
            finally:
                for node in nodes.values():
                    await node.stop()
            await asyncio.sleep(0.1)  # let task-exception callbacks fire
            return failures

        assert asyncio.run(scenario()) == []
        assert "expects Envelope" in caplog.text


class TestUnencodable:
    def test_entry_fails_in_propose_and_a_message_loses_only_itself(self):
        """An entry the wire has no schema for raises to the proposer
        before the replica sees it; any other unencodable message (stood
        in for by a bare set at the head of every outbox) is counted and
        the rest of the drain still goes out."""
        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: failures.append(ctx))
            reg = MetricsRegistry()
            decided = {1: [], 2: [], 3: []}
            _, nodes = omni_nodes(decided, reg)
            take_ready = nodes[1].replica.take_ready

            def with_a_set_first():
                ready = take_ready()
                return replace(ready, outbox=[(2, {1, 2}), *ready.outbox])

            nodes[1].replica.take_ready = with_a_set_first
            for node in nodes.values():
                await node.start()
            try:
                await wait_for(lambda: all(
                    n.leader_pid == 1 and len(n.connected_peers) == 2
                    for n in nodes.values()))
                good = Command(data=b"g", client_id=1, seq=0)
                with pytest.raises(TransportError, match="set"):
                    nodes[1].propose({1, 2})
                with pytest.raises(TransportError, match="complex"):
                    nodes[2].propose_batch([good, 3 + 4j])
                nodes[1].propose(good)
                await wait_for(lambda: all(d == [0]
                                           for d in decided.values()))
                assert reg.counter_value("repro_messages_dropped_total",
                                         src=1, reason="unencodable") >= 1
            finally:
                for node in nodes.values():
                    await node.stop()
            await asyncio.sleep(0.1)  # let task-exception callbacks fire
            return failures

        assert asyncio.run(scenario()) == []


class TestNoDecidedHandler:
    def test_decided_entries_leave_the_replica(self):
        """A node given no decided handler still takes every decided
        entry out of its replica and drops it, as a SimCluster with no
        observers does, so nothing queues in the replica without bound."""
        async def scenario():
            cc = ClusterConfig(0, (1, 2, 3))
            addrs = make_addrs(list(cc.servers))
            nodes = {p: RuntimeNode(
                OmniPaxosServer(OmniPaxosConfig(
                    pid=p, cluster=cc, hb_period_ms=40.0, initial_leader=1)),
                addrs[p], {q: a for q, a in addrs.items() if q != p},
                tick_ms=5.0)
                for p in (1, 2, 3)}
            for node in nodes.values():
                await node.start()
            try:
                await wait_for(lambda: nodes[1].is_leader)
                for seq in range(20):
                    nodes[1].propose(Command(b"x", client_id=1, seq=seq))
                await wait_for(lambda: all(
                    n.replica.status()["decided_idx"] >= 20
                    for n in nodes.values()))
                await asyncio.sleep(0.05)  # the drain after the last step
                return [n.replica.take_decided() for n in nodes.values()]
            finally:
                for node in nodes.values():
                    await node.stop()

        assert asyncio.run(scenario()) == [[], [], []]


class TestTeardown:
    def test_close_leaves_no_pending_tasks(self):
        async def scenario():
            addrs = make_addrs([1, 2])
            mesh = TcpMesh(1, addrs[1], {2: addrs[2]},
                           on_message=lambda s, m: None,
                           ping_interval_ms=20.0)
            await mesh.start()
            await asyncio.sleep(0.1)
            await mesh.close()
            others = [t for t in asyncio.all_tasks()
                      if t is not asyncio.current_task() and not t.done()]
            return others

        assert asyncio.run(scenario()) == []

    def test_close_emits_no_resource_warnings(self):
        async def scenario():
            addrs = make_addrs([1, 2])
            a = TcpMesh(1, addrs[1], {2: addrs[2]},
                        on_message=lambda s, m: None)
            b = TcpMesh(2, addrs[2], {1: addrs[1]},
                        on_message=lambda s, m: None)
            await a.start()
            await b.start()
            await wait_for(lambda: 2 in a.connected_peers)
            a.send(2, PrepareReq())
            await a.close()
            await b.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            asyncio.run(scenario())


class TestStorageFailure:
    @pytest.mark.parametrize("good_writes", [
        0,  # the append fails, inside the message handler
        1,  # the append goes through; the sync behind it fails, in the drain
    ])
    def test_storage_failure_stops_the_node_not_one_socket_reader(
            self, tmp_path, good_writes):
        """A follower whose disk fails must stop as a whole — replica
        crashed, flight recorder dumped, nothing sent from the failing
        cycle — instead of losing one inbound reader task and carrying on
        ticking. The other two keep deciding."""
        from repro.omni.faults import FaultyStorage
        from repro.omni.messages import Accepted
        from repro.omni.storage import InMemoryStorage

        dump = tmp_path / "node2.flight.jsonl"

        async def scenario():
            failures = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: failures.append(ctx))
            cc = ClusterConfig(0, (1, 2, 3))
            addrs = make_addrs(list(cc.servers))
            faulty = FaultyStorage(InMemoryStorage())
            decided = {p: [] for p in cc.servers}
            nodes = {}
            for p in cc.servers:
                kwargs = {}
                if p == 2:
                    kwargs["storage_factory"] = lambda cid: faulty
                server = OmniPaxosServer(OmniPaxosConfig(
                    pid=p, cluster=cc, hb_period_ms=40.0, initial_leader=1,
                    **kwargs))
                nodes[p] = RuntimeNode(
                    server, addrs[p],
                    {q: a for q, a in addrs.items() if q != p},
                    tick_ms=5.0,
                    on_decided=lambda i, e, p=p: decided[p].append(e.seq),
                    obs=MetricsRegistry() if p == 2 else None,
                    flight_dump_path=str(dump) if p == 2 else None)
            for node in nodes.values():
                await node.start()
            try:
                await wait_for(lambda: all(
                    n.leader_pid == 1 and len(n.connected_peers) == 2
                    for n in nodes.values()))
                nodes[1].propose(Command(data=b"s", client_id=1, seq=0))
                await wait_for(lambda: all(d == [0]
                                           for d in decided.values()))
                sent_by_2 = []
                real_send = nodes[2]._mesh.send
                nodes[2]._mesh.send = lambda dst, msg: (
                    sent_by_2.append(msg), real_send(dst, msg))
                faulty.fail_after(good_writes)
                nodes[1].propose(Command(data=b"s", client_id=1, seq=1))
                await wait_for(
                    lambda: nodes[2].status()["phase"] == "crashed")
                await nodes[2].stop()  # joins the stop already under way
                assert nodes[2].connected_peers == ()
                assert not any(isinstance(m.payload, Accepted)
                               for m in sent_by_2)
                # The majority carries on without it.
                nodes[1].propose(Command(data=b"s", client_id=1, seq=2))
                await wait_for(lambda: decided[1] == decided[3] == [0, 1, 2])
                assert decided[2] == [0]
            finally:
                for node in nodes.values():
                    await node.stop()
            await asyncio.sleep(0.1)  # let task-exception callbacks fire
            return failures

        assert asyncio.run(scenario()) == []
        assert dump.exists() and dump.stat().st_size > 0
