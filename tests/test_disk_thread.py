"""The disk thread of ``RuntimeNode``: the event loop never waits on an
fsync.

Three live nodes on ``FileStorage(sync=True)`` over localhost TCP, with
``os.fsync`` patched to record what runs it and when. Where a test needs
an fsync to take a while, the patch sleeps as well: ``time.sleep``
releases the interpreter lock the way ``os.fsync`` does, and a fixed
duration makes the overlap a count rather than a race.
"""

import asyncio
import os
import threading
import time

from repro.omni.entry import Command
from repro.omni.messages import AcceptDecide, Accepted, Envelope
from repro.omni.storage import FileStorage

from tests.test_durability_barrier import start_settled_cluster
from tests.test_wire_runtime import wait_for


def disk_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-disk-")]


class Disks:
    """One ``FileStorage(sync=True)`` per server and a patched
    ``os.fsync`` that records ``(server, thread, started, ended)``."""

    def __init__(self, tmp_path, monkeypatch, sleep_s=0.0):
        self.tmp_path = tmp_path
        self.storages = {}
        self.owners = {}
        self.calls = []
        self.sleep_s = sleep_s
        self.fail = set()
        real_fsync = os.fsync

        def fsync(fd):
            owner = self.owners.get(fd)
            started = time.monotonic()
            if owner in self.fail:
                raise OSError(5, "injected fsync failure")
            if self.sleep_s:
                time.sleep(self.sleep_s)
            real_fsync(fd)
            self.calls.append((owner, threading.current_thread(), started,
                               time.monotonic()))

        monkeypatch.setattr(os, "fsync", fsync)

    def path(self, pid):
        return str(self.tmp_path / f"{pid}.wal")

    def storage_of(self, pid):
        storage = FileStorage(self.path(pid), sync=True)
        self.storages[pid] = storage
        self.owners[storage._file.fileno()] = pid
        return storage

    def close(self):
        for storage in self.storages.values():
            storage.close()


async def stop_all(nodes):
    for node in nodes.values():
        await node.stop()


def decided_everywhere(decided, idx):
    return lambda: all(idx in seen for seen in decided.values())


def test_every_fsync_runs_off_the_loop_thread(tmp_path, monkeypatch):
    disks = Disks(tmp_path, monkeypatch)
    decided = {p: set() for p in (1, 2, 3)}

    async def scenario():
        nodes = await start_settled_cluster(
            disks.storage_of, lambda p, idx: decided[p].add(idx))
        try:
            leader = nodes[nodes[1].leader_pid]
            for seq in range(5):
                leader.propose(Command(data=b"t", client_id=1, seq=seq))
                await wait_for(decided_everywhere(decided, seq))
            calls = list(disks.calls)  # close() below fsyncs on this thread
        finally:
            await stop_all(nodes)
            disks.close()
        return calls, threading.current_thread()

    calls, loop_thread = asyncio.run(scenario())
    assert {owner for owner, *_ in calls} == {1, 2, 3}
    assert len(calls) >= 15, "one fsync per server per proposal"
    assert all(thread is not loop_thread and
               thread.name.startswith("repro-disk-")
               for _, thread, _, _ in calls)


def test_a_paced_proposal_overlaps_all_three_fsyncs(tmp_path, monkeypatch):
    """Both followers' fsyncs are in flight at once, and the leader's
    starts before any ``Accepted`` reaches it: the commit waits for the
    leader and the first follower, not for the three in series."""
    disks = Disks(tmp_path, monkeypatch)
    decided = {p: set() for p in (1, 2, 3)}

    async def scenario():
        nodes = await start_settled_cluster(
            disks.storage_of, lambda p, idx: decided[p].add(idx))
        try:
            leader = nodes[nodes[1].leader_pid]
            leader.propose(Command(data=b"w", client_id=1, seq=0))  # warm up
            await wait_for(decided_everywhere(decided, 0))
            await asyncio.sleep(0.1)
            accepted_at = []
            server = leader.replica
            on_message = server.on_message

            def stamped(src, msg, now_ms):
                if isinstance(msg, Envelope) and \
                        isinstance(msg.payload, Accepted):
                    accepted_at.append(time.monotonic())
                on_message(src, msg, now_ms)

            server.on_message = stamped
            disks.sleep_s = 0.05
            del disks.calls[:]
            leader.propose(Command(data=b"p", client_id=1, seq=1))
            await wait_for(decided_everywhere(decided, 1))
            disks.sleep_s = 0.0
            calls = list(disks.calls)
        finally:
            await stop_all(nodes)
            disks.close()
        return leader.pid, calls, accepted_at

    leader, calls, accepted_at = asyncio.run(scenario())
    spans = {}
    for owner, _, started, ended in calls:
        spans.setdefault(owner, (started, ended))  # the proposal's own
    assert set(spans) == {1, 2, 3}
    (a_start, a_end), (b_start, b_end) = [
        span for owner, span in spans.items() if owner != leader]
    assert max(a_start, b_start) < min(a_end, b_end), \
        "both followers' fsyncs in flight at once"
    assert accepted_at and spans[leader][0] < accepted_at[0], \
        "the leader's fsync started before any Accepted reached it"


def test_stop_waits_for_the_fsync_in_flight(tmp_path, monkeypatch):
    disks = Disks(tmp_path, monkeypatch)
    decided = {p: set() for p in (1, 2, 3)}

    async def scenario():
        nodes = await start_settled_cluster(
            disks.storage_of, lambda p, idx: decided[p].add(idx))
        assert disk_threads(), "the settled cluster wrote its promises"
        leader = nodes[nodes[1].leader_pid]
        try:
            disks.sleep_s = 0.2
            del disks.calls[:]
            started = time.monotonic()
            leader.propose(Command(data=b"s", client_id=1, seq=0))
            await asyncio.sleep(0.05)  # the leader's fsync is sleeping
        finally:
            await stop_all(nodes)
        stopped = time.monotonic()
        calls = list(disks.calls)
        disks.sleep_s = 0.0
        disks.close()
        return leader.pid, started, stopped, calls, disk_threads()

    leader, started, stopped, calls, left = asyncio.run(scenario())
    ended = [end for owner, _, _, end in calls if owner == leader]
    assert ended and stopped >= ended[0] >= started + 0.2
    assert left == []
    reopened = FileStorage(disks.path(leader))
    try:
        assert Command(data=b"s", client_id=1, seq=0) in \
            reopened.get_entries(0, reopened.log_len())
    finally:
        reopened.close()


def test_a_failed_fsync_stops_the_node_and_sends_nothing_it_held(
        tmp_path, monkeypatch):
    disks = Disks(tmp_path, monkeypatch)
    decided = {p: set() for p in (1, 2, 3)}

    async def scenario():
        nodes = await start_settled_cluster(
            disks.storage_of, lambda p, idx: decided[p].add(idx))
        leader = nodes[nodes[1].leader_pid]
        sent = []
        try:
            real_send = leader._mesh.send

            def send(dst, msg):
                sent.append(type(msg.payload))
                real_send(dst, msg)

            leader._mesh.send = send
            disks.fail.add(leader.pid)
            leader.propose(Command(data=b"f", client_id=1, seq=0))
            await wait_for(lambda: leader._stop_task is not None
                           and leader._stop_task.done())
            await asyncio.sleep(0.1)
            status = leader.status()
        finally:
            await stop_all(nodes)
            disks.fail.clear()
            disks.close()
        return leader.pid, sent, status

    leader, sent, status = asyncio.run(scenario())
    assert status["phase"] == "crashed"
    assert sent == [AcceptDecide, AcceptDecide], \
        "only the early AcceptDecides left; what the fsync held died"
    assert 0 not in decided[leader]
