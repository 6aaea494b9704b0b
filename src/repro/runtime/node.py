"""RuntimeNode: drive one replica against real time and TCP.

The node owns a replica and a :class:`~repro.runtime.transport.TcpMesh`,
pumps ticks on a real-time interval, and exposes an asyncio-friendly
``propose`` plus a decided-entry callback. All timestamps handed to the
replica are milliseconds from ``loop.time()``, so protocol timeouts behave
exactly as configured.

Two health-observatory surfaces (both opt-in):

- ``admin`` — a line-delimited JSON admin endpoint: each request line is
  ``{"cmd": "status" | "metrics" | "flight", ...}`` (or a bare verb
  string), each response one JSON line. ``status`` returns the replica's
  :meth:`~repro.replica.Replica.status` view plus transport facts;
  ``flight`` with a ``path`` dumps the flight recorder to disk.
- ``ping_interval_ms`` — transport RTT probing; samples land in the
  ``repro_link_rtt_ms`` histogram and feed the replica's gray-failure
  detector when it has one.

Everything the replica wants out — messages and decided entries — leaves
in :meth:`RuntimeNode._drain`: once after each socket read's batch of
messages, and once per event-loop iteration for whatever proposals, ticks
and restored sessions that iteration handled. The replica writes its
storage when it hands out (:meth:`~repro.replica.ReplicaHooks.take_ready`),
so all the records one socket read or one client burst produced share one
write and one fsync — and it builds its replication messages at that
hand-out, so the proposals of one iteration share one ``AcceptDecide`` /
``AppendEntries`` per follower.

The loop never waits on the disk. A hand-out that owes an fsync sends its
``early`` messages (a leader's ``AcceptDecide``) at once and holds the
rest; the fsync runs on the node's one disk thread, at most one at a time,
so fsyncs complete in order and one fsync covers every write made while
the one before it ran. When it completes, the held messages and decided
entries it covers leave, in the order they were handed out. A hand-out
that owes nothing leaves in the same drain, unless an earlier one still
waits: then it waits behind it.

With an enabled registry the node also keeps an always-on
:class:`~repro.obs.flight.FlightRecorder`; if the tick loop dies with an
unexpected exception, or the replica's storage fails, the recorder dumps
the final moments to ``flight_dump_path``. A storage failure stops the
whole node (fail-recovery model): a replica that could not persist must
not keep ticking and answering on state it does not have on disk.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import queue
import threading
from collections import Counter, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.encoding import check_encodable
from repro.errors import ConfigError, StorageError, TransportError
from repro.obs.exporters import metrics_snapshot
from repro.obs.flight import FlightRecorder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.replica import Ready, Replica
from repro.runtime.transport import PeerAddress, TcpMesh

logger = logging.getLogger(__name__)

DecidedHandler = Callable[[int, Any], None]


class _DiskThread:
    """A node's one disk thread: runs each job's fsyncs in the order the
    jobs came, then calls the job's ``done(error)`` on the event loop."""

    def __init__(self, name: str, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    def submit(self, fsyncs: Tuple[Callable[[], None], ...],
               done: Callable[[Optional[Exception]], None]) -> None:
        self._jobs.put((fsyncs, done))

    def close(self) -> None:
        """Finish the jobs submitted so far, then end the thread."""
        self._jobs.put(None)
        self._thread.join()

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            fsyncs, done = job
            error = None
            try:
                for fsync in fsyncs:
                    fsync()
            except Exception as exc:  # the loop decides what it means
                error = exc
            try:
                self._loop.call_soon_threadsafe(done, error)
            except RuntimeError:
                return  # the loop is closed: nobody is waiting


def _drop_decided(idx: int, entry: Any) -> None:
    """The decided handler of a node given none."""


class RuntimeNode:
    """One live server process: replica + transport + timer pump."""

    def __init__(
        self,
        replica: Replica,
        listen: PeerAddress,
        peers: Dict[int, PeerAddress],
        tick_ms: float = 10.0,
        on_decided: Optional[DecidedHandler] = None,
        obs: Optional[MetricsRegistry] = None,
        admin: Optional[Tuple[str, int]] = None,
        ping_interval_ms: Optional[float] = None,
        flight_capacity: int = 512,
        flight_dump_path: Optional[str] = None,
    ):
        self._replica = replica
        self._tick_s = tick_ms / 1000.0
        #: Decided entries always leave the replica; with no handler they
        #: are dropped here, as a SimCluster with no observers drops them.
        self._on_decided = on_decided or _drop_decided
        self._obs = obs if obs is not None else NULL_REGISTRY
        self._mesh = TcpMesh(
            pid=replica.pid,
            listen=listen,
            peers=peers,
            on_message=self._handle_message,
            on_session_restored=self._handle_session_restored,
            on_batch_end=self._drain,
            ping_interval_ms=ping_interval_ms,
            on_rtt=self._handle_rtt,
        )
        self._mesh.set_observability(self._obs)
        replica.set_observability(self._obs)
        self._admin_addr = admin
        self._admin_server: Optional[asyncio.AbstractServer] = None
        self._flight_dump_path = flight_dump_path
        self.flight: Optional[FlightRecorder] = None
        if self._obs.enabled:
            self.flight = FlightRecorder(capacity=flight_capacity)
            self._obs.add_sink(self.flight)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Task] = None
        self._drain_handle: Optional[asyncio.Handle] = None
        self._running = False
        #: Last sampled depth per queue; None until the sampler is attached.
        self._queue_memo: Optional[Dict[str, int]] = None
        #: The disk thread, started by the first fsync a hand-out owes.
        self._disk: Optional[_DiskThread] = None
        #: Hand-outs whose fsync has not started yet.
        self._owed: List[Ready] = []
        #: Resolved when the fsync in flight, if any, has ended.
        self._syncing: Optional[asyncio.Future] = None
        #: Writes handed out so far that owe an fsync, and how many of them
        #: completed fsyncs cover: a held batch waits for an fsync that
        #: started after the write it is numbered with.
        self._written = self._durable = 0
        #: ``(write number, messages, decided entries)`` waiting on fsyncs.
        self._held: Deque[Tuple[int, List[Tuple[int, Any]],
                                List[Tuple[int, Any]]]] = deque()
        #: Held messages per destination: an early message waits behind them.
        self._held_to: Counter = Counter()

    # ------------------------------------------------------------------

    @property
    def replica(self) -> Replica:
        return self._replica

    @property
    def pid(self) -> int:
        return self._replica.pid

    @property
    def is_leader(self) -> bool:
        return self._replica.is_leader

    @property
    def leader_pid(self) -> Optional[int]:
        return self._replica.leader_pid

    @property
    def connected_peers(self) -> Tuple[int, ...]:
        return self._mesh.connected_peers

    @property
    def admin_address(self) -> Optional[Tuple[str, int]]:
        """The bound admin endpoint ``(host, port)``, once started."""
        if self._admin_server is None or not self._admin_server.sockets:
            return None
        host, port = self._admin_server.sockets[0].getsockname()[:2]
        return host, port

    def _now_ms(self) -> float:
        assert self._loop is not None
        return self._loop.time() * 1000.0

    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start transport, the tick pump, and the admin endpoint."""
        if self._running:
            return
        self._running = True
        self._loop = asyncio.get_running_loop()
        # The registry's clock follows this node's monotonic ms clock, so
        # runtime event timestamps are comparable to the replica's `now_ms`.
        self._obs.set_clock(self._now_ms)
        await self._mesh.start()
        if self._admin_addr is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_admin, self._admin_addr[0], self._admin_addr[1]
            )
        self._step(self._replica.start)
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def stop(self) -> None:
        self._running = False
        stopping = self._stop_task
        if stopping is not None and stopping is not asyncio.current_task():
            await stopping  # a storage failure is already stopping us
            return
        if self._tick_task is not None:
            self._tick_task.cancel()
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
        if self._syncing is not None:
            # The storage may be closed once we return: not under an fsync.
            await self._syncing
        self._drop_held()
        if self._disk is not None:
            self._disk.close()  # idle: joins at once
            self._disk = None
        await self._mesh.close()

    def propose(self, entry: Any) -> None:
        """Propose a client entry at this server. An entry the wire
        cannot carry raises :class:`TransportError` here, not after the
        leader has appended an entry it can never replicate. The replica
        appends (or refuses) inside this call; the entry is on the wire
        after the next :meth:`_drain`, in one message per follower with
        everything else proposed this event-loop iteration."""
        check_encodable(entry)
        self._step(self._replica.propose, entry)

    def propose_batch(self, entries: List[Any]) -> None:
        check_encodable(*entries)
        self._step(self._replica.propose_batch, entries)

    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The replica's health view plus this node's transport facts."""
        status = self._replica.status()
        status["connected_peers"] = list(self._mesh.connected_peers)
        status["link_rtt_ms"] = {
            str(peer): round(rtt, 3)
            for peer, rtt in sorted(self._mesh.link_rtt_ms.items())
        }
        if self.flight is not None:
            status["flight"] = self.flight.as_dict()
        return status

    def dump_flight(self, path: str) -> int:
        """Write the flight recorder's retained history to ``path``;
        returns the number of event lines (0 with observability off)."""
        if self.flight is None:
            return 0
        return self.flight.dump_jsonl(path, self._obs)

    def attach_queue_sampler(self) -> None:
        """From now on every tick samples the transport's
        write-buffer/reconnect backlog and the replica's staging-queue
        depths into ``repro_queue_depth`` gauges and ``QueueDepthSampled``
        events (the ``queue:tcp_*`` lanes of ``repro-obs series``)."""
        if not self._obs.enabled:
            raise ConfigError(
                "attach_queue_sampler needs RuntimeNode(..., obs=<enabled "
                "registry>) — the samples are events, and the null "
                "registry drops them"
            )
        self._queue_memo = {}

    def _sample_queues(self) -> None:
        from repro.obs import prof
        prof.sample_queue_depths(self._obs, self._mesh.queue_depths(),
                                 pid=self.pid, last=self._queue_memo)
        prof.sample_queue_depths(self._obs, self._replica.queue_depths(),
                                 pid=self.pid, last=self._queue_memo)

    # ------------------------------------------------------------------

    async def _tick_loop(self) -> None:
        try:
            while self._running:
                await asyncio.sleep(self._tick_s)
                with contextlib.suppress(StorageError):  # node is stopping
                    self._step(self._replica.tick)
                if self._queue_memo is not None:
                    self._sample_queues()
        except asyncio.CancelledError:
            raise
        except Exception:
            # The node is about to die unexpectedly: preserve the final
            # moments for post-mortem before the exception propagates.
            self._dump_flight_on_death()
            raise

    def _dump_flight_on_death(self) -> None:
        if self.flight is not None and self._flight_dump_path is not None:
            with contextlib.suppress(OSError):
                self.dump_flight(self._flight_dump_path)

    def _handle_message(self, src: int, payload: Any) -> None:
        # No drain scheduled: the mesh calls _drain itself once it has
        # delivered every message of this socket read.
        if not self._running:
            return  # stopped, or stopping: a dead node hears nothing
        try:
            self._replica.on_message(src, payload, self._now_ms())
        except StorageError:
            # Stop the node — and do not let the error kill the
            # transport's reader task for this one connection instead.
            self._storage_failed()

    def _handle_session_restored(self, peer: int) -> None:
        with contextlib.suppress(StorageError):
            self._step(self._replica.on_session_drop, peer)

    def _handle_rtt(self, peer: int, rtt_ms: float) -> None:
        detector = self._replica.gray_detector
        if detector is not None:
            detector.observe_rtt(peer, rtt_ms)

    def _step(self, method: Callable[..., None], *args: Any) -> None:
        """One call into the replica at the current time, then a drain on
        the next event-loop iteration — one however many steps this
        iteration takes."""
        try:
            method(*args, self._now_ms())
        except StorageError:
            self._storage_failed()
            raise
        if self._drain_handle is None:
            assert self._loop is not None
            self._drain_handle = self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Hand everything the replica queued to the mesh and the decided
        handler, or hold it for the fsync it waits on; then write the
        sockets.

        Runs when the mesh has delivered the last message of a socket
        read, and on the iteration after any other step (a proposal, a
        tick, a restored session). ``take_ready`` writes the storage once
        however many calls fed this drain, and is where the replica turns
        the proposals since the last drain into one message per follower.
        A handler that proposes schedules the next drain itself.
        """
        if self._drain_handle is not None:
            # Everything queued so far leaves now; a drain still scheduled
            # (we were called at the end of an inbound batch) has nothing
            # left to do.
            self._drain_handle.cancel()
            self._drain_handle = None
        if not self._running:
            return
        try:
            ready = self._replica.take_ready()
        except StorageError:
            self._storage_failed()
            return
        if ready.fsyncs:
            self._written += 1
            self._owed.append(ready)
        elif self._durable == self._written:
            # Owes nothing, waits on nothing: out now.
            self._release(ready.outbox, ready.decided)
            return
        sent = False
        batch = []
        for dst, msg in ready.early:
            if self._held_to[dst]:
                batch.append((dst, msg))
            else:
                self._send(dst, msg)
                sent = True
        batch += ready.outbox
        if batch or ready.decided:
            self._held.append((self._written, batch, ready.decided))
            self._held_to.update(dst for dst, _ in batch)
        if sent:
            self._mesh.flush()
        if self._syncing is None and self._owed:
            self._start_fsync()

    def _send(self, dst: int, msg: Any) -> None:
        try:
            self._mesh.send(dst, msg)
        except TransportError:
            # Not an entry (``propose`` checks those): e.g. the state of a
            # custom snapshotter. Lose this message like a partitioned link
            # would, not the whole drain.
            self._obs.counter("repro_messages_dropped_total", src=self.pid,
                              reason="unencodable").inc()
            logger.exception(
                "node %d: cannot encode %s for node %d", self.pid,
                type(getattr(msg, "payload", msg)).__name__, dst)

    def _release(self, outbox: List[Tuple[int, Any]],
                 decided: List[Tuple[int, Any]]) -> None:
        for dst, msg in outbox:
            self._send(dst, msg)
        for idx, entry in decided:
            self._on_decided(idx, entry)
        if outbox:
            self._mesh.flush()

    def _start_fsync(self) -> None:
        """Run the fsyncs every hand-out owes so far, once per storage, on
        the disk thread."""
        owed, self._owed = self._owed, []
        fsyncs = tuple(dict.fromkeys(
            fsync for ready in owed for fsync in ready.fsyncs))
        assert self._loop is not None
        if self._disk is None:
            self._disk = _DiskThread(f"repro-disk-{self.pid}", self._loop)
        self._syncing = self._loop.create_future()
        self._disk.submit(fsyncs, partial(self._fsynced, self._written, owed))

    def _fsynced(self, covers: int, owed: List[Ready],
                 error: Optional[Exception]) -> None:
        """On the loop: the fsync covering writes up to ``covers`` ended."""
        syncing, self._syncing = self._syncing, None
        assert syncing is not None
        syncing.set_result(None)
        if not self._running:
            return  # stopped or crashed: what it held dies unsent
        if error is not None:
            if not isinstance(error, StorageError):
                logger.error("node %d: fsync failed", self.pid,
                             exc_info=error)
            self._storage_failed()
            return
        self._durable = covers
        while self._held and self._held[0][0] <= covers:
            _, batch, decided = self._held.popleft()
            self._held_to.subtract(dst for dst, _ in batch)
            self._release(batch, decided)
        try:
            for ready in owed:
                if ready.synced is not None:
                    ready.synced()
        except StorageError:
            self._storage_failed()
            return
        # Hands out what counting the leader's own acceptance decided, and
        # starts the fsync the writes made meanwhile owe.
        self._drain()

    def _drop_held(self) -> None:
        self._owed.clear()
        self._held.clear()
        self._held_to.clear()

    def _storage_failed(self) -> None:
        """The replica could not persist: crash it and stop the node.

        By the fail-recovery model a server that cannot write must not go
        on ticking and answering from state it does not have on disk; what
        it had queued dies with it (``crash`` discards the outbox unsynced).
        """
        if not self._running:
            return
        self._running = False
        self._replica.crash()
        self._drop_held()
        self._dump_flight_on_death()
        assert self._loop is not None
        self._stop_task = self._loop.create_task(self.stop())

    # -- admin endpoint ------------------------------------------------------

    def _admin_response(self, request: Any) -> Dict[str, Any]:
        if isinstance(request, str):
            request = {"cmd": request}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        cmd = request.get("cmd", "status")
        if cmd == "status":
            return {"ok": True, "status": self.status()}
        if cmd == "metrics":
            return {"ok": True, "metrics": metrics_snapshot(self._obs)}
        if cmd == "flight":
            if self.flight is None:
                return {"ok": False,
                        "error": "flight recorder off (observability "
                                 "disabled on this node)"}
            if "path" in request:
                return {"ok": False,
                        "error": "flight writes no file a client names; a "
                                 "node dumps to its own flight_dump_path"}
            return {"ok": True, "flight": self.flight.as_dict()}
        return {"ok": False,
                "error": f"unknown command {cmd!r}; "
                         "try status, metrics, or flight"}

    async def _handle_admin(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            while not self._closed_admin():
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if text.isalpha():
                    # Bare-verb shorthand: `status` over netcat, no quotes.
                    response = self._admin_response(text)
                else:
                    try:
                        request = json.loads(text)
                    except json.JSONDecodeError:
                        response = {"ok": False,
                                    "error": "invalid JSON request"}
                    else:
                        response = self._admin_response(request)
                writer.write(
                    (json.dumps(response, sort_keys=True) + "\n").encode()
                )
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    def _closed_admin(self) -> bool:
        return not self._running
