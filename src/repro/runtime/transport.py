"""Asyncio TCP mesh transport.

Each server listens on its own address and dials every peer. A single
outbound connection per peer carries this server's messages (TCP gives the
session-based FIFO perfect link the protocols assume, paper section 3);
inbound connections are receive-only. Broken connections reconnect with
*decorrelated-jitter* backoff — pure exponential backoff would make every
peer of a healed partition retry in lockstep, re-colliding on each wave —
but an inbound connection ends every back-off: a peer that dials in is
listening again, so each dial loop retries at once instead of leaving the
return leg down for the rest of its delay. A re-established *outbound*
session triggers the session-drop callback so protocols can run their
PrepareReq handling (section 4.1.3). Closing the mesh closes the inbound
connections too, so peers see the session end at once, and nothing that
arrives afterwards is delivered.

Wire path: frames are encoded and decoded by :mod:`repro.runtime.codec`,
the only module that knows the format. Outbound frames are *coalesced*
per peer: ``send`` stages bytes and a single ``call_soon``-scheduled
flush writes every staged frame for a peer in one ``writer.write`` —
with TCP_NODELAY (the
asyncio default) per-message writes are per-packet and per-reader-wakeup,
so batching them is the dominant wall-clock win. Staged bytes above
``coalesce_bytes`` flush immediately; ``RuntimeNode`` also calls
:meth:`flush` at the end of each of its drains. Writes are bounded: a message that
would take a peer's asyncio write buffer plus staged bytes above
``max_write_buffer_bytes`` is dropped and counted under
``repro_messages_dropped_total{reason="backpressure"}`` — the semantics
of a partitioned link, which every protocol already tolerates — unless
nothing is queued toward that peer (one frame, however large, always
gets through an idle link). Inbound,
a connection whose bytes do not frame (``reason="corrupt_frame"``) or
whose decoded payload makes the owner's handler raise
(``reason="rejected"``) is counted and closed; the node keeps running.
asyncio allocates 256 KiB for every socket read; importing this module
makes the allocator serve that from its heap every time
(:func:`_keep_read_buffers_on_the_heap`).
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.encoding import register_message
from repro.errors import TransportError
from repro.obs.registry import Instrumented
from repro.runtime.codec import FrameDecoder, FrameEncoder, encode_frame

logger = logging.getLogger(__name__)

MessageHandler = Callable[[int, Any], None]
SessionHandler = Callable[[int], None]

#: Flush a peer's staging buffer as soon as it holds this many bytes
#: (roughly two TCP segments' worth of frames per syscall at the default).
DEFAULT_COALESCE_BYTES = 32 * 1024

#: Per-peer high-water mark: a message that would take staged +
#: asyncio-buffered bytes above this is dropped instead of queueing
#: unboundedly toward a dead-but-undetected peer. A message with nothing
#: queued ahead of it is always admitted (``MAX_FRAME_BYTES`` bounds it).
DEFAULT_MAX_WRITE_BUFFER_BYTES = 4 * 1024 * 1024

#: What asyncio's selector transport asks ``recv`` for on every socket
#: read (``_SelectorSocketTransport.max_size``), as a fresh ``bytes``.
_ASYNCIO_READ_BYTES = 256 * 1024

#: Reconnect back-off: the first delay, and the cap the decorrelated
#: jitter never draws past (seconds).
RECONNECT_INITIAL_S = 0.050
RECONNECT_MAX_S = 2.0


def _keep_read_buffers_on_the_heap() -> None:
    """Make the 256 KiB ``bytes`` asyncio allocates for every socket read
    cost the same all through the process's life.

    glibc serves a request of 128 KiB or more that no free chunk of its
    heap fits with ``mmap``, and asyncio shrinks the buffer to the bytes
    read before freeing it: ``mmap``, two page faults, ``mremap`` and
    ``munmap`` per read, about 15 us where the heap takes one. Whether a
    chunk fits depends on everything else the process has allocated and
    freed, so a node flips between the two for seconds at a time (a bare
    echo loop: 18 k or 55 k round trips/s; a paced commit on loopback:
    0.32 or 0.21 ms). The threshold is dynamic: it rises to the size of
    any mmapped block that is freed whole, which a shrunk read buffer
    never is. Freeing one larger block once therefore keeps every later
    read buffer on the heap, where the same chunk is recycled. It is
    process-wide (the allocator is) and does nothing under an allocator
    without such a threshold.
    """
    bytes(4 * _ASYNCIO_READ_BYTES)


# Once per process, before anything here reads a socket: the threshold
# never falls again.
_keep_read_buffers_on_the_heap()


def decorrelated_jitter(rng: random.Random, base_s: float, prev_s: float,
                        cap_s: float) -> float:
    """Next reconnect delay: ``min(cap, uniform(base, prev * 3))``.

    The AWS "decorrelated jitter" scheme: each delay is drawn anew from a
    range anchored at the base and stretched by the previous delay, so two
    peers that lost their sessions at the same instant desynchronize after
    one round instead of hammering the healed peer in lockstep forever.
    """
    return min(cap_s, rng.uniform(base_s, max(prev_s * 3.0, base_s)))


@dataclass(frozen=True)
class PeerAddress:
    """Where a peer listens."""

    pid: int
    host: str
    port: int


@dataclass(frozen=True)
class TransportPing:
    """Transport-level RTT probe; answered in :meth:`_handle_inbound`,
    never surfaced to the replica. ``sent_ms`` is the sender's event-loop
    clock, echoed back so only the sender's clock is involved."""

    sent_ms: float


@dataclass(frozen=True)
class TransportPong:
    """Echo of a :class:`TransportPing` carrying the original send time."""

    sent_ms: float


# Registered here rather than in the schema table of `repro.encoding`,
# which sits below the runtime and may not import it; 0x2E/0x2F are
# reserved for these two in its tag map.
register_message(0x2E, TransportPing)
register_message(0x2F, TransportPong)


class TcpMesh(Instrumented):
    """The full-mesh TCP transport of one server."""

    def __init__(
        self,
        pid: int,
        listen: PeerAddress,
        peers: Dict[int, PeerAddress],
        on_message: MessageHandler,
        on_session_restored: Optional[SessionHandler] = None,
        on_batch_end: Optional[Callable[[], None]] = None,
        rng: Optional[random.Random] = None,
        ping_interval_ms: Optional[float] = None,
        on_rtt: Optional[Callable[[int, float], None]] = None,
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        max_write_buffer_bytes: int = DEFAULT_MAX_WRITE_BUFFER_BYTES,
    ):
        if listen.pid != pid:
            raise TransportError("listen address pid mismatch")
        self._pid = pid
        self._listen = listen
        self._peers = dict(peers)
        self._on_message = on_message
        self._on_session_restored = on_session_restored
        #: Called once after the messages of one socket read were all
        #: handed to ``on_message`` — where the owner acts on the batch.
        self._on_batch_end = on_batch_end
        #: Jitter source (injectable for deterministic tests); seeded from
        #: the pid by default so each server draws an independent stream.
        self._rng = rng if rng is not None else random.Random(pid)
        self._ping_interval = (
            None if ping_interval_ms is None else ping_interval_ms / 1000.0
        )
        self._on_rtt = on_rtt
        self._encoder = FrameEncoder()
        self._coalesce_bytes = coalesce_bytes
        self._max_write_buffer = max_write_buffer_bytes
        #: Per-peer staging buffers (bytes) and staged-frame counts; one
        #: flush writes a peer's whole buffer in a single syscall.
        self._staged: Dict[int, bytearray] = {}
        self._staged_frames: Dict[int, int] = {}
        #: The scheduled per-iteration flush, while one is pending.
        self._flush_handle: Optional[asyncio.Handle] = None
        #: Latest measured round trip per peer (ms), ping-loop sampled.
        self.link_rtt_ms: Dict[int, float] = {}
        self._ping_task: Optional[asyncio.Task] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        #: Accepted connections, closed with the mesh: the listening
        #: server's ``close`` leaves them open.
        self._inbound_writers: Set[asyncio.StreamWriter] = set()
        self._dial_tasks: Dict[int, asyncio.Task] = {}
        #: Resolved, then replaced, by every accepted connection; a dial
        #: loop backs off until its delay passes or this resolves.
        self._dialled_in: Optional[asyncio.Future] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False

    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Begin listening and dialing all peers."""
        self._dialled_in = asyncio.get_running_loop().create_future()
        self._server = await asyncio.start_server(
            self._handle_inbound, self._listen.host, self._listen.port
        )
        for pid in self._peers:
            self._dial_tasks[pid] = asyncio.ensure_future(self._dial_loop(pid))
        if self._ping_interval is not None:
            self._ping_task = asyncio.ensure_future(self._ping_loop())

    async def close(self) -> None:
        self._closed = True
        tasks = list(self._dial_tasks.values())
        if self._ping_task is not None:
            tasks.append(self._ping_task)
        for task in tasks:
            task.cancel()
        # Await the cancelled tasks so teardown leaves no pending-task or
        # "exception was never retrieved" noise behind.
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self.flush()
        writers = [*self._writers.values(), *self._inbound_writers]
        for writer in writers:
            writer.close()
        for writer in writers:
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()
        self._inbound_writers.clear()
        self._staged.clear()
        self._staged_frames.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def send(self, dst: int, payload: Any) -> None:
        """Best-effort send; messages to unconnected peers, or behind a
        write buffer already at its high-water mark, are dropped (exactly
        like messages over a partitioned link).

        The frame is *staged*, not written: a flush scheduled on the
        current event-loop iteration (or an earlier size-threshold /
        end-of-drain flush) writes every frame staged for ``dst`` in one
        syscall. Per-peer FIFO is preserved — frames drain in stage order.
        """
        writer = self._writers.get(dst)
        if writer is None and not self._obs.enabled:
            return
        frame = self._encoder.encode(self._pid, payload)
        if self._obs.enabled:
            # Accounted even for unconnected peers — like SimNetwork, which
            # bills dropped messages to the sender too.
            inner = getattr(payload, "payload", payload)
            self._obs.counter("repro_messages_sent_total", src=self._pid,
                              kind=type(inner).__name__).inc()
            self._obs.counter("repro_bytes_sent_total",
                              src=self._pid).inc(len(frame))
        if writer is None:
            # Same vocabulary as SimNetwork's drop accounting, so sim and
            # runtime exports answer "why did messages vanish" identically.
            self._obs.counter("repro_messages_dropped_total", src=self._pid,
                              reason="disconnected").inc()
            return
        staged = self._staged.get(dst)
        if staged is None:
            staged = self._staged[dst] = bytearray()
            self._staged_frames[dst] = 0
        transport = writer.transport
        queued = len(staged) + (transport.get_write_buffer_size()
                                if transport is not None else 0)
        if queued and queued + len(frame) > self._max_write_buffer:
            # High-water mark: the peer is not draining (dead link the TCP
            # stack has not yet detected, or a genuinely slow consumer).
            # Dropping here is indistinguishable from a partition, which
            # the protocols already recover from. A frame with nothing
            # queued ahead of it is not evidence of either, and is sent
            # whatever its size: dropped, its resend would be dropped the
            # same way, and a follower that far behind would never resync.
            self._obs.counter("repro_messages_dropped_total", src=self._pid,
                              reason="backpressure").inc()
            return
        staged += frame
        self._staged_frames[dst] += 1
        if len(staged) >= self._coalesce_bytes:
            self._flush_peer(dst)
        elif self._flush_handle is None:
            try:
                self._flush_handle = asyncio.get_running_loop().call_soon(
                    self.flush)
            except RuntimeError:
                # No running loop (sync test harness): degrade to an
                # immediate write so bare sends still go out.
                self._flush_peer(dst)

    def flush(self) -> None:
        """Write out every staged frame now (one syscall per peer).

        Called by ``RuntimeNode`` at the end of each drain, by the
        size-threshold path, and by the scheduled per-iteration flush.
        """
        if self._flush_handle is not None:
            # Whoever flushes first (the owner at the end of its drain, or
            # the scheduled call itself) leaves the other nothing to do.
            self._flush_handle.cancel()
            self._flush_handle = None
        for dst in list(self._staged):
            self._flush_peer(dst)

    def _flush_peer(self, dst: int) -> None:
        staged = self._staged.get(dst)
        if not staged:
            return
        frames = self._staged_frames.get(dst, 0)
        self._staged[dst] = bytearray()
        self._staged_frames[dst] = 0
        writer = self._writers.get(dst)
        if writer is None:
            self._obs.counter("repro_messages_dropped_total", src=self._pid,
                              reason="disconnected").inc(frames)
            return
        try:
            writer.write(bytes(staged))
        except (ConnectionError, RuntimeError):
            self._writers.pop(dst, None)
            if self._obs.enabled:
                self._obs.counter("repro_messages_dropped_total",
                                  src=self._pid,
                                  reason="write_failed").inc(frames)

    @property
    def connected_peers(self) -> Tuple[int, ...]:
        return tuple(sorted(self._writers))

    def get_write_buffer_size(self) -> int:
        """Bytes queued toward all peers: asyncio write buffers plus our
        staging buffers. Sampled as the ``tcp_write`` queue depth."""
        total = sum(len(b) for b in self._staged.values())
        for writer in self._writers.values():
            transport = writer.transport
            if transport is not None:
                total += transport.get_write_buffer_size()
        return total

    def queue_depths(self) -> Dict[str, int]:
        """Instantaneous transport backpressure for the profiler (see
        ``repro.obs.prof``): bytes sitting in kernel/asyncio write buffers
        and coalescing staging buffers across all live peer connections,
        plus the reconnect backlog — peers we should be connected to but
        aren't (each has a dial loop backing off)."""
        return {
            "tcp_write": self.get_write_buffer_size(),
            "tcp_reconnect": sum(1 for pid in self._peers
                                 if pid != self._pid
                                 and pid not in self._writers),
        }

    # ------------------------------------------------------------------

    async def _handle_inbound(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        if self._closed:
            writer.close()
            return
        self._inbound_writers.add(writer)
        # Whoever dialled in is listening again: end every back-off. The
        # socket names no pid until its first frame, and a peer may send
        # nothing until it hears from us, so every dial loop retries.
        self._dialled_in.set_result(None)
        self._dialled_in = asyncio.get_running_loop().create_future()
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data or self._closed:
                    break
                # ``drop``: why this connection must close, if it must. A
                # corrupt frame leaves the stream unframeable; good frames
                # decoded ahead of it in the same read are delivered first.
                try:
                    messages = decoder.feed(data)
                    drop = "corrupt_frame" if decoder.poisoned else None
                except TransportError:
                    messages, drop = [], "corrupt_frame"
                for src, payload in messages:
                    if isinstance(payload, TransportPing):
                        self._answer_ping(src, payload)
                    elif isinstance(payload, TransportPong):
                        self._record_rtt(src, payload)
                    else:
                        try:
                            self._on_message(src, payload)
                        except Exception:
                            # Well-formed bytes the owner cannot use (a
                            # stranger on the listen port): the codec
                            # checks framing and tags, not meaning. Logged
                            # with its traceback: from a real peer this is
                            # a replica bug.
                            logger.exception(
                                "node %d: handler rejected %s from %d",
                                self._pid, type(payload).__name__, src)
                            drop = "rejected"
                            break
                if messages and self._on_batch_end is not None:
                    self._on_batch_end()
                if drop is not None:
                    # Count it and close this one connection cleanly, not
                    # as an unhandled task exception; a real peer's dial
                    # loop reconnects.
                    self._obs.counter("repro_messages_dropped_total",
                                      src=self._pid, reason=drop).inc()
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while this handler was mid-read: exit quietly.
            pass
        finally:
            self._inbound_writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- RTT sampling --------------------------------------------------------

    def _answer_ping(self, src: int, ping: TransportPing) -> None:
        """Echo the probe back over our outbound connection to ``src``
        (bypassing :meth:`send` so probes stay out of message counters
        and ahead of staged traffic — RTT should measure the link, not
        our coalescing buffer)."""
        peer_writer = self._writers.get(src)
        if peer_writer is None:
            return
        try:
            peer_writer.write(
                encode_frame(self._pid, TransportPong(ping.sent_ms)))
        except (ConnectionError, RuntimeError):
            self._writers.pop(src, None)

    def _record_rtt(self, src: int, pong: TransportPong) -> None:
        rtt_ms = asyncio.get_running_loop().time() * 1000.0 - pong.sent_ms
        self.link_rtt_ms[src] = rtt_ms
        if self._obs.enabled:
            self._obs.histogram("repro_link_rtt_ms", src=self._pid,
                                dst=src).observe(rtt_ms)
        if self._on_rtt is not None:
            self._on_rtt(src, rtt_ms)

    async def _ping_loop(self) -> None:
        """Probe every connected peer each interval; pongs arrive on the
        inbound path and land in :attr:`link_rtt_ms`."""
        try:
            loop = asyncio.get_running_loop()
            while not self._closed:
                await asyncio.sleep(self._ping_interval)
                now_ms = loop.time() * 1000.0
                for pid, writer in list(self._writers.items()):
                    try:
                        writer.write(
                            encode_frame(self._pid, TransportPing(now_ms)))
                    except (ConnectionError, RuntimeError):
                        self._writers.pop(pid, None)
        except asyncio.CancelledError:
            pass

    async def _dial_loop(self, pid: int) -> None:
        """Keep one outbound connection to ``pid`` alive, with backoff.

        An inbound connection ends every back-off: the loop retries at
        once, and a retry that fails again goes on with the jitter
        schedule from the delay it had, so a peer that is still down costs
        at most one extra attempt per inbound connection.
        """
        addr = self._peers[pid]
        delay = RECONNECT_INITIAL_S
        while not self._closed:
            if self._obs.enabled:
                self._obs.counter("repro_reconnect_attempts_total",
                                  src=self._pid, peer=pid).inc()
            # Taken before the attempt, so a peer that dials in while it
            # is being refused still cuts the back-off short.
            dialled_in = self._dialled_in
            try:
                reader, writer = await asyncio.open_connection(addr.host, addr.port)
            except OSError:
                await asyncio.wait((dialled_in,), timeout=delay)
                delay = decorrelated_jitter(
                    self._rng, RECONNECT_INITIAL_S, delay, RECONNECT_MAX_S)
                continue
            delay = RECONNECT_INITIAL_S
            self._writers[pid] = writer
            # Fire on every established session, including the first:
            # messages sent before the dial completed were dropped (exactly
            # like a partitioned link), so the replica must run its
            # session-drop handling (PrepareReq) to resynchronize.
            if self._on_session_restored is not None:
                self._on_session_restored(pid)
            # The outbound connection is write-only; wait for it to break.
            try:
                while not self._closed:
                    data = await reader.read(4096)
                    if not data:
                        break
            except ConnectionError:
                pass
            finally:
                if self._writers.get(pid) is writer:
                    self._writers.pop(pid, None)
                self._staged.pop(pid, None)
                lost = self._staged_frames.pop(pid, 0)
                if lost:
                    self._obs.counter("repro_messages_dropped_total",
                                      src=self._pid,
                                      reason="disconnected").inc(lost)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
