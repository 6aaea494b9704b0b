"""The load generator: one coroutine on the cluster's own event loop.

An operation is proposed at the node that is leader when it is issued
and completes when *that node* reports it decided. One not decided within
:data:`~benchmarks.e2e.spec.OP_TIMEOUT_S` counts as failed; it is never
retried and never awaited, so a stalled cluster shows up as failed
operations, not as a hang.

Two phases share the bookkeeping; each is run as several slices, and a
:class:`PhaseLog` is what one slice recorded:

- **closed**: ``cp`` entries outstanding; a decide tops the window back up.
  Reported as throughput only (closed-loop latency is CP / throughput).
- **paced**: open loop at a fixed call rate. Each operation is timed from
  the instant it was *due*, so a stall is charged to every operation it
  delays, and the generator's own lateness is recorded.
"""

from __future__ import annotations

import asyncio
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.omni.entry import Command

from .spec import CLIENT_ID, COMMAND_BYTES, OP_TIMEOUT_S

#: A paced generator sleeps until this long before the next due time and
#: spins (``sleep(0)``) the rest: epoll rounds timeouts up to a whole ms,
#: which at 1000 ops/s would be as large as the latency being measured.
_SPIN_S = 0.0015


@dataclass
class PhaseLog:
    """What one slice of a phase recorded: per completed operation its
    due and done times (seconds on the loop clock), and the failures."""

    start: float = 0.0
    end: float = 0.0
    due: array = field(default_factory=lambda: array("d"))
    done: array = field(default_factory=lambda: array("d"))
    #: Due times of operations that failed (timed out or refused).
    failed_due: array = field(default_factory=lambda: array("d"))
    #: How late the paced generator issued each call.
    late: array = field(default_factory=lambda: array("d"))
    attempted: int = 0

    @property
    def commits(self) -> int:
        """Operations decided before the slice ended (the drain that
        follows completes the rest, outside the measured time)."""
        end = self.end
        return sum(1 for t in self.done if t < end)

    def tput(self) -> float:
        return self.commits / (self.end - self.start)

    def latencies_ms(self) -> List[float]:
        """Due-to-decided latency of every operation of the slice; a
        failed operation counts as the time-out."""
        out = [(done - due) * 1e3 for due, done in zip(self.due, self.done)]
        out.extend([OP_TIMEOUT_S * 1e3] * len(self.failed_due))
        return out


class Client:
    """Bookkeeping for every operation issued to one cluster."""

    def __init__(self, servers: Tuple[int, ...], seed: int, batch: int = 1,
                 tracer: Any = None) -> None:
        rng = random.Random(seed)
        #: Payload pool derived from the seed; the program only ever sees
        #: the generated commands.
        self._payloads = [rng.randbytes(COMMAND_BYTES) for _ in range(4096)]
        self._batch = batch
        self._tracer = tracer
        #: Per node: seq -> due time of operations awaiting its decide.
        self.pending: Dict[int, Dict[int, float]] = {p: {} for p in servers}
        #: Per node: seqs that node acknowledged, in order.
        self.acked: Dict[int, List[int]] = {p: [] for p in servers}
        #: Calls in issue order, for expiry: (due, first_seq, count, pid).
        self._calls: Deque[Tuple[float, int, int, int]] = deque()
        self.next_seq = 0
        self.outstanding = 0
        self.completed = 0
        self.failed = 0
        self.leader_changes = 0
        self._leader: Any = None
        self._nodes: Dict[int, Any] = {}
        self._phase: Optional[PhaseLog] = None
        self._waiter: Optional[asyncio.Future] = None
        #: Set by the first completed operation (cold-start down-time).
        self.first_done: Optional[float] = None

    def attach(self, nodes: Dict[int, Any]) -> None:
        self._nodes = nodes

    # -- completion (called from the nodes' decided handlers) ------------------

    def complete(self, pid: int, seq: int, due: float) -> None:
        now = monotonic()
        self.acked[pid].append(seq)
        self.outstanding -= 1
        self.completed += 1
        if self.first_done is None:
            self.first_done = now
        phase = self._phase
        if phase is not None and due >= phase.start:
            phase.due.append(due)
            phase.done.append(now)
        if self._waiter is not None:
            _wake(self._waiter)

    def _fail(self, due: float, count: int) -> None:
        self.failed += count
        self.outstanding -= count
        phase = self._phase
        if phase is not None and due >= phase.start:
            for _ in range(count):
                phase.failed_due.append(due)

    def expire(self, now: float) -> None:
        """Fail every operation older than the time-out."""
        calls = self._calls
        limit = now - OP_TIMEOUT_S
        while calls and calls[0][0] <= limit:
            due, first, count, pid = calls.popleft()
            mine = self.pending[pid]
            if not mine:
                continue
            lost = 0
            for seq in range(first, first + count):
                if mine.pop(seq, None) is not None:
                    lost += 1
            if lost:
                self._fail(due, lost)

    # -- issuing -----------------------------------------------------------------------

    def leader(self) -> Any:
        """The node that is leader now (``None`` while there is none)."""
        node = self._leader
        if node is not None and node.is_leader:
            return node
        for candidate in self._nodes.values():
            if candidate.is_leader:
                if node is not None:
                    self.leader_changes += 1
                self._leader = candidate
                return candidate
        return None

    def issue(self, due: float) -> None:
        """Propose one call (``batch`` entries) due at ``due``."""
        count = self._batch
        first = self.next_seq
        self.next_seq = first + count
        phase = self._phase
        if phase is not None:
            phase.attempted += count
        self.outstanding += count
        node = self.leader()
        if node is None:
            self._fail(due, count)
            return
        pid = node.pid
        mine = self.pending[pid]
        payloads = self._payloads
        tracer = self._tracer
        commands = []
        for seq in range(first, first + count):
            mine[seq] = due
            commands.append(Command(payloads[seq & 4095], CLIENT_ID, seq))
        try:
            if tracer is not None:
                tracer.push("node.propose")
            try:
                if count == 1:
                    node.propose(commands[0])
                else:
                    node.propose_batch(commands)
            finally:
                if tracer is not None:
                    tracer.pop()
        except Exception:  # the node refused: the operation failed
            lost = sum(1 for seq in range(first, first + count)
                       if mine.pop(seq, None) is not None)
            self._fail(due, lost)
            return
        self._calls.append((due, first, count, pid))

    def was_proposed(self, entry: Any) -> bool:
        """SC1 predicate for the decided-log checker."""
        return (isinstance(entry, Command) and entry.client_id == CLIENT_ID
                and 0 <= entry.seq < self.next_seq
                and entry.data == self._payloads[entry.seq & 4095])

    # -- phases ------------------------------------------------------------------------

    async def _wait_for_decide(self, loop: asyncio.AbstractEventLoop,
                               timeout: float) -> None:
        """Sleep until an operation completes, or ``timeout`` seconds."""
        waiter = self._waiter = loop.create_future()
        handle = loop.call_later(timeout, _wake, waiter)
        try:
            await waiter
        finally:
            handle.cancel()
            self._waiter = None

    async def closed_phase(self, seconds: float, cp: int,
                           record: bool = True) -> PhaseLog:
        """Keep ``cp`` entries outstanding for ``seconds``, then drain."""
        loop = asyncio.get_running_loop()
        tracer = self._tracer
        phase = PhaseLog(start=monotonic())
        phase.end = phase.start + seconds
        if record:
            self._phase = phase
        batch = self._batch
        while True:
            now = monotonic()
            if now >= phase.end:
                break
            if tracer is not None:
                tracer.push("client.generate")
            self.expire(now)
            for _ in range((cp - self.outstanding) // batch):
                self.issue(now)
            if tracer is not None:
                tracer.pop()
            if cp - self.outstanding >= batch:
                # Decided inside the call (a one-server cluster): nothing
                # will wake us, so only yield to the loop.
                await asyncio.sleep(0)
            else:
                await self._wait_for_decide(
                    loop, min(0.05, max(phase.end - now, 0.0)))
        await self.drain()
        self._phase = None
        return phase

    async def paced_phase(self, seconds: float, rate: float) -> PhaseLog:
        """Issue ``rate`` calls per second for ``seconds``, then drain."""
        tracer = self._tracer
        phase = PhaseLog(start=monotonic())
        phase.end = phase.start + seconds
        self._phase = phase
        interval = 1.0 / rate
        total = int(seconds * rate)
        issued = 0
        while issued < total:
            now = monotonic()
            if tracer is not None:
                tracer.push("client.generate")
            self.expire(now)
            while issued < total:
                due = phase.start + issued * interval
                if due > now:
                    break
                phase.late.append(now - due)
                self.issue(due)
                issued += 1
            if tracer is not None:
                tracer.pop()
            if issued >= total:
                break
            delay = phase.start + issued * interval - monotonic()
            await asyncio.sleep(delay - _SPIN_S if delay > _SPIN_S else 0)
        await self.drain()
        self._phase = None
        return phase

    async def drain(self) -> None:
        """Wait until nothing is outstanding; what is still undecided
        after the time-out is failed, not awaited."""
        loop = asyncio.get_running_loop()
        while self.outstanding > 0:
            self.expire(monotonic())
            if self.outstanding <= 0:
                break
            await self._wait_for_decide(loop, 0.05)


def _wake(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(None)


def make_decided_handler(pid: int, stream: List[Any], gaps: List[Tuple],
                         client: Client) -> Callable[[int, Any], None]:
    """The ``on_decided`` callback of node ``pid``: append to its decided
    stream and complete the operations this node was asked to decide."""
    append = stream.append
    mine = client.pending[pid]
    complete = client.complete

    def on_decided(idx: int, entry: Any) -> None:
        if idx != len(stream):
            gaps.append((pid, idx, len(stream)))
        append(entry)
        if mine:
            seq = getattr(entry, "seq", None)
            due = mine.pop(seq, None)
            if due is not None:
                complete(pid, seq, due)

    return on_decided


def make_traced_handler(pid: int, stream: List[Any], gaps: List[Tuple],
                        client: Client, tracer: Any,
                        marks: Dict[int, List[float]]
                        ) -> Callable[[int, Any], None]:
    """As :func:`make_decided_handler`, inside a ``client.on_decided``
    span, and noting when every eighth index was decided here (for the
    follower-lag metric)."""
    inner = make_decided_handler(pid, stream, gaps, client)

    def on_decided(idx: int, entry: Any) -> None:
        tracer.push("client.on_decided")
        try:
            if not idx & 7:
                marks.setdefault(idx, []).append(monotonic())
            inner(idx, entry)
            tracer.note_commit(client.completed)
        finally:
            tracer.pop()

    return on_decided
