"""A speed reference: how fast is this machine, right now?

On a shared box the processor slows by a third or more for seconds or
minutes at a time (a fixed pure-Python loop took 140 ms, then 206 ms for
a minute, then 140 ms again). Every processor-bound number then moves by
as much between two runs of the same code: raw ``commit_tput`` on
``tcp-single`` spread 12 to 33 % between identical runs, above any bound
one could hold a change to.

So between its measured slices the benchmark runs this small fixed
workload of its own (it touches no ``repro`` code, so no change to the
program moves it): varint-encode and decode a few integers, keep a small
table, and bounce the bytes off an asyncio echo server on loopback. Its
rate tracks the machine's speed, and the processor-bound metrics are
reported *at nominal speed*: a rate is multiplied, and a duration divided,
by ``NOMINAL_PER_S / measured rate``. With it the same runs spread 4 %.
The raw values and the measured reference rate are reported next to them.
"""

from __future__ import annotations

import asyncio
import os
from time import monotonic
from typing import Dict, List, Optional, Tuple

#: The reference's rate on the box the first results were taken on, when
#: quiet; scaled numbers therefore read as that box's numbers.
NOMINAL_PER_S = 15_000.0

#: The same for :class:`DiskReference`: fsyncs per second.
NOMINAL_FSYNC_PER_S = 3_000.0

#: Length of one reference slice.
SLICE_S = 0.2


def _work(seq: int) -> Tuple[bytes, Tuple[int, ...]]:
    """Varint-encode eight integers derived from ``seq`` and decode them."""
    buf = bytearray()
    for value in (seq, seq * 31, seq & 0xFF, 3, 1, seq >> 3, 12345678,
                  seq + 7):
        while value > 0x7F:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)
    data = bytes(buf)
    out: List[int] = []
    pos, size = 0, len(data)
    while pos < size:
        shift = value = 0
        while True:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        out.append(value)
    return data, tuple(out)


async def _echo(reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            data = await reader.read(4096)
            if not data:
                break
            writer.write(data)
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()


class SpeedReference:
    """The echo pair; :meth:`measure` runs one slice on the caller's loop."""

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.rates: List[float] = []

    async def start(self) -> None:
        self._server = await asyncio.start_server(_echo, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port)

    async def measure(self, seconds: float = SLICE_S) -> float:
        """Round trips per second over ``seconds``."""
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        table: Dict[int, Tuple[int, ...]] = {}
        start = monotonic()
        end = start + seconds
        trips = 0
        while monotonic() < end:
            data = b""
            for k in range(8):
                data, values = _work(trips * 8 + k)
                table[(trips * 8 + k) & 1023] = values
            writer.write(data)
            await reader.readexactly(len(data))
            trips += 1
        rate = trips / (monotonic() - start)
        self.rates.append(rate)
        return rate

    async def stop(self) -> None:
        if self._writer is not None:
            self._writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class DiskReference:
    """The same idea for the workload that waits on the disk: append a
    small record and fsync, in a file next to the workload's WALs. The
    virtual disk of a shared box is as moody as its processor (fsync here:
    median 0.46 ms, 90th percentile 1.5 ms, and the median of 300 drifts
    between 0.35 and 0.63 ms within seconds)."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._file = None
        self.rates: List[float] = []

    async def start(self) -> None:
        self._file = open(self._path, "ab")

    async def measure(self, seconds: float = SLICE_S) -> float:
        """Records made durable per second over ``seconds`` (blocks the
        loop, like the fsyncs it stands in for)."""
        handle = self._file
        assert handle is not None
        record = b"r" * 120
        start = monotonic()
        end = start + seconds
        syncs = 0
        while monotonic() < end:
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
            syncs += 1
        rate = syncs / (monotonic() - start)
        self.rates.append(rate)
        return rate

    async def stop(self) -> None:
        if self._file is not None:
            self._file.close()


def measure_once(seconds: float = SLICE_S) -> float:
    """One reference slice on a loop of its own, for callers without one
    (the simulator workload)."""
    async def go() -> float:
        reference = SpeedReference()
        await reference.start()
        try:
            return await reference.measure(seconds)
        finally:
            await reference.stop()
    return asyncio.run(go())


def rate_at_nominal(raw_per_s: float, reference_per_s: float,
                    nominal_per_s: float = NOMINAL_PER_S) -> float:
    return raw_per_s * nominal_per_s / reference_per_s


def time_at_nominal(raw: float, reference_per_s: float,
                    nominal_per_s: float = NOMINAL_PER_S) -> float:
    return raw * reference_per_s / nominal_per_s
