"""Measurement instruments for the evaluation harness.

The paper reports three kinds of measurements:

- decided-proposal throughput (total and per 5 s window, Figures 7, 8c, 9),
- *down-time*: "the duration for when the client received no decided
  replies" (Figure 8a/8b),
- per-server outgoing IO volume, peak per 5 s window (section 7.3).

:class:`DecidedTracker` and :class:`IOTracker` compute exactly those from
raw event streams. :func:`wire_size` is the one byte model the simulated
network charges per message, for IO and for finite-egress delay.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines import multipaxos as mp
from repro.baselines import raft
from repro.baselines import vr
from repro.errors import ConfigError
from repro.omni import messages as om
from repro.omni.entry import Command, SnapshotInstalled, StopSign


class DecidedTracker:
    """Records timestamps of decided client replies and derives metrics."""

    def __init__(self) -> None:
        self._times: List[float] = []

    def record(self, now_ms: float) -> None:
        """Record one decided reply at ``now_ms`` (must be non-decreasing)."""
        self._times.append(now_ms)

    @property
    def count(self) -> int:
        return len(self._times)

    def count_between(self, start_ms: float, end_ms: float) -> int:
        """Number of decided replies in ``[start_ms, end_ms)``."""
        lo = bisect.bisect_left(self._times, start_ms)
        hi = bisect.bisect_left(self._times, end_ms)
        return hi - lo

    def throughput(self, start_ms: float, end_ms: float) -> float:
        """Decided replies per second over ``[start_ms, end_ms)``."""
        duration_s = (end_ms - start_ms) / 1000.0
        if duration_s <= 0:
            return 0.0
        return self.count_between(start_ms, end_ms) / duration_s

    def windowed_counts(self, start_ms: float, end_ms: float,
                        window_ms: float = 5000.0) -> List[Tuple[float, int]]:
        """``(window_start, decided_count)`` per window — Figure 9's series."""
        if window_ms <= 0:
            raise ConfigError("window_ms must be positive")
        out = []
        t = start_ms
        while t < end_ms:
            hi = min(t + window_ms, end_ms)
            out.append((t, self.count_between(t, hi)))
            t = hi
        return out

    def downtime(self, start_ms: float, end_ms: float) -> float:
        """The longest gap with no decided replies within ``[start, end]``.

        This matches the paper's definition for Figure 8a/8b: the duration
        for which the client received no decided replies. Gaps are clipped
        to the observation interval; if nothing was decided at all, the
        whole interval is down-time.
        """
        gap_start, gap_end = self.downtime_window(start_ms, end_ms)
        return gap_end - gap_start

    def downtime_window(self, start_ms: float,
                        end_ms: float) -> Tuple[float, float]:
        """The ``(gap_start, gap_end)`` interval whose length
        :meth:`downtime` reports — lets timelines draw *where* the
        down-time happened, not just how long it was. Ties go to the
        earliest gap."""
        lo = bisect.bisect_left(self._times, start_ms)
        hi = bisect.bisect_left(self._times, end_ms)
        inside = self._times[lo:hi]
        if not inside:
            return (start_ms, end_ms)
        best = (start_ms, inside[0])
        for prev, cur in zip(inside, inside[1:]):
            if cur - prev > best[1] - best[0]:
                best = (prev, cur)
        if end_ms - inside[-1] > best[1] - best[0]:
            best = (inside[-1], end_ms)
        return best

    def recovery_time(self, partition_at_ms: float,
                      end_ms: float) -> Optional[float]:
        """Time from the partition until the first decided reply after it.

        Returns None when nothing was decided after the partition (deadlock).
        """
        idx = bisect.bisect_right(self._times, partition_at_ms)
        if idx >= len(self._times) or self._times[idx] > end_ms:
            return None
        return self._times[idx] - partition_at_ms


class IOTracker:
    """Accounts outgoing bytes per server, total and per time window."""

    def __init__(self, window_ms: float = 5000.0):
        self._window_ms = window_ms
        self._total: Dict[int, int] = defaultdict(int)
        self._windows: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))

    def record(self, src: int, nbytes: int, now_ms: float) -> None:
        self._total[src] += nbytes
        self._windows[src][int(now_ms // self._window_ms)] += nbytes

    def total_bytes(self, pid: int) -> int:
        return self._total.get(pid, 0)

    def total_all(self) -> int:
        return sum(self._total.values())

    def peak_window_bytes(self, pid: int) -> int:
        """The busiest window's outgoing bytes for ``pid`` (paper: 'peak IO
        for the leader over a 5s-window')."""
        windows = self._windows.get(pid)
        if not windows:
            return 0
        return max(windows.values())

    def window_series(self, pid: int) -> List[Tuple[float, int]]:
        """``(window_start_ms, bytes)`` sorted series for one server."""
        windows = self._windows.get(pid, {})
        return [(k * self._window_ms, v) for k, v in sorted(windows.items())]


# --------------------------------------------------------------------------
# the byte model
# --------------------------------------------------------------------------
# Hand sizes, not the encoder's: a 24-byte header per message, 20 bytes
# per ballot, 8 per integer, and each entry at its own size. The network
# charges them to the sender's IO and, with finite egress, turns them into
# transmission delay (docs/SIMULATOR.md, "Byte model").

#: A payload the table has no rule for.
_FALLBACK_PAYLOAD_BYTES = 24
#: A log entry the table has no rule for.
_FALLBACK_ENTRY_BYTES = 16


def entry_size(entry: Any) -> int:
    """The simulated size of one log entry (the 16-byte fallback when
    its class has no rule)."""
    rule = SIZE_RULES.get(entry.__class__)
    return rule(entry) if rule is not None else _FALLBACK_ENTRY_BYTES


def _entries(entries: Tuple[Any, ...]) -> int:
    return sum(entry_size(entry) for entry in entries)


def _state(state: Any) -> int:
    """A snapshot state: its rule, else its length (at least 16), else 64."""
    rule = SIZE_RULES.get(state.__class__)
    if rule is not None:
        return rule(state)
    try:
        return max(len(state), 16)
    except TypeError:
        return 64


def _snapshot(snapshot: Optional[Tuple[Any, int]]) -> int:
    """An optional ``(state, covers_idx)`` pair."""
    return 0 if snapshot is None else _state(snapshot[0]) + 8


def _blob(blob: Optional[bytes]) -> int:
    return 0 if blob is None else len(blob)


#: Exact class -> size rule, as :mod:`repro.encoding` dispatches its
#: encoders. Every registered message class has one, bar the values
#: carried inside messages and the transport's own probes.
SIZE_RULES: Dict[type, Callable[[Any], int]] = {
    # log entries
    Command: lambda m: len(m.data) + 16,
    StopSign: lambda m: 24 + 8 * len(m.servers) + _blob(m.metadata),
    SnapshotInstalled: lambda m: _state(m.state),
    # Omni-Paxos: BLE, Sequence Paxos, service layer
    om.HeartbeatRequest: lambda m: 32,
    om.HeartbeatReply: lambda m: 53,
    om.Prepare: lambda m: 80,
    om.Promise: lambda m: 80 + _entries(m.suffix) + _snapshot(m.snapshot),
    om.AcceptSync: lambda m: 64 + _entries(m.suffix) + _snapshot(m.snapshot),
    om.AcceptDecide: lambda m: 60 + _entries(m.entries),
    om.Accepted: lambda m: 60,
    om.Trim: lambda m: 52,
    om.Decide: lambda m: 52,
    om.PrepareReq: lambda m: 24,
    om.ProposalForward: lambda m: 24 + _entries(m.entries),
    om.NewConfiguration: lambda m: (40 + 8 * (len(m.servers) + len(m.donors))
                                    + _blob(m.metadata)),
    om.JoinComplete: lambda m: 32,
    om.LogPullRequest: lambda m: 48,
    om.LogSegment: lambda m: 41 + _entries(m.entries),
    # the multiplexing envelope: config id and component tag; a trace
    # context rides free
    om.Envelope: lambda m: 6 + wire_size(m.payload),
    # Raft
    raft.RequestVote: lambda m: 57,
    raft.RequestVoteReply: lambda m: 34,
    raft.AppendEntries: lambda m: 68 + sum(8 + entry_size(slot.entry)
                                           for slot in m.entries),
    raft.AppendEntriesReply: lambda m: 45,
    raft.TimeoutNow: lambda m: 32,
    raft.RaftConfigChange: lambda m: 16 + 8 * len(m.servers),
    raft.InstallSnapshot: lambda m: 64 + _state(m.state),
    # Multi-Paxos
    mp.P1a: lambda m: 48,
    mp.P1b: lambda m: 64 + sum(24 + entry_size(v) for _s, _b, v in m.accepted),
    mp.P2a: lambda m: 64 + _entries(m.values),
    mp.P2b: lambda m: 64,
    mp.Ping: lambda m: 24,
    mp.Pong: lambda m: 24,
    # Viewstamped Replication
    vr.StartViewChange: lambda m: 32,
    vr.DoViewChange: lambda m: 32,
    vr.StartView: lambda m: 32,
    vr.VRPing: lambda m: 32,
}


def wire_size(msg: Any) -> int:
    """The simulated size of ``msg`` in bytes: its class's rule in
    :data:`SIZE_RULES`, else the 24-byte payload fallback."""
    rule = SIZE_RULES.get(msg.__class__)
    return rule(msg) if rule is not None else _FALLBACK_PAYLOAD_BYTES
