"""Measurement instruments for the evaluation harness.

The paper reports three kinds of measurements:

- decided-proposal throughput (total and per 5 s window, Figures 7, 8c, 9),
- *down-time*: "the duration for when the client received no decided
  replies" (Figure 8a/8b),
- per-server outgoing IO volume, peak per 5 s window (section 7.3).

:class:`DecidedTracker` and :class:`IOTracker` compute exactly those from
raw event streams.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.omni.messages import Envelope


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


#: Per-message framing overhead assumed for payloads that cannot size
#: themselves (matches ``_HEADER`` in :mod:`repro.omni.messages`).
_FALLBACK_PAYLOAD_BYTES = 24
#: The envelope's own framing cost (config id + component tag).
_ENVELOPE_HEADER_BYTES = 6


def wire_size(msg) -> int:
    """Approximate serialized size of any message.

    Messages that implement ``wire_size()`` answer for themselves. An
    :class:`~repro.omni.messages.Envelope` around a payload *without* a
    sizer is accounted as envelope header plus the payload fallback —
    previously such envelopes were flattened to 24 bytes total, which
    systematically undercounted IOTracker numbers for unsized messages.
    """
    if isinstance(msg, Envelope):
        return _ENVELOPE_HEADER_BYTES + wire_size(msg.payload)
    sizer = getattr(msg, "wire_size", None)
    if sizer is not None:
        return sizer()
    return _FALLBACK_PAYLOAD_BYTES
