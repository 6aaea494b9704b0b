"""The ``repro-obs watch`` dashboard: the health observatory as ASCII.

Renders a :class:`~repro.obs.health.HealthMonitor` snapshot — the N×N
believed-connectivity matrix, a leader/ballot lane per server, replication
lag bars, and the gray-failure verdicts — as a fixed-width text panel.
Two entry points share the renderer:

- :func:`render_dashboard` — one frame from a monitor,
- :func:`watch_export` — replay an exported ``.jsonl`` file into a
  monitor and render the state as of ``--at-ms`` (post-mortem mode).

An export does not carry the network's actual link state, so the frame
shows beliefs only; comparing them with ground truth in a simulation is
:func:`repro.obs.health.matrix_disagreements`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.events import EventRecord
from repro.obs.health import HealthMonitor

#: Matrix cell glyphs: believed up / believed down / never reported.
GLYPH_UP = "#"
GLYPH_DOWN = "."
GLYPH_UNKNOWN = "?"
GLYPH_SELF = "\\"

LAG_BAR_WIDTH = 20


def _matrix_lines(monitor: HealthMonitor,
                  now_ms: Optional[float]) -> List[str]:
    matrix = monitor.matrix
    pids = matrix.pids()
    if not pids:
        return ["  (no heartbeat views reported yet)"]
    lines = ["  connectivity matrix (rows report, cols are peers; "
             f"{GLYPH_UP} up  {GLYPH_DOWN} down  {GLYPH_UNKNOWN} unknown)"]
    header = "       " + " ".join(f"{b:>3d}" for b in pids)
    lines.append(header)
    for a in pids:
        cells = []
        for b in pids:
            if a == b:
                cells.append(f"  {GLYPH_SELF} ")
                continue
            believed = matrix.believes_up(a, b)
            glyph = (GLYPH_UNKNOWN if believed is None
                     else GLYPH_UP if believed else GLYPH_DOWN)
            cells.append(f"  {glyph} ")
        fresh = ""
        if now_ms is not None:
            age = matrix.freshness_ms(a, now_ms)
            if age is not None:
                fresh = f"   fresh {age:.0f}ms" + (
                    " (stale)" if matrix.is_stale(a, now_ms) else "")
        lines.append(f"  {a:>3d} " + "".join(cells) + fresh)
    return lines


def _server_lines(monitor: HealthMonitor) -> List[str]:
    views = monitor.matrix.views
    if not views:
        return []
    lines = ["  servers:"]
    max_decided = max(v.decided_idx for v in views.values())
    for pid, view in sorted(views.items()):
        lag = max_decided - view.decided_idx
        filled = LAG_BAR_WIDTH if max_decided == 0 else round(
            LAG_BAR_WIDTH * view.decided_idx / max_decided)
        bar = GLYPH_UP * filled + GLYPH_DOWN * (LAG_BAR_WIDTH - filled)
        lines.append(
            f"  {pid:>3d} {view.phase:<9s} leader={view.leader} "
            f"ballot={view.ballot} qc={'+' if view.quorum_connected else '-'} "
            f"round={view.round} "
            f"decided [{bar}] {view.decided_idx}"
            + (f" (lag {lag})" if lag else "")
        )
    return lines


def _degraded_lines(monitor: HealthMonitor) -> List[str]:
    pairs = monitor.degraded_pairs()
    if not pairs:
        return ["  degraded peers: none"]
    lines = ["  degraded peers:"]
    for observer, peer, state in pairs:
        lines.append(
            f"    {observer} sees {peer} degraded "
            f"({state.reason}, score {state.score:g})"
        )
    return lines


def render_dashboard(monitor: HealthMonitor,
                     now_ms: Optional[float] = None) -> str:
    """One dashboard frame from ``monitor``'s current snapshot."""
    at = now_ms if now_ms is not None else monitor.last_at_ms
    lines = [f"== cluster health @ t={at:.0f}ms =="]
    lines.extend(_matrix_lines(monitor, now_ms))
    lines.extend(_server_lines(monitor))
    lines.extend(_degraded_lines(monitor))
    return "\n".join(lines)


def watch_export(
    records: Sequence[EventRecord],
    at_ms: Optional[float] = None,
    stale_after_ms: Optional[float] = None,
) -> str:
    """Replay exported events and render the dashboard as of ``at_ms``
    (default: the last event)."""
    monitor = HealthMonitor(stale_after_ms=stale_after_ms)
    replayed = 0
    for record in records:
        if at_ms is not None and record.at_ms > at_ms:
            break
        monitor.record(record)
        replayed += 1
    if not monitor.matrix.views:
        raise ConfigError(
            "no HeartbeatViewReported events in the export — was the run "
            "captured with an enabled registry and this repo's health layer?"
        )
    frame = render_dashboard(monitor, now_ms=at_ms)
    lanes = _series_lines(records, at_ms=at_ms)
    if lanes:
        frame += "\n" + "\n".join(lanes)
    return frame


#: Sparkline columns in the watch frame (last N windows, newest right).
_SERIES_COLUMNS = 32


def _series_lines(records: Sequence[EventRecord],
                  at_ms: Optional[float] = None,
                  window_ms: Optional[float] = None) -> List[str]:
    """Sparkline lanes of the recent windowed series (throughput, commit
    p95, queue backlog) under the health matrix — the "how is it trending"
    half of the dashboard. Empty when the export holds too little history
    for even one window."""
    from repro.obs.series import series_from_events, series_lanes
    scoped = [r for r in records if at_ms is None or r.at_ms <= at_ms]
    if not scoped:
        return []
    span = max(r.at_ms for r in scoped) - min(r.at_ms for r in scoped)
    if window_ms is None:
        # Aim for a full sparkline width across the visible history.
        window_ms = max(span / _SERIES_COLUMNS, 1.0)
    if span < window_ms:
        return []
    windows = series_from_events(scoped, window_ms)[-_SERIES_COLUMNS:]
    if not windows:
        return []
    lines = [f"  series ({window_ms:.0f} ms windows):"]
    lines.extend("  " + lane for lane in series_lanes(windows))
    return lines
