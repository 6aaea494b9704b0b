"""Windowed time-series engine: fixed-width windows over the event stream.

End-of-run aggregates cannot tell a 10-second stall apart from a uniformly
slow run. This module chops a run into fixed-width windows (sim-time in the
simulator, wall-time in the TCP runtime) and computes per-window metric
*families* — throughput rates, commit-latency percentiles, BLE round
jitter, queue-depth maxima, per-phase latency means — that diff cleanly
across runs.

One way to build a series: :func:`series_from_events`, from any list of
event records — a ``MemorySink``'s or an export's — so a live run and its
export, and two same-seed exports, produce *identical* windows. Nothing
is windowed while the run is going.

Window values are flat ``{family: float}`` maps with stable string keys
(``commit_ms:p95``, ``queue:sp_outbox:max``) so window alignment and family
matching in :func:`diff_series` are dictionary operations. Windows are
half-open ``[start, end)`` and anchored at ``start_ms`` (default 0.0), so
two runs of the same scenario align by window index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs import prof
from repro.obs.events import (ClientProposalSent, ClientReplyDecided,
                              EventRecord, HeartbeatViewReported,
                              QueueDepthSampled)

#: Families where larger is better; everything else (latencies, depths,
#: jitter) regresses upward.
RATE_FAMILIES: Tuple[str, ...] = ("decided_per_s", "proposal_per_s")

#: Magnitude ramp for sparklines (space = no data / zero).
SPARK_RAMP = " .:-=+*#@"

_PCTS: Tuple[Tuple[str, float], ...] = (("p50", 0.50), ("p95", 0.95),
                                        ("p99", 0.99))


def higher_is_better(family: str) -> bool:
    return family in RATE_FAMILIES


@dataclass(frozen=True)
class SeriesWindow:
    """One fixed-width window: ``[start_ms, end_ms)`` plus its families."""

    index: int
    start_ms: float
    end_ms: float
    values: Dict[str, float] = field(default_factory=dict)
    #: Dominant critical-path phase for commits completing in this window
    #: ("" when the export was not traced or the window saw no commits).
    dominant_phase: str = ""

    @property
    def width_ms(self) -> float:
        return self.end_ms - self.start_ms


def _pct(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def series_from_events(events: Iterable[EventRecord], window_ms: float,
                       start_ms: float = 0.0,
                       end_ms: Optional[float] = None) -> List[SeriesWindow]:
    """Build the windowed series from raw event records.

    Events are bucketed by their own timestamps, so out-of-order records
    (reordered delivery, merged exports) land in the right window; events
    before ``start_ms`` are ignored. Windows are half-open ``[s, e)``: a
    record at exactly a boundary belongs to the *next* window. Empty
    windows are emitted (rates 0.0, percentile families absent) so stalls
    are visible instead of silently elided."""
    if window_ms <= 0:
        raise ConfigError("window_ms must be positive")
    events = [rec for rec in events if rec.at_ms >= start_ms]
    if not events and end_ms is None:
        return []
    if end_ms is not None:
        # end_ms is authoritative in both directions: it extends the grid
        # past the last event (trailing empty windows) AND clips records
        # beyond it (so a partial tail window isn't silently added).
        events = [rec for rec in events if rec.at_ms < end_ms]
        last_ms = end_ms - 1e-9
    else:
        last_ms = max(rec.at_ms for rec in events)
    n_windows = int((last_ms - start_ms) // window_ms) + 1
    if n_windows <= 0:
        return []

    decided = [0] * n_windows
    proposed = [0] * n_windows
    jitter: List[List[float]] = [[] for _ in range(n_windows)]
    depths: List[Dict[str, int]] = [{} for _ in range(n_windows)]
    saw_proposals = saw_heartbeats = False
    for rec in events:
        idx = int((rec.at_ms - start_ms) // window_ms)
        if idx >= n_windows:
            continue
        ev = rec.event
        if isinstance(ev, ClientReplyDecided):
            decided[idx] += 1
        elif isinstance(ev, ClientProposalSent):
            saw_proposals = True
            proposed[idx] += ev.count
        elif isinstance(ev, HeartbeatViewReported):
            saw_heartbeats = True
            jitter[idx].append(abs(ev.jitter_ms))
        elif isinstance(ev, QueueDepthSampled):
            bucket = depths[idx]
            if ev.depth > bucket.get(ev.queue, -1):
                bucket[ev.queue] = ev.depth

    attributions = prof.attribute_commit_paths(events)
    by_window = prof.attributions_by_window(attributions, window_ms, start_ms)

    window_s = window_ms / 1000.0
    out: List[SeriesWindow] = []
    for idx in range(n_windows):
        values: Dict[str, float] = {
            "decided_per_s": decided[idx] / window_s,
        }
        if saw_proposals:
            values["proposal_per_s"] = proposed[idx] / window_s
        if saw_heartbeats and jitter[idx]:
            values["ble_jitter_ms:mean"] = (
                sum(jitter[idx]) / len(jitter[idx]))
        for queue, depth in depths[idx].items():
            values[f"queue:{queue}:max"] = float(depth)
        bucket = by_window.get(idx, [])
        dominant = ""
        if bucket:
            totals = sorted(a.total_ms for a in bucket)
            for suffix, q in _PCTS:
                values[f"commit_ms:{suffix}"] = _pct(totals, q)
            for phase in prof.PHASES:
                durations = [a.phase_ms(phase) for a in bucket
                             if any(n == phase for n, _ in a.phases)]
                if durations:
                    values[f"phase_ms:{phase}:mean"] = (
                        sum(durations) / len(durations))
            dominant = prof.dominant_phase(bucket)
        out.append(SeriesWindow(
            index=idx,
            start_ms=start_ms + idx * window_ms,
            end_ms=start_ms + (idx + 1) * window_ms,
            values=values,
            dominant_phase=dominant,
        ))
    return out


# --------------------------------------------------------------------------
# Sparklines
# --------------------------------------------------------------------------


def sparkline(values: Sequence[Optional[float]],
              peak: Optional[float] = None) -> str:
    """Peak-normalized magnitude ramp; ``None`` renders as a gap."""
    present = [v for v in values if v is not None]
    top = peak if peak is not None else (max(present) if present else 0.0)
    cells = []
    for v in values:
        if v is None:
            cells.append(" ")
        elif top <= 0 or v <= 0:
            cells.append(SPARK_RAMP[0] if v is not None else " ")
        else:
            level = int((min(v, top) / top) * (len(SPARK_RAMP) - 1))
            cells.append(SPARK_RAMP[max(1, level)])
    return "".join(cells)


def series_lanes(windows: Sequence[SeriesWindow],
                 families: Optional[Sequence[str]] = None,
                 label_width: int = 22) -> List[str]:
    """Render one sparkline lane per family plus a dominant-phase lane.

    Default family selection: throughput, commit p95, worst queue, jitter —
    the lanes that answer "when did it stall and why"."""
    if not windows:
        return ["(no windows)"]
    if families is None:
        seen: Dict[str, bool] = {}
        for window in windows:
            for key in window.values:
                seen[key] = True
        families = [f for f in ("decided_per_s", "proposal_per_s",
                                "commit_ms:p95", "ble_jitter_ms:mean")
                    if f in seen]
        families += sorted(k for k in seen if k.startswith("queue:"))
    lines = []
    for family in families:
        vals = [w.values.get(family) for w in windows]
        present = [v for v in vals if v is not None]
        if not present:
            continue
        lane = sparkline(vals)
        lines.append(f"{family:<{label_width}s}|{lane}| "
                     f"min={min(present):.3g} max={max(present):.3g}")
    phases = [w.dominant_phase for w in windows]
    if any(phases):
        lane = "".join(p[0] if p else " " for p in phases)
        lines.append(f"{'dominant phase':<{label_width}s}|{lane}| "
                     "(c=client_to_leader r=replicate a=apply)")
    return lines


# --------------------------------------------------------------------------
# Diffing two series
# --------------------------------------------------------------------------

VERDICT_REGRESSED = "regressed"
VERDICT_IMPROVED = "improved"
VERDICT_UNCHANGED = "unchanged"
VERDICT_ADDED = "added"
VERDICT_REMOVED = "removed"


@dataclass(frozen=True)
class FamilyDelta:
    """Verdict for one metric family across two aligned runs."""

    family: str
    verdict: str
    before_mean: float
    after_mean: float
    #: Signed relative change of the mean (after vs before).
    change: float
    #: Index of the window with the worst deviation (bad direction only).
    worst_window: Optional[int] = None
    #: Contiguous run of bad windows containing ``worst_window``.
    window_range: Optional[Tuple[int, int]] = None
    #: ``window_range`` in milliseconds.
    range_ms: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class SeriesDiff:
    """All family verdicts plus the overall call."""

    families: Tuple[FamilyDelta, ...]
    threshold: float

    @property
    def regressed(self) -> Tuple[FamilyDelta, ...]:
        return tuple(f for f in self.families
                     if f.verdict == VERDICT_REGRESSED)

    @property
    def verdict(self) -> str:
        if self.regressed:
            return VERDICT_REGRESSED
        if any(f.verdict == VERDICT_IMPROVED for f in self.families):
            return VERDICT_IMPROVED
        return VERDICT_UNCHANGED

    @property
    def regressed_phases(self) -> Tuple[str, ...]:
        """Phases cited by regressed ``phase_ms:*`` families, worst first."""
        hits = [f for f in self.regressed
                if f.family.startswith("phase_ms:")]
        hits.sort(key=lambda f: -abs(f.change))
        return tuple(f.family.split(":")[1] for f in hits)


def diff_series(before: Sequence[SeriesWindow],
                after: Sequence[SeriesWindow],
                threshold: float = 0.10) -> SeriesDiff:
    """Align two window sequences by index and judge every family.

    Both series must use the same window width (they align by index, which
    only means anything on a shared grid). A family regresses when its
    mean moves beyond ``threshold`` in the bad direction — higher for
    latency/depth families, lower for rate families — and the verdict
    carries the contiguous window range around the worst deviation so the
    regression is *localized*, not just detected."""
    if before and after:
        w_before = before[0].width_ms
        w_after = after[0].width_ms
        if abs(w_before - w_after) > 1e-9:
            raise ConfigError(
                f"window widths differ ({w_before:g}ms vs {w_after:g}ms); "
                "rebuild both series with the same --window-ms")
    families: Dict[str, bool] = {}
    for windows in (before, after):
        for window in windows:
            for key in window.values:
                families[key] = True

    deltas: List[FamilyDelta] = []
    for family in sorted(families):
        b_vals = [w.values.get(family) for w in before]
        a_vals = [w.values.get(family) for w in after]
        b_present = [v for v in b_vals if v is not None]
        a_present = [v for v in a_vals if v is not None]
        if not b_present or not a_present:
            deltas.append(FamilyDelta(
                family=family,
                verdict=VERDICT_REMOVED if b_present else VERDICT_ADDED,
                before_mean=sum(b_present) / len(b_present) if b_present else 0.0,
                after_mean=sum(a_present) / len(a_present) if a_present else 0.0,
                change=0.0))
            continue
        b_mean = sum(b_present) / len(b_present)
        a_mean = sum(a_present) / len(a_present)
        denom = max(abs(b_mean), 1e-9)
        change = (a_mean - b_mean) / denom
        better = higher_is_better(family)
        bad = change < -threshold if better else change > threshold
        good = change > threshold if better else change < -threshold
        if abs(b_mean) < 1e-12 and abs(a_mean) < 1e-12:
            bad = good = False
        worst = worst_dev = None
        bad_windows: List[int] = []
        if bad:
            for i in range(min(len(b_vals), len(a_vals))):
                b, a = b_vals[i], a_vals[i]
                if b is None or a is None:
                    continue
                dev = (a - b) / max(abs(b), denom)
                if better:
                    dev = -dev
                if dev > threshold:
                    bad_windows.append(i)
                    if worst_dev is None or dev > worst_dev:
                        worst_dev, worst = dev, i
        window_range = range_ms = None
        if worst is not None:
            lo = hi = worst
            bad_set = set(bad_windows)
            while lo - 1 in bad_set:
                lo -= 1
            while hi + 1 in bad_set:
                hi += 1
            window_range = (lo, hi)
            grid = after if after else before
            width = grid[0].width_ms
            start0 = grid[0].start_ms
            range_ms = (start0 + lo * width, start0 + (hi + 1) * width)
        deltas.append(FamilyDelta(
            family=family,
            verdict=(VERDICT_REGRESSED if bad else
                     VERDICT_IMPROVED if good else VERDICT_UNCHANGED),
            before_mean=b_mean, after_mean=a_mean, change=change,
            worst_window=worst, window_range=window_range,
            range_ms=range_ms))
    return SeriesDiff(families=tuple(deltas), threshold=threshold)


def render_diff(diff: SeriesDiff) -> List[str]:
    """The verdict table plus the overall call and phase citation."""
    lines = [f"{'family':<28s} {'before':>12s} {'after':>12s} "
             f"{'change':>9s}  verdict"]
    for fd in diff.families:
        where = ""
        if fd.window_range is not None and fd.range_ms is not None:
            lo, hi = fd.window_range
            lo_ms, hi_ms = fd.range_ms
            where = (f"  windows {lo}..{hi} "
                     f"({lo_ms:.0f}..{hi_ms:.0f} ms)")
        change = (f"{fd.change:>+8.1%}" if abs(fd.change) < 10.0
                  else f"{'+' if fd.change > 0 else '-'}>999%".rjust(8))
        lines.append(
            f"{fd.family:<28s} {fd.before_mean:>12.4g} {fd.after_mean:>12.4g} "
            f"{change}  {fd.verdict}{where}")
    summary = f"verdict: {diff.verdict}"
    if diff.regressed:
        summary += f" ({len(diff.regressed)} families)"
        phases = diff.regressed_phases
        if phases:
            summary += f"; dominant regressed phase: {phases[0]}"
    lines.append(summary)
    return lines
