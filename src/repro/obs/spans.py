"""Causal tracing: trace contexts on the wire, spans off the wire.

Two halves, matching how distributed tracing systems split the problem:

- :class:`TraceContext` is the *on-the-wire* half: a trace id plus span
  parentage, carried as an optional field on
  :class:`~repro.omni.messages.Envelope`. The server stamps outgoing
  envelopes with a child context of whatever context the message being
  handled carried, so a proposal's causal chain — AcceptDecide fan-out,
  Accepted replies, the Decide — shares one trace id across servers, in
  both the simulator and the asyncio runtime (``TraceContext`` has its
  own tag in the wire codec and travels as an ordinary ``Envelope``
  field).
- :class:`Span` is the *off-the-wire* half: the analysis functions here
  stitch an exported event stream (see :mod:`repro.obs.events`) into
  end-to-end spans — commit path, client round-trip, election
  convergence, crash/session recovery, and per-donor migration segments
  — which feed per-phase latency histograms and the ``repro-obs
  timeline`` Gantt reconstruction.

Span assembly is deliberately post-hoc: protocols emit cheap point
events (guarded by ``MetricsRegistry.tracing``) and never build span
objects on the hot path, preserving the zero-overhead-when-disabled
guarantee of the observability layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import (
    BallotBumped,
    BallotElected,
    ClientProposalSent,
    ClientReplyDecided,
    EntryApplied,
    EventRecord,
    MigrationCompleted,
    MigrationDonorPicked,
    MigrationSegmentReceived,
    ProposalAppended,
    QCFlagChanged,
    QuorumAccepted,
    RecoveryCompleted,
    RecoveryStarted,
)

#: Span kinds produced by :func:`assemble_spans` — identical across all
#: four protocols, which is what makes sim/runtime and cross-protocol
#: span sets directly comparable.
SPAN_COMMIT = "commit"
SPAN_CLIENT = "client"
SPAN_ELECTION = "election"
SPAN_RECOVERY = "recovery"
SPAN_MIGRATION = "migration"
SPAN_MIGRATION_SEGMENT = "migration_segment"

SPAN_KINDS = (
    SPAN_COMMIT,
    SPAN_CLIENT,
    SPAN_ELECTION,
    SPAN_RECOVERY,
    SPAN_MIGRATION,
    SPAN_MIGRATION_SEGMENT,
)


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Trace identity carried on an :class:`~repro.omni.messages.Envelope`.

    ``trace_id`` names the causal chain (for client commands:
    ``c<client_id>-<seq>``); ``span_id`` names this hop and ``parent_id``
    the hop that caused it. Contexts are immutable — derive hops with
    :meth:`child`.
    """

    trace_id: str
    span_id: str = ""
    parent_id: str = ""

    def child(self, span_id: str) -> "TraceContext":
        """A context for work caused by this one (same trace, new hop)."""
        return TraceContext(self.trace_id, span_id=span_id,
                            parent_id=self.span_id)

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "TraceContext":
        return cls(
            trace_id=payload.get("trace_id", ""),
            span_id=payload.get("span_id", ""),
            parent_id=payload.get("parent_id", ""),
        )


def entry_trace_id(entry: Any) -> str:
    """The canonical trace id for a client command, or ``""``.

    Client commands carry ``client_id``/``seq``; the id ``c<cid>-<seq>``
    lets the client-side events and the replication-side events of the
    same command meet in one trace without any extra wire state.
    """
    client_id = getattr(entry, "client_id", None)
    seq = getattr(entry, "seq", None)
    if client_id is None or seq is None:
        return ""
    return f"c{client_id}-{seq}"


@dataclass(frozen=True, slots=True)
class Span:
    """One reconstructed end-to-end interval of protocol work.

    ``phases`` are ordered ``(name, at_ms)`` milestones inside the span;
    consecutive milestones define the per-phase durations (see
    :meth:`phase_durations`). ``attrs`` carries kind-specific context
    (leader pid, entry range, donor, ...).
    """

    kind: str
    trace_id: str
    start_ms: float
    end_ms: float
    pid: int = 0
    phases: Tuple[Tuple[str, float], ...] = ()
    attrs: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def phase_durations(self) -> List[Tuple[str, float]]:
        """``(phase_name, duration_ms)`` between consecutive milestones.

        A milestone marks the *start* of its phase; the phase ends at the
        next milestone (the last phase ends at ``end_ms``).
        """
        out: List[Tuple[str, float]] = []
        for i, (name, at) in enumerate(self.phases):
            nxt = self.phases[i + 1][1] if i + 1 < len(self.phases) else self.end_ms
            out.append((name, nxt - at))
        return out

    def attr(self, name: str, default: Any = None) -> Any:
        for key, value in self.attrs:
            if key == name:
                return value
        return default


# --------------------------------------------------------------------------
# span assembly from event streams
# --------------------------------------------------------------------------

def commit_spans(events: Sequence[EventRecord]) -> List[Span]:
    """Commit-path spans: one per leader replication batch.

    propose/append (``ProposalAppended``) → majority accept
    (``QuorumAccepted`` with ``log_idx`` covering the batch) → apply
    (``EntryApplied`` at the leader covering the batch). Batches of one
    entry give exact per-entry spans; larger batches are accounted once.
    Batches whose quorum never arrives (leader fail-over, partition) are
    skipped — they never committed in that round.
    """
    quorums: Dict[int, List[Tuple[float, int]]] = {}
    applies: Dict[int, List[Tuple[float, int]]] = {}
    for record in events:
        ev = record.event
        if isinstance(ev, QuorumAccepted):
            quorums.setdefault(ev.pid, []).append((record.at_ms, ev.log_idx))
        elif isinstance(ev, EntryApplied):
            applies.setdefault(ev.pid, []).append((record.at_ms, ev.log_idx))
    spans: List[Span] = []
    for record in events:
        ev = record.event
        if not isinstance(ev, ProposalAppended):
            continue
        quorum_at = _first_covering(quorums.get(ev.pid, ()),
                                    record.at_ms, ev.to_idx)
        if quorum_at is None:
            continue
        apply_at = _first_covering(applies.get(ev.pid, ()),
                                   quorum_at, ev.to_idx)
        end = apply_at if apply_at is not None else quorum_at
        phases: List[Tuple[str, float]] = [("replicate", record.at_ms)]
        if apply_at is not None:
            phases.append(("apply", quorum_at))
        spans.append(Span(
            kind=SPAN_COMMIT,
            trace_id=ev.trace_id,
            start_ms=record.at_ms,
            end_ms=end,
            pid=ev.pid,
            phases=tuple(phases),
            attrs=(("from_idx", ev.from_idx), ("to_idx", ev.to_idx),
                   ("protocol", ev.protocol),
                   ("entries", ev.to_idx - ev.from_idx)),
        ))
    return spans


def _first_covering(series: Sequence[Tuple[float, int]], not_before: float,
                    idx: int) -> Optional[float]:
    """Earliest timestamp in ``series`` at/after ``not_before`` whose
    log index reaches ``idx`` (series is in emission order)."""
    for at, log_idx in series:
        if at >= not_before and log_idx >= idx:
            return at
    return None


def client_spans(events: Sequence[EventRecord]) -> List[Span]:
    """Client round-trip spans: proposal sent → reply decided, per seq."""
    sent: Dict[Tuple[int, int], float] = {}
    spans: List[Span] = []
    for record in events:
        ev = record.event
        if isinstance(ev, ClientProposalSent):
            for seq in range(ev.first_seq, ev.first_seq + ev.count):
                sent.setdefault((ev.client_id, seq), record.at_ms)
        elif isinstance(ev, ClientReplyDecided):
            start = sent.pop((ev.client_id, ev.seq), None)
            if start is None:
                continue
            spans.append(Span(
                kind=SPAN_CLIENT,
                trace_id=f"c{ev.client_id}-{ev.seq}",
                start_ms=start,
                end_ms=record.at_ms,
                pid=ev.client_id,
                attrs=(("seq", ev.seq),),
            ))
    return spans


def election_spans(events: Sequence[EventRecord],
                   settle_ms: float = 500.0) -> List[Span]:
    """Election-convergence spans, by sessionizing the election signal.

    Election activity (``BallotBumped``, ``QCFlagChanged`` to
    not-quorum-connected, ``BallotElected``) arrives in bursts separated
    by steady-state quiet; gaps longer than ``settle_ms`` split episodes.
    An episode's span runs from its first trigger to its *last*
    ``BallotElected`` — the point where the final leader was observed.
    ``converged`` is False when servers disagreed on the final leader or
    no election completed at all (e.g. the quorum-loss partition window,
    where only the pivot stays quorum-connected and nobody is elected).
    """
    episode: List[EventRecord] = []
    spans: List[Span] = []

    def flush() -> None:
        if not episode:
            return
        electeds = [r for r in episode if isinstance(r.event, BallotElected)]
        if electeds:
            last_by_pid: Dict[int, int] = {}
            for r in electeds:
                last_by_pid[r.event.pid] = r.event.leader
            leaders = set(last_by_pid.values())
            final = electeds[-1].event.leader
            spans.append(Span(
                kind=SPAN_ELECTION,
                trace_id=f"election-{episode[0].at_ms:.0f}",
                start_ms=episode[0].at_ms,
                end_ms=electeds[-1].at_ms,
                pid=final,
                attrs=(("leader", final), ("converged", len(leaders) == 1),
                       ("observers", len(last_by_pid))),
            ))
        else:
            spans.append(Span(
                kind=SPAN_ELECTION,
                trace_id=f"election-{episode[0].at_ms:.0f}",
                start_ms=episode[0].at_ms,
                end_ms=episode[-1].at_ms,
                pid=0,
                attrs=(("leader", None), ("converged", False),
                       ("observers", 0)),
            ))
        episode.clear()

    for record in events:
        ev = record.event
        relevant = (
            isinstance(ev, (BallotBumped, BallotElected))
            or (isinstance(ev, QCFlagChanged) and not ev.quorum_connected)
        )
        if not relevant:
            continue
        if episode and record.at_ms - episode[-1].at_ms > settle_ms:
            flush()
        episode.append(record)
    flush()
    return spans


def recovery_spans(events: Sequence[EventRecord]) -> List[Span]:
    """Crash/session recovery spans: PrepareReq out → AcceptSync applied."""
    open_by_pid: Dict[int, Tuple[float, str]] = {}
    spans: List[Span] = []
    for record in events:
        ev = record.event
        if isinstance(ev, RecoveryStarted):
            open_by_pid.setdefault(ev.pid, (record.at_ms, ev.reason))
        elif isinstance(ev, RecoveryCompleted):
            started = open_by_pid.pop(ev.pid, None)
            if started is None:
                continue
            start_ms, reason = started
            spans.append(Span(
                kind=SPAN_RECOVERY,
                trace_id=f"recovery-{ev.pid}-{start_ms:.0f}",
                start_ms=start_ms,
                end_ms=record.at_ms,
                pid=ev.pid,
                attrs=(("reason", reason), ("log_idx", ev.log_idx)),
            ))
    return spans


def migration_spans(events: Sequence[EventRecord]) -> List[Span]:
    """Whole-migration spans plus per-donor segment spans.

    The whole span runs from the first donor pick to
    ``MigrationCompleted``; each ``(joiner, donor)`` pair additionally
    gets a segment span from its pull request to the last segment that
    donor delivered — the per-donor breakdown that distinguishes the
    parallel strategy from leader-only migration (paper Figure 6).
    """
    first_pick: Dict[Tuple[int, int], float] = {}
    donor_start: Dict[Tuple[int, int, int], float] = {}
    donor_last: Dict[Tuple[int, int, int], Tuple[float, int]] = {}
    spans: List[Span] = []
    for record in events:
        ev = record.event
        if isinstance(ev, MigrationDonorPicked):
            first_pick.setdefault((ev.pid, ev.config_id), record.at_ms)
            donor_start.setdefault((ev.pid, ev.config_id, ev.donor),
                                   record.at_ms)
        elif isinstance(ev, MigrationSegmentReceived):
            key = (ev.pid, ev.config_id, ev.donor)
            prev = donor_last.get(key, (record.at_ms, 0))
            donor_last[key] = (record.at_ms, prev[1] + ev.entries)
        elif isinstance(ev, MigrationCompleted):
            start = first_pick.pop((ev.pid, ev.config_id), None)
            if start is None:
                continue
            spans.append(Span(
                kind=SPAN_MIGRATION,
                trace_id=f"migration-{ev.pid}-cfg{ev.config_id}",
                start_ms=start,
                end_ms=record.at_ms,
                pid=ev.pid,
                attrs=(("config_id", ev.config_id),
                       ("entries", ev.entries)),
            ))
    for (pid, config_id, donor), start in donor_start.items():
        last = donor_last.get((pid, config_id, donor))
        if last is None:
            continue
        end, entries = last
        spans.append(Span(
            kind=SPAN_MIGRATION_SEGMENT,
            trace_id=f"migration-{pid}-cfg{config_id}-d{donor}",
            start_ms=start,
            end_ms=end,
            pid=pid,
            attrs=(("config_id", config_id), ("donor", donor),
                   ("entries", entries)),
        ))
    return spans


def assemble_spans(events: Sequence[EventRecord],
                   settle_ms: float = 500.0) -> List[Span]:
    """Every span kind from one event stream, sorted by start time."""
    spans = (
        commit_spans(events)
        + client_spans(events)
        + election_spans(events, settle_ms=settle_ms)
        + recovery_spans(events)
        + migration_spans(events)
    )
    spans.sort(key=lambda s: (s.start_ms, s.kind))
    return spans


def span_quantile(spans: Sequence[Span], q: float) -> Optional[Span]:
    """The span at the ``q``-quantile of duration (None when empty)."""
    if not spans:
        return None
    ordered = sorted(spans, key=lambda s: s.duration_ms)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]
