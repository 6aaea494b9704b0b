"""Queue/backpressure instrumentation and the commit critical-path profiler.

Two halves, both feeding :mod:`repro.obs.series`:

- **Queue-depth sampling** — :func:`sample_queue_depths` turns a
  ``{queue_name: depth}`` mapping into ``repro_queue_depth`` gauges plus
  :class:`~repro.obs.events.QueueDepthSampled` events. The staging points
  (sim event heap, network in-flight set, server/SP outboxes, TCP write
  queues) expose their depths via ``len()``/``queue_depths()`` accessors;
  the harness (:meth:`repro.sim.harness.Experiment.attach_queue_sampler`)
  and the runtime tick loop call this helper on a fixed cadence.
  Everything is behind the caller's ``_obs_on``/enabled-registry guard, so
  digests stay identical when observability is off.

- **Critical-path attribution** — :func:`attribute_commit_paths` walks the
  commit spans assembled by :mod:`repro.obs.spans` (PR 2) and joins them
  with their originating client spans by trace id, splitting each decided
  entry's end-to-end latency into phases. By construction the phase
  durations sum *exactly* to the attributed path duration (consecutive
  milestone timestamps), so "slow" becomes "replicate-bound on p2" instead
  of a single opaque number.

Phase vocabulary (milestones available in the event stream):

``client_to_leader``
    ``ClientProposalSent`` → ``ProposalAppended``: client→leader transit
    plus the leader's append (the append itself is a single timestamp in
    both sim and runtime, so it folds into this phase's endpoint).
``replicate``
    ``ProposalAppended`` → ``QuorumAccepted``: fan-out of AcceptDecide,
    follower appends, and quorum gathering.
``apply``
    ``QuorumAccepted`` → ``EntryApplied``: decide propagation and apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import EventRecord, QueueDepthSampled
from repro.obs.spans import client_spans, commit_spans

# Canonical staging-point names; every QueueDepthSampled.queue is one of
# these (plus any future additions), so exporters and the timeline lane can
# enumerate them without guessing.
QUEUE_SIM_EVENTS = "sim_events"          #: sim EventQueue heap depth
QUEUE_NET_IN_FLIGHT = "net_in_flight"    #: SimNetwork scheduled deliveries
QUEUE_SERVER_OUTBOX = "server_outbox"    #: OmniPaxosServer envelope outbox
QUEUE_SP_OUTBOX = "sp_outbox"            #: Sequence Paxos message outbox
QUEUE_SP_PENDING = "sp_pending"          #: proposals buffered pre-accept
QUEUE_TCP_WRITE = "tcp_write"            #: TCP transport write-buffer bytes
QUEUE_TCP_RECONNECT = "tcp_reconnect"    #: peers awaiting redial

QUEUE_NAMES: Tuple[str, ...] = (
    QUEUE_SIM_EVENTS, QUEUE_NET_IN_FLIGHT, QUEUE_SERVER_OUTBOX,
    QUEUE_SP_OUTBOX, QUEUE_SP_PENDING, QUEUE_TCP_WRITE, QUEUE_TCP_RECONNECT,
)

#: Attribution phases in causal order.
PHASES: Tuple[str, ...] = ("client_to_leader", "replicate", "apply")


def sample_queue_depths(registry, depths: Mapping[str, int],
                        pid: Optional[int] = None,
                        last: Optional[Dict[str, int]] = None) -> None:
    """Publish one sampling round of queue depths: a ``repro_queue_depth``
    gauge per queue (labelled by ``pid`` when server-scoped) plus a
    :class:`QueueDepthSampled` event per queue for the series engine, the
    flight recorder's depth lane, and the timeline's backlog lane.

    ``last`` is an optional caller-held memo of the previous round's
    depths: when given, unchanged depths are skipped (delta compression),
    so an idle queue costs one emission when it settles instead of one per
    tick. The gauge keeps its prior value, a window with no sample simply
    omits that ``queue:*:max`` family, and the flight recorder's depth lane
    records transitions instead of a constant hum."""
    for queue in sorted(depths):
        depth = int(depths[queue])
        if last is not None:
            if last.get(queue) == depth:
                continue
            last[queue] = depth
        if pid is None:
            registry.gauge("repro_queue_depth", queue=queue).set(depth)
        else:
            registry.gauge("repro_queue_depth", pid=pid,
                           queue=queue).set(depth)
        registry.emit(QueueDepthSampled(queue=queue, depth=depth, pid=pid))


@dataclass(frozen=True, slots=True)
class PathAttribution:
    """One decided entry's latency split into causally ordered phases.

    ``phases`` is ``((name, duration_ms), ...)``; the durations sum exactly
    to ``total_ms`` because each is the difference of consecutive milestone
    timestamps. ``pid`` is the leader that appended the entry."""

    trace_id: str
    pid: int
    start_ms: float
    end_ms: float
    phases: Tuple[Tuple[str, float], ...]
    entries: int = 1

    @property
    def total_ms(self) -> float:
        return self.end_ms - self.start_ms

    @property
    def dominant_phase(self) -> str:
        if not self.phases:
            return ""
        return max(self.phases, key=lambda item: (item[1], item[0]))[0]

    def phase_ms(self, name: str) -> float:
        return sum(d for n, d in self.phases if n == name)


def attribute_commit_paths(events: Iterable[EventRecord]) -> List[PathAttribution]:
    """Walk assembled commit spans and attribute each one's latency.

    Requires a traced export (``MetricsRegistry.tracing`` on during the
    run); without the tracing events there are no commit spans and the
    result is empty. When the matching client span is present and starts
    no later than the append, the attribution is extended backwards to
    cover the ``client_to_leader`` phase; otherwise it starts at the
    append milestone with ``replicate`` as the first phase."""
    events = list(events)
    commits = commit_spans(events)
    clients = {span.trace_id: span for span in client_spans(events)
               if span.trace_id}
    out: List[PathAttribution] = []
    for span in commits:
        phases: List[Tuple[str, float]] = []
        start = span.start_ms
        client = clients.get(span.trace_id) if span.trace_id else None
        if client is not None and client.start_ms <= span.start_ms:
            phases.append(("client_to_leader", span.start_ms - client.start_ms))
            start = client.start_ms
        phases.extend(span.phase_durations())
        out.append(PathAttribution(
            trace_id=span.trace_id, pid=span.pid if span.pid is not None else -1,
            start_ms=start, end_ms=span.end_ms, phases=tuple(phases),
            entries=int(span.attr("entries", 1) or 1),
        ))
    return out


def phase_totals(attributions: Iterable[PathAttribution]) -> Dict[str, float]:
    """Total milliseconds spent per phase across attributions."""
    totals: Dict[str, float] = {}
    for attribution in attributions:
        for name, duration in attribution.phases:
            totals[name] = totals.get(name, 0.0) + duration
    return totals


def dominant_phase(attributions: Sequence[PathAttribution]) -> str:
    """The phase with the largest aggregate share, or ``""`` if empty."""
    totals = phase_totals(attributions)
    if not totals:
        return ""
    return max(totals.items(), key=lambda item: (item[1], item[0]))[0]


def attributions_by_window(attributions: Iterable[PathAttribution],
                           window_ms: float,
                           start_ms: float = 0.0) -> Dict[int, List[PathAttribution]]:
    """Bucket attributions into fixed windows by *completion* time (the
    entry's apply milestone), matching the series engine's half-open
    ``[start, end)`` windows."""
    buckets: Dict[int, List[PathAttribution]] = {}
    for attribution in attributions:
        if attribution.end_ms < start_ms:
            continue
        index = int((attribution.end_ms - start_ms) // window_ms)
        buckets.setdefault(index, []).append(attribution)
    return buckets
