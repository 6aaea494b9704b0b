"""Unified observability: structured protocol events + a metrics registry.

Every layer of the reproduction — the simulator harness, the live asyncio
runtime, Omni-Paxos itself, and the three baselines — publishes into the
same two channels:

- **structured events** (:mod:`repro.obs.events`): typed records such as
  :class:`~repro.obs.events.BallotElected` or
  :class:`~repro.obs.events.StopSignDecided`, emitted through
  :meth:`MetricsRegistry.emit` and fanned out to pluggable sinks,
- **metrics** (:mod:`repro.obs.registry`): named counters, gauges, and
  HDR-style histograms, keyed by label sets.

The registry is *zero-overhead when disabled*: protocol components hold a
shared no-op registry by default (``enabled`` is ``False``), and every
emission site is guarded by that single attribute check, so uninstrumented
runs pay one boolean test on the cold transitions and nothing on the hot
paths.

Typical use::

    from repro.obs import MemorySink, MetricsRegistry
    from repro.sim.harness import ExperimentConfig, build_experiment

    obs = MetricsRegistry()
    sink = MemorySink()
    obs.add_sink(sink)
    exp = build_experiment(ExperimentConfig(protocol="omni"), obs=obs)
    ...run...
    sink.kinds()                       # which events occurred
    obs.counter_value("repro_decided_entries_total", pid=3)

See ``docs/OBSERVABILITY.md`` for the full event vocabulary, the exporter
formats, and overhead notes.
"""

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
    ProtocolEvent,
    QCFlagChanged,
    QueueDepthSampled,
    QuorumAccepted,
    RecoveryCompleted,
    RecoveryStarted,
    RoleChanged,
    SessionDropped,
    StopSignDecided,
    event_from_dict,
    event_to_dict,
)
from repro.obs.prof import (
    PathAttribution,
    attribute_commit_paths,
    sample_queue_depths,
)
from repro.obs.series import (
    SeriesWindow,
    diff_series,
    render_diff,
    series_from_events,
    series_lanes,
)
from repro.obs.exporters import (
    JsonLinesSink,
    MemorySink,
    read_jsonl,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Instrumented,
    MetricsRegistry,
)
from repro.obs.report import RunReport, summarize_run
from repro.obs.spans import (
    SPAN_KINDS,
    Span,
    TraceContext,
    assemble_spans,
    entry_trace_id,
    span_quantile,
)
from repro.obs.timeline import render_spans, render_timeline

__all__ = [
    "BallotBumped",
    "BallotElected",
    "ClientProposalSent",
    "ClientReplyDecided",
    "Counter",
    "EntryApplied",
    "EventRecord",
    "Gauge",
    "Histogram",
    "Instrumented",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "MigrationCompleted",
    "MigrationDonorPicked",
    "MigrationSegmentReceived",
    "NULL_REGISTRY",
    "ProposalAppended",
    "PathAttribution",
    "ProtocolEvent",
    "QCFlagChanged",
    "QueueDepthSampled",
    "QuorumAccepted",
    "RecoveryCompleted",
    "RecoveryStarted",
    "RoleChanged",
    "RunReport",
    "SPAN_KINDS",
    "SeriesWindow",
    "SessionDropped",
    "Span",
    "StopSignDecided",
    "TraceContext",
    "assemble_spans",
    "attribute_commit_paths",
    "diff_series",
    "entry_trace_id",
    "event_from_dict",
    "event_to_dict",
    "read_jsonl",
    "render_diff",
    "render_spans",
    "render_timeline",
    "sample_queue_depths",
    "series_from_events",
    "series_lanes",
    "span_quantile",
    "summarize_run",
]
