"""Critical-path profiler: phase attribution, queue sampling, digest safety.

The PR 7 acceptance criteria under test:

- on a fig7-style normal-operation run, each commit's phase durations sum
  to within 5% of the span's end-to-end duration (they sum *exactly* by
  construction — consecutive milestone differences — so the 5% criterion
  is a tripwire against a future phase being double-counted or dropped),
- attaching tracing + the queue-depth sampler changes no decided-log
  digest: the instrumentation only reads protocol state.
"""

import pytest

from repro.bench.runner import LogDigest
from repro.obs.events import QueueDepthSampled
from repro.obs.exporters import MemorySink
from repro.obs.prof import (
    PHASES,
    PathAttribution,
    attribute_commit_paths,
    attributions_by_window,
    dominant_phase,
    phase_totals,
    sample_queue_depths,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import commit_spans
from repro.sim.harness import ExperimentConfig, build_experiment


def _traced_run(duration_ms=3_000.0, seed=7, cp=8):
    """A fig7-style normal-operation run (3-server LAN omni, closed-loop
    client, stable pre-seeded leader) with full tracing."""
    reg = MetricsRegistry()
    reg.enable_tracing()
    sink = MemorySink()
    reg.add_sink(sink)
    exp = build_experiment(
        ExperimentConfig(protocol="omni", num_servers=3,
                         election_timeout_ms=100.0, one_way_ms=0.5,
                         seed=seed, initial_leader=1),
        obs=reg)
    exp.make_client(cp)
    exp.cluster.run_for(duration_ms)
    return exp, sink


class TestAttributionAccuracy:
    def test_phases_sum_within_5pct_of_span_duration(self):
        """Acceptance: per-commit phase attribution accounts for the whole
        span — no latency leaks between phases."""
        _, sink = _traced_run()
        attributions = attribute_commit_paths(sink.records)
        assert len(attributions) > 50, "fig7 run must commit steadily"
        for attribution in attributions:
            attributed = sum(d for _, d in attribution.phases)
            assert attributed == pytest.approx(attribution.total_ms,
                                               rel=0.05), \
                f"trace {attribution.trace_id}: {attribution.phases}"

    def test_attribution_extends_back_to_client_send(self):
        _, sink = _traced_run()
        attributions = attribute_commit_paths(sink.records)
        spans = {s.trace_id: s for s in commit_spans(sink.records)}
        with_client = [a for a in attributions
                       if a.phases and a.phases[0][0] == "client_to_leader"]
        assert with_client, "closed-loop client spans must join by trace id"
        for attribution in with_client:
            span = spans[attribution.trace_id]
            # The attribution starts at the client send, strictly no later
            # than the leader append that starts the bare commit span.
            assert attribution.start_ms <= span.start_ms
            assert attribution.end_ms == span.end_ms

    def test_phase_names_stay_in_vocabulary(self):
        _, sink = _traced_run(duration_ms=1_500.0)
        for attribution in attribute_commit_paths(sink.records):
            for name, duration in attribution.phases:
                assert name in PHASES
                assert duration >= 0.0

    def test_untraced_events_attribute_nothing(self):
        assert attribute_commit_paths([]) == []

    def test_lan_run_is_replicate_bound(self):
        """On a LAN the round trips dominate: replication must be the
        aggregate dominant phase."""
        _, sink = _traced_run()
        attributions = attribute_commit_paths(sink.records)
        assert dominant_phase(attributions) == "replicate"
        totals = phase_totals(attributions)
        assert set(totals) <= set(PHASES)

    def test_windowed_attribution_buckets_by_completion(self):
        a = PathAttribution(trace_id="t1", pid=1, start_ms=90.0,
                            end_ms=110.0, phases=(("replicate", 20.0),))
        b = PathAttribution(trace_id="t2", pid=1, start_ms=120.0,
                            end_ms=130.0, phases=(("apply", 10.0),))
        buckets = attributions_by_window([a, b], window_ms=100.0)
        # The boundary-straddling commit lands in the window its apply
        # completes in, and each window judges its own dominant phase.
        assert [x.trace_id for x in buckets[1]] == ["t1", "t2"]
        assert dominant_phase(buckets[1]) == "replicate"
        assert list(attributions_by_window([a], 100.0, start_ms=100.0)) == [0]


class TestQueueSampling:
    def test_gauges_and_events_per_queue(self):
        reg = MetricsRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        sample_queue_depths(reg, {"sp_outbox": 3, "sp_pending": 0}, pid=2)
        sample_queue_depths(reg, {"sim_events": 11})
        assert reg.gauge("repro_queue_depth", pid=2,
                         queue="sp_outbox").value == 3
        assert reg.gauge("repro_queue_depth", queue="sim_events").value == 11
        sampled = [r.event for r in sink.by_kind("QueueDepthSampled")]
        assert {(e.queue, e.depth, e.pid) for e in sampled} == \
            {("sp_outbox", 3, 2), ("sp_pending", 0, 2), ("sim_events", 11, None)}

    def test_delta_compression_skips_unchanged_depths(self):
        """With a caller-held memo, a steady depth emits once — the flight
        recorder's depth lane records transitions, not a constant hum."""
        reg = MetricsRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        memo = {}
        for depth in (5, 5, 5, 7, 7, 0):
            sample_queue_depths(reg, {"sp_outbox": depth}, pid=1, last=memo)
        emitted = [r.event.depth for r in sink.by_kind("QueueDepthSampled")]
        assert emitted == [5, 7, 0]
        # The gauge always reflects the latest sampled value.
        assert reg.gauge("repro_queue_depth", pid=1,
                         queue="sp_outbox").value == 0

    def test_disabled_registry_costs_nothing(self):
        """The null registry swallows the whole round — the zero-overhead
        guard the instrumentation sites rely on."""
        from repro.obs.registry import NULL_REGISTRY
        sample_queue_depths(NULL_REGISTRY, {"sp_outbox": 3}, pid=1)


class TestDigestSafety:
    def _drive(self, with_series):
        reg = None
        if with_series:
            reg = MetricsRegistry()
            reg.enable_tracing()
        exp = build_experiment(
            ExperimentConfig(protocol="omni", num_servers=3,
                             election_timeout_ms=100.0, one_way_ms=0.5,
                             seed=7, initial_leader=1),
            obs=reg)
        if with_series:
            exp.attach_queue_sampler(sample_ms=20.0)
        digest = LogDigest()
        exp.cluster.on_decided(
            lambda pid, idx, entry, now: digest.record(pid, idx, entry))
        exp.make_client(4)
        exp.cluster.run_for(2_500.0)
        return digest.hexdigest()

    def test_series_and_profiling_leave_digests_identical(self):
        """Acceptance: tracing plus the queue sampler reads state but
        never steers it — per-server decided logs are byte-identical."""
        assert self._drive(with_series=False) == self._drive(with_series=True)


class TestQueueDepthInstrumentation:
    def test_sim_staging_points_report_depths(self):
        """Every sim-side staging point shows up in the sampled stream:
        the event heap, the network's in-flight count, and each server's
        outbox/pending accessors."""
        reg = MetricsRegistry()
        sink = MemorySink()
        reg.add_sink(sink)
        exp = build_experiment(
            ExperimentConfig(protocol="omni", num_servers=3,
                             election_timeout_ms=100.0, one_way_ms=0.5,
                             seed=3, initial_leader=1),
            obs=reg)
        exp.attach_queue_sampler(sample_ms=20.0)
        exp.make_client(8)
        exp.cluster.run_for(1_500.0)
        queues = {r.event.queue for r in sink.by_kind("QueueDepthSampled")}
        assert {"sim_events", "net_in_flight", "server_outbox",
                "sp_outbox", "sp_pending"} <= queues
        # In-flight accounting is exact: it returns to zero when quiesced.
        exp.cluster.run_for(500.0)
        assert exp.network.in_flight >= 0

    def test_event_queue_exposes_pressure_counters(self):
        from repro.sim.events import _BULK_DRAIN_MIN, EventQueue
        queue = EventQueue()
        for i in range(4):
            queue.schedule(float(i), lambda: None)
        assert len(queue) == 4
        queue.run_until(10.0)
        # Small backlogs take the heap path: no bulk drain recorded.
        assert queue.bulk_drains == 0
        for i in range(_BULK_DRAIN_MIN):
            queue.schedule(20.0 + i * 1e-3, lambda: None)
        queue.run_until(30.0)
        assert queue.bulk_drains == 1
        assert queue.limit_hits == 0

    def test_event_queue_counts_limit_hits(self):
        import pytest as _pytest

        from repro.sim.events import EventQueue, SimulationLimitError
        queue = EventQueue(max_events=2)
        for i in range(5):
            queue.schedule(float(i), lambda: None)
        with _pytest.raises(SimulationLimitError):
            queue.run_until(10.0)
        assert queue.limit_hits == 1
