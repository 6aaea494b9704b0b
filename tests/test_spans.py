"""Tests for the causal-tracing span model and its assemblers."""

import pytest

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
from repro.obs.spans import (
    SPAN_COMMIT,
    Span,
    TraceContext,
    assemble_spans,
    client_spans,
    commit_spans,
    election_spans,
    entry_trace_id,
    migration_spans,
    recovery_spans,
    span_quantile,
)
from repro.omni.entry import Command


def rec(at_ms, event):
    return EventRecord(at_ms=at_ms, event=event)


class TestTraceContext:
    def test_child_keeps_trace_links_parent(self):
        root = TraceContext("c1-0", span_id="1.0")
        child = root.child("2.5")
        assert child.trace_id == "c1-0"
        assert child.span_id == "2.5"
        assert child.parent_id == "1.0"

    def test_dict_round_trip(self):
        ctx = TraceContext("c1-7", span_id="3.1", parent_id="1.0")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_from_dict_tolerates_missing_fields(self):
        assert TraceContext.from_dict({"trace_id": "t"}) == TraceContext("t")

    def test_entry_trace_id(self):
        assert entry_trace_id(Command(b"x", client_id=2, seq=9)) == "c2-9"
        assert entry_trace_id(object()) == ""


class TestSpanModel:
    def test_phase_durations_consecutive_milestones(self):
        span = Span(kind="commit", trace_id="t", start_ms=10.0, end_ms=16.0,
                    phases=(("replicate", 10.0), ("apply", 14.0)))
        assert span.phase_durations() == [("replicate", 4.0), ("apply", 2.0)]
        assert span.duration_ms == 6.0

    def test_attr_lookup(self):
        span = Span(kind="commit", trace_id="t", start_ms=0, end_ms=1,
                    attrs=(("protocol", "sp"),))
        assert span.attr("protocol") == "sp"
        assert span.attr("missing", 42) == 42


class TestCommitSpans:
    def test_propose_quorum_apply(self):
        events = [
            rec(10.0, ProposalAppended(pid=1, from_idx=0, to_idx=2,
                                       trace_id="c1-0")),
            rec(11.0, QuorumAccepted(pid=1, log_idx=2)),
            rec(11.5, EntryApplied(pid=1, log_idx=2, count=2)),
        ]
        (span,) = commit_spans(events)
        assert span.kind == SPAN_COMMIT
        assert span.trace_id == "c1-0"
        assert span.start_ms == 10.0 and span.end_ms == 11.5
        assert span.phase_durations() == [("replicate", 1.0), ("apply", 0.5)]
        assert span.attr("entries") == 2

    def test_quorum_must_cover_batch(self):
        events = [
            rec(10.0, ProposalAppended(pid=1, from_idx=0, to_idx=4)),
            rec(11.0, QuorumAccepted(pid=1, log_idx=2)),  # partial
            rec(12.0, QuorumAccepted(pid=1, log_idx=4)),
        ]
        (span,) = commit_spans(events)
        assert span.end_ms == 12.0

    def test_uncommitted_batch_skipped(self):
        events = [rec(10.0, ProposalAppended(pid=1, from_idx=0, to_idx=1))]
        assert commit_spans(events) == []

    def test_per_pid_isolation(self):
        events = [
            rec(10.0, ProposalAppended(pid=1, from_idx=0, to_idx=1)),
            rec(11.0, QuorumAccepted(pid=2, log_idx=5)),  # other leader
        ]
        assert commit_spans(events) == []

    def test_same_timestamp_quorum_counts(self):
        # Sim time can stamp the whole chain at one instant.
        events = [
            rec(10.0, ProposalAppended(pid=1, from_idx=0, to_idx=1)),
            rec(10.0, QuorumAccepted(pid=1, log_idx=1)),
        ]
        (span,) = commit_spans(events)
        assert span.duration_ms == 0.0


class TestClientSpans:
    def test_batch_expands_to_per_seq_spans(self):
        events = [
            rec(5.0, ClientProposalSent(client_id=1, first_seq=0, count=2)),
            rec(7.0, ClientReplyDecided(client_id=1, seq=0)),
            rec(9.0, ClientReplyDecided(client_id=1, seq=1)),
        ]
        spans = client_spans(events)
        assert [s.trace_id for s in spans] == ["c1-0", "c1-1"]
        assert [s.duration_ms for s in spans] == [2.0, 4.0]

    def test_reply_without_send_ignored(self):
        events = [rec(7.0, ClientReplyDecided(client_id=1, seq=0))]
        assert client_spans(events) == []


class TestElectionSpans:
    def test_converged_election(self):
        events = [
            rec(100.0, BallotBumped(pid=2, ballot=5)),
            rec(120.0, BallotElected(pid=2, leader=2, ballot=5)),
            rec(130.0, BallotElected(pid=1, leader=2, ballot=5)),
        ]
        (span,) = election_spans(events)
        assert span.start_ms == 100.0 and span.end_ms == 130.0
        assert span.attr("leader") == 2
        assert span.attr("converged") is True

    def test_quiet_gap_splits_episodes(self):
        events = [
            rec(100.0, BallotElected(pid=1, leader=1, ballot=1)),
            rec(5000.0, BallotElected(pid=1, leader=2, ballot=2)),
        ]
        spans = election_spans(events, settle_ms=500.0)
        assert len(spans) == 2

    def test_no_elected_is_unconverged(self):
        # The quorum-loss window: QC flags drop, ballots churn, nobody wins.
        events = [
            rec(100.0, QCFlagChanged(pid=2, quorum_connected=False)),
            rec(150.0, BallotBumped(pid=2, ballot=7)),
        ]
        (span,) = election_spans(events)
        assert span.attr("converged") is False
        assert span.attr("leader") is None

    def test_qc_regain_not_a_trigger(self):
        events = [rec(100.0, QCFlagChanged(pid=2, quorum_connected=True))]
        assert election_spans(events) == []


class TestRecoverySpans:
    def test_pairing_and_reason(self):
        events = [
            rec(100.0, RecoveryStarted(pid=3, reason="session")),
            rec(140.0, RecoveryCompleted(pid=3, log_idx=17)),
        ]
        (span,) = recovery_spans(events)
        assert span.pid == 3 and span.duration_ms == 40.0
        assert span.attr("reason") == "session"
        assert span.attr("log_idx") == 17

    def test_unmatched_start_dropped(self):
        events = [rec(100.0, RecoveryStarted(pid=3))]
        assert recovery_spans(events) == []

    def test_duplicate_start_keeps_earliest(self):
        events = [
            rec(100.0, RecoveryStarted(pid=3)),
            rec(110.0, RecoveryStarted(pid=3)),
            rec(140.0, RecoveryCompleted(pid=3, log_idx=1)),
        ]
        (span,) = recovery_spans(events)
        assert span.start_ms == 100.0


class TestMigrationSpans:
    def test_whole_and_per_donor_segments(self):
        events = [
            rec(10.0, MigrationDonorPicked(pid=4, config_id=1, donor=1,
                                           from_idx=0, to_idx=50)),
            rec(10.0, MigrationDonorPicked(pid=4, config_id=1, donor=2,
                                           from_idx=50, to_idx=100)),
            rec(20.0, MigrationSegmentReceived(pid=4, config_id=1, donor=1,
                                               from_idx=0, entries=50)),
            rec(30.0, MigrationSegmentReceived(pid=4, config_id=1, donor=2,
                                               from_idx=50, entries=50)),
            rec(31.0, MigrationCompleted(pid=4, config_id=1, entries=100,
                                         duration_ms=21.0)),
        ]
        spans = migration_spans(events)
        whole = [s for s in spans if s.kind == "migration"]
        segments = [s for s in spans if s.kind == "migration_segment"]
        assert len(whole) == 1 and whole[0].duration_ms == 21.0
        assert {s.attr("donor") for s in segments} == {1, 2}
        assert all(s.attr("entries") == 50 for s in segments)


class TestAssembleAndHistograms:
    def test_assemble_sorted_by_start(self):
        events = [
            rec(50.0, ProposalAppended(pid=1, from_idx=0, to_idx=1)),
            rec(51.0, QuorumAccepted(pid=1, log_idx=1)),
            rec(10.0, BallotElected(pid=1, leader=1, ballot=1)),
        ]
        spans = assemble_spans(events)
        assert [s.start_ms for s in spans] == sorted(s.start_ms for s in spans)
        assert {s.kind for s in spans} == {"election", "commit"}

    def test_span_quantile(self):
        spans = [Span(kind="c", trace_id=str(i), start_ms=0.0, end_ms=float(i))
                 for i in range(1, 101)]
        assert span_quantile(spans, 0.5).duration_ms == 50.0
        assert span_quantile(spans, 0.99).duration_ms == 99.0
        assert span_quantile([], 0.5) is None
