"""Unit tests for the MigrationPlan state machine and donor serving."""

import pytest

from repro.errors import ConfigError, MigrationError, StorageError
from repro.omni.messages import LogPullRequest, LogSegment
from repro.omni.reconfig import (
    LEADER_ONLY,
    PARALLEL,
    MigrationPlan,
    serve_pull_request,
)


def plan(**kwargs):
    defaults = dict(
        config_id=1, from_idx=0, to_idx=100, donors=[2, 3],
        chunk_entries=25, retry_ms=100.0,
    )
    defaults.update(kwargs)
    return MigrationPlan(**defaults)


def segment(log, req, max_entries=10_000):
    """A donor holding decided ``log`` answers ``req``."""
    return serve_pull_request(req, lambda lo, hi: log[lo:hi], max_entries)


def serve(plan_obj, log, now=0.0, only_donor=None):
    """Answer every outstanding request from ``log``; return #served."""
    served = 0
    for dst, req in plan_obj.take_outbox():
        if only_donor is not None and dst != only_donor:
            continue
        plan_obj.on_segment(dst, segment(log, req), now)
        served += 1
    return served


LOG = [f"e{i}" for i in range(100)]


class TestValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            plan(strategy="magic")

    def test_rejects_negative_range(self):
        with pytest.raises(ConfigError):
            plan(from_idx=10, to_idx=5)

    def test_rejects_no_donors(self):
        with pytest.raises(MigrationError):
            plan(donors=[])

    def test_empty_range_is_complete(self):
        p = plan(from_idx=5, to_idx=5, donors=[])
        assert p.complete()
        assert p.collected_entries() == ()

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigError):
            plan(chunk_entries=0)


class TestHappyPath:
    def test_completes_from_full_donors(self):
        p = plan()
        p.start(0.0)
        for _ in range(10):
            if p.complete():
                break
            serve(p, LOG)
        assert p.complete()
        assert list(p.collected_entries()) == LOG

    def test_progress_tracks_fetched_fraction(self):
        p = plan(chunk_entries=50)
        p.start(0.0)
        assert p.progress() == 0.0
        ((dst, req), *rest) = p.take_outbox()
        p.on_segment(dst, segment(LOG, req), 0.0)
        assert 0.0 < p.progress() <= 0.5

    def test_collected_before_complete_raises(self):
        p = plan()
        p.start(0.0)
        with pytest.raises(MigrationError):
            p.collected_entries()

    def test_partial_start_offset(self):
        p = plan(from_idx=40)
        p.start(0.0)
        while not p.complete():
            if not serve(p, LOG):
                break
        assert list(p.collected_entries()) == LOG[40:]

    def test_start_idempotent(self):
        p = plan()
        p.start(0.0)
        first = len(p.take_outbox())
        p.start(0.0)
        assert p.take_outbox() == []
        assert first > 0


class TestFlowControl:
    def test_window_limits_outstanding_per_donor(self):
        p = plan(chunk_entries=10, window_per_donor=2)
        p.start(0.0)
        out = p.take_outbox()
        per_donor = {}
        for dst, _req in out:
            per_donor[dst] = per_donor.get(dst, 0) + 1
        assert all(count <= 2 for count in per_donor.values())

    def test_pipeline_refills_after_reply(self):
        p = plan(chunk_entries=10, window_per_donor=1)
        p.start(0.0)
        ((dst, req),) = [(d, r) for d, r in p.take_outbox() if d == 2][:1]
        p.on_segment(dst, segment(LOG, req), 0.0)
        refill = [d for d, _r in p.take_outbox() if d == 2]
        assert refill  # donor 2 got its next chunk immediately


class TestFailureHandling:
    def test_timeout_rotates_donor(self):
        p = plan(donors=[2, 3], chunk_entries=100, window_per_donor=1)
        p.start(0.0)
        ((first_donor, _req),) = p.take_outbox()
        p.tick(200.0)  # past retry_ms
        ((second_donor, _req2),) = p.take_outbox()
        assert second_donor != first_donor
        assert p.retries == 1

    def test_partial_segment_requests_remainder(self):
        p = plan(donors=[2, 3], chunk_entries=100, window_per_donor=1)
        p.start(0.0)
        ((dst, req),) = p.take_outbox()
        # Donor has only 30 entries decided.
        p.on_segment(dst, segment(LOG[:30], req), 0.0)
        ((dst2, req2),) = p.take_outbox()
        assert req2.from_idx == 30
        assert dst2 != dst  # rotated to a donor that may have more

    def test_empty_segment_waits_for_deadline(self):
        p = plan(donors=[2, 3], chunk_entries=100, window_per_donor=1)
        p.start(0.0)
        ((dst, req),) = p.take_outbox()
        p.on_segment(dst, segment([], req), 0.0)
        assert p.take_outbox() == []  # no tight re-request loop
        p.tick(200.0)
        assert len(p.take_outbox()) == 1  # retried after the deadline

    def test_duplicate_segments_harmless(self):
        p = plan(chunk_entries=100, window_per_donor=1)
        p.start(0.0)
        ((dst, req),) = p.take_outbox()
        seg = segment(LOG, req)
        p.on_segment(dst, seg, 0.0)
        p.on_segment(dst, seg, 0.0)
        assert p.complete()
        assert list(p.collected_entries()) == LOG

    def test_segment_for_other_config_ignored(self):
        p = plan(chunk_entries=100)
        p.start(0.0)
        seg = LogSegment(config_id=99, from_idx=0,
                         entries=tuple(LOG), complete=True)
        p.on_segment(2, seg, 0.0)
        assert not p.complete()

    def test_add_and_remove_donor(self):
        p = plan(donors=[2])
        p.add_donor(7)
        assert 7 in p.donors
        p.remove_donor(2)
        assert p.donors == (7,)

    def test_last_donor_not_removable(self):
        p = plan(donors=[2])
        p.remove_donor(2)
        assert p.donors == (2,)


class TestStrategies:
    def test_parallel_uses_all_donors(self):
        p = plan(donors=[2, 3, 4, 5], chunk_entries=25, window_per_donor=1)
        p.start(0.0)
        donors_used = {dst for dst, _req in p.take_outbox()}
        assert donors_used == {2, 3, 4, 5}

    def test_leader_only_uses_first_donor(self):
        p = plan(donors=[2, 3, 4, 5], strategy=LEADER_ONLY,
                 chunk_entries=25, window_per_donor=4)
        p.start(0.0)
        donors_used = {dst for dst, _req in p.take_outbox()}
        assert donors_used == {2}

    def test_leader_only_completes(self):
        p = plan(donors=[2, 3], strategy=LEADER_ONLY, chunk_entries=10)
        p.start(0.0)
        for _ in range(30):
            if p.complete():
                break
            serve(p, LOG)
        assert p.complete()


class TestDonorServing:
    def test_full_range(self):
        seg = segment(LOG, LogPullRequest(1, 10, 20))
        assert seg.entries == tuple(LOG[10:20])
        assert seg.complete

    def test_partial_range(self):
        seg = segment(LOG[:15], LogPullRequest(1, 10, 20))
        assert seg.entries == tuple(LOG[10:15])
        assert not seg.complete

    def test_nothing_available(self):
        seg = segment(LOG[:5], LogPullRequest(1, 10, 20))
        assert seg.entries == ()
        assert seg.from_idx == 10
        assert not seg.complete

    @pytest.mark.parametrize("from_idx, to_idx", [(-3, 2), (-1, -1), (3, 1)])
    def test_negative_or_inverted_range_served_nothing(self, from_idx, to_idx):
        """A pull request is a peer's input: at the parent, (-3, 2) over
        four entries came back as ``LogSegment(from_idx=-3, ('e1',),
        complete=True)``."""
        assert segment(LOG[:4], LogPullRequest(1, from_idx, to_idx)) is None

    @pytest.mark.parametrize("to_idx", [26, 100, 10**9])
    def test_oversized_range_capped_at_chunk(self, to_idx):
        """One segment carries at most the donor's chunk size, marked
        incomplete; the joiner asks again for the rest."""
        seg = segment(LOG, LogPullRequest(1, 0, to_idx), max_entries=25)
        assert seg.entries == tuple(LOG[:25])
        assert not seg.complete

    def test_chunk_sized_range_complete(self):
        seg = segment(LOG, LogPullRequest(1, 25, 50), max_entries=25)
        assert seg.entries == tuple(LOG[25:50])
        assert seg.complete

    def test_compacted_range_served_nothing(self):
        def compacted(lo, hi):
            raise StorageError(f"index {lo} was compacted away")
        assert serve_pull_request(LogPullRequest(1, 0, 5), compacted, 25) is None
