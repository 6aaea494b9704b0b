"""Unit tests for the measurement instruments."""

import pytest

from repro.errors import ConfigError
from repro.omni.ballot import Ballot
from repro.omni.messages import Accepted, Envelope
from repro.sim.metrics import DecidedTracker, IOTracker, wire_size


class TestDecidedTracker:
    def test_counts(self):
        t = DecidedTracker()
        for ms in (10, 20, 30):
            t.record(ms)
        assert t.count == 3
        assert t.count_between(15, 35) == 2
        assert t.count_between(0, 10) == 0  # half-open interval

    def test_throughput(self):
        t = DecidedTracker()
        for ms in range(0, 1000, 10):
            t.record(float(ms))
        assert t.throughput(0, 1000) == pytest.approx(100.0)

    def test_throughput_empty_interval(self):
        t = DecidedTracker()
        assert t.throughput(10, 10) == 0.0

    def test_windowed_counts(self):
        t = DecidedTracker()
        for ms in (100, 200, 5600, 5700, 5800):
            t.record(float(ms))
        windows = t.windowed_counts(0, 10_000, 5_000)
        assert windows == [(0, 2), (5_000, 3)]

    def test_downtime_empty_is_whole_interval(self):
        t = DecidedTracker()
        assert t.downtime(0, 1000) == 1000

    def test_downtime_is_longest_gap(self):
        t = DecidedTracker()
        for ms in (100, 200, 900):
            t.record(float(ms))
        assert t.downtime(0, 1000) == 700  # the 200 -> 900 gap

    def test_downtime_counts_leading_and_trailing(self):
        t = DecidedTracker()
        t.record(400)
        assert t.downtime(0, 1000) == 600  # trailing gap dominates

    def test_recovery_time(self):
        t = DecidedTracker()
        t.record(100)
        t.record(550)
        assert t.recovery_time(200, 1000) == pytest.approx(350)

    def test_recovery_none_when_dead(self):
        t = DecidedTracker()
        t.record(100)
        assert t.recovery_time(200, 1000) is None

    def test_downtime_record_at_interval_boundaries(self):
        # A decide exactly at start_ms counts (closed below); one exactly
        # at end_ms does not (open above) — the half-open convention every
        # other query uses.
        t = DecidedTracker()
        t.record(0)
        t.record(1000)
        assert t.downtime(0, 1000) == 1000  # the 1000 ms record is outside
        t2 = DecidedTracker()
        t2.record(0)
        t2.record(999)
        assert t2.downtime(0, 1000) == 999

    def test_downtime_single_boundary_record(self):
        t = DecidedTracker()
        t.record(500)
        # Gaps clip to the observation interval on both sides.
        assert t.downtime(500, 1000) == 500
        assert t.downtime(0, 500) == 500  # record at end is excluded

    def test_recovery_none_when_first_decide_past_end(self):
        # The cluster did recover eventually — but not within the observed
        # interval, so for this observation it counts as never recovered.
        t = DecidedTracker()
        t.record(100)
        t.record(1500)
        assert t.recovery_time(200, 1000) is None
        assert t.recovery_time(200, 1500) == pytest.approx(1300)

    def test_recovery_decide_exactly_at_partition(self):
        # A decide at exactly partition_at_ms belongs to "before": recovery
        # is the first decide strictly after the partition instant.
        t = DecidedTracker()
        t.record(200)
        t.record(700)
        assert t.recovery_time(200, 1000) == pytest.approx(500)

    def test_windowed_counts_partial_final_window(self):
        t = DecidedTracker()
        for ms in (100, 5100, 11_900):
            t.record(float(ms))
        windows = t.windowed_counts(0, 12_000, 5_000)
        # The final window is clipped to [10_000, 12_000).
        assert windows == [(0, 1), (5_000, 1), (10_000, 1)]
        assert t.windowed_counts(0, 4_000, 5_000) == [(0, 1)]

    def test_windowed_counts_empty_interval(self):
        t = DecidedTracker()
        t.record(10)
        assert t.windowed_counts(50, 50, 5_000) == []

    def test_windowed_counts_nonpositive_window_rejected(self):
        # window_ms <= 0 would never advance the cursor: infinite loop.
        t = DecidedTracker()
        t.record(10)
        with pytest.raises(ConfigError):
            t.windowed_counts(0, 100, 0)
        with pytest.raises(ConfigError):
            t.windowed_counts(0, 100, -5)


class TestIOTracker:
    def test_totals(self):
        t = IOTracker()
        t.record(1, 100, 0)
        t.record(1, 50, 10)
        t.record(2, 10, 0)
        assert t.total_bytes(1) == 150
        assert t.total_bytes(2) == 10
        assert t.total_all() == 160
        assert t.total_bytes(99) == 0

    def test_peak_window(self):
        t = IOTracker(window_ms=1000)
        t.record(1, 100, 100)    # window 0
        t.record(1, 500, 1500)   # window 1
        t.record(1, 200, 1999)   # window 1
        assert t.peak_window_bytes(1) == 700
        assert t.peak_window_bytes(9) == 0

    def test_window_series_sorted(self):
        t = IOTracker(window_ms=1000)
        t.record(1, 1, 2500)
        t.record(1, 1, 500)
        series = t.window_series(1)
        assert [w for w, _b in series] == [0, 2000]


class TestWireSize:
    def test_fallback(self):
        assert wire_size(object()) == 24

    def test_envelope_wraps_payload_size(self):
        payload = Accepted(Ballot(1, 0, 1), 3)
        env = Envelope(config_id=0, component="sp", payload=payload)
        assert wire_size(env) == 6 + wire_size(payload)

    def test_envelope_around_unsized_payload(self):
        # The envelope's own framing on top of the payload fallback, not
        # the bare 24-byte fallback for the whole message.
        env = Envelope(config_id=0, component="sp", payload=object())
        assert wire_size(env) == 6 + 24
        assert wire_size(env) > wire_size(object())
