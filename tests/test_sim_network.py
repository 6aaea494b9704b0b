"""Unit tests for the simulated network: latency, FIFO, partitions, egress."""

import random

import pytest

from repro.errors import ConfigError
from repro.omni.messages import PrepareReq
from repro.sim.events import EventQueue
from repro.sim.metrics import SIZE_RULES, IOTracker, wire_size
from repro.sim.network import NetworkParams, SimNetwork


class Msg:
    """Message with an explicit wire size."""

    def __init__(self, tag, size=100):
        self.tag = tag
        self.size = size


@pytest.fixture(autouse=True)
def sized_msg(monkeypatch):
    """Give :class:`Msg` a rule in the byte model for these tests."""
    monkeypatch.setitem(SIZE_RULES, Msg, lambda m: m.size)


def build(params=NetworkParams(one_way_ms=1.0), rng=None, io=None):
    q = EventQueue()
    net = SimNetwork(q, params, rng=rng, io_tracker=io)
    inbox = []
    net.on_deliver(lambda s, d, m: inbox.append((q.now, s, d, m)))
    return q, net, inbox


class TestParams:
    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            NetworkParams(one_way_ms=-1)

    def test_rejects_bad_loss(self):
        with pytest.raises(ConfigError):
            NetworkParams(loss_rate=1.0)

    def test_rejects_bad_egress(self):
        with pytest.raises(ConfigError):
            NetworkParams(egress_bytes_per_ms=0)


class TestDelivery:
    def test_latency_applied(self):
        q, net, inbox = build()
        net.send(1, 2, Msg("a"))
        q.run_until(10.0)
        assert inbox[0][0] == 1.0

    def test_per_link_latency_override(self):
        q, net, inbox = build()
        net.set_latency(1, 2, 50.0)
        net.send(1, 2, Msg("a"))
        net.send(1, 3, Msg("b"))
        q.run_until(100.0)
        times = {m.tag: t for t, _s, _d, m in inbox}
        assert times["a"] == 50.0
        assert times["b"] == 1.0

    def test_fifo_preserved_under_jitter(self):
        rng = random.Random(1)
        q, net, inbox = build(NetworkParams(one_way_ms=1.0, jitter_ms=5.0), rng)
        for i in range(50):
            net.send(1, 2, Msg(i))
        q.run_until(100.0)
        tags = [m.tag for _t, _s, _d, m in inbox]
        assert tags == list(range(50))

    def test_loss_rate_drops_messages(self):
        rng = random.Random(1)
        q, net, inbox = build(NetworkParams(one_way_ms=1.0, loss_rate=0.5), rng)
        for i in range(200):
            net.send(1, 2, Msg(i))
        q.run_until(100.0)
        assert 40 < len(inbox) < 160
        assert net.messages_dropped > 0


class TestPartitions:
    def test_down_link_drops(self):
        q, net, inbox = build()
        net.set_link(1, 2, False)
        net.send(1, 2, Msg("a"))
        q.run_until(10.0)
        assert inbox == []
        assert not net.is_up(1, 2)
        assert net.is_up(2, 1) is False  # symmetric

    def test_in_flight_messages_lost_when_cut(self):
        q, net, inbox = build()
        net.send(1, 2, Msg("a"))
        net.set_link(1, 2, False)
        q.run_until(10.0)
        assert inbox == []

    def test_restore_triggers_session_callback(self):
        q, net, _ = build()
        restored = []
        net.on_session_restored(lambda a, b: restored.append((a, b)))
        net.set_link(1, 2, False)
        net.set_link(1, 2, True)
        assert restored == [(1, 2)]

    def test_restore_idempotent(self):
        q, net, _ = build()
        restored = []
        net.on_session_restored(lambda a, b: restored.append((a, b)))
        net.set_link(1, 2, True)  # was never down
        assert restored == []

    def test_heal_all(self):
        q, net, _ = build()
        net.set_link(1, 2, False)
        net.set_link(3, 4, False)
        net.heal_all()
        assert net.down_links() == ()


class TestEgress:
    def test_serializes_large_sends(self):
        q, net, inbox = build(NetworkParams(one_way_ms=0.0,
                                            egress_bytes_per_ms=100.0))
        net.send(1, 2, Msg("a", size=1000))   # 10 ms transmit
        net.send(1, 3, Msg("b", size=1000))   # queued behind a
        q.run_until(100.0)
        times = {m.tag: t for t, _s, _d, m in inbox}
        assert times["a"] == pytest.approx(10.0)
        assert times["b"] == pytest.approx(20.0)

    def test_independent_senders_not_serialized(self):
        q, net, inbox = build(NetworkParams(one_way_ms=0.0,
                                            egress_bytes_per_ms=100.0))
        net.send(1, 2, Msg("a", size=1000))
        net.send(3, 2, Msg("b", size=1000))
        q.run_until(100.0)
        times = {m.tag: t for t, _s, _d, m in inbox}
        assert times["a"] == pytest.approx(10.0)
        assert times["b"] == pytest.approx(10.0)

    def test_infinite_egress_by_default(self):
        q, net, inbox = build(NetworkParams(one_way_ms=1.0))
        net.send(1, 2, Msg("a", size=10 ** 9))
        q.run_until(10.0)
        assert len(inbox) == 1


class TestIOAccounting:
    def test_bytes_recorded_at_sender(self):
        io = IOTracker()
        q, net, _ = build(io=io)
        net.send(1, 2, Msg("a", size=500))
        assert io.total_bytes(1) == 500
        assert io.total_bytes(2) == 0

    def test_dropped_messages_still_cost_sender(self):
        io = IOTracker()
        q, net, _ = build(io=io)
        net.set_link(1, 2, False)
        net.send(1, 2, Msg("a", size=500))
        assert io.total_bytes(1) == 500

    def test_default_wire_size_for_plain_objects(self):
        io = IOTracker()
        q, net, inbox = build(io=io)
        net.send(1, 2, PrepareReq())
        assert io.total_bytes(1) == wire_size(PrepareReq())


class TestDuplication:
    def test_duplicates_delivered_twice(self):
        rng = random.Random(3)
        q, net, inbox = build(
            NetworkParams(one_way_ms=1.0, duplicate_rate=0.5), rng
        )
        for i in range(100):
            net.send(1, 2, Msg(i))
        q.run_until(200.0)
        assert len(inbox) > 100
        assert net.messages_duplicated == len(inbox) - 100

    def test_duplication_counter_matches_accounting(self):
        from repro.obs.registry import MetricsRegistry

        rng = random.Random(3)
        q, net, inbox = build(
            NetworkParams(one_way_ms=1.0, duplicate_rate=0.5), rng
        )
        reg = MetricsRegistry(clock=lambda: q.now)
        net.set_observability(reg)
        for i in range(100):
            net.send(1, 2, Msg(i))
        q.run_until(200.0)
        assert reg.counter_value(
            "repro_messages_duplicated_total", src=1
        ) == net.messages_duplicated > 0

    def test_runtime_toggle(self):
        rng = random.Random(3)
        q, net, inbox = build(NetworkParams(one_way_ms=1.0), rng)
        net.set_duplication(0.9)
        net.set_duplication(0.0)
        for i in range(50):
            net.send(1, 2, Msg(i))
        q.run_until(100.0)
        assert len(inbox) == 50

    def test_requires_rng(self):
        q, net, _ = build()
        with pytest.raises(ConfigError):
            net.set_duplication(0.5)

    def test_rejects_bad_rate(self):
        rng = random.Random(3)
        q, net, _ = build(rng=rng)
        with pytest.raises(ConfigError):
            net.set_duplication(1.0)


class TestReordering:
    def test_reordering_breaks_fifo_boundedly(self):
        rng = random.Random(7)
        q, net, inbox = build(
            NetworkParams(one_way_ms=1.0, reorder_rate=0.3,
                          reorder_window_ms=20.0), rng
        )
        for i in range(200):
            net.send(1, 2, Msg(i))
            q.run_for(0.5)
        q.run_until(500.0)
        tags = [m.tag for _t, _s, _d, m in inbox]
        assert len(tags) == 200, "reordering must never lose messages"
        assert sorted(tags) == list(range(200))
        assert tags != list(range(200)), "some messages must be reordered"
        assert net.messages_reordered > 0
        # Bounded: a reordered message is late by at most the window, so its
        # displacement in time is bounded even if its rank moves further.
        times = {m.tag: t for t, _s, _d, m in inbox}
        for i in range(200):
            assert times[i] <= 0.5 * i + 1.0 + 20.0 + 1e-9

    def test_reorder_counter_matches_accounting(self):
        from repro.obs.registry import MetricsRegistry

        rng = random.Random(7)
        q, net, inbox = build(NetworkParams(one_way_ms=1.0), rng)
        reg = MetricsRegistry(clock=lambda: q.now)
        net.set_observability(reg)
        net.set_reordering(0.5, 10.0)
        for i in range(100):
            net.send(1, 2, Msg(i))
        q.run_until(200.0)
        assert reg.counter_value(
            "repro_messages_reordered_total", src=1
        ) == net.messages_reordered > 0

    def test_requires_rng(self):
        q, net, _ = build()
        with pytest.raises(ConfigError):
            net.set_reordering(0.5, 10.0)

    def test_rejects_negative_window(self):
        rng = random.Random(7)
        q, net, _ = build(rng=rng)
        with pytest.raises(ConfigError):
            net.set_reordering(0.5, -1.0)


class TestRuntimeLoss:
    def test_set_loss_toggles_mid_run(self):
        rng = random.Random(5)
        q, net, inbox = build(NetworkParams(one_way_ms=1.0), rng)
        net.set_loss(0.9)
        for i in range(100):
            net.send(1, 2, Msg(i))
        net.set_loss(0.0)
        for i in range(100, 150):
            net.send(1, 2, Msg(i))
        q.run_until(200.0)
        tags = {m.tag for _t, _s, _d, m in inbox}
        assert set(range(100, 150)) <= tags
        assert len(tags) < 150
