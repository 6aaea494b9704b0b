"""Fail-slow chaos: first-class gray-failure injection (docs/CHAOS.md).

The tentpole claims under test:

- ``slow_cpu`` / ``slow_disk`` / ``slow_link`` are full citizens of the
  fault vocabulary: they serialize, replay bit-identically, describe
  themselves, shrink, and run safely on every protocol,
- fail-slow faults *stack and revert cleanly* — a ``clock_skew`` and a
  ``slow_cpu`` overlapping on one pid compose multiplicatively and each
  revert removes exactly its own layer regardless of order (the
  regression that motivated layered tick scaling),
- the slow-disk stall path rides ``FaultyStorage`` without breaking its
  fail/torn machinery,
- heartbeat-based election (BLE, Raft PV+CQ) never displaces a leader
  that is slow but still answers.
"""

import pytest

from repro.chaos.engine import run_schedule
from repro.chaos.generator import generate_schedule
from repro.chaos.schedule import (
    KINDS,
    OP_PARAMS,
    ChaosSchedule,
    FaultOp,
    describe_op,
)
from repro.chaos.shrink import shrink_schedule
from repro.errors import ConfigError, StorageError
from repro.omni.faults import FaultyStorage
from repro.omni.storage import InMemoryStorage
from repro.sim.harness import PROTOCOLS, ExperimentConfig, build_experiment

#: One valid op per registered kind. Kept exhaustive on purpose: adding a
#: fault kind without extending this table fails the coverage test below.
SAMPLE_OPS = {
    "crash": {"pid": 1, "down_ms": 300.0, "wipe": False},
    "partition": {"pattern": "random", "links": [[1, 2]], "heal_ms": 400.0},
    "delay_spike": {"links": [[1, 3]], "extra_ms": 50.0,
                    "duration_ms": 400.0},
    "loss_burst": {"rate": 0.2, "duration_ms": 400.0},
    "dup_burst": {"rate": 0.2, "duration_ms": 400.0},
    "reorder_burst": {"rate": 0.2, "window_ms": 50.0, "duration_ms": 400.0},
    "storage_fault": {"pid": 1, "after_writes": 3, "mode": "fail",
                      "heal_ms": 400.0},
    "clock_skew": {"pid": 1, "factor": 2.0, "duration_ms": 400.0},
    "slow_cpu": {"pid": 1, "factor": 50.0, "per_msg_ms": 0.5,
                 "duration_ms": 400.0},
    "slow_disk": {"pid": 1, "per_write_ms": 1.0, "duration_ms": 400.0},
    "slow_link": {"src": 1, "dst": 2, "inflate_ms": 80.0,
                  "duration_ms": 400.0},
}


def _op(kind, at_ms=500.0):
    return FaultOp(at_ms=at_ms, kind=kind, params=dict(SAMPLE_OPS[kind]))


class TestVocabularyExhaustive:
    """Satellite: describe/serialize coverage locked to OP_PARAMS."""

    def test_sample_table_covers_every_kind(self):
        assert set(SAMPLE_OPS) == set(OP_PARAMS) == set(KINDS)

    @pytest.mark.parametrize("kind", sorted(OP_PARAMS))
    def test_round_trip_and_describe(self, kind):
        op = _op(kind)
        schedule = ChaosSchedule(seed=1, protocol="omni", num_servers=3,
                                 duration_ms=2_000.0, ops=(op,))
        again = ChaosSchedule.from_json(schedule.to_json())
        assert again == schedule
        assert again.digest() == schedule.digest()
        line = describe_op(op)
        assert line.startswith("t=500 ")
        assert kind.split("_")[0] in line or kind in line

    def test_describe_mentions_the_fail_slow_knobs(self):
        assert "x50" in describe_op(_op("slow_cpu"))
        assert "+0.50ms/msg" in describe_op(_op("slow_cpu"))
        assert "+1.00ms/write" in describe_op(_op("slow_disk"))
        assert "1->2" in describe_op(_op("slow_link"))

    def test_fail_slow_params_are_required(self):
        with pytest.raises(ConfigError):
            FaultOp(at_ms=0.0, kind="slow_cpu", params={"pid": 1})
        with pytest.raises(ConfigError):
            FaultOp(at_ms=0.0, kind="slow_link",
                    params={"src": 1, "dst": 2})


class TestGeneratorIncludesFailSlow:
    def test_fail_slow_kinds_are_drawn(self):
        schedule = generate_schedule(3, "omni", 3, duration_ms=30_000.0,
                                     num_ops=80)
        kinds = {op.kind for op in schedule.ops}
        assert "slow_cpu" in kinds
        assert "slow_link" in kinds
        assert "slow_disk" in kinds

    def test_slow_disk_only_for_omni(self):
        for protocol in ("raft", "raft_pvcq", "multipaxos", "vr"):
            schedule = generate_schedule(3, protocol, 3,
                                         duration_ms=30_000.0, num_ops=80)
            assert all(op.kind != "slow_disk" for op in schedule.ops)


FAIL_SLOW_OPS = (
    FaultOp(at_ms=500.0, kind="slow_cpu",
            params={"pid": 2, "factor": 100.0, "per_msg_ms": 0.5,
                    "duration_ms": 800.0}),
    FaultOp(at_ms=700.0, kind="slow_link",
            params={"src": 1, "dst": 3, "inflate_ms": 60.0,
                    "duration_ms": 600.0}),
)


class TestEngineFailSlow:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_fail_slow_schedule_safe_on_every_protocol(self, protocol):
        ops = FAIL_SLOW_OPS
        if protocol == "omni":
            ops = ops + (FaultOp(
                at_ms=900.0, kind="slow_disk",
                params={"pid": 1, "per_write_ms": 0.5,
                        "duration_ms": 600.0}),)
        schedule = ChaosSchedule(seed=17, protocol=protocol, num_servers=3,
                                 duration_ms=4_000.0, ops=ops)
        result = run_schedule(schedule)
        assert result.ok, result.violation
        assert result.decided_len > 0

    def test_fail_slow_schedule_bit_deterministic(self):
        schedule = ChaosSchedule(seed=17, protocol="omni", num_servers=3,
                                 duration_ms=4_000.0, ops=FAIL_SLOW_OPS)
        assert run_schedule(schedule).to_dict() == \
            run_schedule(schedule).to_dict()

    def test_slow_disk_noop_on_baselines(self):
        op = FaultOp(at_ms=500.0, kind="slow_disk",
                     params={"pid": 1, "per_write_ms": 1.0,
                             "duration_ms": 500.0})
        schedule = ChaosSchedule(seed=3, protocol="raft", num_servers=3,
                                 duration_ms=3_000.0, ops=(op,))
        result = run_schedule(schedule)
        assert result.ok, result.violation

    def test_slow_cpu_actually_slows_decisions(self):
        # Slowing the leader (BLE elects the highest pid, 3) for most of
        # the run must cost decided throughput vs the fault-free twin.
        op = FaultOp(at_ms=500.0, kind="slow_cpu",
                     params={"pid": 3, "factor": 100.0, "per_msg_ms": 5.0,
                             "duration_ms": 2_000.0})
        base = ChaosSchedule(seed=23, protocol="omni", num_servers=3,
                             duration_ms=3_000.0)
        slow = ChaosSchedule(seed=23, protocol="omni", num_servers=3,
                             duration_ms=3_000.0, ops=(op,))
        fast_run = run_schedule(base)
        slow_run = run_schedule(slow)
        assert fast_run.ok and slow_run.ok
        assert slow_run.decided_len < fast_run.decided_len

    def test_fail_slow_ops_shrink(self):
        ops = tuple(sorted(
            (_op("crash", 400.0), _op("delay_spike", 600.0),
             _op("slow_cpu", 800.0), _op("slow_link", 1000.0),
             _op("clock_skew", 1200.0)),
            key=lambda o: o.at_ms,
        ))
        schedule = ChaosSchedule(seed=7, protocol="omni", num_servers=3,
                                 duration_ms=3_000.0, ops=ops)
        shrunk, runs = shrink_schedule(
            schedule,
            reproduces=lambda s: any(op.kind == "slow_cpu" for op in s.ops),
        )
        assert [op.kind for op in shrunk.ops] == ["slow_cpu"]
        assert runs > 0


class TestSlowLeaderBlindSpot:
    """Heartbeat-based election cannot see a leader that is slow but
    still answers: its replies are message-driven, so its ballot (BLE) or
    its AppendEntries heartbeats (Raft PV+CQ) keep arriving in time. The
    paper does not model fail-slow servers; this pins the blind spot."""

    @pytest.mark.parametrize("protocol", ["omni", "raft_pvcq"])
    def test_default_never_displaces_a_slow_leader(self, protocol):
        timeout = 100.0
        exp = build_experiment(ExperimentConfig(
            protocol=protocol, num_servers=5, election_timeout_ms=timeout,
            seed=1, initial_leader=3))
        cluster = exp.cluster
        client = exp.make_client(concurrent_proposals=8)
        cluster.run_for(10 * timeout)
        assert cluster.leaders() == [3]
        healthy = client.decided_count
        # The slow_cpu fault's two knobs: a 100x-stretched clock and
        # 5 ms of serialized CPU per message.
        cluster.push_tick_scale(3, 100.0)
        cluster.set_msg_cost(3, 5.0)
        before = client.decided_count
        for _ in range(20):
            cluster.run_for(timeout)
            assert cluster.leaders() == [3]
        # The fault bites: decisions per timeout fall well below the
        # healthy warm-up's.
        slow = client.decided_count - before
        assert slow / 20 < 0.75 * healthy / 10


class TestStackingReverts:
    """Satellite: layered tick scaling composes and reverts cleanly."""

    def test_push_pop_either_order_restores_nominal(self):
        exp = build_experiment(ExperimentConfig(num_servers=3))
        cluster = exp.cluster
        skew = cluster.push_tick_scale(2, 3.0)
        slow = cluster.push_tick_scale(2, 100.0)
        assert cluster.tick_scale_of(2) == pytest.approx(300.0)
        cluster.pop_tick_scale(2, skew)  # reverse of push order
        assert cluster.tick_scale_of(2) == pytest.approx(100.0)
        cluster.pop_tick_scale(2, slow)
        assert cluster.tick_scale_of(2) == pytest.approx(1.0)

    def test_set_tick_scale_heals_wholesale(self):
        exp = build_experiment(ExperimentConfig(num_servers=3))
        cluster = exp.cluster
        cluster.push_tick_scale(2, 3.0)
        cluster.push_tick_scale(2, 100.0)
        cluster.set_tick_scale(2, 1.0)  # heal_everything's reset
        assert cluster.tick_scale_of(2) == pytest.approx(1.0)

    def test_overlapping_skew_and_slow_cpu_run_clean(self):
        ops = (
            FaultOp(at_ms=400.0, kind="clock_skew",
                    params={"pid": 2, "factor": 2.0,
                            "duration_ms": 1_200.0}),
            FaultOp(at_ms=600.0, kind="slow_cpu",
                    params={"pid": 2, "factor": 10.0, "per_msg_ms": 0.2,
                            "duration_ms": 600.0}),
        )
        schedule = ChaosSchedule(seed=29, protocol="omni", num_servers=3,
                                 duration_ms=4_000.0, ops=ops)
        a = run_schedule(schedule)
        b = run_schedule(schedule)
        assert a.ok, a.violation
        assert a.converged
        assert a.to_dict() == b.to_dict()


class TestFaultyStorageSlowWrites:
    def _fs(self):
        fs = FaultyStorage(InMemoryStorage())
        stalls = []
        fs.on_write_stall = stalls.append
        return fs, stalls

    def test_slow_writes_stall_every_write(self):
        fs, stalls = self._fs()
        fs.slow_writes(1.5)
        fs.append_entry("a")
        fs.append_entries(["b", "c"])
        assert fs.writes_slowed == 2
        assert stalls == [1.5, 1.5]
        assert fs.log_len() == 3  # slow, not broken

    def test_heal_clears_slowness(self):
        fs, stalls = self._fs()
        fs.slow_writes(2.0)
        fs.append_entry("a")
        fs.heal()
        assert fs.slow_ms == 0.0
        fs.append_entry("b")
        assert stalls == [2.0]

    def test_negative_rate_rejected(self):
        fs, _ = self._fs()
        with pytest.raises(ValueError):
            fs.slow_writes(-1.0)

    def test_slow_writes_compose_with_fail_after(self):
        # A disk can be slow *and* about to die: the failing write still
        # charges its stall (the fsync blocked, then errored).
        fs, stalls = self._fs()
        fs.slow_writes(1.0)
        fs.fail_after(1, mode="fail")
        fs.append_entry("a")  # succeeds, stalls
        with pytest.raises(StorageError):
            fs.append_entry("b")
        assert stalls == [1.0, 1.0]
