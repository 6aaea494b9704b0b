"""Run a chaos schedule against a simulated cluster, checking invariants.

The engine consumes **no randomness of its own**: every random choice was
made by the generator and frozen into the schedule, and the simulator's
only RNG streams (network jitter/loss/dup/reorder, Raft timers) are
derived from the schedule's seed. Same schedule in, bit-identical decided
logs and verdict out — which is what makes ``replay`` and the shrinker
trustworthy.

Fault ops are applied at their scheduled time; each op schedules its own
revert (restart, heal, rate-reset) when it is applied, so a schedule with
an op removed also loses the op's end — see :mod:`repro.chaos.schedule`.
After the last scheduled millisecond the engine heals *everything* and
runs a fault-free cooldown, then sweeps the invariants one last time.
Safety (SC1–SC3, P1, LE3, monotonicity) is asserted; convergence after
the heal is only *reported* (``converged``), because liveness within a
fixed cooldown is not something the paper's model promises under every
schedule tail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.baselines.raft import RaftReplica
from repro.chaos.checker import DecidedLogChecker, command_validator
from repro.chaos.schedule import ChaosSchedule, FaultOp, describe_op
from repro.errors import ReproError
from repro.obs.events import NemesisInjected
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.omni.faults import FaultyStorage
from repro.omni.invariants import (
    InvariantViolation,
    MonotonicityTracker,
    check_all,
)
from repro.sim.harness import ExperimentConfig, build_experiment, make_replica


@dataclass
class ChaosResult:
    """Verdict and fingerprints of one chaos run."""

    schedule_digest: str
    ok: bool
    violation: Optional[str]
    violation_at_ms: Optional[float]
    #: sha256 prefix over the canonical decided log (bit-determinism probe).
    decided_digest: str
    decided_len: int
    per_server_decided: Dict[int, int]
    converged: bool
    ops_applied: int
    storage_crashes: int
    ran_ms: float
    messages: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schedule_digest": self.schedule_digest,
            "ok": self.ok,
            "violation": self.violation,
            "violation_at_ms": self.violation_at_ms,
            "decided_digest": self.decided_digest,
            "decided_len": self.decided_len,
            "per_server_decided": {
                str(k): v for k, v in sorted(self.per_server_decided.items())
            },
            "converged": self.converged,
            "ops_applied": self.ops_applied,
            "storage_crashes": self.storage_crashes,
            "ran_ms": self.ran_ms,
            "messages": dict(self.messages),
        }


class _ChaosRun:
    """One engine execution (kept as an object so op closures share state)."""

    def __init__(self, schedule: ChaosSchedule, obs: MetricsRegistry,
                 cooldown_ms: Optional[float],
                 check_period_ms: Optional[float]):
        self.schedule = schedule
        self.obs = obs
        self.cooldown_ms = (
            cooldown_ms if cooldown_ms is not None
            else 20.0 * schedule.election_timeout_ms
        )
        self.check_period_ms = (
            check_period_ms if check_period_ms is not None
            else max(schedule.election_timeout_ms, 50.0)
        )
        self.faulty: Dict[int, FaultyStorage] = {}
        latency_map: Dict[Any, float] = {}
        if schedule.geo is not None:
            from repro.sim.geo import geo_latency_map
            latency_map = geo_latency_map(
                tuple(range(1, schedule.num_servers + 1)), schedule.geo
            )
        self.cfg = ExperimentConfig(
            protocol=schedule.protocol,
            num_servers=schedule.num_servers,
            election_timeout_ms=schedule.election_timeout_ms,
            one_way_ms=schedule.one_way_ms,
            latency_map=latency_map,
            seed=schedule.seed,
            storage_wrapper=(
                self._wrap_storage if schedule.protocol == "omni" else None
            ),
        )
        self.exp = build_experiment(self.cfg, obs=obs)
        self.cluster = self.exp.cluster
        self.client = self.exp.make_client(
            concurrent_proposals=schedule.concurrent_proposals
        )
        self.checker = DecidedLogChecker(
            command_validator(lambda: self.client.next_seq)
        )
        self.cluster.on_decided(self.checker.observe)
        self.tracker = MonotonicityTracker()
        #: Cross-time round -> leader map for protocols exposing ``term``.
        self._term_leaders: Dict[Any, int] = {}
        #: Symmetric links whose latency a spike changed, with the override
        #: in force *before* the first spike (None = rode the default), so
        #: reverts restore the configured environment — e.g. a geo latency
        #: map — instead of clearing it.
        self._spiked_prev: Dict[tuple, Optional[float]] = {}
        #: Same for directed (slow_link) overrides.
        self._slowed_prev: Dict[tuple, Optional[float]] = {}
        self.white_violation: Optional[str] = None
        self.white_violation_at: Optional[float] = None
        self.ops_applied = 0

    # -- storage wiring ------------------------------------------------------

    def _wrap_storage(self, pid: int, storage) -> FaultyStorage:
        fs = FaultyStorage(storage)
        # Wire the fail-slow hook unconditionally (including the fresh
        # storage of a wipe-restart): a slow write stalls the owner's next
        # timer tick, the sim model of an event loop stuck in fsync.
        # Message delivery stays prompt — that is what keeps it gray.
        fs.on_write_stall = (
            lambda ms, _pid=pid: self.cluster.add_tick_stall(_pid, ms)
        )
        self.faulty[pid] = fs
        return fs

    # -- nemesis events ------------------------------------------------------

    def _emit(self, op_kind: str, phase: str, target: str,
              detail: str = "") -> None:
        if self.obs.enabled:
            self.obs.emit(NemesisInjected(
                op=op_kind, phase=phase, target=target, detail=detail,
            ))

    # -- op application ------------------------------------------------------

    def _apply(self, op: FaultOp) -> None:
        self.ops_applied += 1
        p = op.params
        kind = op.kind
        queue = self.cluster.queue
        if kind == "crash":
            pid = int(p["pid"])
            self._emit(kind, "apply", str(pid), describe_op(op))
            if not self.cluster.is_crashed(pid):
                self.cluster.crash(pid)

            def restart() -> None:
                self._emit(kind, "revert", str(pid))
                if p["wipe"]:
                    fresh = make_replica(
                        replace(self.cfg, initial_leader=None), pid
                    )
                    fresh.set_observability(self.obs)
                    self.cluster.replace_replica(pid, fresh)
                    self.tracker.forget(pid)
                    self.checker.forget(pid)
                else:
                    self.cluster.recover(pid)

            queue.schedule_in(float(p["down_ms"]), restart)
        elif kind == "partition":
            links = [list(map(int, link)) for link in p["links"]]
            self._emit(kind, "apply", p["pattern"], describe_op(op))
            for a, b in links:
                self.cluster.set_link(a, b, False)

            def heal() -> None:
                self._emit(kind, "revert", p["pattern"])
                for a, b in links:
                    self.cluster.set_link(a, b, True)

            queue.schedule_in(float(p["heal_ms"]), heal)
        elif kind == "delay_spike":
            links = [list(map(int, link)) for link in p["links"]]
            self._emit(kind, "apply", f"{len(links)} links", describe_op(op))
            net = self.cluster.network
            prev: Dict[tuple, Optional[float]] = {}
            for a, b in links:
                key = (min(a, b), max(a, b))
                prev[key] = net.latency_override(a, b)
                self._spiked_prev.setdefault(key, prev[key])
                net.set_latency(a, b, net.latency(a, b) + float(p["extra_ms"]))

            def clear() -> None:
                self._emit(kind, "revert", f"{len(links)} links")
                for (a, b), before in prev.items():
                    if before is None:
                        net.clear_latency(a, b)
                    else:
                        net.set_latency(a, b, before)

            queue.schedule_in(float(p["duration_ms"]), clear)
        elif kind == "loss_burst":
            self._emit(kind, "apply", "net", describe_op(op))
            net = self.cluster.network
            net.set_loss(float(p["rate"]))
            queue.schedule_in(
                float(p["duration_ms"]),
                lambda: (self._emit(kind, "revert", "net"),
                         net.set_loss(0.0)),
            )
        elif kind == "dup_burst":
            self._emit(kind, "apply", "net", describe_op(op))
            net = self.cluster.network
            net.set_duplication(float(p["rate"]))
            queue.schedule_in(
                float(p["duration_ms"]),
                lambda: (self._emit(kind, "revert", "net"),
                         net.set_duplication(0.0)),
            )
        elif kind == "reorder_burst":
            self._emit(kind, "apply", "net", describe_op(op))
            net = self.cluster.network
            net.set_reordering(float(p["rate"]), float(p["window_ms"]))
            queue.schedule_in(
                float(p["duration_ms"]),
                lambda: (self._emit(kind, "revert", "net"),
                         net.set_reordering(0.0, 0.0)),
            )
        elif kind == "storage_fault":
            pid = int(p["pid"])
            fs = self.faulty.get(pid)
            if fs is None:
                # Baseline protocols keep their log in plain lists; the
                # generator only emits this op for omni, but a hand-edited
                # schedule may not — record it as a no-op.
                self._emit(kind, "apply", str(pid), "unsupported protocol")
                return
            self._emit(kind, "apply", str(pid), describe_op(op))
            fs.fail_after(int(p["after_writes"]), mode=p["mode"])

            def heal_storage() -> None:
                self._emit(kind, "revert", str(pid))
                fs.heal()
                if self.cluster.is_crashed(pid):
                    self.cluster.recover(pid)

            queue.schedule_in(float(p["heal_ms"]), heal_storage)
        elif kind == "clock_skew":
            pid = int(p["pid"])
            self._emit(kind, "apply", str(pid), describe_op(op))
            # Layered, not absolute: two skews (or a skew and a slow_cpu)
            # stacked on one pid compose multiplicatively and each revert
            # removes exactly its own layer, whatever the revert order.
            handle = self.cluster.push_tick_scale(pid, float(p["factor"]))
            queue.schedule_in(
                float(p["duration_ms"]),
                lambda: (self._emit(kind, "revert", str(pid)),
                         self.cluster.pop_tick_scale(pid, handle)),
            )
        elif kind == "slow_cpu":
            pid = int(p["pid"])
            per_msg = float(p["per_msg_ms"])
            self._emit(kind, "apply", str(pid), describe_op(op))
            handle = self.cluster.push_tick_scale(pid, float(p["factor"]))
            self.cluster.set_msg_cost(
                pid, self.cluster.msg_cost_of(pid) + per_msg
            )

            def recover_cpu() -> None:
                self._emit(kind, "revert", str(pid))
                self.cluster.pop_tick_scale(pid, handle)
                self.cluster.set_msg_cost(
                    pid, max(0.0, self.cluster.msg_cost_of(pid) - per_msg)
                )

            queue.schedule_in(float(p["duration_ms"]), recover_cpu)
        elif kind == "slow_disk":
            pid = int(p["pid"])
            fs = self.faulty.get(pid)
            if fs is None:
                # Baselines keep their logs in plain lists: nothing to slow.
                self._emit(kind, "apply", str(pid), "unsupported protocol")
                return
            self._emit(kind, "apply", str(pid), describe_op(op))
            fs.slow_writes(float(p["per_write_ms"]))

            def recover_disk() -> None:
                self._emit(kind, "revert", str(pid))
                # Heal whichever FaultyStorage now serves the pid (a wipe
                # restart may have swapped it since we armed the old one).
                current = self.faulty.get(pid)
                if current is not None:
                    current.slow_writes(0.0)
                if current is not fs:
                    fs.slow_writes(0.0)
                self.cluster.clear_tick_stall(pid)

            queue.schedule_in(float(p["duration_ms"]), recover_disk)
        elif kind == "slow_link":
            src, dst = int(p["src"]), int(p["dst"])
            net = self.cluster.network
            self._emit(kind, "apply", f"{src}->{dst}", describe_op(op))
            before = net.directed_latency_override(src, dst)
            self._slowed_prev.setdefault((src, dst), before)
            net.set_latency_directed(
                src, dst,
                net.effective_latency(src, dst) + float(p["inflate_ms"]),
            )

            def recover_link() -> None:
                self._emit(kind, "revert", f"{src}->{dst}")
                if before is None:
                    net.clear_latency_directed(src, dst)
                else:
                    net.set_latency_directed(src, dst, before)

            queue.schedule_in(float(p["duration_ms"]), recover_link)
        else:  # pragma: no cover - schedule validation rejects unknown kinds
            raise ReproError(f"unhandled fault kind {kind!r}")

    # -- invariant sweeps ----------------------------------------------------

    def _alive_replicas(self) -> List[Any]:
        return [
            self.cluster.replica(pid)
            for pid in self.cluster.pids
            if not self.cluster.is_crashed(pid)
        ]

    def _white_box_sweep(self) -> None:
        if self.white_violation is not None:
            return
        alive = self._alive_replicas()
        try:
            check_all(alive)
            self.tracker.observe(alive)
        except InvariantViolation as exc:
            self.white_violation = str(exc)
            self.white_violation_at = self.cluster.now
            return
        # Cross-time single-leader-per-term: at most one Raft leader may
        # ever win a given term.
        for node in alive:
            if not isinstance(node, RaftReplica) or not node.is_leader:
                continue
            term = node.term
            key = (self.schedule.protocol, term)
            owner = self._term_leaders.get(key)
            if owner is not None and owner != node.pid:
                self.white_violation = (
                    f"term {term} led by {owner} earlier and {node.pid} now"
                )
                self.white_violation_at = self.cluster.now
                return
            self._term_leaders[key] = node.pid

    @property
    def violation(self) -> Optional[str]:
        return self.checker.violation or self.white_violation

    @property
    def violation_at(self) -> Optional[float]:
        if self.checker.violation is not None:
            return self.checker.violation_at_ms
        return self.white_violation_at

    # -- phases --------------------------------------------------------------

    def run(self) -> ChaosResult:
        for op in sorted(self.schedule.ops, key=lambda o: o.at_ms):
            self.cluster.queue.schedule(
                op.at_ms, lambda op=op: self._apply(op)
            )
        self._run_checked(self.schedule.duration_ms)
        converged = False
        if self.violation is None:
            self._heal_everything()
            self._run_checked(self.cluster.now + self.cooldown_ms)
            self._white_box_sweep()
            converged = self._converged()
        return self._result(converged)

    def _run_checked(self, until_ms: float) -> None:
        while self.cluster.now < until_ms and self.violation is None:
            step = min(self.cluster.now + self.check_period_ms, until_ms)
            self.cluster.run_until(step)
            self._white_box_sweep()

    def _heal_everything(self) -> None:
        self._emit("heal_all", "apply", "cluster")
        net = self.cluster.network
        self.cluster.heal_all_links()
        net.set_loss(0.0)
        net.set_duplication(0.0)
        net.set_reordering(0.0, 0.0)
        # Restore — not clear — the latency overrides the faults touched:
        # the pre-fault value may be a configured geo environment, and the
        # cooldown must run in that environment, not a flattened LAN.
        for (a, b), before in self._spiked_prev.items():
            if before is None:
                net.clear_latency(a, b)
            else:
                net.set_latency(a, b, before)
        for (src, dst), before in self._slowed_prev.items():
            if before is None:
                net.clear_latency_directed(src, dst)
            else:
                net.set_latency_directed(src, dst, before)
        for fs in self.faulty.values():
            fs.heal()
        for pid in self.cluster.pids:
            self.cluster.set_tick_scale(pid, 1.0)
            self.cluster.set_msg_cost(pid, 0.0)
            self.cluster.clear_tick_stall(pid)
            if self.cluster.is_crashed(pid):
                self.cluster.recover(pid)

    def _converged(self) -> bool:
        counts = {
            self.checker.next_idx.get(pid, 0) for pid in self.cluster.pids
        }
        return len(counts) == 1 and len(self.cluster.leaders()) >= 1

    def _result(self, converged: bool) -> ChaosResult:
        digest = hashlib.sha256(
            "\n".join(repr(e) for e in self.checker.canonical).encode()
        ).hexdigest()[:16]
        net = self.cluster.network
        return ChaosResult(
            schedule_digest=self.schedule.digest(),
            ok=self.violation is None,
            violation=self.violation,
            violation_at_ms=self.violation_at,
            decided_digest=digest,
            decided_len=len(self.checker.canonical),
            per_server_decided=self.checker.decided_counts(),
            converged=converged,
            ops_applied=self.ops_applied,
            storage_crashes=self.cluster.storage_crashes,
            ran_ms=self.cluster.now,
            messages={
                "sent": net.messages_sent,
                "dropped": net.messages_dropped,
                "duplicated": net.messages_duplicated,
                "reordered": net.messages_reordered,
            },
        )


def run_schedule(
    schedule: ChaosSchedule,
    obs: Optional[MetricsRegistry] = None,
    cooldown_ms: Optional[float] = None,
    check_period_ms: Optional[float] = None,
    flight_path: Optional[str] = None,
    flight_capacity: int = DEFAULT_CAPACITY,
) -> ChaosResult:
    """Execute ``schedule`` and return its :class:`ChaosResult`.

    Pass an enabled :class:`MetricsRegistry` to capture nemesis events,
    protocol events, and counters for the run (the failure artifact).

    Pass ``flight_path`` to attach a bounded
    :class:`~repro.obs.flight.FlightRecorder` for the run; if any safety
    check fails, the recorder's recent history (the last
    ``flight_capacity`` events per server) is dumped there as a
    ``repro-obs``-compatible JSON-lines file. When no registry is given,
    an enabled one (with tracing) is created so the recorder sees the
    full event stream.
    """
    registry = obs if obs is not None else NULL_REGISTRY
    recorder: Optional[FlightRecorder] = None
    if flight_path is not None:
        if not registry.enabled:
            registry = MetricsRegistry()
            registry.enable_tracing()
        recorder = FlightRecorder(capacity=flight_capacity)
        registry.add_sink(recorder)
    run = _ChaosRun(schedule, registry, cooldown_ms, check_period_ms)
    result = run.run()
    if recorder is not None and not result.ok:
        recorder.dump_jsonl(flight_path, registry)
    return result
