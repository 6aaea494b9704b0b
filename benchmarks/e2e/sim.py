"""The ``sim-partial`` workload: the paper's three partial-connectivity
scenarios on the simulator. It imports nothing from ``repro.runtime``.

The simulator is deterministic, and for Omni-Paxos the scenario seed
changes nothing; what does change down-time is *when* in the BLE
heartbeat round the partition strikes (quorum loss: 300 to 400 virtual
ms across one 100 ms round). So instead of repeating one instant, the
cells sample the round: ``phases`` partition instants per scenario,
evenly spaced over one heartbeat period, at an offset drawn from
``--seed``. The same seed gives the same cells and the same counters.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry
from repro.sim.scenarios import ScenarioResult, run_partition_scenario

from .proc import ProcSnapshot
from .speedref import measure_once, rate_at_nominal
from .spec import (SIM_CP, SIM_ELECTION_TIMEOUT_MS, SIM_PARTITION_MS,
                   SIM_SCENARIOS, SIM_WARMUP_MS, Plan)
from .stats import median, percentile

#: Set-up runs this many short cells (caches, lazy imports) before any
#: cell is timed; ``setup_s`` takes their median.
_WARM_CELLS = 3


class _EventCounter:
    """A registry sink that only counts the events it is handed."""

    def __init__(self) -> None:
        self.events = 0

    def record(self, record: Any) -> None:
        self.events += 1


def _cell(scenario: str, warmup_ms: float, seed: int,
          obs: Optional[MetricsRegistry] = None,
          partition_ms: float = SIM_PARTITION_MS
          ) -> Tuple[ScenarioResult, float]:
    started = perf_counter()
    result = run_partition_scenario(
        "omni", scenario,
        election_timeout_ms=SIM_ELECTION_TIMEOUT_MS,
        concurrent_proposals=SIM_CP,
        partition_duration_ms=partition_ms,
        warmup_ms=warmup_ms, seed=seed, obs=obs)
    return result, perf_counter() - started


def _decided(result: ScenarioResult) -> int:
    return (result.decided_before_partition
            + result.decided_during_partition + result.decided_after_heal)


def run(seed: int, plan: Plan, trace: bool) -> Dict[str, Any]:
    warm_s = median([_cell("chained", 200.0, 0, partition_ms=300.0)[1]
                     for _ in range(_WARM_CELLS)])
    rng = random.Random(seed)
    offset = rng.random()
    phases = plan.sim_phases
    if trace:
        # Each round runs twice (registry off, then on), so half as many.
        phases = max(1, phases // 2)
    warmups = [SIM_WARMUP_MS
               + (i + offset) / phases * SIM_ELECTION_TIMEOUT_MS
               for i in range(phases)]

    cells: List[ScenarioResult] = []
    round_rates: List[float] = []
    traced_rates: List[float] = []
    by_scenario: Dict[str, List[ScenarioResult]] = {
        s: [] for s in SIM_SCENARIOS}
    events = messages = traced_decided = 0
    traced_wall = 0.0
    proc0 = ProcSnapshot.take()
    # A speed-reference slice before and after every round scales the
    # round's wall-clock rate to nominal machine speed (see speedref).
    reference = [measure_once()]
    raw_rates: List[float] = []
    for i, warmup_ms in enumerate(warmups):
        decided, wall = 0, 0.0
        for scenario in SIM_SCENARIOS:
            result, seconds = _cell(scenario, warmup_ms, seed * 64 + i)
            cells.append(result)
            by_scenario[scenario].append(result)
            decided += _decided(result)
            wall += seconds
        reference.append(measure_once())
        raw_rates.append(decided / wall)
        round_rates.append(rate_at_nominal(
            decided / wall, (reference[-2] + reference[-1]) / 2))
        if not trace:
            continue
        decided, wall = 0, 0.0
        for scenario in SIM_SCENARIOS:
            registry = MetricsRegistry()
            counter = _EventCounter()
            registry.add_sink(counter)
            result, seconds = _cell(scenario, warmup_ms, seed * 64 + i,
                                    obs=registry)
            decided += _decided(result)
            wall += seconds
            events += counter.events
            messages += int(registry.sum_counter("repro_messages_sent_total"))
        reference.append(measure_once())
        traced_rates.append(rate_at_nominal(
            decided / wall, (reference[-2] + reference[-1]) / 2))
        traced_decided += decided
        traced_wall += wall
    proc1 = ProcSnapshot.take()

    problems = [
        f"{c.scenario} (partition at {c.partition_at_ms:.1f} virtual ms) "
        f"did not recover: down-time {c.downtime_ms:.1f} ms"
        for c in cells if not c.recovered]
    downtime = {s: median([c.downtime_ms for c in rs])
                for s, rs in by_scenario.items()}
    out: Dict[str, Any] = {
        "attempted": len(cells),
        "failed": sum(1 for c in cells if not c.recovered),
        "problems": problems,
        "detail": {
            "partition_offsets_ms": [w - SIM_WARMUP_MS for w in warmups],
            "downtime_ms_by_scenario": downtime,
            "downtime_ms_cells": {s: [c.downtime_ms for c in rs]
                                  for s, rs in by_scenario.items()},
            "raw_decided_per_s_by_round": raw_rates,
            "reference_per_s": reference,
        },
    }
    if not trace:
        out["metrics"] = {
            "setup_s": warm_s,
            "commit_tput": median(round_rates),
            # Closed loop at fixed link delays: latency = CP / throughput.
            "commit_p50_ms": median([
                SIM_CP * c.partition_at_ms / c.decided_before_partition
                for c in cells]),
            "commit_p95_ms": percentile([
                SIM_CP * (c.partition_end_ms - c.partition_at_ms)
                / max(c.decided_during_partition, 1) for c in cells], 0.95),
            "downtime_ms": max(downtime.values()),
        }
        return out

    total_decided = max(sum(_decided(c) for c in cells), 1)
    layers: Dict[str, float] = {
        "sim.events_per_decided": events / max(traced_decided, 1),
        "sim.msgs_per_decided": messages / max(traced_decided, 1),
        "sim.events_per_s": events / traced_wall,
        "sim.decided_per_s": median(traced_rates),
        "trace.overhead_share": 1.0 - sum(traced_rates) / sum(round_rates),
        "proc.cpu_us_per_commit":
            (proc1.cpu_s - proc0.cpu_s) * 1e6
            / (total_decided + traced_decided),
        "proc.gc_gen2_collections":
            float(proc1.gen2_collections - proc0.gen2_collections),
        "client.failed_share": out["failed"] / len(cells),
        "client.samples": float(len(cells)),
        "bench.speed_reference_per_s": median(reference),
    }
    for scenario, results in by_scenario.items():
        layers[f"sim.downtime_ms.{scenario}"] = downtime[scenario]
        layers[f"sim.recovery_ms.{scenario}"] = median(
            [c.recovery_ms for c in results if c.recovery_ms is not None])
        layers[f"sim.decided_in_partition.{scenario}"] = median(
            [float(c.decided_during_partition) for c in results])
    out["metrics"] = layers
    return out
