"""The ``tcp-*`` workloads: set up, warm up, alternate closed and paced
slices, check, and turn what was recorded into metrics.

The two phases are cut into :data:`~benchmarks.e2e.spec.WINDOWS` slices
each and the slices alternate (closed, paced, closed, ...), so each
metric's five windows are spread over the whole run: on a shared box the
processor slows by a third for seconds at a time, and a slow spell then
lands on a minority of a metric's windows instead of on all of them.
"""

from __future__ import annotations

import asyncio
import os
import shutil
from collections import defaultdict
from time import monotonic
from typing import Any, Dict, List, Optional, Tuple

from .check import check_decided, check_wals
from .client import PhaseLog
from .cluster import Cluster, SetupTimes
from .codec_replay import replay_codec
from .proc import ProcSnapshot
from .spec import OP_TIMEOUT_S, SERVERS, WINDOWS, Plan, Workload
from .speedref import (NOMINAL_FSYNC_PER_S, NOMINAL_PER_S, DiskReference,
                       SpeedReference, rate_at_nominal, time_at_nominal)
from .stats import median, percentile

_SLEEPER_S = 0.010
_NET_COUNTERS = ("repro_messages_sent_total", "repro_bytes_sent_total",
                 "repro_messages_dropped_total",
                 "repro_reconnect_attempts_total")


class _LoopLag:
    """A 10 ms sleeper owned by the benchmark; its overshoot is how long
    a ready callback waits for the loop. Records only while ``active``."""

    def __init__(self) -> None:
        self.overshoot_ms: List[float] = []
        self.active = False
        self._task: Optional[asyncio.Task] = None

    async def _run(self) -> None:
        while True:
            before = monotonic()
            await asyncio.sleep(_SLEEPER_S)
            if self.active:
                self.overshoot_ms.append(
                    (monotonic() - before - _SLEEPER_S) * 1e3)

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass


def _reading(cluster: Cluster) -> Dict[str, float]:
    """Every cumulative counter the benchmark can read from outside, as
    one flat dict; two readings are subtracted to cost an interval."""
    proc = ProcSnapshot.take()
    out: Dict[str, float] = {
        "cpu_s": proc.cpu_s, "sys_s": proc.sys_s,
        "syscr": proc.syscr, "syscw": proc.syscw,
        "rss_bytes": proc.rss_bytes, "gen2": proc.gen2_collections,
        "wal_bytes": cluster.wal_bytes(),
        "leader_changes": cluster.client.leader_changes,
        "appended": sum(getattr(s, "entries_appended", 0)
                        for s in cluster.storages),
    }
    if cluster.tracer is not None:
        for name in _NET_COUNTERS:
            out[f"net:{name}"] = cluster.counter_total(name)
        out.update(cluster.tracer.reading())
        out.update(cluster.ledger.reading())
    return out


def _add_delta(total: Dict[str, float], before: Dict[str, float],
               after: Dict[str, float]) -> None:
    for key, value in after.items():
        total[key] += value - before.get(key, 0.0)


async def _settle(cluster: Cluster) -> List[str]:
    """Wait until every server has decided what the longest stream has."""
    deadline = monotonic() + OP_TIMEOUT_S
    while monotonic() < deadline:
        if len({len(s) for s in cluster.streams.values()}) == 1:
            return []
        await asyncio.sleep(0.005)
    lengths = {p: len(s) for p, s in cluster.streams.items()}
    return [f"servers did not converge within {OP_TIMEOUT_S:.0f} s of the "
            f"last operation: decided lengths {lengths}"]


def _check(cluster: Cluster) -> List[str]:
    client = cluster.client
    return check_decided(cluster.streams, cluster.gaps, client.acked,
                         client.was_proposed)


async def _set_up_only(workload: Workload, seed: int, workdir: str
                       ) -> SetupTimes:
    cluster = Cluster(workload, seed, SERVERS, workdir)
    try:
        return await cluster.start()
    finally:
        await cluster.stop()


async def _closed_only(workload: Workload, seed: int, workdir: str,
                       warmup_s: float, seconds: float,
                       servers: Tuple[int, ...]
                       ) -> Tuple[float, float, List[str]]:
    """An untraced closed phase on a fresh cluster of ``servers``:
    (window-median throughput at nominal speed, CPU us per commit,
    problems)."""
    cluster = Cluster(workload, seed, servers, workdir)
    reference, nominal = _reference(workload, workdir)
    try:
        await cluster.start()
        await reference.start()
        client = cluster.client
        await client.closed_phase(warmup_s, workload.closed_cp,
                                  record=False)
        await reference.measure()
        slices: List[PhaseLog] = []
        cpu_s = 0.0
        for _ in range(WINDOWS):
            before = ProcSnapshot.take()
            slices.append(await client.closed_phase(
                seconds / WINDOWS, workload.closed_cp))
            cpu_s += ProcSnapshot.take().cpu_s - before.cpu_s
            await reference.measure()
        problems = await _settle(cluster)
    finally:
        await reference.stop()
        await cluster.stop()
    problems += _check(cluster)
    commits = max(sum(len(s.done) for s in slices), 1)
    return (_tput_at_nominal(slices, reference.rates, 1, nominal),
            cpu_s * 1e6 / commits, problems)


def _between(rates: List[float], stride: int, offset: int = 0
             ) -> List[float]:
    """The reference rate around each slice: the mean of the reference
    slices before and after it. With ``stride`` 2 closed and paced slices
    alternate and ``offset`` 1 picks the paced ones."""
    return [(rates[stride * i + offset] + rates[stride * i + offset + 1]) / 2
            for i in range(WINDOWS)]


def _reference(workload: Workload, workdir: str):
    """The reference of the resource the workload is bound by, and its
    nominal rate."""
    if workload.bound_by == "disk":
        return (DiskReference(os.path.join(workdir, "reference.log")),
                NOMINAL_FSYNC_PER_S)
    return SpeedReference(), NOMINAL_PER_S


def _tput_at_nominal(closed: List[PhaseLog], rates: List[float],
                     stride: int, nominal: float) -> float:
    return median([rate_at_nominal(s.tput(), r, nominal)
                   for s, r in zip(closed, _between(rates, stride))])


async def run(workload: Workload, seed: int, plan: Plan, trace: bool,
              workroot: str, spans_path: Optional[str] = None
              ) -> Dict[str, Any]:
    """One run of a ``tcp-*`` workload; returns the result document."""
    dirs = iter(os.path.join(workroot, f"c{i}") for i in range(16))

    def workdir() -> str:
        path = next(dirs)
        os.makedirs(path)
        return path

    try:
        setups = [await _set_up_only(workload, seed, workdir())
                  for _ in range(plan.setups - 1)]
        cluster = Cluster(workload, seed, SERVERS, workdir(), traced=trace)
        try:
            setups.append(await cluster.start())
            measured = await _measure(cluster, plan)
            problems = await _settle(cluster)
        finally:
            await cluster.stop()
        problems += _check(cluster)
        wal_problems, replay_s = check_wals(cluster.wal_paths,
                                            cluster.client.acked)
        problems += wal_problems

        closed: List[PhaseLog] = measured["closed"]
        paced: List[PhaseLog] = measured["paced"]
        rates: List[float] = measured["reference_rates"]
        nominal: float = measured["reference_nominal"]
        tput = _tput_at_nominal(closed, rates, 2, nominal)
        p50_raw = [percentile(s.latencies_ms(), 0.50) for s in paced]
        result: Dict[str, Any] = {
            "attempted": sum(s.attempted for s in closed + paced),
            "failed": sum(len(s.failed_due) for s in closed + paced),
            "problems": problems,
            "detail": {
                "setup_s_each": [s.setup_s for s in setups],
                "first_commit_ms_each": [s.first_commit_ms for s in setups],
                "leader_history": setups[-1].leader_history,
                "reference_per_s": rates,
                "reference_bound_by": workload.bound_by,
                "raw_commit_tput_by_window": [s.tput() for s in closed],
                "raw_commit_p50_ms_by_window": p50_raw,
                "raw_commit_p95_ms_by_window": [
                    percentile(s.latencies_ms(), 0.95) for s in paced],
                "paced_samples_by_window": [
                    len(s.due) + len(s.failed_due) for s in paced],
            },
        }
        if not trace:
            result["metrics"] = {
                "setup_s": median([s.setup_s for s in setups]),
                "commit_tput": tput,
                "commit_p50_ms": median([
                    time_at_nominal(ms, r, nominal) for ms, r in
                    zip(p50_raw, _between(rates, 2, offset=1))]),
                "downtime_ms": median([s.first_commit_ms for s in setups]),
            }
            return result

        layers = _layer_metrics(cluster, measured, replay_s)
        untraced_tput, _, more = await _closed_only(
            workload, seed, workdir(), plan.warmup_s, plan.untraced_s,
            SERVERS)
        problems += more
        layers["trace.overhead_share"] = 1.0 - tput / untraced_tput
        if workload.single_node_pass:
            _, floor_us, more = await _closed_only(
                workload, seed, workdir(), plan.warmup_s,
                plan.single_node_s, (1,))
            problems += more
            layers["replica.single_node_us_per_commit"] = floor_us
        detail = result["detail"]
        detail["untraced_tput_at_nominal"] = untraced_tput
        detail["traced_tput_at_nominal"] = tput
        detail["codec_by_type"] = measured["codec"].by_type
        detail["dropped_by_reason"] = cluster.dropped_by_reason()
        if spans_path is not None:
            detail["spans_written"] = cluster.tracer.write_spans(spans_path)
            detail["spans_path"] = spans_path
        result["metrics"] = layers
        return result
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


async def _measure(cluster: Cluster, plan: Plan) -> Dict[str, Any]:
    """Warm-up, then alternating closed and paced slices, with a reading
    of every outside counter around each slice."""
    workload = cluster.workload
    client = cluster.client
    tracer = cluster.tracer
    await client.closed_phase(plan.warmup_s, workload.closed_cp,
                              record=False)
    closed: List[PhaseLog] = []
    paced: List[PhaseLog] = []
    closed_total: Dict[str, float] = defaultdict(float)
    lag = _LoopLag()
    if tracer is not None:
        lag.start()
    reference, nominal = _reference(workload, cluster.workdir)
    await reference.start()
    try:
        run_start = _reading(cluster)
        # Reference slices bracket every measured slice: closed slice i
        # lies between rates[2i] and rates[2i+1], paced slice i between
        # rates[2i+1] and rates[2i+2].
        await reference.measure()
        for _ in range(WINDOWS):
            before = _reading(cluster)
            if tracer is not None:
                tracer.keep_spans(True)
            closed.append(await client.closed_phase(
                plan.closed_s / WINDOWS, workload.closed_cp))
            if tracer is not None:
                tracer.keep_spans(False)
            _add_delta(closed_total, before, _reading(cluster))
            await reference.measure()
            lag.active = True
            paced.append(await client.paced_phase(
                plan.paced_s / WINDOWS, workload.paced_rate))
            lag.active = False
            await reference.measure()
    finally:
        await reference.stop()
    run_total: Dict[str, float] = defaultdict(float)
    _add_delta(run_total, run_start, _reading(cluster))
    await lag.stop()
    out: Dict[str, Any] = {
        "closed": closed, "paced": paced, "closed_total": closed_total,
        "run_total": run_total, "loop_lag_ms": lag.overshoot_ms,
        "reference_rates": reference.rates, "reference_nominal": nominal,
    }
    if tracer is not None:
        out["codec"] = replay_codec(cluster.ledger, {
            key[len("out:"):]: int(count)
            for key, count in closed_total.items()
            if key.startswith("out:")})
    return out


def _layer_metrics(cluster: Cluster, measured: Dict[str, Any],
                   replay_s: List[float]) -> Dict[str, float]:
    """Every per-layer metric of a traced ``tcp-*`` run. Per-commit rows
    come from the closed slices, latency-like rows from the paced ones."""
    closed: List[PhaseLog] = measured["closed"]
    paced: List[PhaseLog] = measured["paced"]
    total: Dict[str, float] = measured["closed_total"]
    run_total: Dict[str, float] = measured["run_total"]
    codec = measured["codec"]
    # Everything a closed slice issued is decided by the end of its
    # drain, which the readings around the slice include.
    commits = max(sum(len(s.done) for s in closed), 1)

    def layer_self_us(prefix: str) -> float:
        return sum(ns for key, ns in total.items()
                   if key.startswith(f"self_ns:{prefix}")) / 1e3

    def mean_us(kind: str, span: str) -> float:
        calls = total.get(f"calls:{span}", 0)
        return total.get(f"{kind}:{span}", 0) / 1e3 / calls if calls else 0.0

    cpu_us = total["cpu_s"] * 1e6 / commits
    replica_us = layer_self_us("replica.") / commits
    storage_us = layer_self_us("storage.") / commits
    # An fsync blocks without using the processor, so the budget (which
    # sums to processor time) takes the CPU clock's reading of the storage
    # spans where there is one (the durable workload).
    storage_cpu_us = storage_us
    if cluster.workload.durable:
        storage_cpu_us = sum(
            ns for key, ns in total.items()
            if key.startswith("cpu_ns:storage.")) / 1e3 / commits
    client_us = layer_self_us("client.") / commits
    codec_us = codec.total_us / commits
    appends = total.get("calls:storage.append", 0)
    proposed = max(sum(s.attempted for s in closed), 1)
    msgs_out = sum(n for key, n in total.items() if key.startswith("out:"))
    replicate_msgs = total.get("replicate_msgs", 0)
    latencies = [ms for s in paced for ms in s.latencies_ms()]
    lags_ms = [(max(times) - min(times)) * 1e3
               for times in cluster.lag_marks.values()
               if len(times) == len(cluster.servers)
               and any(s.start <= min(times) < s.end for s in paced)]
    attempted = sum(s.attempted for s in closed + paced)
    failed = sum(len(s.failed_due) for s in closed + paced)

    return {
        "codec.encode_us_per_msg": codec.encode_us_per_msg,
        "codec.decode_us_per_msg": codec.decode_us_per_msg,
        "codec.bytes_per_msg": codec.bytes_per_msg,
        "codec.us_per_commit": codec_us,
        "transport.msgs_per_commit":
            total["net:repro_messages_sent_total"] / commits,
        "transport.bytes_per_commit":
            total["net:repro_bytes_sent_total"] / commits,
        "transport.dropped_msgs":
            run_total["net:repro_messages_dropped_total"],
        "transport.reconnects":
            run_total["net:repro_reconnect_attempts_total"],
        "node.propose_us_per_call": mean_us("total_ns", "node.propose"),
        "node.self_us_per_commit": layer_self_us("node.") / commits,
        "loop.lag_p50_ms": percentile(measured["loop_lag_ms"], 0.50),
        "loop.lag_p95_ms": percentile(measured["loop_lag_ms"], 0.95),
        "replica.on_message_us": mean_us("self_ns", "replica.on_message"),
        "replica.propose_us_per_entry":
            total.get("self_ns:replica.propose", 0) / 1e3 / proposed,
        "replica.tick_us": mean_us("self_ns", "replica.tick"),
        "replica.take_outbox_us": mean_us("self_ns", "replica.take_outbox"),
        "replica.us_per_commit": replica_us,
        "replica.entries_per_replicate_msg":
            total.get("replicate_entries", 0) / replicate_msgs
            if replicate_msgs else 0.0,
        "replica.msgs_out_per_commit": msgs_out / commits,
        "replica.leader_changes": run_total["leader_changes"],
        "replica.follower_lag_p50_ms": percentile(lags_ms, 0.50),
        "replica.follower_lag_p95_ms": percentile(lags_ms, 0.95),
        "storage.append_us": mean_us("self_ns", "storage.append"),
        "storage.entries_per_append":
            total["appended"] / appends if appends else 0.0,
        "storage.appends_per_commit": appends / commits,
        "storage.meta_writes_per_commit":
            total.get("calls:storage.meta", 0) / commits,
        "storage.us_per_commit": storage_us,
        "storage.cpu_us_per_commit": storage_cpu_us,
        "storage.bytes_per_commit": total["wal_bytes"] / commits,
        "storage.replay_s": median(replay_s),
        "proc.cpu_us_per_commit": cpu_us,
        "proc.other_us_per_commit":
            cpu_us - replica_us - storage_cpu_us - codec_us - client_us,
        "proc.sys_us_per_commit": total["sys_s"] * 1e6 / commits,
        "proc.write_syscalls_per_commit": total["syscw"] / commits,
        "proc.read_syscalls_per_commit": total["syscr"] / commits,
        "proc.rss_bytes_per_commit": total["rss_bytes"] / commits,
        "proc.gc_gen2_collections": run_total["gen2"],
        "client.commit_p95_ms": median(
            [percentile(s.latencies_ms(), 0.95) for s in paced]),
        "client.commit_p99_ms": percentile(latencies, 0.99),
        "client.samples": float(len(latencies)),
        "client.gen_late_p95_ms": percentile(
            [s * 1e3 for p in paced for s in p.late], 0.95),
        "client.us_per_op": client_us,
        "client.failed_share": failed / attempted if attempted else 0.0,
        "bench.speed_reference_per_s": median(measured["reference_rates"]),
    }
