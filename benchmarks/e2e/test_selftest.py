"""Self-test of the benchmark (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q`` from the repo root. It
checks the benchmark's own claims: the proxies cover the interfaces they
wrap, the budget rows add up, a stalled operation fails instead of being
awaited, the correctness gate catches a corrupted decided stream, and the
simulator workload repeats exactly.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.omni.entry import Command  # noqa: E402
from repro.omni.storage import Storage  # noqa: E402
from repro.replica import Replica  # noqa: E402

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.check import check_decided  # noqa: E402
from benchmarks.e2e.client import Client  # noqa: E402
from benchmarks.e2e.compare import verdict  # noqa: E402
from benchmarks.e2e.proxies import (  # noqa: E402
    MessageLedger, TimedReplica, TimedStorage, Tracer)

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=170)


def _last_json(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the proxies ----------------------------------------------------------------------


@pytest.mark.parametrize("proxy, interface", [(TimedReplica, Replica),
                                              (TimedStorage, Storage)])
def test_proxy_overrides_every_interface_method(proxy, interface):
    """A method added to the ABC (abstract or not) must be delegated
    explicitly, or it would silently run the base class's default."""
    assert not getattr(proxy, "__abstractmethods__", None)
    public = [name for name, member in vars(interface).items()
              if not name.startswith("__")
              and (inspect.isfunction(member) or isinstance(member, property))]
    missing = [name for name in public if name not in vars(proxy)]
    assert not missing, f"{proxy.__name__} does not delegate {missing}"


def test_timed_replica_delegates_and_counts():
    calls = []

    class Fake(Replica):
        pid = 7
        members = (7,)
        is_leader = True
        leader_pid = 7

        def start(self, now_ms): calls.append(("start", now_ms))
        def tick(self, now_ms): calls.append(("tick", now_ms))
        def on_message(self, src, msg, now_ms): calls.append(("msg", src))
        def propose(self, entry, now_ms): calls.append(("propose", entry))
        def take_outbox(self): return [(2, Command(b"x", 1, 0))]
        def take_decided(self): return [(0, "e")]
        extra_hook = "reached"

    tracer, ledger = Tracer(), MessageLedger()
    proxy = TimedReplica(Fake(), tracer, ledger)
    proxy.start(1.0)
    proxy.tick(2.0)
    proxy.on_message(3, "m", 3.0)
    proxy.propose("e", 4.0)
    proxy.propose_batch(["a", "b"], 5.0)
    assert proxy.take_outbox() == [(2, Command(b"x", 1, 0))]
    assert proxy.take_decided() == [(0, "e")]
    assert (proxy.pid, proxy.members, proxy.is_leader, proxy.leader_pid) \
        == (7, (7,), True, 7)
    assert proxy.extra_hook == "reached"
    assert [c[0] for c in calls] == ["start", "tick", "msg", "propose",
                                     "propose", "propose"]
    reading = tracer.reading()
    assert reading["calls:replica.propose"] == 2
    assert reading["calls:replica.take_outbox"] == 1
    assert ledger.out_by_type == {"Command": 1}


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.keep_spans(True)
    tracer.push("outer")
    tracer.push("inner")
    tracer.pop()
    tracer.pop()
    reading = tracer.reading()
    assert reading["self_ns:outer"] == (reading["total_ns:outer"]
                                        - reading["total_ns:inner"])
    (outer, inner) = tracer.spans
    assert outer[3] == -1 and inner[3] == 0  # parent indexes
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


# -- the client ---------------------------------------------------------------------


class _DeafNode:
    """A leader that accepts proposals and never decides them."""

    pid = 1
    is_leader = True

    def propose(self, entry):
        pass


def test_stalled_operation_fails_instead_of_hanging(monkeypatch):
    monkeypatch.setattr("benchmarks.e2e.client.OP_TIMEOUT_S", 0.2)

    async def scenario():
        client = Client((1,), seed=1)
        client.attach({1: _DeafNode()})
        phase = await asyncio.wait_for(
            client.closed_phase(0.1, cp=4), timeout=5.0)
        return client, phase

    client, phase = asyncio.run(scenario())
    assert phase.attempted == 4
    assert len(phase.failed_due) == 4 and client.failed == 4
    assert client.outstanding == 0 and not phase.done


# -- the correctness gate -------------------------------------------------------------


def _streams(client: Client, count: int):
    entries = [Command(client._payloads[i & 4095], spec.CLIENT_ID, i)
               for i in range(count)]
    client.next_seq = count
    return {pid: list(entries) for pid in (1, 2, 3)}, entries


def test_gate_accepts_agreeing_streams_and_rejects_corrupted_ones():
    client = Client((1, 2, 3), seed=5)
    streams, entries = _streams(client, 20)
    acked = {1: [], 2: [], 3: list(range(20))}
    assert check_decided(streams, [], acked, client.was_proposed) == []

    swapped = {pid: list(s) for pid, s in streams.items()}
    swapped[2][4], swapped[2][5] = swapped[2][5], swapped[2][4]
    assert any("SC2" in p for p in check_decided(
        swapped, [], acked, client.was_proposed))

    forged = {pid: list(s) for pid, s in streams.items()}
    for stream in forged.values():
        stream[3] = Command(b"never proposed!!", spec.CLIENT_ID, 3)
    assert any("SC1" in p for p in check_decided(
        forged, [], acked, client.was_proposed))

    lost = {pid: list(s) for pid, s in streams.items()}
    del lost[3][-1]
    assert any("acknowledged" in p for p in check_decided(
        lost, [], acked, client.was_proposed))

    assert check_decided(streams, [(2, 9, 8)], acked, client.was_proposed)


def test_command_exits_non_zero_on_a_failed_check(tmp_path, monkeypatch):
    """The one command fails the run when the gate does."""
    from benchmarks.e2e import cli
    monkeypatch.setattr(cli, "run_workload", lambda *a, **k: {
        "workload": "tcp-single", "seed": 1, "seconds": 1.0, "trace": 0,
        "correct": False, "problems": ["SC2 violated at index 3"],
        "attempted": 10, "failed": 0, "metrics": {}, "detail": {}})
    assert cli.main(["--workload", "tcp-single", "--seed", "1"]) == 1


# -- the command ------------------------------------------------------------------------


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert any(m.name == "setup_s" and m.bound == max(
        e.bound for e in spec.END_TO_END) for m in spec.END_TO_END)


def test_sim_partial_repeats_exactly_and_stays_off_the_runtime():
    first = _run("--workload", "sim-partial", "--seed", "3", "--quick",
                 "--trace", "1")
    second = _run("--workload", "sim-partial", "--seed", "3", "--quick",
                  "--trace", "1")
    assert first.returncode == 0, first.stdout + first.stderr
    a, b = _last_json(first)["metrics"], _last_json(second)["metrics"]
    exact = [name for name, metric in a.items()
             if metric["unit"] in ("virt_ms", "count")]
    assert len(exact) >= 11
    for name in exact:
        assert a[name] == b[name], name
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; import benchmarks.e2e.sim; "
         "print([m for m in sys.modules if m.startswith('repro.runtime')])"],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT])))
    assert probe.stdout.strip() == "[]", probe.stdout + probe.stderr


def test_budget_rows_sum_to_cpu_per_commit():
    done = _run("--workload", "tcp-single", "--seed", "2", "--quick",
                "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    record = _last_json(done)
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == {m.name for m in spec.PER_LAYER}
    value = {name: m["value"] for name, m in record["metrics"].items()}
    budget = sum(value[row] for row in spec.BUDGET_ROWS)
    assert budget == pytest.approx(value["proc.cpu_us_per_commit"], rel=0.02)
    assert all(value[row] >= 0 for row in spec.BUDGET_ROWS)
    assert 0.0 <= value["trace.overhead_share"] < 1.0


def test_untraced_run_reports_every_end_to_end_metric():
    done = _run("--workload", "tcp-batch", "--seed", "4", "--quick",
                "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    record = _last_json(done)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert list(record["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_compare_verdicts():
    assert verdict(100.0, 104.0, "lower", 0.10, 0.02)[1] == "within bound"
    assert verdict(100.0, 115.0, "lower", 0.10, 0.02)[1] == "worse"
    assert verdict(100.0, 80.0, "lower", 0.10, 0.02)[1] == "better"
    assert verdict(100.0, 80.0, "higher", 0.10, None)[1] == "worse"
    assert verdict(100.0, 115.0, "lower", 0.10, 0.30)[1] == "unresolved"
