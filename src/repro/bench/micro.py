"""Micro benches of the behaviour gate, one per hot-path layer.

Each bench drives one layer — the event queue, the network send path,
the Sequence Paxos commit loop, the hand-out fan-out, the runtime codec,
the observability stack — and returns the deterministic counters that
pin its behaviour.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.baselines.multipaxos import (
    MultiPaxosConfig,
    MultiPaxosReplica,
    P2a,
)
from repro.baselines.raft import AppendEntries, RaftConfig, RaftReplica
from repro.bench.runner import LogDigest
from repro.omni.ballot import Ballot
from repro.omni.entry import Command
from repro.omni.messages import (
    AcceptDecide,
    COMPONENT_SP,
    Envelope,
    HeartbeatRequest,
)
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer
from repro.replica import Replica
from repro.runtime.codec import FrameDecoder, encode_frame
from repro.sim.events import EventQueue
from repro.sim.harness import ExperimentConfig, build_experiment
from repro.sim.network import NetworkParams, SimNetwork


def bench_event_queue(n_events: int, seed: int = 0) -> Dict[str, Any]:
    """Push/pop through :class:`EventQueue` — the simulator's innermost loop.

    Two phases with ``n_events`` each: a bulk phase (schedule everything,
    then drain) and a chain phase (each callback schedules the next), which
    is how protocol timers actually drive the queue.
    """
    rng = random.Random(seed)
    times = [rng.random() * 1_000.0 for _ in range(n_events)]
    queue = EventQueue()
    fired = 0

    def bump() -> None:
        nonlocal fired
        fired += 1

    for at in times:
        queue.schedule(at, bump)
    queue.run_until(1_000.0)

    remaining = n_events

    def chain() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            queue.schedule_in(0.1, chain)

    queue.schedule_in(0.1, chain)
    queue.run_until(2_000.0 + 0.1 * n_events)
    assert fired == n_events and remaining == 0
    return {"events_processed": queue.processed}


def bench_network_send(n_sends: int, num_servers: int = 5,
                       seed: int = 0) -> Dict[str, Any]:
    """Fan ``n_sends`` messages through :class:`SimNetwork`.

    Round-robins over every ordered server pair so the FIFO clamp, latency
    lookup, and delivery scheduling all stay hot; the queue is drained in
    slabs so the heap stays at realistic size.
    """
    pairs = [(a, b)
             for a in range(1, num_servers + 1)
             for b in range(1, num_servers + 1) if a != b]
    queue = EventQueue()
    network = SimNetwork(queue, NetworkParams(one_way_ms=0.1))
    # One asymmetric override so the per-link lookup path is exercised.
    network.set_latency(1, 2, 0.3)
    delivered = 0

    def on_deliver(src: int, dst: int, msg: Any) -> None:
        nonlocal delivered
        delivered += 1

    network.on_deliver(on_deliver)
    msg = HeartbeatRequest(round=1)
    n_pairs = len(pairs)
    sent = 0
    while sent < n_sends:
        slab = min(2_000, n_sends - sent)
        for i in range(slab):
            src, dst = pairs[(sent + i) % n_pairs]
            network.send(src, dst, msg)
        sent += slab
        queue.run_for(10.0)
    queue.run_for(10.0)
    assert delivered == n_sends
    return {
        "messages_sent": network.messages_sent,
        "messages_delivered": delivered,
        "events_processed": queue.processed,
    }


def _drive_commit_loop(n_batches: int, batch_entries: int, seed: int,
                       obs: Any = None,
                       sample_queues: bool = False) -> Dict[str, Any]:
    """One 3-server omni run: a batch at the leader per virtual ms."""
    cfg = ExperimentConfig(protocol="omni", num_servers=3,
                           election_timeout_ms=100.0, one_way_ms=0.1,
                           seed=seed, initial_leader=1)
    exp = build_experiment(cfg, obs=obs)
    if sample_queues:
        exp.attach_queue_sampler(sample_ms=20.0)
    digest = LogDigest()
    decided_at_leader = 0

    def observer(pid: int, idx: int, entry: Any, now: float) -> None:
        nonlocal decided_at_leader
        digest.record(pid, idx, entry)
        if pid == 1:
            decided_at_leader += 1

    exp.cluster.on_decided(observer)
    exp.cluster.run_for(5 * cfg.election_timeout_ms)
    leaders = exp.cluster.leaders()
    assert leaders == [1], f"expected pre-seeded leader, got {leaders}"
    payload = bytes(8)
    seq = 0
    for _ in range(n_batches):
        batch = []
        for _ in range(batch_entries):
            batch.append(Command(data=payload, client_id=1, seq=seq))
            seq += 1
        exp.cluster.propose_batch(1, batch)
        exp.cluster.run_for(1.0)
    exp.cluster.run_for(50.0)
    return {
        "decided_entries": decided_at_leader,
        "decided_log_digest": digest.hexdigest(),
        "events_processed": exp.queue.processed,
        "messages_sent": exp.network.messages_sent,
    }


def bench_commit_loop(n_batches: int, batch_entries: int,
                      seed: int = 0) -> Dict[str, Any]:
    """The Sequence Paxos ``propose_batch`` -> ``Decide`` commit loop.

    Drives a 3-server omni cluster end to end: each iteration proposes one
    batch at the leader and advances virtual time until the next, so
    replication, quorum accounting, and decide fan-out all run.
    """
    run = _drive_commit_loop(n_batches, batch_entries, seed)
    return {key: run[key] for key in (
        "decided_entries", "events_processed", "messages_sent",
        "decided_log_digest")}


def bench_obs_overhead(n_batches: int, batch_entries: int,
                       seed: int = 0) -> Dict[str, Any]:
    """Observability is passive: the commit loop decides the same off or on.

    Runs the commit-loop workload three times — with the null registry
    (the disabled path every production-off run takes), with an enabled
    registry carrying the health observatory (connectivity monitor +
    flight recorder sinks), and with that plus the queue-depth sampler
    (``Experiment.attach_queue_sampler``) and a ``MemorySink`` whose
    records are windowed afterwards (``series_windows``). The
    decided-log digests of all three runs MUST be identical
    (``digests_identical``): turning observability on may cost time but
    can never change what gets decided.
    """
    from repro.obs.exporters import MemorySink
    from repro.obs.flight import FlightRecorder
    from repro.obs.health import HealthMonitor
    from repro.obs.registry import MetricsRegistry
    from repro.obs.series import series_from_events

    def drive_enabled(sample_queues: bool):
        registry = MetricsRegistry()
        sinks = HealthMonitor(), FlightRecorder(), MemorySink()
        for sink in sinks:
            registry.add_sink(sink)
        run = _drive_commit_loop(n_batches, batch_entries, seed,
                                 obs=registry, sample_queues=sample_queues)
        return (run, *sinks)

    off = _drive_commit_loop(n_batches, batch_entries, seed)
    health = drive_enabled(sample_queues=False)[0]
    on, monitor, recorder, memory = drive_enabled(sample_queues=True)
    return {
        "decided_entries": on["decided_entries"],
        "decided_log_digest": on["decided_log_digest"],
        "digests_identical": (off["decided_log_digest"]
                              == health["decided_log_digest"]
                              == on["decided_log_digest"]),
        "events_processed_off": off["events_processed"],
        "events_processed_on": on["events_processed"],
        "health_reporters": len(monitor.matrix.views),
        "flight_retained": len(recorder),
        "series_windows": len(series_from_events(memory.records, 100.0)),
    }


def _burst_then_one_handout(replicas: Dict[int, Replica],
                            n_proposals: int) -> Dict[str, Any]:
    """``n_proposals`` ``propose()`` calls at server 1, one hand-out,
    then direct FIFO delivery (a hand-out after every message, like the
    simulator) until every server has decided them all."""
    wire: Deque[Tuple[int, int, Any]] = deque()
    digest = LogDigest()
    decided = dict.fromkeys(replicas, 0)
    counts = {"replicate_msgs": 0, "replicate_entries": 0, "delivered": 0}

    def hand_out(pid: int) -> None:
        for dst, msg in replicas[pid].take_outbox():
            inner = msg.payload if isinstance(msg, Envelope) else msg
            if isinstance(inner, P2a):
                carried = inner.values
            elif isinstance(inner, (AcceptDecide, AppendEntries)):
                carried = inner.entries
            else:
                carried = ()
            if carried:  # not a Raft or Multi-Paxos heartbeat
                counts["replicate_msgs"] += 1
                counts["replicate_entries"] += len(carried)
            wire.append((pid, dst, msg))
        for idx, entry in replicas[pid].take_decided():
            digest.record(pid, idx, entry)
            decided[pid] += 1

    def settle(now_ms: float) -> None:
        while wire:
            src, dst, msg = wire.popleft()
            replicas[dst].on_message(src, msg, now_ms)
            counts["delivered"] += 1
            hand_out(dst)

    for pid, replica in replicas.items():
        replica.start(0.0)
        hand_out(pid)
    settle(0.0)  # the seeded leader synchronizes its followers
    assert replicas[1].is_leader
    counts.update(dict.fromkeys(counts, 0))  # count from the burst on
    for seq in range(n_proposals):
        replicas[1].propose(Command(data=bytes(8), client_id=1, seq=seq), 0.0)
    hand_out(1)
    settle(0.0)
    now_ms = 0.0
    while min(decided.values()) < n_proposals:
        # Raft followers learn the commit index from the next heartbeat.
        now_ms += 100.0
        assert now_ms <= 300.0, decided
        for pid, replica in replicas.items():
            replica.tick(now_ms)
            hand_out(pid)
        settle(now_ms)
    return {
        "replicate_msgs": counts["replicate_msgs"],
        "entries_per_replicate_msg": (counts["replicate_entries"]
                                      / counts["replicate_msgs"]),
        "messages_until_all_decided": counts["delivered"],
        "decided_log_digest": digest.hexdigest(),
    }


def bench_handout_fanout(n_proposals: int, seed: int = 0) -> Dict[str, Any]:
    """A burst of proposals costs one replication message per follower.

    Three sans-io servers per protocol, no clock: what the leader appends
    between two hand-outs leaves as one ``AcceptDecide`` (Omni-Paxos),
    one ``AppendEntries`` (Raft) or one ``P2a`` (Multi-Paxos) per
    follower, so ``replicate_msgs`` is the follower count however long
    the burst — per-proposal fan-out would make it ``2 * n_proposals``.
    """
    servers = (1, 2, 3)
    return {
        "omni": _burst_then_one_handout({
            pid: OmniPaxosServer(OmniPaxosConfig(
                pid=pid, cluster=ClusterConfig(0, servers), initial_leader=1))
            for pid in servers}, n_proposals),
        "raft": _burst_then_one_handout({
            pid: RaftReplica(RaftConfig(
                pid=pid, voters=servers, seed=seed, initial_leader=1))
            for pid in servers}, n_proposals),
        "multipaxos": _burst_then_one_handout({
            pid: MultiPaxosReplica(MultiPaxosConfig(
                pid=pid, peers=tuple(p for p in servers if p != pid),
                seed=seed, initial_leader=1))
            for pid in servers}, n_proposals),
    }


def bench_codec(n_frames: int, seed: int = 0) -> Dict[str, Any]:
    """Encode/decode round trips through the runtime framing codec.

    Each frame is a realistic leader->follower message: an Envelope around
    an AcceptDecide carrying 16 commands. Decoding feeds the stream in 4 KiB
    chunks so the incremental reassembly path runs, not just the raw
    decoder, and the decode must reproduce the original message exactly.
    """
    entries = tuple(Command(data=bytes(8), client_id=1, seq=i)
                    for i in range(16))
    message = Envelope(
        config_id=0, component=COMPONENT_SP,
        payload=AcceptDecide(n=Ballot(n=2, priority=0, pid=1),
                             entries=entries, decided_idx=0,
                             seq=1, session=1),
    )
    frame = encode_frame(1, message)
    stream = frame * n_frames
    decoder = FrameDecoder()
    decoded = 0
    last = None
    view = memoryview(stream)
    for off in range(0, len(stream), 4096):
        for _src, payload in decoder.feed(bytes(view[off:off + 4096])):
            decoded += 1
            last = payload
    assert decoded == n_frames
    return {
        "frames_decoded": decoded,
        "frame_bytes": len(frame),
        "stream_bytes": len(stream),
        "decoded_equal": last == message,
    }


def run_micro_suite(seed: int = 0) -> Dict[str, Dict[str, Any]]:
    """Every microbench at the gate's one size; ``{name: counters}``."""
    return {
        "event_queue": bench_event_queue(20_000, seed),
        "network_send": bench_network_send(10_000, seed=seed),
        "commit_loop": bench_commit_loop(40, 32, seed),
        "handout_fanout": bench_handout_fanout(64, seed),
        "codec": bench_codec(2_000, seed),
        "obs_overhead": bench_obs_overhead(40, 32, seed),
    }
