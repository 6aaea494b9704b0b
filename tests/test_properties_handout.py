"""Property: how often the driver hands out changes how many messages
carry the log, never what gets decided.

Three sans-io servers on per-link FIFO queues, no follower clock (so no
leader change). Once the leader has synchronized its followers, a random
schedule interleaves proposals at the leader with hand-outs at any
server, deliveries of one or of all queued messages on any link, and
resyncs whose reply is left in flight — Omni-Paxos: the leader
re-Prepares a follower, and its Promise, delivered after a proposal and
before its hand-out, makes that follower's ``AcceptSync`` carry the
entry; Multi-Paxos: the leader heartbeats, and the follower's ``P2b``,
delivered in that same gap, makes the leader stream it the entries the
hand-out then sends again. The schedule is run twice, the leader handing
out after every proposal in one run and only after every ``j``-th in the
other. Both runs must decide exactly the proposal order, at every server.
"""

import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.multipaxos import MultiPaxosConfig, MultiPaxosReplica
from repro.omni.entry import Command
from repro.omni.server import ClusterConfig, OmniPaxosConfig, OmniPaxosServer

SERVERS = (1, 2, 3)
LINKS = [(a, b) for a in SERVERS for b in SERVERS if a != b]

schedules = st.lists(
    st.one_of(
        st.just(("propose", 0)),
        st.tuples(st.just("hand_out"), st.sampled_from(SERVERS)),
        st.tuples(st.just("deliver"), st.sampled_from(LINKS)),
        st.tuples(st.just("deliver_all"), st.sampled_from(LINKS)),
        st.tuples(st.just("resync"), st.sampled_from(SERVERS[1:])),
    ),
    min_size=1, max_size=120,
)


def build(protocol):
    if protocol == "omni":
        cluster = ClusterConfig(0, SERVERS)
        return {pid: OmniPaxosServer(OmniPaxosConfig(
            pid=pid, cluster=cluster, initial_leader=1)) for pid in SERVERS}
    return {pid: MultiPaxosReplica(MultiPaxosConfig(
        pid=pid, peers=tuple(p for p in SERVERS if p != pid),
        initial_leader=1)) for pid in SERVERS}


def run(protocol, schedule, hand_out_every):
    servers = build(protocol)
    clock = itertools.count(100, 100)  # one heartbeat period apart
    links = {link: deque() for link in LINKS}
    decided = {pid: [] for pid in SERVERS}

    def hand_out(pid):
        for dst, msg in servers[pid].take_outbox():
            links[pid, dst].append(msg)
        decided[pid].extend(e for _, e in servers[pid].take_decided())

    def deliver(link, everything=False):
        src, dst = link
        while links[link]:
            servers[dst].on_message(src, links[link].popleft(), 0.0)
            if not everything:
                break

    def run_dry():
        for _ in range(100):
            for pid in SERVERS:
                hand_out(pid)
            if not any(links.values()):
                return
            for link in LINKS:
                deliver(link, everything=True)
        raise AssertionError("the cluster never falls silent")

    for server in servers.values():
        server.start(0.0)
    run_dry()  # the seeded leader reaches its Accept phase
    proposed = []
    for op, arg in schedule:
        if op == "propose":
            entry = Command(data=b"p", client_id=1, seq=len(proposed))
            proposed.append(entry)
            servers[1].propose(entry, 0.0)
            if len(proposed) % hand_out_every == 0:
                hand_out(1)
        elif op == "hand_out":
            hand_out(arg)
        elif op == "deliver":
            deliver(arg)
        elif op == "deliver_all":
            deliver(arg, everything=True)
        else:
            if protocol == "omni":
                servers[1].on_session_drop(arg, 0.0)
            else:
                servers[1].tick(float(next(clock)))
            hand_out(1)
            deliver((1, arg), everything=True)
            hand_out(arg)
    run_dry()
    return proposed, decided


def check(protocol, schedule, j):
    proposed, every = run(protocol, schedule, hand_out_every=1)
    _, every_jth = run(protocol, schedule, hand_out_every=j)
    assert every == every_jth == {pid: proposed for pid in SERVERS}


@given(schedule=schedules, j=st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_decided_sequence_is_the_proposal_order_whatever_the_handout_cadence(
        schedule, j):
    check("omni", schedule, j)


@given(schedule=schedules, j=st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_multipaxos_decides_the_proposal_order_whatever_the_handout_cadence(
        schedule, j):
    check("multipaxos", schedule, j)
