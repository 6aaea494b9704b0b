"""Golden corpus for the simulator's byte model (``repro.sim.metrics``).

One instance of every message class a replica hands out, in all four
protocols plus the service layer, and the cases one instance misses: a
traced envelope, a stop-sign with metadata, snapshot states of every
kind, entries the model has no rule for, and a plain object. The
expected sizes are literals: the hand table the network charges (and the
egress model turns into delay) must not drift by accident.
"""

import pytest

from repro.baselines import multipaxos as mp
from repro.baselines import raft
from repro.baselines import vr
from repro.encoding import REGISTERED_MESSAGES
from repro.obs.spans import TraceContext
from repro.omni import messages as om
from repro.omni.ballot import Ballot, QCBallot
from repro.omni.entry import Command, SnapshotInstalled, StopSign
from repro.sim.metrics import wire_size

B = Ballot(3, 0, 2)
CMD = Command(b"12345678", client_id=1, seq=7)
CMDS = (CMD, Command(b"x" * 100))
AD64 = tuple(Command(bytes(8), client_id=1, seq=i) for i in range(64))
STOP = StopSign(1, (1, 2, 3))
STOP_META = StopSign(2, (1, 2, 3, 4, 5), metadata=b"v" * 40)
SLOTS = (raft.RaftSlot(1, CMD), raft.RaftSlot(2, raft.RaftConfigChange((1, 2))),
         raft.RaftSlot(2, "opaque"))


def env(payload, component=om.COMPONENT_SP, trace=None):
    return om.Envelope(0, component, payload, trace)


#: (case id, message, hand size in bytes).
CORPUS = [
    # ---- Omni-Paxos: BLE, Sequence Paxos, service layer ----
    ("HeartbeatRequest", om.HeartbeatRequest(1), 32),
    ("HeartbeatReply", om.HeartbeatReply(1, B, True), 53),
    ("Prepare", om.Prepare(B, B, 10, 5), 80),
    ("Promise", om.Promise(B, B, CMDS, 10, 5), 220),
    ("Promise/bytes-snapshot", om.Promise(B, B, (), 10, 5, (b"s" * 40, 8)),
     128),
    ("AcceptSync", om.AcceptSync(B, CMDS, 3, 2), 204),
    ("AcceptSync/dict-snapshot",
     om.AcceptSync(B, (STOP,), 3, 2, ({"k": 1}, 3), 2), 136),
    ("AcceptSync/sized-snapshot", om.AcceptSync(B, (), 0, 0, (CMD, 9)), 96),
    ("AcceptSync/unsized-snapshot", om.AcceptSync(B, (), 0, 0, (1.5, 9)),
     136),
    ("AcceptDecide", om.AcceptDecide(B, CMDS, 4, 1, 1), 200),
    ("AcceptDecide/64", om.AcceptDecide(B, AD64, 4, 2, 1), 1596),
    ("AcceptDecide/unsized-entries", om.AcceptDecide(B, (5, "e", None), 0),
     108),
    ("Accepted", om.Accepted(B, 10, 9), 60),
    ("Trim", om.Trim(B, 7), 52),
    ("Decide", om.Decide(B, 9), 52),
    ("PrepareReq", om.PrepareReq(), 24),
    ("ProposalForward", om.ProposalForward(CMDS), 164),
    ("NewConfiguration", om.NewConfiguration(1, (1, 2, 3), 100, (4, 5)), 80),
    ("NewConfiguration/metadata",
     om.NewConfiguration(1, (1, 2), 100, (), b"m" * 10), 66),
    ("JoinComplete", om.JoinComplete(1), 32),
    ("LogPullRequest", om.LogPullRequest(1, 0, 100), 48),
    ("LogSegment", om.LogSegment(1, 0, (CMD, STOP, STOP_META), True), 217),
    ("LogSegment/snapshot-installed",
     om.LogSegment(1, 0, (SnapshotInstalled({"a": 1, "b": 2}),
                          SnapshotInstalled(b"q" * 50),
                          SnapshotInstalled(CMD),
                          SnapshotInstalled(2.5)), False), 195),
    # ---- envelopes: 6 bytes plus the payload; a trace costs nothing ----
    ("Envelope/Accepted", env(om.Accepted(B, 1)), 66),
    ("Envelope/HeartbeatRequest",
     env(om.HeartbeatRequest(1), om.COMPONENT_BLE), 38),
    ("Envelope/AcceptDecide-64", env(om.AcceptDecide(B, AD64, 4, 2, 1)),
     1602),
    ("Envelope/traced", env(om.AcceptDecide(B, (CMD,), 0),
                            trace=TraceContext("c1-7", "1.2", "1.1")), 90),
    ("Envelope/service", env(om.JoinComplete(3), om.COMPONENT_SERVICE), 38),
    ("Envelope/unsized-payload", env(object()), 30),
    # ---- log entries sized as messages ----
    ("Command", CMD, 24),
    ("StopSign", STOP, 48),
    ("StopSign/metadata", STOP_META, 104),
    ("SnapshotInstalled/dict", SnapshotInstalled({"a": 1}), 16),
    ("SnapshotInstalled/bytes", SnapshotInstalled(b"z" * 300), 300),
    ("SnapshotInstalled/sized", SnapshotInstalled(STOP), 48),
    ("SnapshotInstalled/unsized", SnapshotInstalled(3), 64),
    # ---- Raft ----
    ("RequestVote", raft.RequestVote(2, 1, 10, 1, True), 57),
    ("RequestVoteReply", raft.RequestVoteReply(2, True), 34),
    ("AppendEntries", raft.AppendEntries(2, 1, 0, 0, SLOTS, 0, 3), 164),
    ("AppendEntries/heartbeat", raft.AppendEntries(2, 1, 5, 2, (), 5), 68),
    ("AppendEntriesReply", raft.AppendEntriesReply(2, True, 10, 3), 45),
    ("TimeoutNow", raft.TimeoutNow(2), 32),
    ("RaftConfigChange", raft.RaftConfigChange((1, 2, 3)), 40),
    ("InstallSnapshot/dict",
     raft.InstallSnapshot(2, 1, 100, 2, {"k": "v"}, 100), 80),
    ("InstallSnapshot/bytes",
     raft.InstallSnapshot(2, 1, 100, 2, b"b" * 500, 100), 564),
    ("InstallSnapshot/sized", raft.InstallSnapshot(2, 1, 100, 2, CMD, 100),
     88),
    ("InstallSnapshot/unsized",
     raft.InstallSnapshot(2, 1, 100, 2, 7, 100), 128),
    # ---- Multi-Paxos ----
    ("P1a", mp.P1a((2, 1), 0), 48),
    ("P1b", mp.P1b((2, 1), (2, 1), ((0, (1, 1), CMD), (1, (1, 1), mp.NOOP)),
                   0), 152),
    ("P2a", mp.P2a((2, 1), 0, (CMD, mp.NOOP, CMDS[1]), 0), 220),
    ("P2a/heartbeat", mp.P2a((2, 1), 5, (), 5), 64),
    ("P2b", mp.P2b((2, 1), (2, 1), 5), 64),
    ("Ping", mp.Ping(), 24),
    ("Pong", mp.Pong(), 24),
    # ---- Viewstamped Replication ----
    ("StartViewChange", vr.StartViewChange(1), 32),
    ("DoViewChange", vr.DoViewChange(1), 32),
    ("StartView", vr.StartView(1), 32),
    ("VRPing", vr.VRPing(1), 32),
    # ---- no rule: the payload fallback ----
    ("object", object(), 24),
    ("str", "not a message", 24),
]


@pytest.mark.parametrize("msg,expected", [(m, n) for _i, m, n in CORPUS],
                         ids=[i for i, _m, _n in CORPUS])
def test_golden_size(msg, expected):
    assert wire_size(msg) == expected


#: Registered classes that are values carried inside messages, not
#: messages: the simulator never sends one on its own.
VALUES = {Ballot, QCBallot, TraceContext, raft.RaftSlot}


def test_every_registered_message_has_its_own_rule():
    from repro.runtime.transport import TransportPing, TransportPong
    from repro.sim.metrics import SIZE_RULES

    registered = set(REGISTERED_MESSAGES.values())
    assert set(SIZE_RULES) == registered - VALUES - {TransportPing,
                                                     TransportPong}


def test_corpus_covers_every_rule():
    from repro.sim.metrics import SIZE_RULES

    assert set(SIZE_RULES) <= {type(m) for _i, m, _n in CORPUS}
