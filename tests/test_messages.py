"""Unit tests for wire messages and the multiplexing envelope."""

import pytest

from repro.omni.ballot import Ballot
from repro.omni.entry import Command, StopSign, is_stopsign
from repro.omni.messages import (
    Accepted,
    AcceptDecide,
    AcceptSync,
    COMPONENT_BLE,
    COMPONENT_SERVICE,
    COMPONENT_SP,
    Decide,
    Envelope,
    HeartbeatReply,
    HeartbeatRequest,
    JoinComplete,
    LogPullRequest,
    LogSegment,
    NewConfiguration,
    Prepare,
    PrepareReq,
    Promise,
    ProposalForward,
)
from repro.sim.metrics import entry_size, wire_size

B = Ballot(3, 0, 2)


def all_messages():
    cmds = (Command(b"12345678"),)
    return [
        HeartbeatRequest(1),
        HeartbeatReply(1, B, True),
        Prepare(B, B, 10, 5),
        Promise(B, B, cmds, 10, 5),
        AcceptSync(B, cmds, 3, 2),
        AcceptDecide(B, cmds, 4),
        Accepted(B, 10),
        Decide(B, 9),
        PrepareReq(),
        ProposalForward(cmds),
        NewConfiguration(1, (1, 2, 3), 100, donors=(4, 5)),
        JoinComplete(1),
        LogPullRequest(1, 0, 100),
        LogSegment(1, 0, cmds, True),
    ]


class TestWireSizes:
    """Relations the simulator's byte model keeps (its exact sizes are
    pinned in ``test_byte_model.py``)."""

    @pytest.mark.parametrize("msg", all_messages(),
                             ids=lambda m: type(m).__name__)
    def test_positive_size(self, msg):
        assert wire_size(msg) > 0

    def test_payload_dominates_large_batches(self):
        small = AcceptDecide(B, (Command(b"x" * 8),), 0)
        big = AcceptDecide(B, tuple(Command(b"x" * 8) for _ in range(1000)), 0)
        assert wire_size(big) > 900 * wire_size(small) / 10

    def test_entries_wire_size_sums(self):
        entries = (Command(b"abcd"), Command(b"efgh"))
        assert wire_size(AcceptDecide(B, entries, 0)) - \
            wire_size(AcceptDecide(B, (), 0)) == sum(
                entry_size(e) for e in entries)

    def test_envelope_adds_small_overhead(self):
        inner = Accepted(B, 1)
        env = Envelope(0, COMPONENT_SP, inner)
        assert wire_size(inner) < wire_size(env) < wire_size(inner) + 16

    def test_messages_are_immutable(self):
        msg = Decide(B, 1)
        with pytest.raises(AttributeError):
            msg.decided_idx = 2  # type: ignore[misc]


class TestEntries:
    def test_command_wire_size_tracks_payload(self):
        assert wire_size(Command(b"x" * 100)) == 116

    def test_stopsign_wire_size_tracks_members(self):
        small = StopSign(1, (1,))
        large = StopSign(1, tuple(range(1, 11)))
        assert wire_size(large) > wire_size(small)

    def test_stopsign_metadata_counted(self):
        plain = StopSign(1, (1, 2))
        meta = StopSign(1, (1, 2), metadata=b"z" * 64)
        assert wire_size(meta) == wire_size(plain) + 64

    def test_is_stopsign(self):
        assert is_stopsign(StopSign(1, (1,)))
        assert not is_stopsign(Command(b""))
        assert not is_stopsign("random")

    def test_entry_wire_size_fallback(self):
        assert entry_size(object()) == 16

    def test_command_identity_fields(self):
        c = Command(b"data", client_id=7, seq=9)
        assert (c.client_id, c.seq) == (7, 9)


class TestEnvelopeRouting:
    def test_components_are_distinct(self):
        assert len({COMPONENT_BLE, COMPONENT_SP, COMPONENT_SERVICE}) == 3

    def test_envelope_carries_config_id(self):
        env = Envelope(5, COMPONENT_BLE, HeartbeatRequest(1))
        assert env.config_id == 5
        assert env.component == COMPONENT_BLE
