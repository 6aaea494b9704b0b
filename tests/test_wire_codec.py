"""Binary wire codec: per-type round-trips, golden frames that pin the
wire contract byte for byte, fuzzed corruption, and the fan-out encode
cache."""

import random
import struct

import pytest

from repro.baselines import multipaxos as mp
from repro.baselines import raft
from repro.baselines import vr
from repro import encoding
from repro.errors import TransportError
from repro.kv.store import KVCommand, encode_command, kv_snapshotter
from repro.obs.spans import TraceContext
from repro.omni import messages as om
from repro.omni.ballot import Ballot, QCBallot
from repro.omni.entry import Command, SnapshotInstalled, StopSign
from repro.runtime import codec
from repro.runtime.codec import FrameDecoder, FrameEncoder, encode_frame
from repro.runtime.transport import TransportPing, TransportPong

B1 = Ballot(n=3, priority=1, pid=2)
B2 = Ballot(n=4, priority=0, pid=5)
CMDS = tuple(Command(data=bytes([i]) * 8, client_id=i % 3, seq=i + 190)
             for i in range(5))

#: One representative instance per registered message type (plus one
#: bare dict, the only schema-less container on the wire). The
#: exhaustiveness test below fails if a registered type has no sample
#: here, so new messages must add one.
SAMPLES = [
    {"data": {"k": "v"}, "sessions": {7: 3}},  # kv_snapshotter's shape
    B1,
    QCBallot(ballot=B1, quorum_connected=True),
    Command(data=b"payload", client_id=7, seq=123456),
    Command(data=b"", client_id=-3, seq=-70000),
    StopSign(config_id=2, servers=(1, 2, 3, 4), metadata=b"\x00\xff"),
    StopSign(config_id=2, servers=(), metadata=None),
    SnapshotInstalled(state={"kv": {"a": 1}, "applied": 9}),
    TraceContext(trace_id="c1-42", span_id="0003", parent_id="0002"),
    om.Envelope(config_id=1, component=om.COMPONENT_SP,
                payload=om.PrepareReq(), trace=None),
    om.Envelope(config_id=0, component=om.COMPONENT_BLE,
                payload=om.HeartbeatRequest(round=8),
                trace=TraceContext("t", "s", "p")),
    om.HeartbeatRequest(round=17),
    om.HeartbeatReply(round=17, ballot=B2, quorum_connected=False),
    om.Prepare(n=B1, acc_rnd=B2, log_idx=10, decided_idx=8),
    om.Promise(n=B1, acc_rnd=B2, suffix=CMDS, log_idx=10, decided_idx=8,
               snapshot=None),
    om.Promise(n=B1, acc_rnd=B2, suffix=(), log_idx=0, decided_idx=0,
               snapshot=({"compacted": True}, 64)),
    om.AcceptSync(n=B1, suffix=CMDS, sync_idx=4, decided_idx=2,
                  snapshot=None, session=3),
    om.AcceptDecide(n=B1, entries=CMDS, decided_idx=120, seq=7, session=1),
    om.AcceptDecide(n=B1, entries=(), decided_idx=0, seq=0, session=0),
    om.Accepted(n=B1, log_idx=11, decided_idx=9),
    om.Trim(n=B1, trimmed_idx=64),
    om.Decide(n=B1, decided_idx=12),
    om.PrepareReq(),
    om.ProposalForward(entries=CMDS),
    om.NewConfiguration(config_id=3, servers=(2, 3, 4), log_len=100,
                        donors=(2, 3), metadata=None),
    om.JoinComplete(config_id=3),
    om.LogPullRequest(config_id=3, from_idx=0, to_idx=50),
    om.LogSegment(config_id=3, from_idx=0, entries=CMDS, complete=True),
    TransportPing(sent_ms=12345.678),
    TransportPong(sent_ms=2345.625),
    raft.RequestVote(term=5, candidate=2, last_log_idx=9, last_log_term=4,
                     prevote=True),
    raft.RequestVoteReply(term=5, granted=False, prevote=True),
    raft.AppendEntries(term=5, leader=1, prev_idx=8, prev_term=4,
                       entries=tuple(raft.RaftSlot(term=5, entry=c)
                                     for c in CMDS),
                       leader_commit=7, seq=11),
    raft.AppendEntriesReply(term=5, success=True, match_idx=13, seq=11),
    raft.RaftSlot(term=5, entry=CMDS[0]),
    raft.TimeoutNow(term=6),
    raft.RaftConfigChange(servers=(1, 2, 3)),
    raft.InstallSnapshot(term=6, leader=2, last_idx=99, last_term=5,
                         state={"kv": {}}, leader_commit=99),
    mp.P1a(ballot=(2, 1), from_slot=4),
    mp.P1b(ballot=(2, 1), promised=(2, 1),
           accepted=((4, (1, 1), CMDS[0]),), decided_upto=3),
    mp.P2a(ballot=(2, 1), first_slot=4, values=CMDS, decided_upto=3),
    mp.P2b(ballot=(2, 1), promised=(2, 1), accepted_upto=8),
    mp.Ping(),
    mp.Pong(),
    vr.StartViewChange(view=3),
    vr.DoViewChange(view=4),
    vr.StartView(view=5),
    vr.VRPing(view=6),
]


#: The wire contract, byte for byte: which class each tag means (named
#: here, not read back from the registry under test) and
#: ``encode_frame(1, sample).hex()`` of that class's first ``SAMPLES``
#: entry; ``0x0A`` is the dict value tag. Samples of classes with the
#: same field layout differ in value, so their frames differ beyond the
#: tag byte. A change here is a wire break: append tags, never edit a pin.
GOLDEN_FRAMES = {
    (0x0A, "dict"): "00000022b1010a020604646174610a0106016b060176060873657373696f6e730a01030e0306",
    (0x10, "Ballot"): "00000009b10110030603020304",
    (0x11, "QCBallot"): "0000000bb101111003060302030401",
    (0x12, "Command"): "00000012b1011205077061796c6f6164030e0380890f",
    (0x13, "StopSign"): "00000013b10113030407040302030403060308050200ff",
    (0x14, "SnapshotInstalled"): "0000001bb101140a0206026b760a01060161030206076170706c6965640312",
    (0x15, "TraceContext"): "00000016b10115060563312d3432060430303033060430303032",
    (0x16, "Envelope"): "0000000bb101160302060273702000",
    (0x17, "HeartbeatRequest"): "00000005b101170322",
    (0x18, "HeartbeatReply"): "0000000db1011803221003080300030a02",
    (0x19, "Prepare"): "00000015b10119100306030203041003080300030a03140310",
    (0x1A, "Promise"): "00000068b1011a100306030203041003080300030a07051205080000000000000000030003fc021205080101010101010101030203fe021205080202020202020202030403800312050803030303030303030300038203120508040404040404040403020384030314031000",
    (0x1B, "AcceptSync"): "00000063b1011b1003060302030407051205080000000000000000030003fc021205080101010101010101030203fe0212050802020202020202020304038003120508030303030303030303000382031205080404040404040404030203840303080304000306",
    (0x1C, "AcceptDecide"): "00000063b1011c1003060302030407051205080000000000000000030003fc021205080101010101010101030203fe0212050802020202020202020304038003120508030303030303030303000382031205080404040404040404030203840303f001030e0302",
    (0x1D, "Accepted"): "0000000eb1011d1003060302030403160312",
    (0x1E, "Trim"): "0000000db1011e10030603020304038001",
    (0x1F, "Decide"): "0000000cb1011f100306030203040318",
    (0x20, "PrepareReq"): "00000003b10120",
    (0x21, "ProposalForward"): "00000055b1012107051205080000000000000000030003fc021205080101010101010101030203fe02120508020202020202020203040380031205080303030303030303030003820312050804040404040404040302038403",
    (0x22, "NewConfiguration"): "00000017b101220306070303040306030803c80107020304030600",
    (0x23, "JoinComplete"): "00000005b101230306",
    (0x24, "LogPullRequest"): "00000009b10124030603000364",
    (0x25, "LogSegment"): "0000005ab101250306030007051205080000000000000000030003fc021205080101010101010101030203fe0212050802020202020202020304038003120508030303030303030303000382031205080404040404040404030203840301",
    (0x2E, "TransportPing"): "0000000cb1012e0440c81cd6c8b43958",
    (0x2F, "TransportPong"): "0000000cb1012f0440a2534000000000",
    (0x30, "RequestVote"): "0000000cb10130030a03040312030801",
    (0x31, "RequestVoteReply"): "00000007b10131030a0201",
    (0x32, "AppendEntries"): "00000070b10132030a030203100308070534030a1205080000000000000000030003fc0234030a1205080101010101010101030203fe0234030a1205080202020202020202030403800334030a1205080303030303030303030003820334030a12050804040404040404040302038403030e0316",
    (0x33, "AppendEntriesReply"): "0000000ab10133030a01031a0316",
    (0x34, "RaftSlot"): "00000015b10134030a1205080000000000000000030003fc02",
    (0x35, "TimeoutNow"): "00000005b10135030c",
    (0x36, "RaftConfigChange"): "0000000bb101360703030203040306",
    (0x37, "InstallSnapshot"): "00000017b10137030c030403c601030a0a0106026b760a0003c601",
    (0x40, "P1a"): "0000000bb101400702030403020308",
    (0x41, "P1b"): "0000002db101410702030403020702030403020701070303080702030203021205080000000000000000030003fc020306",
    (0x42, "P2a"): "0000005fb10142070203040302030807051205080000000000000000030003fc021205080101010101010101030203fe021205080202020202020202030403800312050803030303030303030300038203120508040404040404040403020384030306",
    (0x43, "P2b"): "00000011b101430702030403020702030403020310",
    (0x44, "Ping"): "00000003b10144",
    (0x45, "Pong"): "00000003b10145",
    (0x50, "StartViewChange"): "00000005b101500306",
    (0x51, "DoViewChange"): "00000005b101510308",
    (0x52, "StartView"): "00000005b10152030a",
    (0x53, "VRPing"): "00000005b10153030c",
}

#: ``Envelope(AcceptDecide)`` as ``FrameEncoder`` splices it from its
#: fan-out cache (see ``TestFanOutCache``).
GOLDEN_FANOUT_FRAME = "0000006ab101160300060273701c1003060302030407051205080000000000000000030003fc021205080101010101010101030203fe0212050802020202020202020304038003120508030303030303030303000382031205080404040404040404030203840303060302030200"

#: Bodies the decoder used to hand to the unpickler, hand-assembled from
#: protocol-4 opcodes: a whole-body ``(1, None)`` tuple (every such body
#: starts with the ``0x80`` PROTO opcode), and ``None`` embedded behind
#: the withdrawn value tag ``0x08``.
PICKLE_BODY = b"\x80\x04K\x01N\x86\x94."
TAG_08_BODY = bytes([codec.WIRE_BINARY, 1, 0x08, 4]) + b"\x80\x04N."


def roundtrip(payload, src=1):
    frames = FrameDecoder().feed(encode_frame(src, payload))
    assert len(frames) == 1
    got_src, got = frames[0]
    assert got_src == src
    return got


class TestRegisteredRoundTrips:
    @pytest.mark.parametrize("payload", SAMPLES,
                             ids=lambda s: type(s).__name__)
    def test_binary_roundtrip(self, payload):
        got = roundtrip(payload)
        assert got == payload
        assert type(got) is type(payload)

    def test_every_protocol_message_is_registered(self):
        registered = set(encoding.REGISTERED_MESSAGES.values())
        for module in (om, raft, mp, vr):
            for cls in module.WIRE_MESSAGES:
                assert cls in registered, (
                    f"{module.__name__}.{cls.__name__} is on the wire but "
                    "has no binary tag in repro.encoding")

    def test_every_registered_type_has_a_sample(self):
        sampled = {type(s) for s in SAMPLES}
        missing = [cls.__name__
                   for cls in encoding.REGISTERED_MESSAGES.values()
                   if cls not in sampled]
        assert not missing, f"no round-trip sample for: {missing}"

    def test_tags_are_stable(self):
        # Tags are wire format: they may be appended, never renumbered or
        # swapped, and every registered tag needs a pin.
        registered = {(tag, cls.__name__)
                      for tag, cls in encoding.REGISTERED_MESSAGES.items()}
        assert registered | {(0x0A, "dict")} == set(GOLDEN_FRAMES)

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValueError):
            encoding.register_message(0x10, TransportPing)

    @pytest.mark.parametrize("tag, name", sorted(GOLDEN_FRAMES),
                             ids=lambda v: v if isinstance(v, str) else f"0x{v:02X}")
    def test_frame_bytes_are_pinned(self, tag, name):
        sample = next(s for s in SAMPLES if type(s).__name__ == name)
        pin = GOLDEN_FRAMES[tag, name]
        assert encode_frame(1, sample).hex() == pin
        assert FrameDecoder().feed(bytes.fromhex(pin)) == [(1, sample)]


class TestSchemaLessValues:
    def test_dicts_round_trip_in_insertion_order(self):
        for payload in ({"z": 1, "a": 2, "m": 3}, {},
                        {1: {2: [3, (4, None)]}, b"k": -1.5}):
            got = roundtrip(om.ProposalForward(entries=(payload,)))
            assert list(got.entries[0].items()) == list(payload.items())

    def test_kv_snapshot_state_rides_in_accept_sync(self):
        # The one schema-less shape real traffic carries.
        entries = [encode_command(KVCommand("put", f"k{i}", f"v{i}"),
                                  client_id=1 + i % 2, seq=i)
                   for i in range(6)]
        state = kv_snapshotter(entries, None)
        assert state["data"] and state["sessions"]
        msg = om.AcceptSync(n=B1, suffix=(), sync_idx=6, decided_idx=6,
                            snapshot=(state, 6), session=2)
        assert roundtrip(msg) == msg

    @pytest.mark.parametrize("payload", [
        {1, 2}, frozenset({6}), 3 + 4j,
        type("TaggedCommand", (Command,), {})(data=b"", client_id=1, seq=1),
    ], ids=lambda p: type(p).__name__)
    def test_unregistered_class_fails_at_the_sender(self, payload):
        # Exact-class dispatch: a subclass of a registered type has no
        # schema either.
        for wrapped in (payload, SnapshotInstalled(state={"s": payload})):
            with pytest.raises(TransportError,
                               match=type(payload).__name__):
                encode_frame(1, wrapped)


class TestFuzzedFrames:
    def test_truncated_frames_wait_for_more_bytes(self):
        frame = encode_frame(1, om.AcceptDecide(
            n=B1, entries=CMDS, decided_idx=3, seq=1, session=1))
        for cut in range(1, len(frame)):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            out = decoder.feed(frame[cut:])
            assert len(out) == 1

    def test_interleaved_coalesced_frames_chunked_arbitrarily(self):
        rng = random.Random(42)
        payloads = [rng.choice(SAMPLES) for _ in range(60)]
        stream = b"".join(
            encode_frame(i % 5, p) for i, p in enumerate(payloads))
        decoder = FrameDecoder()
        got = []
        pos = 0
        while pos < len(stream):
            step = rng.randint(1, 97)
            got.extend(decoder.feed(stream[pos:pos + step]))
            pos += step
        assert [p for _, p in got] == payloads
        assert [s for s, _ in got] == [i % 5 for i in range(60)]

    def test_fuzz_gate_only_transport_error_escapes(self):
        """Whatever bytes arrive, ``feed`` returns or raises
        ``TransportError`` — nothing else, and nothing is executed."""
        def framed(body):
            return struct.pack(">I", len(body)) + body

        rng = random.Random(14)
        good = [encode_frame(1, s) for s in SAMPLES]
        corpus = [framed(b""), framed(PICKLE_BODY), framed(TAG_08_BODY)]
        while len(corpus) < 2_000:
            kind = len(corpus) % 3
            if kind == 0:
                corpus.append(framed(rng.randbytes(rng.randint(0, 64))))
            elif kind == 1:
                corpus.append(framed(bytes([codec.WIRE_BINARY, 1])
                                     + rng.randbytes(rng.randint(0, 64))))
            else:
                frame = bytearray(rng.choice(good))
                for _ in range(rng.randint(1, 3)):
                    frame[rng.randrange(len(frame))] = rng.randrange(256)
                corpus.append(bytes(frame))
        rejected = 0
        for data in corpus:
            try:
                out = FrameDecoder().feed(data)
            except TransportError:
                rejected += 1
            else:
                # Some flips decode to a *different* valid value.
                assert len(out) <= 1
        assert rejected > 1_000

    @pytest.mark.parametrize("body, why", [
        (b"", "0xB1"),
        (PICKLE_BODY, "0xB1"),
        (TAG_08_BODY, "unknown value tag 0x08"),
        # Magic, src 1, then a value tag no encoder ever emits.
        (bytes([codec.WIRE_BINARY, 1, 0xFF]), "unknown value tag 0xff"),
        (encode_frame(1, om.PrepareReq())[4:] + b"\x00", "trailing"),
        # A dict whose decoded key is a list.
        (bytes([codec.WIRE_BINARY, 1, 0x0A, 1, 0x09, 0, 0x00]),
         "unhashable"),
    ], ids=["empty", "0x80-leading", "tag-0x08", "tag-0xff", "trailing",
            "unhashable-key"])
    def test_body_is_a_corrupt_frame(self, body, why):
        with pytest.raises(TransportError, match=why):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_decoder_buffer_survives_a_corrupt_frame(self):
        decoder = FrameDecoder()
        body = bytes([codec.WIRE_BINARY, 0x01, 0xFF])
        bad = struct.pack(">I", len(body)) + body
        with pytest.raises(TransportError):
            decoder.feed(bad)
        # Buffer was reset: a fresh good frame decodes.
        assert decoder.feed(encode_frame(2, om.PrepareReq())) == \
            [(2, om.PrepareReq())]


class TestVarints:
    @pytest.mark.parametrize("value", [
        0, 1, -1, 63, 64, -64, -65, 127, 128, 16383, 16384,
        2**31 - 1, -2**31, 2**63, -2**63, 10**30, -10**30,
    ])
    def test_int_edge_values(self, value):
        assert roundtrip(Command(data=b"", client_id=value,
                                 seq=value)).client_id == value

    def test_primitive_values(self):
        for value in (0.0, -2.5, float("inf"), 1e300, "", "héllo ✓",
                      b"", b"\x00" * 300, (), (1, (2, "x")), [1, [2]]):
            got = roundtrip(om.ProposalForward(entries=(value,)))
            assert got.entries[0] == value


class TestFanOutCache:
    def test_same_inner_payload_encodes_identically(self):
        encoder = FrameEncoder()
        inner = om.AcceptDecide(n=B1, entries=CMDS, decided_idx=3,
                                seq=1, session=1)
        frames = [
            encoder.encode(1, om.Envelope(
                config_id=0, component=om.COMPONENT_SP, payload=inner))
            for _ in range(3)
        ]
        assert frames[0] == frames[1] == frames[2]
        assert frames[2].hex() == GOLDEN_FANOUT_FRAME
        # Cached bytes decode exactly like the uncached first encode.
        for frame in frames:
            (_, got), = FrameDecoder().feed(frame)
            assert got.payload == inner

    def test_cache_invalidates_on_new_payload(self):
        encoder = FrameEncoder()
        first = om.HeartbeatRequest(round=1)
        second = om.HeartbeatRequest(round=2)
        env = lambda p: om.Envelope(config_id=0,
                                    component=om.COMPONENT_BLE, payload=p)
        encoder.encode(1, env(first))
        frame = encoder.encode(1, env(second))
        (_, got), = FrameDecoder().feed(frame)
        assert got.payload == second

    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder()
        huge = struct.pack(">I", codec.MAX_FRAME_BYTES + 1)
        with pytest.raises(TransportError):
            decoder.feed(huge)
        # And the buffer reset, as before PR 9.
        assert decoder.feed(encode_frame(1, om.PrepareReq())) == \
            [(1, om.PrepareReq())]
