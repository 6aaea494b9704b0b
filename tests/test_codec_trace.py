"""Codec round-trips for envelopes with and without trace contexts.

The runtime ships :class:`Envelope` in binary frames; these tests pin
down that a :class:`TraceContext` survives the trip, that its absence
costs nothing on the wire, and — the backward-compat guarantee — that
JSON-lines exports from before the tracing layer still load.
"""

from repro.obs.events import ClientReplyDecided, event_from_dict, event_to_dict
from repro.obs.events import EventRecord
from repro.obs.spans import TraceContext
from repro.omni.messages import Envelope, HeartbeatRequest
from repro.runtime.codec import FrameDecoder, encode_frame


def round_trip(env):
    decoder = FrameDecoder()
    ((src, payload),) = decoder.feed(encode_frame(7, env))
    assert src == 7
    return payload


class TestEnvelopeRoundTrip:
    def test_without_trace(self):
        env = Envelope(config_id=0, component="ble",
                       payload=HeartbeatRequest(round=3))
        out = round_trip(env)
        assert out == env
        assert out.trace is None

    def test_with_trace(self):
        ctx = TraceContext("c1-5", span_id="2.9", parent_id="1.4")
        env = Envelope(config_id=0, component="sp",
                       payload=HeartbeatRequest(round=1), trace=ctx)
        out = round_trip(env)
        assert out.trace == ctx
        assert out.trace.child("3.0").parent_id == "2.9"

    def test_trace_costs_wire_bytes_only_when_present(self):
        payload = HeartbeatRequest(round=1)
        bare = Envelope(config_id=0, component="ble", payload=payload)
        traced = Envelope(config_id=0, component="ble", payload=payload,
                          trace=TraceContext("c1-0"))
        assert traced.wire_size() == bare.wire_size() + TraceContext.WIRE_SIZE

    def test_split_frame_delivery(self):
        env = Envelope(config_id=0, component="sp",
                       payload=HeartbeatRequest(round=2),
                       trace=TraceContext("c9-9"))
        frame = encode_frame(1, env)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:5]) == []
        ((_, out),) = decoder.feed(frame[5:])
        assert out.trace.trace_id == "c9-9"


class TestBackwardCompat:
    def test_event_dict_without_trace_id_loads(self):
        # A pre-tracing JSON-lines export: ClientReplyDecided rows have no
        # trace_id key; the dataclass default fills it in.
        payload = {"kind": "ClientReplyDecided", "at_ms": 12.5,
                   "client_id": 1, "seq": 3}
        record = event_from_dict(payload)
        assert isinstance(record.event, ClientReplyDecided)
        assert record.event.trace_id == ""
        assert record.at_ms == 12.5

    def test_event_dict_round_trip_keeps_trace_id(self):
        record = EventRecord(at_ms=1.0, event=ClientReplyDecided(
            client_id=1, seq=3, trace_id="c1-3"))
        out = event_from_dict(event_to_dict(record))
        assert out.event.trace_id == "c1-3"
