"""The codec layer, measured from outside: replay what the replicas
sent through ``FrameEncoder.encode`` and ``FrameDecoder.feed``."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List

from repro.runtime import FrameDecoder, FrameEncoder

from .proxies import MessageLedger
from .stats import median

#: The codec replay runs this many times; per type the median is kept.
_REPLAYS = 3


@dataclass
class CodecCost:
    encode_us_per_msg: float
    decode_us_per_msg: float
    bytes_per_msg: float
    #: Encode plus decode time of every message the run sent, in us.
    total_us: float
    by_type: Dict[str, Dict[str, float]]


def replay_codec(ledger: MessageLedger, sent_by_type: Dict[str, int]
                 ) -> CodecCost:
    """Time ``FrameEncoder.encode`` and ``FrameDecoder.feed`` on the
    sampled outboxes and scale by ``sent_by_type``, the message counts of
    the phase being costed.

    Each server's sample goes through an encoder of its own, whole and in
    the order it was sent, so a broadcast hits the encoder's one-slot
    fan-out cache exactly as it does in the mesh.
    """
    runs: List[Dict[str, List[float]]] = []
    for _ in range(_REPLAYS):
        encoders: Dict[int, FrameEncoder] = {}
        decoder = FrameDecoder()
        # per type: [messages, encode ns, decode ns, bytes]
        cost: Dict[str, List[float]] = {}
        for pid, outbox in ledger.sample:
            encoder = encoders.get(pid)
            if encoder is None:
                encoder = encoders[pid] = FrameEncoder()
            for _, msg in outbox:
                inner = getattr(msg, "payload", msg)
                row = cost.setdefault(inner.__class__.__name__,
                                      [0, 0, 0, 0])
                t0 = perf_counter_ns()
                frame = encoder.encode(pid, msg)
                t1 = perf_counter_ns()
                decoded = decoder.feed(frame)
                t2 = perf_counter_ns()
                if len(decoded) != 1 or decoded[0][1] != msg:
                    raise RuntimeError(
                        f"codec replay: {inner.__class__.__name__} did "
                        "not survive an encode/decode round trip")
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t2 - t1
                row[3] += len(frame)
        runs.append(cost)

    by_type: Dict[str, Dict[str, float]] = {}
    messages = encode_us = decode_us = total_bytes = 0.0
    for name, sent in sent_by_type.items():
        rows = [run[name] for run in runs if name in run]
        if not rows:
            continue  # first seen after the sample filled: not costed
        enc = median([r[1] / r[0] for r in rows]) / 1e3
        dec = median([r[2] / r[0] for r in rows]) / 1e3
        size = rows[0][3] / rows[0][0]
        by_type[name] = {"sent": sent, "encode_us": enc, "decode_us": dec,
                         "bytes": size}
        messages += sent
        encode_us += sent * enc
        decode_us += sent * dec
        total_bytes += sent * size
    if not messages:
        return CodecCost(0.0, 0.0, 0.0, 0.0, by_type)
    return CodecCost(encode_us / messages, decode_us / messages,
                     total_bytes / messages, encode_us + decode_us, by_type)
