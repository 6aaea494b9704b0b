"""Asyncio runtime: run any :class:`repro.replica.Replica` over real TCP.

The simulator (:mod:`repro.sim`) is the substrate for the paper's
experiments; this runtime exists so the very same protocol objects can also
run as real processes on a real network — the litmus test that the sans-io
core has no hidden simulator dependencies. ``examples/kv_store_cluster.py``
boots a live three-server cluster on localhost with it.

The wire path: one schema-aware binary frame format
(:mod:`repro.runtime.codec`) and per-peer frame coalescing with a
write-buffer bound (:class:`TcpMesh`). There is one configuration: the
stock asyncio event loop, proposals handed straight to the replica.
"""

from repro.runtime.codec import FrameDecoder, FrameEncoder, encode_frame
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import PeerAddress, TcpMesh

__all__ = [
    "encode_frame",
    "FrameDecoder",
    "FrameEncoder",
    "TcpMesh",
    "PeerAddress",
    "RuntimeNode",
]
