"""Asyncio runtime: run any :class:`repro.replica.Replica` over real TCP.

The simulator (:mod:`repro.sim`) is the substrate for the paper's
experiments; this runtime exists so the very same protocol objects can also
run as real processes on a real network — the litmus test that the sans-io
core has no hidden simulator dependencies. ``examples/kv_store_cluster.py``
boots a live three-server cluster on localhost with it.

The wire path: one schema-aware binary frame format
(:mod:`repro.runtime.codec`), per-peer frame coalescing, leader-side
proposal pipelining with watermark flow control (:class:`PipelineConfig`),
and an opt-in uvloop event loop via :func:`install_uvloop`.
"""

from repro.runtime.codec import FrameDecoder, FrameEncoder, encode_frame
from repro.runtime.node import PipelineConfig, RuntimeNode
from repro.runtime.transport import PeerAddress, TcpMesh


def install_uvloop() -> bool:
    """Install uvloop's event-loop policy if the package is available.

    Returns ``True`` when uvloop is now the policy, ``False`` when the
    import failed (pure-CPython deployment — the asyncio default stays).
    Opt-in and never required: nothing in :mod:`repro.runtime` depends on
    which loop implementation runs it.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    import asyncio

    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


__all__ = [
    "encode_frame",
    "FrameDecoder",
    "FrameEncoder",
    "TcpMesh",
    "PeerAddress",
    "PipelineConfig",
    "RuntimeNode",
    "install_uvloop",
]
