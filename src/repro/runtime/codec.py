"""Binary framing for the TCP transport.

Frames are ``[4-byte big-endian length][body]`` and there is one body
format: ``[0xB1][src varint][value]``, ``value`` in the tagged value
encoding of :mod:`repro.encoding` — the same encoding, written and parsed
by the same two functions, as a ``FileStorage`` journal record. A body
that does not start with ``0xB1`` — the empty body included — is a
corrupt frame; nothing is auto-detected.

Checked on decode: framing (length bound, magic, no trailing bytes) and
everything the value encoding checks; a violation is a
:class:`TransportError`. Not checked: field values against the dataclass
annotations (a payload the owner cannot use is the owner's to reject;
``TcpMesh`` counts ``reason="rejected"``) and peer identity — ``src`` is
what the peer claims, so only the cluster's own servers may reach the
listen port.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

from repro.encoding import (REGISTERED_MESSAGES, read_uint, read_value,
                            write_uint, write_value)
from repro.errors import TransportError
from repro.omni.messages import Envelope as _Envelope

_LEN = struct.Struct(">I")

#: Upper bound on a single frame; protects against corrupt length headers.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Leading body byte of every frame.
WIRE_BINARY = 0xB1

_ENVELOPE_TAG = next(tag for tag, cls in REGISTERED_MESSAGES.items()
                     if cls is _Envelope)


def encode_frame(src: int, payload: Any) -> bytes:
    """Encode one ``(src, payload)`` message into a framed byte string."""
    buf = bytearray()
    buf.append(WIRE_BINARY)
    write_uint(buf, src)
    write_value(buf, payload)
    if len(buf) > MAX_FRAME_BYTES:
        raise TransportError(f"frame too large: {len(buf)} bytes")
    return _LEN.pack(len(buf)) + bytes(buf)


class FrameEncoder:
    """Stateful frame encoder for one transport endpoint.

    It keeps a one-slot *fan-out cache*: protocols broadcast by wrapping
    the same payload object in one envelope per destination, so encoding
    the (heavy) inner payload once and splicing the cached bytes into each
    destination's frame removes the dominant per-peer serialization cost
    of a broadcast.
    """

    __slots__ = ("_cache_obj", "_cache_bytes")

    def __init__(self) -> None:
        self._cache_obj: Any = None
        self._cache_bytes = b""

    def encode(self, src: int, payload: Any) -> bytes:
        buf = bytearray()
        buf.append(WIRE_BINARY)
        write_uint(buf, src)
        if payload.__class__ is _Envelope:
            # Manual field order must mirror the Envelope dataclass
            # (config_id, component, payload, trace) so the generic
            # registered decoder reads it back.
            buf.append(_ENVELOPE_TAG)
            write_value(buf, payload.config_id)
            write_value(buf, payload.component)
            inner = payload.payload
            if inner is self._cache_obj:
                buf += self._cache_bytes
            else:
                mark = len(buf)
                write_value(buf, inner)
                self._cache_obj = inner
                self._cache_bytes = bytes(buf[mark:])
            write_value(buf, payload.trace)
        else:
            write_value(buf, payload)
        if len(buf) > MAX_FRAME_BYTES:
            raise TransportError(f"frame too large: {len(buf)} bytes")
        return _LEN.pack(len(buf)) + bytes(buf)


def _decode_body(body: bytes) -> Tuple[int, Any]:
    """Decode one complete frame body into ``(src, payload)``."""
    if not body or body[0] != WIRE_BINARY:
        raise TransportError("corrupt frame: body does not start with 0xB1")
    try:
        src, pos = read_uint(body, 1)
        value, pos = read_value(body, pos)
    except TransportError as exc:
        raise TransportError(f"corrupt frame: {exc}")
    except Exception as exc:
        raise TransportError(f"corrupt frame: {exc!r}")
    if pos != len(body):
        raise TransportError(
            f"corrupt frame: {len(body) - pos} trailing bytes")
    return src, value


class FrameDecoder:
    """Incremental decoder: feed bytes, take complete messages.

    A corrupt frame raises :class:`TransportError` and clears the buffer, so
    a caller that keeps the decoder (e.g. across a reconnect) resumes
    clean instead of re-reading the poisoned prefix forever. When the
    corrupt frame follows good frames *in the same feed call*, those
    messages are returned first and :attr:`poisoned` is set (the deferred
    error raises on the next ``feed``) — valid traffic is never discarded
    because garbage arrived behind it in one TCP read.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pending_error: Optional[TransportError] = None

    @property
    def poisoned(self) -> bool:
        """True when the last ``feed`` hit a corrupt frame after decoding
        messages; the stream is unframeable past this point."""
        return self._pending_error is not None

    def feed(self, data: bytes) -> List[Any]:
        """Absorb ``data``; return all now-complete ``(src, payload)``."""
        if self._pending_error is not None:
            error = self._pending_error
            self._pending_error = None
            raise error
        self._buffer.extend(data)
        out: List[Any] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return out
            (size,) = _LEN.unpack(self._buffer[:_LEN.size])
            if size > MAX_FRAME_BYTES:
                # A corrupt length header means the rest of the buffer is
                # unframeable garbage; reset before raising.
                self._buffer.clear()
                error = TransportError(
                    f"frame length {size} exceeds maximum")
                if out:
                    self._pending_error = error
                    return out
                raise error
            if len(self._buffer) < _LEN.size + size:
                return out
            body = bytes(self._buffer[_LEN.size:_LEN.size + size])
            del self._buffer[:_LEN.size + size]
            try:
                out.append(_decode_body(body))
            except TransportError as error:
                self._buffer.clear()
                if out:
                    self._pending_error = error
                    return out
                raise
