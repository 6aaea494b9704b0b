"""The tagged value encoding: the one way a protocol object becomes bytes.

Two things leave the process as bytes — a frame for a peer
(:mod:`repro.runtime.codec`: ``[0xB1][src varint][value]``) and a journal
record for the disk (:class:`repro.omni.storage.FileStorage`:
``[record tag][value]``). Both write their ``value`` with
:func:`write_value` and parse it with :func:`read_value`, so what a WAL
can hold is by construction what a peer can be sent. Message dataclasses
of all five protocols are registered under stable one-byte type tags with
schema-aware encoders (field *names* never travel; only the ordered field
values do).

Value encoding (one tag byte, then tag-specific bytes)::

    0x00 None                  0x05 bytes  (varint len + raw)
    0x01 True                  0x06 str    (varint len + utf-8)
    0x02 False                 0x07 tuple  (varint count + values)
    0x03 int   (zigzag varint) 0x08 withdrawn in PR 14: never reassign
    0x04 float (8-byte >d)     0x09 list   (varint count + values)
    0x0A dict  (varint count + key/value pairs, insertion order)
    0x10+     registered message types (ordered field values follow)

``0x0A`` exists for the one schema-less shape real traffic carries: the
``dict`` state of a KV snapshot (``SnapshotInstalled.state``,
``Promise``/``AcceptSync.snapshot``, ``InstallSnapshot.state``, and the
snapshot record of a WAL). A value of any other class — a subclass of a
registered type included, dispatch is by exact class — raises
:class:`TransportError` naming the type when it is *encoded*, at the
sender or at the storage call.

Checked on decode: tags (``0x08`` and every other unassigned one are
unknown) and declared lengths; a violation is a :class:`TransportError`,
and the two callers turn whatever else malformed bytes raise
(``IndexError`` past the end, bad UTF-8, an unhashable dict key) into
their own error. Not checked: field values against the dataclass
annotations — a payload the owner cannot use is the owner's to reject.

This module sits below both callers and imports every protocol's
messages for the schema table at its end. The protocols import
``repro.omni.storage``, so that module cannot import this one while it
is itself being imported: ``FileStorage`` resolves it when it opens a
file.
"""

from __future__ import annotations

import struct
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError

_F64 = struct.Struct(">d")

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_BYTES = 0x05
_T_STR = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x09  # 0x08 is withdrawn: never reassign it
_T_DICT = 0x0A


# --------------------------------------------------------------------------
# varints
# --------------------------------------------------------------------------

def write_uint(out: bytearray, n: int) -> None:
    """Append ``n >= 0`` as an untagged varint (a frame's ``src``)."""
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _w_int(out: bytearray, n: int) -> None:
    # Zigzag: small negatives stay small on the wire.
    if n >= 0:
        n <<= 1
    else:
        n = (-n << 1) - 1
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def read_uint(buf: bytes, pos: int) -> Tuple[int, int]:
    """The untagged varint at ``buf[pos]`` and the offset just past it."""
    result = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _r_int(buf: bytes, pos: int) -> Tuple[int, int]:
    zz, pos = read_uint(buf, pos)
    if zz & 1:
        return -((zz + 1) >> 1), pos
    return zz >> 1, pos


# --------------------------------------------------------------------------
# value encoding
# --------------------------------------------------------------------------

#: Exact-class dispatch to a registered message encoder (writes its own tag).
_ENCODERS: Dict[type, Callable[[bytearray, Any], None]] = {}
#: Tag-indexed decoders; a ``None`` slot is an unknown tag.
_DECODERS: List[Optional[Callable[[bytes, int], Tuple[Any, int]]]] = \
    [None] * 256
#: ``tag -> class`` for introspection and the exhaustiveness tests.
REGISTERED_MESSAGES: Dict[int, type] = {}


def write_value(out: bytearray, value: Any) -> None:
    """Append the tagged encoding of ``value`` to ``out``;
    :class:`TransportError` naming the class if it has none."""
    enc = _ENCODERS.get(value.__class__)
    if enc is not None:
        enc(out, value)
        return
    cls = value.__class__
    if value is None:
        out.append(_T_NONE)
    elif cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif cls is int:
        out.append(_T_INT)
        _w_int(out, value)
    elif cls is bytes:
        out.append(_T_BYTES)
        write_uint(out, len(value))
        out += value
    elif cls is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        write_uint(out, len(raw))
        out += raw
    elif cls is tuple:
        out.append(_T_TUPLE)
        write_uint(out, len(value))
        for item in value:
            write_value(out, item)
    elif cls is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif cls is list:
        out.append(_T_LIST)
        write_uint(out, len(value))
        for item in value:
            write_value(out, item)
    elif cls is dict:
        out.append(_T_DICT)
        write_uint(out, len(value))
        for key, item in value.items():
            write_value(out, key)
            write_value(out, item)
    else:
        # A programming error at the sender (exact-class dispatch: a
        # subclass of a registered type has no schema either).
        raise TransportError(
            f"cannot encode {cls.__module__}.{cls.__qualname__}: "
            "no wire schema registered for this type")


def check_encodable(*values: Any) -> None:
    """Raise :class:`TransportError` naming the type unless every value
    has a wire encoding. For callers that accept values long before the
    transport encodes them (``RuntimeNode.propose``)."""
    out = bytearray()
    for value in values:
        write_value(out, value)


def read_value(buf: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value at ``buf[pos]``; returns it and the offset just
    past it."""
    tag = buf[pos]
    dec = _DECODERS[tag]
    if dec is None:
        raise TransportError(f"unknown value tag 0x{tag:02x}")
    return dec(buf, pos + 1)


def _dec_none(buf: bytes, pos: int) -> Tuple[Any, int]:
    return None, pos


def _dec_true(buf: bytes, pos: int) -> Tuple[Any, int]:
    return True, pos


def _dec_false(buf: bytes, pos: int) -> Tuple[Any, int]:
    return False, pos


def _dec_float(buf: bytes, pos: int) -> Tuple[Any, int]:
    return _F64.unpack_from(buf, pos)[0], pos + 8


def _dec_bytes(buf: bytes, pos: int) -> Tuple[Any, int]:
    n, pos = read_uint(buf, pos)
    end = pos + n
    if end > len(buf):
        raise TransportError("truncated bytes value")
    return buf[pos:end], end


def _dec_str(buf: bytes, pos: int) -> Tuple[Any, int]:
    n, pos = read_uint(buf, pos)
    end = pos + n
    if end > len(buf):
        raise TransportError("truncated str value")
    return buf[pos:end].decode("utf-8"), end


def _dec_tuple(buf: bytes, pos: int) -> Tuple[Any, int]:
    n, pos = read_uint(buf, pos)
    items = []
    for _ in range(n):
        item, pos = read_value(buf, pos)
        items.append(item)
    return tuple(items), pos


def _dec_list(buf: bytes, pos: int) -> Tuple[Any, int]:
    n, pos = read_uint(buf, pos)
    items = []
    for _ in range(n):
        item, pos = read_value(buf, pos)
        items.append(item)
    return items, pos


def _dec_dict(buf: bytes, pos: int) -> Tuple[Any, int]:
    n, pos = read_uint(buf, pos)
    items = {}
    for _ in range(n):
        key, pos = read_value(buf, pos)
        value, pos = read_value(buf, pos)
        items[key] = value  # unhashable: TypeError, the caller's to wrap
    return items, pos


_DECODERS[_T_NONE] = _dec_none
_DECODERS[_T_TRUE] = _dec_true
_DECODERS[_T_FALSE] = _dec_false
_DECODERS[_T_INT] = _r_int
_DECODERS[_T_FLOAT] = _dec_float
_DECODERS[_T_BYTES] = _dec_bytes
_DECODERS[_T_STR] = _dec_str
_DECODERS[_T_TUPLE] = _dec_tuple
_DECODERS[_T_LIST] = _dec_list
_DECODERS[_T_DICT] = _dec_dict


# --------------------------------------------------------------------------
# message registration
# --------------------------------------------------------------------------

def register_message(tag: int, cls: type) -> None:
    """Register dataclass ``cls`` under stable wire ``tag`` (0x10-0xFF).

    The encoder writes the tag followed by the ordered field values (each
    through :func:`write_value`, so nested registered types compose);
    the decoder reads them back and calls
    ``cls(*values)``. Tags are part of the wire contract: never renumber a
    registered tag, only append new ones.
    """
    if not 0x10 <= tag <= 0xFF:
        raise ValueError(f"message tags must be in [0x10, 0xFF], got {tag:#x}")
    existing = REGISTERED_MESSAGES.get(tag)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"tag {tag:#x} already registered for {existing.__name__}")
    names = tuple(f.name for f in dataclass_fields(cls))
    if len(names) == 1:
        get_one = attrgetter(names[0])

        def enc(out: bytearray, v: Any, _t: int = tag,
                _g: Callable = get_one) -> None:
            out.append(_t)
            write_value(out, _g(v))
    elif names:
        get_all = attrgetter(*names)

        def enc(out: bytearray, v: Any, _t: int = tag,
                _g: Callable = get_all) -> None:
            out.append(_t)
            for item in _g(v):
                write_value(out, item)
    else:
        def enc(out: bytearray, v: Any, _t: int = tag) -> None:
            out.append(_t)

    def dec(buf: bytes, pos: int, _cls: type = cls,
            _n: int = len(names)) -> Tuple[Any, int]:
        args = []
        for _ in range(_n):
            value, pos = read_value(buf, pos)
            args.append(value)
        return _cls(*args), pos

    _ENCODERS[cls] = enc
    _DECODERS[tag] = dec
    REGISTERED_MESSAGES[tag] = cls


# --------------------------------------------------------------------------
# the wire schema: stable tags for all five protocols
# --------------------------------------------------------------------------
# Tag blocks: 0x10 shared/omni core, 0x30 raft, 0x40 multipaxos, 0x50 vr.
# The transport registers its own ping/pong probes (0x2E/0x2F) when it is
# imported. NEVER renumber a shipped tag — only append.

from repro.obs.spans import TraceContext as _TraceContext  # noqa: E402
from repro.omni.ballot import Ballot as _Ballot, QCBallot as _QCBallot  # noqa: E402
from repro.omni.entry import (  # noqa: E402
    Command as _Command,
    SnapshotInstalled as _SnapshotInstalled,
    StopSign as _StopSign,
)
from repro.omni import messages as _om  # noqa: E402
from repro.baselines import multipaxos as _mp  # noqa: E402
from repro.baselines import raft as _raft  # noqa: E402
from repro.baselines import vr as _vr  # noqa: E402

register_message(0x10, _Ballot)
register_message(0x11, _QCBallot)
register_message(0x12, _Command)


def _specialize_hot_types() -> None:
    """Swap in hand-tuned encoders/decoders for the replication-path types.

    ``Command`` and ``Ballot`` sit innermost in every AcceptDecide /
    Promise / AppendEntries frame — a macro run touches them hundreds of
    thousands of times — so their codecs inline the varint loops and
    bypass the dataclass ``__init__`` (``object.__new__`` + three direct
    ``object.__setattr__`` calls). The wire bytes are identical to the generic
    schema encoding; only the Python path is shorter.
    """
    command_tag = next(t for t, c in REGISTERED_MESSAGES.items()
                       if c is _Command)
    ballot_tag = next(t for t, c in REGISTERED_MESSAGES.items()
                      if c is _Ballot)
    new = object.__new__
    setattr_ = object.__setattr__

    def enc_command(out: bytearray, c: Any, _t: int = command_tag) -> None:
        out.append(_t)
        data = c.data
        out.append(_T_BYTES)
        write_uint(out, len(data))
        out += data
        out.append(_T_INT)
        _w_int(out, c.client_id)
        out.append(_T_INT)
        _w_int(out, c.seq)

    def dec_command(buf: bytes, pos: int) -> Tuple[Any, int]:
        # Inlined 1-/2-byte varint fast paths: command payloads are
        # usually short and client ids / sequence numbers small, so the
        # generic read_uint/_r_int calls are pure overhead here.
        if buf[pos] != _T_BYTES:
            # Non-canonical field encoding (e.g. a hand-built frame):
            # fall back to the generic ordered-value parse.
            data, pos = read_value(buf, pos)
        else:
            n = buf[pos + 1]
            if n < 0x80:
                pos += 2
            else:
                n, pos = read_uint(buf, pos + 1)
            end = pos + n
            if end > len(buf):
                raise TransportError("truncated bytes value")
            data = buf[pos:end]
            pos = end
        if buf[pos] == _T_INT:
            zz = buf[pos + 1]
            if zz < 0x80:
                pos += 2
            elif buf[pos + 2] < 0x80:
                zz = (zz & 0x7F) | (buf[pos + 2] << 7)
                pos += 3
            else:
                zz, pos = read_uint(buf, pos + 1)
            client_id = (zz >> 1) if not (zz & 1) else -((zz + 1) >> 1)
        else:
            client_id, pos = read_value(buf, pos)
        if buf[pos] == _T_INT:
            zz = buf[pos + 1]
            if zz < 0x80:
                pos += 2
            elif buf[pos + 2] < 0x80:
                zz = (zz & 0x7F) | (buf[pos + 2] << 7)
                pos += 3
            else:
                zz, pos = read_uint(buf, pos + 1)
            seq = (zz >> 1) if not (zz & 1) else -((zz + 1) >> 1)
        else:
            seq, pos = read_value(buf, pos)
        cmd = new(_Command)
        setattr_(cmd, "data", data)
        setattr_(cmd, "client_id", client_id)
        setattr_(cmd, "seq", seq)
        return cmd, pos

    def enc_ballot(out: bytearray, b: Any, _t: int = ballot_tag) -> None:
        out.append(_t)
        out.append(_T_INT)
        _w_int(out, b.n)
        out.append(_T_INT)
        _w_int(out, b.priority)
        out.append(_T_INT)
        _w_int(out, b.pid)

    def dec_ballot(buf: bytes, pos: int) -> Tuple[Any, int]:
        fields = []
        for _ in range(3):
            if buf[pos] == _T_INT:
                value, pos = _r_int(buf, pos + 1)
            else:
                value, pos = read_value(buf, pos)
            fields.append(value)
        ballot = new(_Ballot)
        setattr_(ballot, "n", fields[0])
        setattr_(ballot, "priority", fields[1])
        setattr_(ballot, "pid", fields[2])
        return ballot, pos

    _ENCODERS[_Command] = enc_command
    _DECODERS[command_tag] = dec_command
    _ENCODERS[_Ballot] = enc_ballot
    _DECODERS[ballot_tag] = dec_ballot

    # AcceptDecide carries the replicated entries themselves; decode its
    # entries tuple with a direct dec_command loop so each element skips
    # the read_value tag dispatch. Field order: n, entries, decided_idx,
    # seq, session.
    ad_tag = next(t for t, c in REGISTERED_MESSAGES.items()
                  if c is _om.AcceptDecide)
    _AcceptDecide = _om.AcceptDecide

    def dec_accept_decide(buf: bytes, pos: int) -> Tuple[Any, int]:
        if buf[pos] == ballot_tag:
            n, pos = dec_ballot(buf, pos + 1)
        else:
            n, pos = read_value(buf, pos)
        if buf[pos] == _T_TUPLE:
            count, pos = read_uint(buf, pos + 1)
            items = []
            append = items.append
            for _ in range(count):
                if buf[pos] == command_tag:
                    cmd, pos = dec_command(buf, pos + 1)
                else:
                    cmd, pos = read_value(buf, pos)
                append(cmd)
            entries = tuple(items)
        else:
            entries, pos = read_value(buf, pos)
        rest = []
        for _ in range(3):  # decided_idx, seq, session
            if buf[pos] == _T_INT:
                zz = buf[pos + 1]
                if zz < 0x80:
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    zz = (zz & 0x7F) | (buf[pos + 2] << 7)
                    pos += 3
                else:
                    zz, pos = read_uint(buf, pos + 1)
                rest.append((zz >> 1) if not (zz & 1) else -((zz + 1) >> 1))
            else:
                value, pos = read_value(buf, pos)
                rest.append(value)
        msg = new(_AcceptDecide)
        setattr_(msg, "n", n)
        setattr_(msg, "entries", entries)
        setattr_(msg, "decided_idx", rest[0])
        setattr_(msg, "seq", rest[1])
        setattr_(msg, "session", rest[2])
        return msg, pos

    _DECODERS[ad_tag] = dec_accept_decide
register_message(0x13, _StopSign)
register_message(0x14, _SnapshotInstalled)
register_message(0x15, _TraceContext)
register_message(0x16, _om.Envelope)
register_message(0x17, _om.HeartbeatRequest)
register_message(0x18, _om.HeartbeatReply)
register_message(0x19, _om.Prepare)
register_message(0x1A, _om.Promise)
register_message(0x1B, _om.AcceptSync)
register_message(0x1C, _om.AcceptDecide)
register_message(0x1D, _om.Accepted)
register_message(0x1E, _om.Trim)
register_message(0x1F, _om.Decide)
register_message(0x20, _om.PrepareReq)
register_message(0x21, _om.ProposalForward)
register_message(0x22, _om.NewConfiguration)
register_message(0x23, _om.JoinComplete)
register_message(0x24, _om.LogPullRequest)
register_message(0x25, _om.LogSegment)

register_message(0x30, _raft.RequestVote)
register_message(0x31, _raft.RequestVoteReply)
register_message(0x32, _raft.AppendEntries)
register_message(0x33, _raft.AppendEntriesReply)
register_message(0x34, _raft.RaftSlot)
register_message(0x35, _raft.TimeoutNow)
register_message(0x36, _raft.RaftConfigChange)
register_message(0x37, _raft.InstallSnapshot)

register_message(0x40, _mp.P1a)
register_message(0x41, _mp.P1b)
register_message(0x42, _mp.P2a)
register_message(0x43, _mp.P2b)
register_message(0x44, _mp.Ping)
register_message(0x45, _mp.Pong)

register_message(0x50, _vr.StartViewChange)
register_message(0x51, _vr.DoViewChange)
register_message(0x52, _vr.StartView)
register_message(0x53, _vr.VRPing)

_specialize_hot_types()
