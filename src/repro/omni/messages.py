"""Wire messages for BLE, Sequence Paxos, and the service layer.

Messages are frozen (and, on 3.10+, slotted) dataclasses: the simulator
may deliver the same object to several recipients, so immutability is
load-bearing, and slots cut per-message memory and attribute-read cost on
the replication hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.obs.spans import TraceContext
from repro.omni.ballot import Ballot


# --------------------------------------------------------------------------
# Ballot Leader Election (paper section 5.2, Figure 4)
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HeartbeatRequest:
    """Start-of-round probe; ``round`` identifies the heartbeat round."""

    round: int


@dataclass(frozen=True, slots=True)
class HeartbeatReply:
    """Reply carrying the sender's ballot and quorum-connected flag."""

    round: int
    ballot: Ballot
    quorum_connected: bool


# --------------------------------------------------------------------------
# Sequence Paxos (paper section 4, Figure 3)
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Prepare:
    """Leader -> follower: open round ``n`` and ask for a promise.

    Carries the leader's ``acc_rnd``, log length and decided index so the
    follower can compute exactly which suffix the leader is missing
    (paper section 4.1.1).
    """

    n: Ballot
    acc_rnd: Ballot
    log_idx: int
    decided_idx: int


@dataclass(frozen=True, slots=True)
class Promise:
    """Follower -> leader: promise round ``n``, with the leader's missing
    suffix (possibly empty).

    If the follower already compacted part of the suffix the leader lacks,
    ``snapshot = (state, covers_idx)`` replaces the compacted prefix.
    """

    n: Ballot
    acc_rnd: Ballot
    suffix: Tuple[Any, ...]
    log_idx: int
    decided_idx: int
    snapshot: Optional[Tuple[Any, int]] = None


@dataclass(frozen=True, slots=True)
class AcceptSync:
    """Leader -> follower: synchronize the follower's log.

    The follower truncates its log at ``sync_idx`` and appends ``suffix``;
    afterwards its log is guaranteed to be a prefix of the leader's log.
    When the follower needs entries the leader has compacted,
    ``snapshot = (state, covers_idx)`` stands in for the prefix.

    ``session`` numbers the sync sessions a leader opens with this follower
    within its tenure (1, 2, ...). Every AcceptDecide carries the session it
    belongs to, so a reordered straggler from before a re-sync can never be
    mistaken for a fresh message of the current session.
    """

    n: Ballot
    suffix: Tuple[Any, ...]
    sync_idx: int
    decided_idx: int
    snapshot: Optional[Tuple[Any, int]] = None
    session: int = 1


@dataclass(frozen=True, slots=True)
class AcceptDecide:
    """Leader -> follower: replicate ``entries`` (FIFO pipelined) and
    piggyback the leader's current decided index.

    ``(session, seq)`` is the message's position in the replication stream:
    ``session`` names the AcceptSync session it belongs to and ``seq`` counts
    the messages of that session (restarting at 1 after each AcceptSync). A
    follower that observes a seq gap — or a session ahead of the sync it last
    applied — knows a message was lost on a non-TCP transport and requests a
    resynchronization; a message from an *older* session is a reordered or
    duplicated straggler and is dropped instead of appended out of place.
    """

    n: Ballot
    entries: Tuple[Any, ...]
    decided_idx: int
    seq: int = 0
    session: int = 1


@dataclass(frozen=True, slots=True)
class Accepted:
    """Follower -> leader: the follower's log is accepted up to ``log_idx``
    (and decided up to ``decided_idx`` — the leader uses the latter to
    validate log compaction)."""

    n: Ballot
    log_idx: int
    decided_idx: int = 0


@dataclass(frozen=True, slots=True)
class Trim:
    """Leader -> follower: every server has decided past ``trimmed_idx``;
    reclaim the log prefix below it (compaction)."""

    n: Ballot
    trimmed_idx: int


@dataclass(frozen=True, slots=True)
class Decide:
    """Leader -> follower: entries up to ``decided_idx`` are decided."""

    n: Ballot
    decided_idx: int


@dataclass(frozen=True, slots=True)
class PrepareReq:
    """Recovering server / re-established session -> peers: ask the current
    leader (if the recipient is one) to send a fresh Prepare
    (paper section 4.1.3)."""


@dataclass(frozen=True, slots=True)
class ProposalForward:
    """Follower -> leader: forward client proposals to the leader."""

    entries: Tuple[Any, ...]


# --------------------------------------------------------------------------
# Service layer: reconfiguration and log migration (paper section 6)
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NewConfiguration:
    """Continuing server -> new server: announce configuration
    ``config_id`` with member set ``servers``; the joiner must fetch the
    first ``log_len`` entries of the replicated log before starting."""

    config_id: int
    servers: Tuple[int, ...]
    log_len: int
    donors: Tuple[int, ...] = ()
    metadata: Optional[bytes] = None


@dataclass(frozen=True, slots=True)
class JoinComplete:
    """Server -> everyone in the new configuration: the sender has started
    ``config_id`` (so it can serve as a migration donor and needs no further
    announcements)."""

    config_id: int


@dataclass(frozen=True, slots=True)
class LogPullRequest:
    """Joining server -> donor: request decided entries
    ``[from_idx, to_idx)`` of the global replicated log."""

    config_id: int
    from_idx: int
    to_idx: int


@dataclass(frozen=True, slots=True)
class LogSegment:
    """Donor -> joining server: a contiguous slice of decided entries.

    ``complete`` is False when the donor served only a prefix of the range
    (it has not decided that far yet, or the range exceeds its chunk size);
    the joiner re-requests the remainder, possibly from another donor.
    """

    config_id: int
    from_idx: int
    entries: Tuple[Any, ...]
    complete: bool


# --------------------------------------------------------------------------
# Multiplexing envelope used by OmniPaxosServer
# --------------------------------------------------------------------------

#: Component tags for the envelope.
COMPONENT_BLE = "ble"
COMPONENT_SP = "sp"
COMPONENT_SERVICE = "svc"


@dataclass(frozen=True, slots=True)
class Envelope:
    """Routes a payload to the right component of the right configuration.

    BLE and Sequence Paxos instances may only communicate with peers in the
    same configuration (paper section 6: "BLE and Sequence Paxos components
    can only communicate with others in the same configuration"), which the
    ``config_id`` tag enforces.
    """

    config_id: int
    component: str
    payload: Any
    #: Optional causal-tracing context (see :mod:`repro.obs.spans`).
    trace: Optional["TraceContext"] = None


#: Every wire-crossing message type this module defines, in definition
#: order. The schema table registers a stable binary tag for each
#: (`repro.encoding`), and the codec test suite asserts this tuple
#: and the registry never drift apart.
WIRE_MESSAGES = (
    HeartbeatRequest,
    HeartbeatReply,
    Prepare,
    Promise,
    AcceptSync,
    AcceptDecide,
    Accepted,
    Trim,
    Decide,
    PrepareReq,
    ProposalForward,
    NewConfiguration,
    JoinComplete,
    LogPullRequest,
    LogSegment,
    Envelope,
)
