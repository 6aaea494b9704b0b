"""The structured protocol event vocabulary.

One vocabulary for Omni-Paxos *and* the baselines: the evaluation compares
protocols through identical measurement hooks (like the uniform harness of
*Paxos vs Raft*), so a Raft term win and a BLE election both surface as
:class:`BallotElected`, and a Raft step-down and a Sequence Paxos demotion
both surface as :class:`RoleChanged`.

Events are frozen dataclasses with a class-level ``kind`` tag. They carry
no timestamp themselves — the registry stamps emission time from its clock
and hands sinks an :class:`EventRecord`. ``event_to_dict`` /
``event_from_dict`` round-trip events through JSON-safe dicts for the
JSON-lines exporter and the ``repro-obs`` report CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class ProtocolEvent:
    """Base class; subclasses define ``kind`` and their payload fields."""

    kind: ClassVar[str] = "ProtocolEvent"


@dataclass(frozen=True, slots=True)
class BallotElected(ProtocolEvent):
    """Server ``pid`` observed ``leader`` elected with ballot/term/view
    number ``ballot`` (BLE election, Raft term win, MP Phase-1 completion,
    VR view establishment — one vocabulary for all four)."""

    kind: ClassVar[str] = "BallotElected"
    pid: int = 0
    leader: int = 0
    ballot: int = 0


@dataclass(frozen=True, slots=True)
class BallotBumped(ProtocolEvent):
    """Server ``pid`` bumped its own ballot to ``ballot`` attempting a
    takeover (BLE check_leader with the leader's ballot absent)."""

    kind: ClassVar[str] = "BallotBumped"
    pid: int = 0
    ballot: int = 0


@dataclass(frozen=True, slots=True)
class QCFlagChanged(ProtocolEvent):
    """Server ``pid``'s quorum-connected flag flipped (paper section 5.2:
    the flag that keeps non-QC servers from churning ballots)."""

    kind: ClassVar[str] = "QCFlagChanged"
    pid: int = 0
    quorum_connected: bool = False


@dataclass(frozen=True, slots=True)
class RoleChanged(ProtocolEvent):
    """Server ``pid`` changed replication role (``leader`` / ``follower`` /
    ``candidate`` / ``precandidate``). ``protocol`` names the emitting
    state machine (``sp``, ``raft``, ``multipaxos``)."""

    kind: ClassVar[str] = "RoleChanged"
    pid: int = 0
    role: str = "follower"
    protocol: str = "sp"


@dataclass(frozen=True, slots=True)
class StopSignDecided(ProtocolEvent):
    """Server ``pid`` decided the stop-sign ending configuration
    ``config_id``; the cluster moves to ``next_config_id`` = ``servers``."""

    kind: ClassVar[str] = "StopSignDecided"
    pid: int = 0
    config_id: int = 0
    next_config_id: int = 0
    servers: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class MigrationDonorPicked(ProtocolEvent):
    """Joining server ``pid`` requested log range ``[from_idx, to_idx)``
    of configuration ``config_id`` from ``donor`` (paper section 6:
    parallel log migration)."""

    kind: ClassVar[str] = "MigrationDonorPicked"
    pid: int = 0
    config_id: int = 0
    donor: int = 0
    from_idx: int = 0
    to_idx: int = 0


@dataclass(frozen=True, slots=True)
class MigrationCompleted(ProtocolEvent):
    """Joining server ``pid`` finished migrating ``entries`` log entries
    for configuration ``config_id`` in ``duration_ms``."""

    kind: ClassVar[str] = "MigrationCompleted"
    pid: int = 0
    config_id: int = 0
    entries: int = 0
    duration_ms: float = 0.0


@dataclass(frozen=True, slots=True)
class MigrationSegmentReceived(ProtocolEvent):
    """Joining server ``pid`` received ``entries`` migrated log entries
    starting at ``from_idx`` from ``donor`` — the per-donor signal that
    lets the timeline break a migration into parallel segment transfers."""

    kind: ClassVar[str] = "MigrationSegmentReceived"
    pid: int = 0
    config_id: int = 0
    donor: int = 0
    from_idx: int = 0
    entries: int = 0


@dataclass(frozen=True, slots=True)
class SessionDropped(ProtocolEvent):
    """Server ``pid`` observed the link session to ``peer`` drop and
    re-establish (triggers PrepareReq handling, paper section 4.1.3)."""

    kind: ClassVar[str] = "SessionDropped"
    pid: int = 0
    peer: int = 0


@dataclass(frozen=True, slots=True)
class HeartbeatViewReported(ProtocolEvent):
    """Server ``pid``'s view of the cluster after closing heartbeat round
    ``round``: its ballot, believed leader, QC flag, connectivity count,
    and exactly which peers replied (``peers_heard``), plus replication
    progress (``log_len``/``decided_idx``). The health observatory
    assembles these per-server views into the N×N quorum-connectivity
    matrix; ``phase`` is the server's replication role at report time."""

    kind: ClassVar[str] = "HeartbeatViewReported"
    pid: int = 0
    round: int = 0
    ballot: int = 0
    leader: int = 0
    quorum_connected: bool = False
    connectivity: int = 0
    peers_heard: Tuple[int, ...] = ()
    phase: str = "follower"
    log_len: int = 0
    decided_idx: int = 0
    #: Absolute deviation of this round's close from the expected heartbeat
    #: cadence (ms); 0.0 on exports from before the series engine existed.
    jitter_ms: float = 0.0


@dataclass(frozen=True, slots=True)
class PeerDegraded(ProtocolEvent):
    """Server ``pid``'s gray-failure detector scored ``peer`` as degraded:
    still replying to heartbeats (so crash/partition detectors stay
    silent) but slow — ``reason`` is ``"heartbeat_interval"`` (the peer's
    own beacons arrive stretched) or ``"rtt"`` (per-link RTT EWMA blew
    past its baseline). ``score`` is the observed/expected ratio."""

    kind: ClassVar[str] = "PeerDegraded"
    pid: int = 0
    peer: int = 0
    score: float = 0.0
    reason: str = "heartbeat_interval"


@dataclass(frozen=True, slots=True)
class PeerRecovered(ProtocolEvent):
    """Server ``pid``'s gray-failure detector cleared the degraded flag on
    ``peer`` (score back under the recovery threshold)."""

    kind: ClassVar[str] = "PeerRecovered"
    pid: int = 0
    peer: int = 0
    score: float = 0.0


@dataclass(frozen=True, slots=True)
class QueueDepthSampled(ProtocolEvent):
    """Instantaneous depth of one staging queue (``queue`` names it: see
    ``repro.obs.prof.QUEUE_NAMES``) sampled by the profiler. ``pid`` is the
    owning server, or ``None`` for cluster-wide queues such as the sim event
    heap and the network's in-flight set. The flight recorder keeps these in
    a dedicated lane so a post-mortem dump shows backpressure at the moment
    of a violation without evicting protocol events."""

    kind: ClassVar[str] = "QueueDepthSampled"
    queue: str = ""
    depth: int = 0
    pid: Optional[int] = None


@dataclass(frozen=True, slots=True)
class ClientReplyDecided(ProtocolEvent):
    """The closed-loop client observed command ``seq`` decided. The stream
    of these events *is* the paper's throughput/down-time signal — the
    ``repro-obs`` CLI recomputes Figures 7–9 style summaries from it."""

    kind: ClassVar[str] = "ClientReplyDecided"
    client_id: int = 0
    seq: int = 0
    #: Trace id of the command's causal chain (``c<client_id>-<seq>``);
    #: empty on exports from before the tracing layer existed.
    trace_id: str = ""


# --------------------------------------------------------------------------
# Tracing-only events (emitted only when ``MetricsRegistry.tracing`` is on;
# see repro.obs.spans for the spans assembled from them). All fields carry
# defaults so exports written before a field existed still load.
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProposalAppended(ProtocolEvent):
    """Leader ``pid`` appended entries ``[from_idx, to_idx)`` to its
    replication log and fanned them out (AcceptDecide / AppendEntries /
    P2a — ``protocol`` names which). Start of the commit-path span."""

    kind: ClassVar[str] = "ProposalAppended"
    pid: int = 0
    from_idx: int = 0
    to_idx: int = 0
    protocol: str = "sp"
    trace_id: str = ""


@dataclass(frozen=True, slots=True)
class QuorumAccepted(ProtocolEvent):
    """Leader ``pid`` observed a majority accept through ``log_idx`` and
    advanced the decided index — the quorum milestone of a commit span."""

    kind: ClassVar[str] = "QuorumAccepted"
    pid: int = 0
    log_idx: int = 0
    protocol: str = "sp"


@dataclass(frozen=True, slots=True)
class EntryApplied(ProtocolEvent):
    """Server ``pid`` surfaced ``count`` decided entries (through
    ``log_idx``) to the application — the apply milestone of a commit
    span."""

    kind: ClassVar[str] = "EntryApplied"
    pid: int = 0
    log_idx: int = 0
    count: int = 0


@dataclass(frozen=True, slots=True)
class RecoveryStarted(ProtocolEvent):
    """Server ``pid`` began resynchronizing: ``reason`` is ``"crash"``
    (restart, PrepareReq broadcast) or ``"session"`` (link session drop,
    paper section 4.1.3)."""

    kind: ClassVar[str] = "RecoveryStarted"
    pid: int = 0
    reason: str = "crash"


@dataclass(frozen=True, slots=True)
class RecoveryCompleted(ProtocolEvent):
    """Server ``pid`` finished resynchronizing (AcceptSync applied, or
    re-elected with a fresh log) with ``log_idx`` entries."""

    kind: ClassVar[str] = "RecoveryCompleted"
    pid: int = 0
    log_idx: int = 0


@dataclass(frozen=True, slots=True)
class ClientProposalSent(ProtocolEvent):
    """The closed-loop client sent commands ``[first_seq, first_seq +
    count)`` — the start anchor of client round-trip spans."""

    kind: ClassVar[str] = "ClientProposalSent"
    client_id: int = 0
    first_seq: int = 0
    count: int = 1


@dataclass(frozen=True, slots=True)
class NemesisInjected(ProtocolEvent):
    """The chaos engine applied (``phase="apply"``) or reverted
    (``phase="revert"``) a fault op of kind ``op`` — crash, partition,
    delay_spike, ... — so timelines can show *when* the nemesis acted.
    ``target`` names the victim (a pid, a link list, or ``"net"``)."""

    kind: ClassVar[str] = "NemesisInjected"
    op: str = ""
    phase: str = "apply"
    target: str = ""
    detail: str = ""


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One emitted event plus its registry-stamped emission time."""

    at_ms: float
    event: ProtocolEvent


EVENT_TYPES: Dict[str, Type[ProtocolEvent]] = {
    cls.kind: cls
    for cls in (
        BallotElected,
        BallotBumped,
        QCFlagChanged,
        RoleChanged,
        StopSignDecided,
        MigrationDonorPicked,
        MigrationCompleted,
        MigrationSegmentReceived,
        SessionDropped,
        HeartbeatViewReported,
        PeerDegraded,
        PeerRecovered,
        QueueDepthSampled,
        ClientReplyDecided,
        ProposalAppended,
        QuorumAccepted,
        EntryApplied,
        RecoveryStarted,
        RecoveryCompleted,
        ClientProposalSent,
        NemesisInjected,
    )
}


def event_to_dict(record: EventRecord) -> Dict[str, Any]:
    """A JSON-safe dict for one event record (tuples become lists)."""
    out: Dict[str, Any] = {"kind": record.event.kind, "at_ms": record.at_ms}
    for f in fields(record.event):
        value = getattr(record.event, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def event_from_dict(payload: Dict[str, Any]) -> EventRecord:
    """Rebuild an :class:`EventRecord` from :func:`event_to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    at_ms = data.pop("at_ms", 0.0)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown event kind {kind!r}")
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    return EventRecord(at_ms=at_ms, event=cls(**coerced))
