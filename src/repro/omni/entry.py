"""Log entries: client commands and stop-signs.

The replicated log holds two kinds of entries. :class:`Command` wraps an
opaque client payload. :class:`StopSign` is the special reconfiguration
entry of paper section 6: once a stop-sign is chosen in configuration
``c_i``, no further entries can be decided in ``c_i`` and the service layer
transitions the cluster to ``c_{i+1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Command:
    """A client command to be applied to the replicated state machine.

    ``data`` is opaque to the replication layer. ``client_id`` and ``seq``
    exist so workloads and state machines can deduplicate and correlate
    replies; the protocol itself never inspects them.
    """

    data: bytes = b""
    client_id: int = 0
    seq: int = 0


@dataclass(frozen=True, slots=True)
class StopSign:
    """The reconfiguration entry that ends a configuration.

    Contains the id and the member set of the *next* configuration, plus an
    opaque metadata blob (the paper mentions it can carry e.g. the new
    software version for in-place upgrades).
    """

    config_id: int
    servers: Tuple[int, ...]
    metadata: Optional[bytes] = field(default=None)


@dataclass(frozen=True, slots=True)
class SnapshotInstalled:
    """Marker surfaced in a replica's decided stream when a *snapshot*
    replaced a log prefix.

    The pair ``(covers_idx, SnapshotInstalled(state))`` means: entries
    ``[0, covers_idx)`` were folded into ``state`` by the configured
    snapshotter; apply ``state`` wholesale instead of replaying them.
    Only appears when a snapshotter is configured (see
    :class:`repro.omni.sequence_paxos.SequencePaxosConfig`).
    """

    state: Any


def is_stopsign(entry: Any) -> bool:
    """Return True when ``entry`` is a stop-sign."""
    return isinstance(entry, StopSign)

