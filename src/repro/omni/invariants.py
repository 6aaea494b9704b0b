"""Executable protocol invariants (paper section 4.2 and Appendix A).

These functions check, over a set of live :class:`SequencePaxos` replicas
(or OmniPaxosServers), the global invariants the paper's proof relies on.
They are used by the property-based test suite after every chaos step and
are handy in debugging sessions:

- **SC2 / prefix order** — decided logs across replicas are prefix-ordered.
- **P1** — a replica's accepted round never exceeds its promised round.
- **Single leader per round** — ballots are unique (LE3), so at most one
  replica may ever act as leader of a given round.
- **Decided within log** — the decided index never exceeds the log length.
- **Stop-sign position** — a stop-sign only ever sits at the end of a log.

Each check raises :class:`InvariantViolation` with a precise description,
or returns quietly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.errors import ReproError
from repro.omni.entry import is_stopsign
from repro.omni.sequence_paxos import SequencePaxos
from repro.omni.server import OmniPaxosServer


class InvariantViolation(ReproError):
    """A cross-replica protocol invariant does not hold."""


def _as_sequence_paxos(replicas: Iterable) -> List[SequencePaxos]:
    out = []
    for replica in replicas:
        if isinstance(replica, OmniPaxosServer):
            replica = replica.sp_of_current()
        if isinstance(replica, SequencePaxos):
            out.append(replica)
    return out


def check_decided_prefix_order(replicas: Iterable) -> None:
    """SC2: for any two replicas, one decided log is a prefix of the other.

    Compacted replicas are compared on the overlap that is still readable.
    """
    nodes = _as_sequence_paxos(replicas)
    views = []
    for node in nodes:
        lo = node.storage.compacted_idx()
        hi = node.decided_idx
        views.append((lo, node.storage.get_entries(lo, hi)))
    for i, (lo_a, log_a) in enumerate(views):
        for lo_b, log_b in views[i + 1:]:
            lo = max(lo_a, lo_b)
            a = log_a[lo - lo_a:]
            b = log_b[lo - lo_b:]
            overlap = min(len(a), len(b))
            if a[:overlap] != b[:overlap]:
                raise InvariantViolation(
                    f"decided logs disagree in [{lo}, {lo + overlap})"
                )


def check_promise_dominates_accepted(replicas: Iterable) -> None:
    """P1: a replica only accepts in rounds it has promised."""
    for node in _as_sequence_paxos(replicas):
        promised = node.storage.get_promise()
        accepted = node.storage.get_accepted_round()
        if accepted > promised:
            raise InvariantViolation(
                f"server {node.pid}: accepted round {accepted} exceeds "
                f"promise {promised}"
            )


def check_single_leader_per_round(replicas: Iterable) -> None:
    """LE3 consequence: two replicas never lead the same round."""
    leaders: Dict = {}
    for node in _as_sequence_paxos(replicas):
        if node.is_leader:
            round_n = node.current_round
            if round_n in leaders and leaders[round_n] != node.pid:
                raise InvariantViolation(
                    f"round {round_n} led by both {leaders[round_n]} "
                    f"and {node.pid}"
                )
            leaders[round_n] = node.pid
            if round_n.pid != node.pid:
                raise InvariantViolation(
                    f"server {node.pid} leads a round owned by {round_n.pid}"
                )


def check_decided_within_log(replicas: Iterable) -> None:
    """A decided index never runs past the log."""
    for node in _as_sequence_paxos(replicas):
        if node.decided_idx > node.log_len:
            raise InvariantViolation(
                f"server {node.pid}: decided {node.decided_idx} beyond "
                f"log length {node.log_len}"
            )


def check_stopsign_terminal(replicas: Iterable) -> None:
    """A stop-sign, if present, is the last entry of the log."""
    for node in _as_sequence_paxos(replicas):
        lo = node.storage.compacted_idx()
        entries = node.storage.get_entries(lo, node.log_len)
        for offset, entry in enumerate(entries[:-1]):
            if is_stopsign(entry):
                raise InvariantViolation(
                    f"server {node.pid}: stop-sign at {lo + offset} is not "
                    f"the final log entry"
                )


ALL_CHECKS = (
    check_decided_prefix_order,
    check_promise_dominates_accepted,
    check_single_leader_per_round,
    check_decided_within_log,
    check_stopsign_terminal,
)


def check_all(replicas: Iterable) -> None:
    """Run every invariant check; raises on the first violation."""
    replicas = list(replicas)
    for check in ALL_CHECKS:
        check(replicas)


class MonotonicityTracker:
    """Stateful invariants a single snapshot cannot see.

    :func:`check_all` inspects one instant; it cannot tell that a server's
    promise went *backwards* between two checks (LE3 ballot monotonicity),
    that a decided index regressed (fail-recovery: decided state is
    persistent), or that a round was led by two different servers at
    *different* times. Feed every snapshot of a run through
    :meth:`observe`; it raises :class:`InvariantViolation` on regression.

    A deliberately *wiped* restart (disk replaced) is allowed to regress —
    call :meth:`forget` for that server; the cross-time round-to-leader
    history is kept, since LE3 must hold across incarnations.
    """

    def __init__(self) -> None:
        self._promise: Dict[int, object] = {}
        self._decided: Dict[int, int] = {}
        self._round_leader: Dict[object, int] = {}

    def forget(self, pid: int) -> None:
        """Drop per-server monotonicity state after a wiped restart."""
        self._promise.pop(pid, None)
        self._decided.pop(pid, None)

    def observe(self, replicas: Iterable) -> None:
        """Check one snapshot against everything seen before it."""
        for node in _as_sequence_paxos(replicas):
            promised = node.storage.get_promise()
            prev = self._promise.get(node.pid)
            if prev is not None and promised < prev:
                raise InvariantViolation(
                    f"server {node.pid}: promise regressed from {prev} "
                    f"to {promised}"
                )
            self._promise[node.pid] = promised
            decided = node.decided_idx
            if decided < self._decided.get(node.pid, 0):
                raise InvariantViolation(
                    f"server {node.pid}: decided index regressed from "
                    f"{self._decided[node.pid]} to {decided}"
                )
            self._decided[node.pid] = decided
            if node.is_leader:
                round_n = node.current_round
                owner = self._round_leader.get(round_n)
                if owner is not None and owner != node.pid:
                    raise InvariantViolation(
                        f"round {round_n} led by {owner} earlier and "
                        f"{node.pid} now"
                    )
                self._round_leader[round_n] = node.pid
