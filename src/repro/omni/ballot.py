"""Ballots: the totally-ordered round identifiers of Omni-Paxos.

A ballot is the triple ``(n, priority, pid)`` compared lexicographically.
``n`` is the monotonically increasing round counter, ``priority`` is the
optional custom tie-breaking field ``c`` described in paper section 5.2
("the ballot can be extended with a custom field c such that b = (s, c,
pid)"), and ``pid`` is the unique server id which makes every ballot unique
(property LE3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, slots=True)
class Ballot:
    """A totally-ordered, unique round identifier.

    Ordering is ``(n, priority, pid)`` lexicographic, which gives:

    - monotonicity in ``n`` — a higher round always wins,
    - priority tie-breaking between candidates in the same round,
    - uniqueness via ``pid`` (no two servers share a pid).
    """

    n: int = 0
    priority: int = 0
    pid: int = 0

    def bump(self, beyond: "Ballot") -> "Ballot":
        """Return this server's next ballot that outranks ``beyond``.

        Used by BLE when a server attempts to take over leadership: it must
        propose a round number strictly greater than the current leader's.
        The priority and pid are preserved.
        """
        return Ballot(n=max(self.n, beyond.n) + 1, priority=self.priority, pid=self.pid)

    def with_priority(self, priority: int) -> "Ballot":
        """Return a copy with a different tie-breaking priority."""
        return Ballot(n=self.n, priority=priority, pid=self.pid)

    def __str__(self) -> str:
        return f"b(n={self.n},c={self.priority},pid={self.pid})"


#: The bottom ballot: smaller than every ballot a real server can hold
#: (real server pids are >= 1).
BOTTOM = Ballot(0, 0, 0)


@dataclass(frozen=True, slots=True)
class QCBallot:
    """A ballot paired with the sender's quorum-connected flag.

    This is exactly what BLE heartbeats carry (paper section 5.2): "The
    heartbeat of a server consists of its ballot number and a flag indicating
    if it is quorum-connected."
    """

    ballot: Ballot
    quorum_connected: bool = field(default=True)
