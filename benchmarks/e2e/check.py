"""The correctness gate: what was decided must be right before any
number is worth printing. Every function returns the list of problems it
found (empty = correct); a non-empty list fails the run."""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.chaos.checker import DecidedLogChecker
from repro.omni.storage import FileStorage


def check_decided(streams: Dict[int, List[Any]],
                  gaps: Sequence[Tuple[int, int, int]],
                  acked: Dict[int, List[int]],
                  was_proposed) -> List[str]:
    """Prefix agreement, no gaps, only proposed entries (through
    :class:`~repro.chaos.checker.DecidedLogChecker`), and every
    acknowledged ``seq`` exactly once in the acknowledging node's stream."""
    problems = [
        f"server {pid} reported decided index {idx} when {expected} was next"
        for pid, idx, expected in gaps[:5]
    ]
    checker = DecidedLogChecker(was_proposed=was_proposed)
    for pid, stream in streams.items():
        for idx, entry in enumerate(stream):
            checker.observe(pid, idx, entry, 0.0)
        if not checker.ok:
            break
    if not checker.ok:
        problems.append(str(checker.violation))
    for pid, seqs in acked.items():
        seen = Counter(getattr(entry, "seq", None) for entry in streams[pid])
        wrong = [seq for seq in seqs if seen[seq] != 1]
        if wrong:
            problems.append(
                f"server {pid} acknowledged {len(wrong)} operation(s) that "
                f"are not exactly once in its decided stream (first: seq "
                f"{wrong[0]}, seen {seen[wrong[0]]} times)")
    return problems


def check_wals(wal_paths: Sequence[str], acked: Dict[int, List[int]]
               ) -> Tuple[List[str], List[float]]:
    """Re-open each WAL with a fresh ``FileStorage``: the replayed log
    must contain every acknowledged entry. Also returns how long each
    replay took."""
    problems: List[str] = []
    replay_s: List[float] = []
    acknowledged = {seq for seqs in acked.values() for seq in seqs}
    for path in wal_paths:
        started = perf_counter()
        storage = FileStorage(path)
        replay_s.append(perf_counter() - started)
        try:
            entries = storage.get_entries(0, storage.log_len())
        finally:
            storage.close()
        missing = acknowledged - {getattr(e, "seq", None) for e in entries}
        if missing:
            problems.append(
                f"{path}: replay lost {len(missing)} acknowledged "
                f"operation(s) (first: seq {min(missing)})")
    return problems, replay_s
