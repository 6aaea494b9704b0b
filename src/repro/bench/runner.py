"""The decided-log digest and JSON plumbing shared by the gate's benches.

Every bench returns a plain dict of *deterministic* counters — values
that must be identical across two runs with the same seed (event and
message counts, decided-log digests). The gate's document is
``{"counters": {"<section>.<bench>": counters}}``, the shape of
``benchmarks/bench_baseline.json``. Nothing here reads a clock:
``benchmarks/e2e`` is the only thing that times this program.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict


class LogDigest:
    """Incremental decided-log digest, one lane per server.

    Feed every ``(pid, idx, entry)`` the cluster decides; the final
    :meth:`hexdigest` is a stable fingerprint of *what* each server decided
    and in *which order* — byte-identical behaviour gives byte-identical
    digests, no matter how long the run took in wall-clock.
    """

    def __init__(self) -> None:
        self._lanes: Dict[int, "hashlib._Hash"] = {}

    def record(self, pid: int, idx: int, entry: Any) -> None:
        lane = self._lanes.get(pid)
        if lane is None:
            lane = self._lanes[pid] = hashlib.sha256()
        lane.update(f"{idx}:{entry!r};".encode())

    def hexdigest(self) -> str:
        outer = hashlib.sha256()
        for pid in sorted(self._lanes):
            outer.update(f"{pid}={self._lanes[pid].hexdigest()};".encode())
        return outer.hexdigest()


def save_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
