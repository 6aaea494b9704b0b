"""Timing, budgets, and JSON plumbing shared by the micro/macro benches.

Every bench result is a plain dict so the whole suite serializes straight
to ``BENCH_*.json``::

    {
      "name": "event_queue",
      "wall_s": 0.412,
      "ops": 400000,
      "ops_per_sec": 970873.8,
      "counters": {"events_processed": 400000}
    }

``counters`` holds only *deterministic* quantities — values that must be
identical across two runs with the same seed and budget. ``wall_s`` /
``ops_per_sec`` are the only fields allowed to differ.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

#: Named budgets scale every bench; "smoke" is sized for CI seconds.
BUDGETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "event_queue_events": 20_000,
        "network_sends": 10_000,
        "commit_batches": 40,
        "commit_batch_entries": 32,
        "codec_frames": 2_000,
        "macro_duration_ms": 1_000.0,
        "macro_cp": 32,
        "macro_protocols": ("omni", "raft"),
        "runtime_entries": 400,
        "runtime_payload_bytes": 16,
        "runtime_protocols": ("omni",),
    },
    "default": {
        "event_queue_events": 200_000,
        "network_sends": 150_000,
        "commit_batches": 300,
        "commit_batch_entries": 64,
        "codec_frames": 20_000,
        "macro_duration_ms": 4_000.0,
        "macro_cp": 64,
        "macro_protocols": ("omni", "raft", "raft_pvcq", "multipaxos", "vr"),
        "runtime_entries": 5_000,
        "runtime_payload_bytes": 16,
        "runtime_protocols": ("omni", "raft"),
    },
    "full": {
        "event_queue_events": 1_000_000,
        "network_sends": 600_000,
        "commit_batches": 1_200,
        "commit_batch_entries": 64,
        "codec_frames": 100_000,
        "macro_duration_ms": 15_000.0,
        "macro_cp": 128,
        "macro_protocols": ("omni", "raft", "raft_pvcq", "multipaxos", "vr"),
        "runtime_entries": 20_000,
        "runtime_payload_bytes": 16,
        "runtime_protocols": ("omni", "raft"),
    },
}


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once; return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def make_result(name: str, wall_s: float, ops: int,
                counters: Dict[str, Any],
                extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble one bench's result dict (see module docstring)."""
    out: Dict[str, Any] = {
        "name": name,
        "wall_s": round(wall_s, 6),
        "ops": ops,
        "ops_per_sec": round(ops / wall_s, 1) if wall_s > 0 else 0.0,
        "counters": counters,
    }
    if extra:
        out.update(extra)
    return out


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


def bench_meta(budget: str, seed: int) -> Dict[str, Any]:
    """Provenance block stamped into every bench document."""
    return {
        "budget": budget,
        "seed": seed,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def deterministic_view(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Strip a bench document down to its deterministic counters.

    This is what the CI smoke job diffs against the committed baseline:
    ``{bench_name: counters}`` with all timing fields removed.
    """
    out: Dict[str, Any] = {}
    for section in ("micro", "macro", "runtime"):
        for name, result in sorted(doc.get(section, {}).items()):
            out[f"{section}.{name}"] = dict(result.get("counters", {}))
    return out


#: Counters that are deterministic *within* one build (so the CI smoke job
#: still diffs them against its committed baseline) but depend on the wire
#: encoding rather than on protocol behaviour: frame byte counts change
#: whenever the codec changes how a value is laid out (e.g. a new varint
#: fast path or value tag). Cross-version before/after comparisons ignore
#: them; decided-log digests and frame *counts* remain authoritative.
INFORMATIONAL_COUNTERS = frozenset({"frame_bytes", "stream_bytes"})


def compare_phases(before: Dict[str, Any], after: Dict[str, Any],
                   threshold: float = 0.10) -> Dict[str, Any]:
    """Attribute a macro-bench latency change to commit phases.

    Both documents must carry ``phases`` blocks on their macro results
    (``repro-bench run --trace``); benches without them are skipped, so an
    untraced comparison just yields ``{}``. For every common phase whose
    mean moved beyond ``threshold`` the entry records the direction, and
    ``dominant`` names the phase with the largest absolute mean increase —
    the answer to "*which phase* regressed", not just the end-to-end wall.
    """
    out: Dict[str, Any] = {}
    for name, b in before.get("macro", {}).items():
        a = after.get("macro", {}).get(name)
        if a is None or "phases" not in b or "phases" not in a:
            continue
        deltas: Dict[str, Any] = {}
        dominant = None
        dominant_gain = 0.0
        for phase in sorted(set(b["phases"]) & set(a["phases"])):
            b_mean = b["phases"][phase]["mean_ms"]
            a_mean = a["phases"][phase]["mean_ms"]
            change = (a_mean - b_mean) / max(abs(b_mean), 1e-9)
            verdict = ("regressed" if change > threshold
                       else "improved" if change < -threshold
                       else "unchanged")
            deltas[phase] = {
                "before_mean_ms": b_mean,
                "after_mean_ms": a_mean,
                "change": round(change, 3),
                "verdict": verdict,
            }
            gain = a_mean - b_mean
            if verdict == "regressed" and gain > dominant_gain:
                dominant_gain, dominant = gain, phase
        entry: Dict[str, Any] = {"phases": deltas}
        if dominant is not None:
            entry["dominant_regressed_phase"] = dominant
        out[f"macro.{name}"] = entry
    return out


def compare_results(before: Dict[str, Any],
                    after: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two bench documents into a before/after comparison.

    Speedups are ``after.ops_per_sec / before.ops_per_sec`` per bench.
    ``behaviour_identical`` is True only when every deterministic counter
    (including decided-log digests) matches between the two documents —
    the harness's proof that an optimization did not change protocol
    behaviour. Counters in :data:`INFORMATIONAL_COUNTERS` are excluded:
    they track the wire encoding, not the protocol. When both documents
    carry traced ``phases`` blocks, ``phase_attribution`` (see
    :func:`compare_phases`) localizes any macro latency change to the
    commit phase that moved.
    """
    speedup: Dict[str, float] = {}
    for section in ("micro", "macro", "runtime"):
        for name, b in before.get(section, {}).items():
            a = after.get(section, {}).get(name)
            if a is None or not b.get("ops_per_sec"):
                continue
            speedup[f"{section}.{name}"] = round(
                a["ops_per_sec"] / b["ops_per_sec"], 3)
    def _behavioural(det: Dict[str, Any]) -> Dict[str, Any]:
        return {
            name: {k: v for k, v in counters.items()
                   if k not in INFORMATIONAL_COUNTERS}
            for name, counters in det.items()
        }

    b_det = _behavioural(deterministic_view(before))
    a_det = _behavioural(deterministic_view(after))
    mismatches = sorted(
        name for name in set(b_det) | set(a_det)
        if b_det.get(name) != a_det.get(name)
    )
    return {
        "speedup": speedup,
        "behaviour_identical": not mismatches,
        "counter_mismatches": mismatches,
        "phase_attribution": compare_phases(before, after),
    }


def save_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)
