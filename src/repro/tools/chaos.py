"""CLI: deterministic chaos runs, replay, shrinking, and the CI smoke.

::

    repro-chaos run --seed 7 --protocol omni --out schedule.json
    repro-chaos replay schedule.json --obs export.jsonl
    repro-chaos shrink failing.json --out minimal.json
    repro-chaos smoke --seeds 5 --artifacts-dir chaos-artifacts

``run`` generates the seed's schedule, executes it, and prints the
verdict plus the bit-stable digests (schedule + decided log) that make
determinism checkable from the shell: running the same seed twice must
print identical lines. ``replay`` executes an emitted schedule file
byte-identically. ``shrink`` ddmins a failing schedule to a minimal
reproducer. ``smoke`` sweeps fixed seeds across protocols for CI; on any
violation it writes the schedule + obs export into an artifacts dir and
exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.chaos.engine import ChaosResult, run_schedule
from repro.chaos.generator import generate_schedule
from repro.chaos.schedule import ChaosSchedule, describe_op
from repro.chaos.shrink import shrink_schedule
from repro.obs.exporters import JsonLinesSink
from repro.obs.registry import MetricsRegistry
from repro.sim.geo import GEO_MAPS
from repro.sim.harness import PROTOCOLS

#: Protocols the CI smoke sweeps (all of them).
SMOKE_PROTOCOLS = PROTOCOLS


def _run_exporting(schedule: ChaosSchedule, path, **kwargs) -> ChaosResult:
    """Run ``schedule``; given a ``path``, trace the run and export its
    events and closing metrics snapshot there as JSON-lines."""
    if path is None:
        return run_schedule(schedule, **kwargs)
    reg = MetricsRegistry()
    reg.enable_tracing()
    sink = JsonLinesSink(path)
    reg.add_sink(sink)
    try:
        return run_schedule(schedule, obs=reg, **kwargs)
    finally:
        sink.close(reg)


def _print_result(schedule: ChaosSchedule, result: ChaosResult,
                  verbose: bool) -> None:
    if verbose:
        for op in schedule.ops:
            print(f"  {describe_op(op)}")
    for key, value in sorted(result.to_dict().items()):
        if key in ("per_server_decided", "messages"):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}={value}")


def cmd_run(args) -> int:
    schedule = generate_schedule(
        seed=args.seed,
        protocol=args.protocol,
        num_servers=args.servers,
        duration_ms=args.duration_ms,
        num_ops=args.ops,
        election_timeout_ms=args.election_timeout_ms,
        allow_wipe=args.allow_wipe,
        geo=args.geo,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(schedule.to_json() + "\n")
    result = _run_exporting(schedule, args.obs)
    _print_result(schedule, result, args.verbose)
    return 0 if result.ok else 1


def cmd_replay(args) -> int:
    with open(args.schedule) as fh:
        schedule = ChaosSchedule.from_json(fh.read())
    result = _run_exporting(schedule, args.obs)
    _print_result(schedule, result, args.verbose)
    return 0 if result.ok else 1


def cmd_shrink(args) -> int:
    with open(args.schedule) as fh:
        schedule = ChaosSchedule.from_json(fh.read())
    if run_schedule(schedule).ok:
        print("schedule does not reproduce a violation; nothing to shrink",
              file=sys.stderr)
        return 2
    shrunk, runs = shrink_schedule(schedule, max_runs=args.max_runs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(shrunk.to_json() + "\n")
    print(f"shrunk {len(schedule.ops)} -> {len(shrunk.ops)} ops "
          f"in {runs} runs")
    for op in shrunk.ops:
        print(f"  {describe_op(op)}")
    result = _run_exporting(shrunk, args.obs)
    _print_result(shrunk, result, verbose=False)
    return 0


def cmd_smoke(args) -> int:
    failures = 0
    protocols = args.protocols or list(SMOKE_PROTOCOLS)
    for protocol in protocols:
        for seed in range(args.seed_base, args.seed_base + args.seeds):
            schedule = generate_schedule(
                seed=seed,
                protocol=protocol,
                num_servers=args.servers,
                duration_ms=args.duration_ms,
                num_ops=args.ops,
                election_timeout_ms=args.election_timeout_ms,
                # Wipes violate the fail-recovery model on purpose; the
                # smoke asserts the *model-conforming* faults are safe.
                allow_wipe=False,
                geo=args.geo,
            )
            result = run_schedule(schedule)
            status = "ok" if result.ok else "VIOLATION"
            print(f"{protocol} seed={seed} {status} "
                  f"decided={result.decided_len} "
                  f"digest={result.decided_digest}")
            if not result.ok:
                failures += 1
                print(f"  {result.violation} at t={result.violation_at_ms}",
                      file=sys.stderr)
                if args.artifacts_dir:
                    os.makedirs(args.artifacts_dir, exist_ok=True)
                    base = os.path.join(
                        args.artifacts_dir, f"{protocol}-seed{seed}"
                    )
                    with open(base + ".schedule.json", "w") as fh:
                        fh.write(schedule.to_json() + "\n")
                    # Re-run with an enabled registry so the artifact
                    # includes the full event export (deterministic
                    # replay) plus the flight-recorder dump of the final
                    # moments before the violation.
                    _run_exporting(schedule, base + ".events.jsonl",
                                   flight_path=base + ".flight.jsonl")
    if failures:
        print(f"{failures} failing schedule(s)", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Deterministic chaos engine: run, replay, shrink, smoke.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_gen: bool) -> None:
        p.add_argument("--obs", default=None,
                       help="write a JSON-lines obs export here")
        p.add_argument("--verbose", action="store_true",
                       help="also list the fault ops")
        if with_gen:
            p.add_argument("--protocol", choices=PROTOCOLS, default="omni")
            p.add_argument("--servers", type=int, default=3)
            p.add_argument("--duration-ms", type=float, default=20_000.0)
            p.add_argument("--ops", type=int, default=10)
            p.add_argument("--election-timeout-ms", type=float, default=100.0)
            p.add_argument("--geo", choices=sorted(GEO_MAPS), default=None,
                           help="run inside a named geo latency environment")

    p_run = sub.add_parser("run", help="generate a seed's schedule and run it")
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--out", default=None,
                       help="write the generated schedule JSON here")
    p_run.add_argument("--allow-wipe", action="store_true",
                       help="permit wiped restarts (violates fail-recovery)")
    add_common(p_run, with_gen=True)

    p_replay = sub.add_parser("replay", help="run an emitted schedule file")
    p_replay.add_argument("schedule")
    add_common(p_replay, with_gen=False)

    p_shrink = sub.add_parser("shrink",
                              help="ddmin a failing schedule to a minimum")
    p_shrink.add_argument("schedule")
    p_shrink.add_argument("--out", default=None)
    p_shrink.add_argument("--max-runs", type=int, default=200)
    add_common(p_shrink, with_gen=False)

    p_smoke = sub.add_parser(
        "smoke", help="fixed-seed sweep across protocols (CI)"
    )
    p_smoke.add_argument("--seeds", type=int, default=3,
                         help="schedules per protocol")
    p_smoke.add_argument("--seed-base", type=int, default=100)
    p_smoke.add_argument("--protocols", nargs="*", choices=PROTOCOLS,
                         default=None)
    p_smoke.add_argument("--servers", type=int, default=3)
    p_smoke.add_argument("--duration-ms", type=float, default=8_000.0)
    p_smoke.add_argument("--ops", type=int, default=6)
    p_smoke.add_argument("--election-timeout-ms", type=float, default=100.0)
    p_smoke.add_argument("--geo", choices=sorted(GEO_MAPS), default=None,
                         help="sweep inside a named geo latency environment")
    p_smoke.add_argument("--artifacts-dir", default=None,
                         help="write failing schedules + exports here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "replay": cmd_replay,
        "shrink": cmd_shrink,
        "smoke": cmd_smoke,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
