"""``repro-bench``: the behaviour-identity gate.

Subcommands::

    repro-bench smoke    [--baseline benchmarks/bench_baseline.json]
                         [--out counters.json] [--write-baseline]
    repro-bench verify   [--seed 0]                # determinism double-run

Both run the same fixed-size suite (:mod:`repro.bench`): six micro
benches, all five sim protocols and both runtime protocols over live TCP.
``smoke`` is the CI entry point: it diffs every deterministic counter
(event/message/decided counts, decided-log digests) against the committed
baseline, catching silent behaviour drift; ``--write-baseline`` refreshes
the baseline after an intentional change. ``verify`` runs everything
twice with the same seed and fails unless every counter matches.

Nothing here is timed — ``benchmarks/e2e`` measures performance. See
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict

from repro.bench.macro import run_macro_suite, run_runtime_suite
from repro.bench.micro import run_micro_suite
from repro.bench.runner import load_json, save_json


def run_gate(seed: int = 0) -> Dict[str, Dict[str, Any]]:
    """Every bench's counters, keyed ``"<section>.<bench>"``."""
    suites = {"micro": run_micro_suite, "macro": run_macro_suite,
              "runtime": run_runtime_suite}
    return {f"{section}.{name}": counters
            for section, suite in suites.items()
            for name, counters in suite(seed).items()}


def _print_mismatches(a: Dict[str, Any], b: Dict[str, Any],
                      a_label: str, b_label: str) -> None:
    for name in sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n)):
        print(f"  {name}:\n    {a_label}={a.get(name)}"
              f"\n    {b_label}={b.get(name)}")


def cmd_verify(args: argparse.Namespace) -> int:
    first, second = run_gate(args.seed), run_gate(args.seed)
    if first != second:
        print("DETERMINISM FAILURE: counters drifted between identical runs")
        _print_mismatches(first, second, "run1", "run2")
        return 1
    print(f"determinism OK: {len(first)} benches, all counters and "
          "decided-log digests identical across two runs")
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    view = run_gate()
    if args.out:
        save_json(args.out, {"counters": view})
        print(f"wrote {args.out}")
    if args.write_baseline:
        save_json(args.baseline, {"counters": view})
        print(f"wrote baseline {args.baseline}")
        return 0
    baseline = load_json(args.baseline)["counters"]
    if view != baseline:
        print("BASELINE DRIFT: deterministic counters differ from "
              f"{args.baseline}")
        _print_mismatches(baseline, view, "baseline", "current ")
        print("If the behaviour change is intentional, refresh with "
              "`repro-bench smoke --write-baseline`.")
        return 1
    print(f"baseline OK: {len(view)} benches match {args.baseline}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Behaviour-identity gate: deterministic counters and "
                    "decided-log digests of the sim and the TCP runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    smoke_p = sub.add_parser(
        "smoke", help="run the suite and diff it against a counter baseline")
    smoke_p.add_argument("--baseline",
                         default="benchmarks/bench_baseline.json")
    smoke_p.add_argument("--out", default=None,
                         help="also write this run's counters here")
    smoke_p.add_argument("--write-baseline", action="store_true",
                         help="refresh the baseline instead of diffing")
    smoke_p.set_defaults(func=cmd_smoke)

    verify_p = sub.add_parser(
        "verify", help="double-run determinism check (same seed twice)")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
