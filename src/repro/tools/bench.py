"""``repro-bench``: the hot-path benchmark and regression CLI.

Subcommands::

    repro-bench run      --out bench.json [--budget default] [--trace]
    repro-bench verify   [--budget smoke]          # determinism double-run
    repro-bench compare  --before a.json --after b.json --out BENCH_PR4.json
    repro-bench smoke    --baseline benchmarks/bench_baseline.json

``run`` executes the micro + macro suites and writes one JSON document.
``verify`` runs everything twice with the same seed and fails unless every
deterministic counter (event/message/decided counts, decided-log digests)
matches — the check that optimizations are behaviour-preserving.
``compare`` merges a before/after pair into a single document with
per-bench speedups and the cross-document behaviour check.
``smoke`` is the CI entry point: a tiny-budget run diffed against the
committed counter baseline (catching silent behaviour drift), with
``--write-baseline`` to refresh the baseline intentionally.

See ``docs/PERFORMANCE.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Tuple

from repro.bench.macro import run_macro_suite, run_runtime_suite
from repro.bench.micro import run_micro_suite
from repro.bench.runner import (
    BUDGETS,
    bench_meta,
    compare_results,
    deterministic_view,
    load_json,
    save_json,
)

SECTIONS = ("micro", "macro", "runtime")


def _run_document(budget_name: str, seed: int, trace: bool = False,
                  sections: Tuple[str, ...] = SECTIONS) -> Dict[str, Any]:
    budget = BUDGETS[budget_name]
    doc: Dict[str, Any] = {"meta": bench_meta(budget_name, seed)}
    if "micro" in sections:
        doc["micro"] = run_micro_suite(budget, seed=seed)
    if "macro" in sections:
        doc["macro"] = run_macro_suite(budget, seed=seed, trace=trace)
    if "runtime" in sections:
        doc["runtime"] = run_runtime_suite(budget, seed=seed)
    return doc


def _print_summary(doc: Dict[str, Any]) -> None:
    for section in SECTIONS:
        for name, result in doc.get(section, {}).items():
            line = (f"{section:>7s}  {name:<16s} "
                    f"{result['ops_per_sec']:>12,.0f} ops/s "
                    f"({result['wall_s']:.3f}s)")
            if "decided_per_virtual_s" in result:
                line += f"  decided/s(virtual)={result['decided_per_virtual_s']:,.0f}"
            print(line)


def cmd_run(args: argparse.Namespace) -> int:
    if getattr(args, "uvloop", False):
        from repro.runtime import install_uvloop
        print(f"uvloop: {'installed' if install_uvloop() else 'unavailable'}")
    sections = (tuple(s.strip() for s in args.sections.split(","))
                if args.sections else SECTIONS)
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        print(f"unknown sections: {', '.join(unknown)} "
              f"(choose from {', '.join(SECTIONS)})")
        return 2
    doc = _run_document(args.budget, args.seed, trace=args.trace,
                        sections=sections)
    _print_summary(doc)
    if args.out:
        save_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    first = _run_document(args.budget, args.seed)
    second = _run_document(args.budget, args.seed)
    a, b = deterministic_view(first), deterministic_view(second)
    mismatches = sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))
    if mismatches:
        print("DETERMINISM FAILURE: counters drifted between identical runs")
        for name in mismatches:
            print(f"  {name}:\n    run1={a.get(name)}\n    run2={b.get(name)}")
        return 1
    print(f"determinism OK: {len(a)} benches, all counters and "
          "decided-log digests identical across two runs")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    before = load_json(args.before)
    after = load_json(args.after)
    comparison = compare_results(before, after)
    doc = {
        "meta": {
            "before": before.get("meta", {}),
            "after": after.get("meta", {}),
        },
        "before": {k: before[k] for k in SECTIONS if k in before},
        "after": {k: after[k] for k in SECTIONS if k in after},
        "comparison": comparison,
    }
    for name, ratio in sorted(comparison["speedup"].items()):
        print(f"{name:<24s} {ratio:5.2f}x")
    for name, entry in sorted(comparison.get("phase_attribution",
                                             {}).items()):
        for phase, delta in entry["phases"].items():
            if delta["verdict"] == "unchanged":
                continue
            print(f"{name}: phase {phase} {delta['verdict']} "
                  f"({delta['before_mean_ms']:g} -> "
                  f"{delta['after_mean_ms']:g} ms, "
                  f"{delta['change']:+.1%})")
        dominant = entry.get("dominant_regressed_phase")
        if dominant:
            print(f"{name}: dominant regressed phase: {dominant}")
    if comparison["behaviour_identical"]:
        print("behaviour check OK: deterministic counters and decided-log "
              "digests identical before/after")
    else:
        print("behaviour check FAILED; mismatched counters:")
        for name in comparison["counter_mismatches"]:
            print(f"  {name}")
    if args.out:
        save_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0 if comparison["behaviour_identical"] else 1


def cmd_smoke(args: argparse.Namespace) -> int:
    doc = _run_document("smoke", args.seed)
    _print_summary(doc)
    if args.out:
        save_json(args.out, doc)
        print(f"wrote {args.out}")
    view = deterministic_view(doc)
    if args.write_baseline:
        save_json(args.baseline, {"counters": view})
        print(f"wrote baseline {args.baseline}")
        return 0
    baseline = load_json(args.baseline)["counters"]
    mismatches = sorted(
        n for n in set(view) | set(baseline)
        if view.get(n) != baseline.get(n)
    )
    if mismatches:
        print("BASELINE DRIFT: deterministic counters differ from "
              f"{args.baseline}")
        for name in mismatches:
            print(f"  {name}:\n    baseline={baseline.get(name)}"
                  f"\n    current ={view.get(name)}")
        print("If the behaviour change is intentional, refresh with "
              "`repro-bench smoke --write-baseline`.")
        return 1
    print(f"baseline OK: {len(view)} benches match {args.baseline}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Deterministic hot-path benchmarks for the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run",
                           help="run the micro + macro + runtime suites")
    run_p.add_argument("--out", default=None, help="write JSON document here")
    run_p.add_argument("--budget", choices=sorted(BUDGETS), default="default")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--trace", action="store_true",
                       help="enable causal tracing for the macro runs "
                            "(adds a per-phase commit breakdown; slower)")
    run_p.add_argument("--sections", default=None,
                       help="comma-separated subset of "
                            f"{{{','.join(SECTIONS)}}} to run")
    run_p.add_argument("--uvloop", action="store_true",
                       help="install uvloop's loop policy first (no-op "
                            "when the package is absent)")
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser(
        "verify", help="double-run determinism check (same seed twice)")
    verify_p.add_argument("--budget", choices=sorted(BUDGETS),
                          default="smoke")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.set_defaults(func=cmd_verify)

    cmp_p = sub.add_parser(
        "compare", help="merge before/after runs with speedups")
    cmp_p.add_argument("--before", required=True)
    cmp_p.add_argument("--after", required=True)
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=cmd_compare)

    smoke_p = sub.add_parser(
        "smoke", help="tiny-budget run diffed against a counter baseline")
    smoke_p.add_argument("--baseline",
                         default="benchmarks/bench_baseline.json")
    smoke_p.add_argument("--out", default=None)
    smoke_p.add_argument("--seed", type=int, default=0)
    smoke_p.add_argument("--write-baseline", action="store_true",
                         help="refresh the baseline instead of diffing")
    smoke_p.set_defaults(func=cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
