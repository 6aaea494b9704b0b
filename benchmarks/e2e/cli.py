"""Command line of the benchmark.

``--workload NAME`` runs that workload in this process and ends with the
one-line JSON result ``BENCHMARK.json``'s contract asks for. Without it,
every workload runs in a child process of its own, one after another
(``--trace`` adds a traced run of each), and every metric is printed by
name with its unit. Both exit non-zero when the correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from .spec import (END_TO_END, PER_LAYER, WORKLOAD_BY_NAME, WORKLOADS, Plan)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space (WALs, span dumps, child results); ignored by git.
WORK = os.path.join(HERE, ".work")
DEFAULT_SECONDS = 12
QUICK_SECONDS = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per run (default "
                             f"{DEFAULT_SECONDS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: {QUICK_SECONDS} s, one set-up, "
                             "one sim partition instant")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the full result document")
    return parser


def main(argv: Optional[List[str]] = None,
         started: Optional[float] = None) -> int:
    started = time.perf_counter() if started is None else started
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from .compare import compare
        if len(argv) != 3:
            print("usage: benchmarks.e2e compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.workload is not None:
        return _run_one(args, started)
    return _run_all(args)


# -- one workload, in this process -------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, started: float) -> Dict[str, Any]:
    """Run one workload here; returns its run record."""
    workload = WORKLOAD_BY_NAME[name]
    plan = Plan.for_run(seconds, trace, quick)
    if workload.kind == "sim":
        from . import sim
        import_s = time.perf_counter() - started
        result = sim.run(seed, plan, trace)
    else:
        import asyncio
        from . import tcp
        import_s = time.perf_counter() - started
        workroot = os.path.join(WORK, f"run-{os.getpid()}")
        spans = (os.path.join(WORK, f"spans-{name}.jsonl") if trace
                 else None)
        os.makedirs(WORK, exist_ok=True)
        result = asyncio.run(
            tcp.run(workload, seed, plan, trace, workroot, spans))
    specs = PER_LAYER if trace else END_TO_END
    values = result["metrics"]
    if not trace:
        # Process start to measurement: imports, then the set-up median.
        values["setup_s"] += import_s
    result["detail"]["import_s"] = import_s
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": not result["problems"],
        "problems": result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        # A layer the workload does not exercise reads 0.
        "metrics": {m.name: {"value": values.get(m.name, 0.0),
                             "unit": m.unit} for m in specs},
        "detail": result["detail"],
    }


def _print_run(record: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  {kind}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.4f} {metric['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_share':<36} {share:>16.6f} ratio "
          f"({record['failed']} of {record['attempted']})")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  correctness check: "
          f"{'ok' if record['correct'] else 'FAILED'}", flush=True)


def _run_one(args: argparse.Namespace, started: float) -> int:
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick, started)
    _print_run(record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# -- every workload, each in a child process -----------------------------------------


def _run_all(args: argparse.Namespace) -> int:
    began = time.time()
    os.makedirs(WORK, exist_ok=True)
    runs: List[Dict[str, Any]] = []
    status = 0
    for workload in WORKLOADS:
        for repeat in range(args.repeat):
            for trace in ((0, 1) if args.trace else (0,)):
                path = os.path.join(
                    WORK, f"child-{os.getpid()}-{len(runs)}.json")
                command = [
                    sys.executable, "-m", "benchmarks.e2e",
                    "--workload", workload.name,
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", path,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, env=_child_env())
                try:
                    with open(path) as handle:
                        record = json.load(handle)
                    os.remove(path)
                except OSError:
                    print(f"{workload.name}: the run died with exit code "
                          f"{done.returncode}\n{done.stdout}")
                    status = 1
                    continue
                _print_run(record)
                runs.append(record)
                if not record["correct"]:
                    status = 1
    document = {
        "meta": {
            "seed": args.seed, "seconds": args.seconds,
            "repeat": args.repeat, "quick": args.quick,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "wall_s": time.time() - began,
        },
        "runs": runs,
    }
    print(f"ran {len(runs)} run(s) in {document['meta']['wall_s']:.1f} s; "
          f"correctness check: {'ok' if status == 0 else 'FAILED'}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return status


def _child_env() -> Dict[str, str]:
    """The child imports this package and ``repro`` the way we did."""
    root = os.path.dirname(os.path.dirname(HERE))
    paths = [os.path.join(root, "src"), root]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
