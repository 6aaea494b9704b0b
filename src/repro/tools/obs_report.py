"""CLI: summarize and reconstruct exported observability streams.

``repro-obs`` has six subcommands over a JSON-lines export (see
:class:`repro.obs.exporters.JsonLinesSink`)::

    repro-obs report run.jsonl --window-ms 5000     # paper-style summary
    repro-obs timeline run.jsonl --width 72         # ASCII scenario Gantt
    repro-obs spans run.jsonl --kind commit         # reconstructed spans
    repro-obs watch run.jsonl --at-ms 3000          # health dashboard
    repro-obs series run.jsonl --window-ms 250      # sparkline lanes
    repro-obs diff a.jsonl b.jsonl                  # regression verdicts

The numbers match the harness's own trackers exactly: both the report
and the timeline feed the exported ``ClientReplyDecided`` timestamps
through the same :class:`~repro.sim.metrics.DecidedTracker` the
benchmarks use. ``diff`` exits non-zero when any metric family regressed.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError
from repro.obs.exporters import read_jsonl
from repro.obs.report import summarize_run
from repro.obs.series import (diff_series, render_diff, series_from_events,
                              series_lanes)
from repro.obs.spans import SPAN_KINDS, assemble_spans
from repro.obs.timeline import render_spans, render_timeline
from repro.obs.watch import watch_export


def _add_window_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="path to the .jsonl export")
    parser.add_argument("--start-ms", type=float, default=None,
                        help="observation start (default: first event)")
    parser.add_argument("--end-ms", type=float, default=None,
                        help="observation end (default: last event)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Summarize or reconstruct a JSON-lines observability "
                    "export.",
    )
    sub = parser.add_subparsers(dest="command")

    report = sub.add_parser(
        "report", help="per-window throughput / down-time / IO summary")
    _add_window_args(report)
    report.add_argument("--window-ms", type=float, default=5000.0,
                        help="window size for the decided series (paper: 5 s)")

    timeline = sub.add_parser(
        "timeline", help="ASCII Gantt: leader tenure, QC flags, down-time")
    _add_window_args(timeline)
    timeline.add_argument("--width", type=int, default=60,
                          help="timeline width in columns")
    timeline.add_argument("--settle-ms", type=float, default=500.0,
                          help="quiet gap that separates election episodes")

    spans = sub.add_parser(
        "spans", help="reconstructed spans as Gantt bars with percentiles")
    spans.add_argument("path", help="path to the .jsonl export")
    spans.add_argument("--width", type=int, default=60,
                       help="bar width in columns")
    spans.add_argument("--limit", type=int, default=30,
                       help="max bars per span kind")
    spans.add_argument("--kind", action="append", choices=SPAN_KINDS,
                       help="only these span kinds (repeatable)")
    spans.add_argument("--settle-ms", type=float, default=500.0,
                       help="quiet gap that separates election episodes")

    watch = sub.add_parser(
        "watch", help="health dashboard: connectivity matrix, leader lane, "
                      "lag, gray failures")
    watch.add_argument("path", help="path to the .jsonl export")
    watch.add_argument("--at-ms", type=float, default=None,
                       help="render the state as of this time "
                            "(default: end of export)")
    watch.add_argument("--stale-after-ms", type=float, default=None,
                       help="mark reporters silent for this long as stale")

    series = sub.add_parser(
        "series", help="windowed time series as sparkline lanes "
                       "(throughput, commit percentiles, queue backlog)")
    series.add_argument("path", help="path to the .jsonl export")
    series.add_argument("--window-ms", type=float, default=250.0,
                        help="window width (must match across runs "
                             "you intend to diff)")
    series.add_argument("--family", action="append", default=None,
                        help="only these metric families (repeatable; "
                             "default: an automatic selection)")

    diff = sub.add_parser(
        "diff", help="align two exports window-by-window and judge every "
                     "metric family (regressed/improved/unchanged); exits "
                     "non-zero on any regression")
    diff.add_argument("before", help="baseline .jsonl export")
    diff.add_argument("after", help="candidate .jsonl export")
    diff.add_argument("--window-ms", type=float, default=250.0,
                      help="window width used to build both series")
    diff.add_argument("--threshold", type=float, default=0.10,
                      help="relative change beyond which a family's mean "
                           "counts as regressed/improved")
    return parser


def _load(path: str):
    """``(events, metrics)`` or ``None`` after printing the error."""
    try:
        return read_jsonl(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
    return None


def _bounds_inverted(args) -> bool:
    if (args.start_ms is not None and args.end_ms is not None
            and args.start_ms >= args.end_ms):
        print("--start-ms must be before --end-ms", file=sys.stderr)
        return True
    return False


def _cmd_report(args) -> int:
    if args.window_ms <= 0:
        print("--window-ms must be positive", file=sys.stderr)
        return 2
    if _bounds_inverted(args):
        return 2
    loaded = _load(args.path)
    if loaded is None:
        return 1
    events, metrics = loaded
    if not events and not metrics:
        print(f"{args.path}: export is empty — no events or metrics found "
              "(was the run captured with an enabled registry?)",
              file=sys.stderr)
        return 1
    try:
        report = summarize_run(
            events,
            metrics,
            window_ms=args.window_ms,
            start_ms=args.start_ms,
            end_ms=args.end_ms,
        )
    except ConfigError as exc:  # e.g. one-sided bound past the event span
        print(str(exc), file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _cmd_timeline(args) -> int:
    if args.width < 10:
        print("--width must be at least 10", file=sys.stderr)
        return 2
    if _bounds_inverted(args):
        return 2
    loaded = _load(args.path)
    if loaded is None:
        return 1
    events, _metrics = loaded
    if not events:
        print(f"{args.path}: no events found", file=sys.stderr)
        return 1
    spans = assemble_spans(events, settle_ms=args.settle_ms)
    print(render_timeline(
        events,
        width=args.width,
        start_ms=args.start_ms,
        end_ms=args.end_ms,
        spans=spans,
    ))
    return 0


def _cmd_spans(args) -> int:
    if args.width < 10:
        print("--width must be at least 10", file=sys.stderr)
        return 2
    if args.limit < 0:
        print("--limit must not be negative", file=sys.stderr)
        return 2
    loaded = _load(args.path)
    if loaded is None:
        return 1
    events, _metrics = loaded
    spans = assemble_spans(events, settle_ms=args.settle_ms)
    if not spans:
        print(f"{args.path}: no spans could be reconstructed "
              "(was tracing enabled?)", file=sys.stderr)
        return 1
    print(render_spans(spans, width=args.width, limit=args.limit,
                       kinds=args.kind))
    return 0


def _cmd_watch(args) -> int:
    loaded = _load(args.path)
    if loaded is None:
        return 1
    events, _metrics = loaded
    try:
        print(watch_export(events, at_ms=args.at_ms,
                           stale_after_ms=args.stale_after_ms))
    except ConfigError as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_series(args) -> int:
    if args.window_ms <= 0:
        print("--window-ms must be positive", file=sys.stderr)
        return 2
    loaded = _load(args.path)
    if loaded is None:
        return 1
    events, _metrics = loaded
    if not events:
        print(f"{args.path}: no events found", file=sys.stderr)
        return 1
    windows = series_from_events(events, window_ms=args.window_ms)
    if not windows:
        print(f"{args.path}: not enough history for one "
              f"{args.window_ms:g} ms window", file=sys.stderr)
        return 1
    known = sorted({family for w in windows for family in w.values})
    for family in args.family or ():
        if family not in known:
            print(f"--family {family}: not in this export, which has "
                  f"{', '.join(known)}", file=sys.stderr)
            return 2
    print(f"{len(windows)} windows x {args.window_ms:g} ms "
          f"[{windows[0].start_ms:.0f} .. {windows[-1].end_ms:.0f} ms]")
    for line in series_lanes(windows, families=args.family):
        print(line)
    return 0


def _cmd_diff(args) -> int:
    if args.window_ms <= 0:
        print("--window-ms must be positive", file=sys.stderr)
        return 2
    if args.threshold < 0:
        print("--threshold must not be negative", file=sys.stderr)
        return 2
    series = []
    for path in (args.before, args.after):
        loaded = _load(path)
        if loaded is None:
            return 1
        events, _metrics = loaded
        windows = series_from_events(events, window_ms=args.window_ms)
        if not windows:
            print(f"{path}: not enough history for one "
                  f"{args.window_ms:g} ms window", file=sys.stderr)
            return 1
        series.append(windows)
    diff = diff_series(series[0], series[1], threshold=args.threshold)
    for line in render_diff(diff):
        print(line)
    return 1 if diff.verdict == "regressed" else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    handler = {
        "report": _cmd_report,
        "timeline": _cmd_timeline,
        "spans": _cmd_spans,
        "watch": _cmd_watch,
        "series": _cmd_series,
        "diff": _cmd_diff,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)
