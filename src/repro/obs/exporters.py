"""Pluggable exporters for the observability layer.

Two sinks cover the evaluation workflows:

- :class:`MemorySink` — in-memory event store with the filters tests and
  benchmarks need (by kind, by time window),
- :class:`JsonLinesSink` — streams events to a ``.jsonl`` file and appends
  a metrics snapshot on close; :func:`read_jsonl` round-trips the file for
  the ``repro-obs`` report CLI.

Sinks implement a single method ``record(EventRecord)`` — anything with
that shape can be registered via ``MetricsRegistry.add_sink``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.obs.events import EventRecord, event_from_dict, event_to_dict
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class MemorySink:
    """Keeps every event record in memory for querying."""

    def __init__(self) -> None:
        self.records: List[EventRecord] = []

    def record(self, record: EventRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct event kinds observed, in first-seen order."""
        return tuple(dict.fromkeys(r.event.kind for r in self.records))

    def by_kind(self, kind: str) -> List[EventRecord]:
        return [r for r in self.records if r.event.kind == kind]

    def between(self, start_ms: float, end_ms: float) -> List[EventRecord]:
        """Records with ``start_ms <= at_ms < end_ms``."""
        return [r for r in self.records if start_ms <= r.at_ms < end_ms]

    def clear(self) -> None:
        self.records.clear()


class JsonLinesSink:
    """Streams events to a JSON-lines file, one ``{"t": "event", ...}`` per
    line; :meth:`write_snapshot` appends ``{"t": "metric", ...}`` lines so
    one file holds a run's full observability state."""

    def __init__(self, destination: Union[str, IO[str]]):
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = destination
            self._owns = False

    def record(self, record: EventRecord) -> None:
        payload = event_to_dict(record)
        payload["t"] = "event"
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")

    def write_snapshot(self, registry: MetricsRegistry) -> None:
        """Append one line per instrument with its current value."""
        for line in metrics_snapshot(registry):
            self._fh.write(json.dumps(line, sort_keys=True) + "\n")

    def close(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Optionally snapshot ``registry``, then flush (and close the file
        if this sink opened it)."""
        if registry is not None:
            self.write_snapshot(registry)
        self._fh.flush()
        if self._owns:
            self._fh.close()


def metrics_snapshot(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """JSON-safe dicts for every instrument in ``registry``."""
    out: List[Dict[str, Any]] = []
    for metric in registry.metrics():
        base = {
            "t": "metric",
            "name": metric.name,
            "labels": dict(metric.labels),
        }
        if isinstance(metric, Counter):
            base.update(metric="counter", value=metric.value)
        elif isinstance(metric, Gauge):
            base.update(metric="gauge", value=metric.value)
        elif isinstance(metric, Histogram):
            base.update(
                metric="histogram",
                count=metric.count,
                sum=metric.sum,
                buckets=[
                    ["+Inf" if bound == float("inf") else bound, count]
                    for bound, count in metric.nonempty_buckets()
                ],
            )
        else:  # pragma: no cover - future instrument types
            continue
        out.append(base)
    return out


def read_jsonl(
    source: Union[str, IO[str], Iterable[str]],
) -> Tuple[List[EventRecord], List[Dict[str, Any]]]:
    """Parse a JSON-lines export back into ``(events, metric dicts)``."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    events: List[EventRecord] = []
    metrics: List[Dict[str, Any]] = []
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"line {lineno} is not valid JSON ({exc.msg}); "
                "the export looks truncated or corrupt"
            ) from None
        if not isinstance(payload, dict):
            raise ConfigError(
                f"line {lineno} is not a JSON object; "
                "the export looks corrupt"
            )
        tag = payload.pop("t", "event")
        if tag == "event":
            events.append(event_from_dict(payload))
        elif tag == "metric":
            metrics.append(payload)
        else:
            raise ConfigError(f"unknown JSON-lines record tag {tag!r}")
    return events, metrics
