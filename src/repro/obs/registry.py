"""MetricsRegistry: counters, gauges, HDR-style histograms, event fan-out.

One registry instance observes one run. Both harnesses publish into it —
the deterministic simulator (clock = virtual ``EventQueue.now``) and the
live asyncio runtime (clock = ``loop.time()`` in ms) — so a sim experiment
and a localhost cluster produce directly comparable streams.

Design constraints:

- **Zero overhead when disabled.** Components default to the shared
  :data:`NULL_REGISTRY` whose ``enabled`` is ``False``; every emission site
  is guarded by that one attribute read. The null registry's mutating
  methods are no-ops, so accidentally instrumenting it is harmless.
- **Deterministic.** Instruments are plain dicts keyed by
  ``(name, sorted labels)``; iteration order is insertion order, so
  exporter output is reproducible for seeded runs.
- **Cheap instruments.** ``counter()/gauge()/histogram()`` return live
  handles; hot paths should fetch the handle once and call ``inc()`` on it.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.events import EventRecord, ProtocolEvent

LabelKey = Tuple[Tuple[str, Any], ...]
MetricKey = Tuple[str, LabelKey]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (current ballot, QC flag, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


def _default_bounds() -> Tuple[float, ...]:
    """HDR-style bucket upper bounds: every power of two from 2^-4 (0.0625)
    to 2^24 (~16.7 M) split into 4 linear sub-buckets — ~12% relative error
    over 8+ decades, 113 buckets. Good enough for latencies in ms and
    durations in ms alike."""
    bounds: List[float] = []
    for exp in range(-4, 24):
        base = 2.0 ** exp
        step = base / 4.0
        for sub in range(1, 5):
            bounds.append(base + step * sub)
    return tuple(bounds)


_HDR_BOUNDS = _default_bounds()


class Histogram:
    """A fixed-bucket histogram with HDR-style geometric bounds."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 bounds: Tuple[float, ...] = _HDR_BOUNDS):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (bucket upper bound), q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                break
        return self.max if self.max is not None else 0.0

    def nonempty_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` for buckets with observations
        (``float('inf')`` for the overflow bucket)."""
        out = []
        for i, n in enumerate(self.bucket_counts):
            if n:
                bound = self.bounds[i] if i < len(self.bounds) else float("inf")
                out.append((bound, n))
        return out


def _wall_clock_ms() -> float:
    return time.monotonic() * 1000.0


class MetricsRegistry:
    """The per-run observability hub: metrics plus event fan-out."""

    #: Emission sites are guarded by this flag; the null registry is the
    #: only one where it is False.
    enabled: bool = True
    #: Opt-in high-volume tracing (commit-path, recovery, client-batch
    #: events plus TraceContext stamping on envelopes). Class-level
    #: default False so hot-path guards ``if self._obs.tracing:`` cost a
    #: single attribute read and tracing-only work vanishes by default —
    #: the same zero-overhead contract as ``enabled``.
    tracing: bool = False

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock: Callable[[], float] = clock or _wall_clock_ms
        self._metrics: Dict[MetricKey, Any] = {}
        self._sinks: List[Any] = []

    # -- tracing -------------------------------------------------------------

    def enable_tracing(self) -> None:
        """Turn on causal tracing (span events + envelope trace stamping)."""
        self.tracing = True

    def disable_tracing(self) -> None:
        self.tracing = False

    # -- clock ---------------------------------------------------------------

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Set the time source stamped onto emitted events (ms). The sim
        harness wires the virtual queue clock; the runtime wires the event
        loop clock."""
        self._clock = clock

    def now_ms(self) -> float:
        return self._clock()

    # -- instruments ---------------------------------------------------------

    def _instrument(self, factory, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        found = self._metrics.get(key)
        if found is None:
            found = factory(name, key[1])
            self._metrics[key] = found
        return found

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._instrument(Histogram, name, labels)

    def metrics(self) -> Iterable[Any]:
        """Every instrument, in creation order."""
        return list(self._metrics.values())

    def counter_value(self, name: str, **labels: Any) -> float:
        """Convenience read: the counter's value, 0.0 if never touched."""
        found = self._metrics.get((name, _label_key(labels)))
        return found.value if found is not None else 0.0

    def sum_counter(self, name: str) -> float:
        """Sum of a counter over all label sets (e.g. total decided)."""
        return sum(
            m.value for m in self._metrics.values()
            if isinstance(m, Counter) and m.name == name
        )

    # -- events --------------------------------------------------------------

    def add_sink(self, sink: Any) -> None:
        """Register a sink; it receives ``record(EventRecord)`` calls."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    @property
    def sinks(self) -> Tuple[Any, ...]:
        return tuple(self._sinks)

    def emit(self, event: ProtocolEvent) -> None:
        """Stamp ``event`` with the clock and fan it out to every sink."""
        record = EventRecord(at_ms=self._clock(), event=event)
        for sink in self._sinks:
            sink.record(record)


class _NullRegistry(MetricsRegistry):
    """The shared disabled registry: every operation is a no-op.

    It is a singleton handed to every :class:`Instrumented` component by
    default, so all mutating methods must be side-effect free — otherwise
    one experiment's instruments would leak into the next.
    """

    enabled = False
    tracing = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def set_clock(self, clock: Callable[[], float]) -> None:
        pass

    def enable_tracing(self) -> None:
        pass  # the shared null registry must never start emitting

    def add_sink(self, sink: Any) -> None:
        pass

    def emit(self, event: ProtocolEvent) -> None:
        pass

    def _instrument(self, factory, name: str, labels: Dict[str, Any]):
        # Hand out throwaway instruments so accidental use is harmless.
        return factory(name, _label_key(labels))


#: The shared disabled registry (``enabled`` is False).
NULL_REGISTRY: MetricsRegistry = _NullRegistry()


class Instrumented:
    """Mixin giving a component an observability registry.

    The default is the class-level :data:`NULL_REGISTRY` — no per-instance
    cost, no ``__init__`` changes needed. Emission sites guard with
    ``if self._obs.enabled:``, or — on the hottest paths — with the cached
    ``if self._obs_on:``, which makes the disabled case cost exactly one
    attribute read. The cache is sound because ``enabled`` is fixed per
    registry (``True`` for real registries, ``False`` only for the null
    singleton); it is refreshed on every :meth:`set_observability`.
    Components that own sub-components override :meth:`_on_observability`
    to propagate the registry.
    """

    _obs: MetricsRegistry = NULL_REGISTRY
    #: Cached ``registry.enabled`` — the single attribute check hot paths
    #: pay when observability is off (class default matches NULL_REGISTRY).
    _obs_on: bool = False

    @property
    def obs(self) -> MetricsRegistry:
        return self._obs

    def set_observability(self, registry: MetricsRegistry) -> None:
        self._obs = registry
        self._obs_on = registry.enabled
        self._on_observability(registry)

    def _on_observability(self, registry: MetricsRegistry) -> None:
        """Hook for propagating the registry to owned sub-components."""
