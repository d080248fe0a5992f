"""Process-local telemetry: counters, gauges, histograms and timing spans.

The pipeline's whole subject is *measuring* a packet stream accurately,
yet until this module the reproduction itself was a black box: the only
observable number was the wall time of a whole run.  ``repro.telemetry``
gives every layer a place to record what it did — chunks assembled,
packets accounted, cache hits, lease renewals, per-stage time — without
ever influencing what it computes:

* **Counters** (:func:`count`) accumulate monotonically increasing
  totals (``"executor.packets"``, ``"store.get.hit"``).
* **Gauges** (:func:`gauge`) record a last-known value
  (``"source.buffer_capacity"``, ``"source.assembly_backend"``).
* **Histograms** (:func:`observe`) bucket observations by power-of-two
  magnitude so merging is a plain bucket-count sum.
* **Spans** (:func:`span`) time named stages
  (``span("source.assemble")``, ``span("flows.groupby")``) as context
  managers that record on exit even when the body raises.

Zero-overhead off-switch
------------------------
The module-level :data:`enabled` flag is the *only* state hot paths
consult; instrumented loops guard with a single attribute check::

    if telemetry.enabled:
        telemetry.count("executor.chunks")

and :func:`span` returns a shared no-op context manager while disabled,
so the disabled cost is one boolean attribute read per chunk — gated
below 3% of a representative per-chunk workload by the benchmark
harness (``BENCH_pipeline.json``, ``telemetry`` section).

Two invariants, both enforced by tests:

* telemetry never perturbs results — pipeline output is bit-identical
  with telemetry enabled vs disabled on the serial, process and bounded
  monitor paths;
* telemetry never enters a :class:`~repro.store.RunSpec` or a store
  cache key (the REP202 cache-key purity contract).

Snapshots and deterministic merging
-----------------------------------
:func:`snapshot` exports the registry as a schema-stable, JSON-safe
dict (``{"schema": "repro-telemetry/1", "counters": ..., "gauges":
..., "histograms": ..., "spans": ...}`` with sorted keys).  Worker
processes ship their snapshot back with their results;
:func:`merge_snapshots` first orders the inputs by canonical JSON and
then folds them, so the merged registry is identical whatever order
the workers finished in — property-tested in
``tests/test_telemetry.py``.

>>> with use_telemetry():
...     count("doc.events", 2)
...     with span("doc.stage"):
...         gauge("doc.backend", "fast")
...     snap = snapshot()
>>> snap["counters"]
{'doc.events': 2}
>>> snap["spans"]["doc.stage"]["count"]
1
>>> enabled
False

The :class:`EventBus` at the bottom is the multi-subscriber
``(event, key)`` bus :class:`~repro.store.RunStore` publishes its
lifecycle events on (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from threading import Lock
from types import TracebackType

#: Version tag of the :func:`snapshot` JSON layout.  Consumers assert
#: on it; bump only with a documented migration in
#: ``docs/observability.md``.
SCHEMA = "repro-telemetry/1"

#: The off-switch.  ``False`` (the default) makes every instrumentation
#: point a single attribute check; flip through :func:`enable` /
#: :func:`disable` / :func:`use_telemetry`, not by assignment, so the
#: registry is reset consistently.
enabled: bool = False

#: Guards every registry mutation.  Only the enabled path ever takes
#: it; the pipeline's worker *processes* each have their own module
#: state, but the lease-heartbeat *thread* shares the sweep worker's.
_lock = Lock()

_counters: dict[str, int | float] = {}
_gauges: dict[str, int | float | str] = {}
_histograms: dict[str, "_Distribution"] = {}
_spans: dict[str, "_Distribution"] = {}


class _Distribution:
    """Running stats of one histogram or span: count/total/min/max + buckets.

    Buckets are keyed by integer exponent ``e``: bucket ``e`` counts
    values in ``(2**(e-1), 2**e]`` (non-positive values land in the
    sentinel bucket ``"le0"``).  All fields merge commutatively except
    the float ``total``, which is why :func:`merge_snapshots`
    canonicalises the fold order.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[str, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        key = "le0" if value <= 0 else str(math.frexp(value)[1])
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def to_dict(self) -> dict[str, object]:
        def bucket_order(key: str) -> tuple[int, int]:
            return (0, 0) if key == "le0" else (1, int(key))

        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {key: self.buckets[key] for key in sorted(self.buckets, key=bucket_order)},
        }

    def merge_dict(self, data: Mapping[str, object]) -> None:
        raw_count = data.get("count")
        other_count = int(raw_count) if isinstance(raw_count, (int, float)) else 0
        if other_count == 0:
            return
        self.count += other_count
        raw_total = data.get("total")
        if isinstance(raw_total, (int, float)):
            self.total += float(raw_total)
        raw_min = data.get("min")
        if isinstance(raw_min, (int, float)):
            self.min = min(self.min, float(raw_min))
        raw_max = data.get("max")
        if isinstance(raw_max, (int, float)):
            self.max = max(self.max, float(raw_max))
        buckets = data.get("buckets", {})
        if isinstance(buckets, Mapping):
            for key, value in buckets.items():
                if isinstance(value, (int, float)):
                    self.buckets[str(key)] = self.buckets.get(str(key), 0) + int(value)


# ----------------------------------------------------------------------
# Switch
# ----------------------------------------------------------------------
def enable(*, reset: bool = True) -> None:
    """Turn telemetry on (optionally keeping already-recorded data)."""
    global enabled
    if reset:
        _reset_registry()
    enabled = True


def disable() -> None:
    """Turn telemetry off.  Recorded data stays until :func:`reset`."""
    global enabled
    enabled = False


def reset() -> None:
    """Drop every recorded counter, gauge, histogram and span."""
    _reset_registry()


def _reset_registry() -> None:
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        _spans.clear()


@contextmanager
def use_telemetry(on: bool = True) -> Iterator[None]:
    """Scope the enabled flag (and isolate the registry) for a block.

    On entry the registry is cleared and the flag set to ``on``; on exit
    both the flag and the previous registry contents are restored, so
    tests and the CLI can instrument a run without leaking state.

    >>> import repro.telemetry as telemetry
    >>> with use_telemetry():
    ...     telemetry.enabled
    True
    >>> telemetry.enabled
    False
    """
    global enabled
    previous_enabled = enabled
    with _lock:
        saved = (dict(_counters), dict(_gauges), dict(_histograms), dict(_spans))
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        _spans.clear()
    enabled = on
    try:
        yield
    finally:
        enabled = previous_enabled
        with _lock:
            _counters.clear()
            _gauges.clear()
            _histograms.clear()
            _spans.clear()
            _counters.update(saved[0])
            _gauges.update(saved[1])
            _histograms.update(saved[2])
            _spans.update(saved[3])


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def count(name: str, value: int | float = 1) -> None:
    """Add ``value`` to the named counter (no-op while disabled)."""
    if not enabled:
        return
    with _lock:
        _counters[name] = _counters.get(name, 0) + value


def gauge(name: str, value: int | float | str) -> None:
    """Record the last-known value of a quantity (no-op while disabled)."""
    if not enabled:
        return
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Add one observation to the named histogram (no-op while disabled)."""
    if not enabled:
        return
    with _lock:
        distribution = _histograms.get(name)
        if distribution is None:
            distribution = _histograms[name] = _Distribution()
        distribution.add(float(value))


class _SpanTimer:
    """Live timing span; records its duration on exit, even on raise."""

    __slots__ = ("_name", "_start")

    def __init__(self, name: str) -> None:
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()  # reprolint: disable=wall-clock -- span durations are observability output, never results or cache keys
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = time.perf_counter() - self._start  # reprolint: disable=wall-clock -- span durations are observability output, never results or cache keys
        with _lock:
            distribution = _spans.get(self._name)
            if distribution is None:
                distribution = _spans[self._name] = _Distribution()
            distribution.add(elapsed)
        return False


class _NoOpSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NOOP_SPAN = _NoOpSpan()


def span(name: str) -> _SpanTimer | _NoOpSpan:
    """A context manager timing the named stage.

    While telemetry is disabled this returns a shared no-op object, so
    ``with span(...)`` costs one attribute check plus two trivial
    method calls.  Spans nest freely (each name accumulates its own
    stats) and the duration is recorded even when the body raises.
    """
    if not enabled:
        return _NOOP_SPAN
    return _SpanTimer(name)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def snapshot() -> dict[str, object]:
    """Export the registry as a schema-stable, JSON-safe dict.

    Keys of every section are sorted, values are plain ints, floats and
    strings, and the layout is versioned by the top-level ``"schema"``
    tag — ``json.loads(json.dumps(snapshot()))`` round-trips exactly.
    """
    with _lock:
        return {
            "schema": SCHEMA,
            "counters": {key: _counters[key] for key in sorted(_counters)},
            "gauges": {key: _gauges[key] for key in sorted(_gauges)},
            "histograms": {key: _histograms[key].to_dict() for key in sorted(_histograms)},
            "spans": {key: _spans[key].to_dict() for key in sorted(_spans)},
        }


def _merge_section_counters(
    into: dict[str, int | float], data: Mapping[str, object]
) -> None:
    for key in sorted(data):
        value = data[key]
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value


def _merge_section_gauges(
    into: dict[str, int | float | str], data: Mapping[str, object]
) -> None:
    # Gauge merging must be commutative for worker-order determinism:
    # numbers keep the maximum, strings the lexicographic maximum, and
    # mixed types resolve by comparing string renderings.
    for key in sorted(data):
        value = data[key]
        if not isinstance(value, (int, float, str)):
            continue
        current = into.get(key)
        if current is None:
            into[key] = value
        elif isinstance(current, str) or isinstance(value, str):
            into[key] = max(str(current), str(value))
        else:
            into[key] = max(current, value)


def _merge_section_distributions(
    into: dict[str, _Distribution], data: Mapping[str, object]
) -> None:
    for key in sorted(data):
        value = data[key]
        if not isinstance(value, Mapping):
            continue
        distribution = into.get(key)
        if distribution is None:
            distribution = into[key] = _Distribution()
        distribution.merge_dict(value)


def _canonical_order(snapshots: Iterable[Mapping[str, object]]) -> list[Mapping[str, object]]:
    """Order-insensitive canonicalisation: sort by canonical JSON."""
    return sorted(snapshots, key=lambda snap: json.dumps(snap, sort_keys=True))


def merge_snapshots(snapshots: Iterable[Mapping[str, object]]) -> dict[str, object]:
    """Merge worker snapshots into one, independent of input order.

    Counters and bucket counts sum, gauges keep their (lexicographic)
    maximum, distribution mins/maxes combine; the float ``total`` sums
    are made order-independent by folding in canonical-JSON order.
    """
    counters: dict[str, int | float] = {}
    gauges: dict[str, int | float | str] = {}
    histograms: dict[str, _Distribution] = {}
    spans: dict[str, _Distribution] = {}
    for snap in _canonical_order(snapshots):
        counter_section = snap.get("counters", {})
        if isinstance(counter_section, Mapping):
            _merge_section_counters(counters, counter_section)
        gauge_section = snap.get("gauges", {})
        if isinstance(gauge_section, Mapping):
            _merge_section_gauges(gauges, gauge_section)
        histogram_section = snap.get("histograms", {})
        if isinstance(histogram_section, Mapping):
            _merge_section_distributions(histograms, histogram_section)
        span_section = snap.get("spans", {})
        if isinstance(span_section, Mapping):
            _merge_section_distributions(spans, span_section)
    return {
        "schema": SCHEMA,
        "counters": {key: counters[key] for key in sorted(counters)},
        "gauges": {key: gauges[key] for key in sorted(gauges)},
        "histograms": {key: histograms[key].to_dict() for key in sorted(histograms)},
        "spans": {key: spans[key].to_dict() for key in sorted(spans)},
    }


def absorb(snapshots: Iterable[Mapping[str, object]]) -> None:
    """Fold worker snapshots into the live registry, deterministically.

    The inputs are canonicalised exactly as in :func:`merge_snapshots`,
    so the parent registry ends up identical whatever order the worker
    processes delivered their snapshots in.  No-op while disabled.
    """
    if not enabled:
        return
    ordered = _canonical_order(snapshots)
    with _lock:
        for snap in ordered:
            counter_section = snap.get("counters", {})
            if isinstance(counter_section, Mapping):
                _merge_section_counters(_counters, counter_section)
            gauge_section = snap.get("gauges", {})
            if isinstance(gauge_section, Mapping):
                _merge_section_gauges(_gauges, gauge_section)
            histogram_section = snap.get("histograms", {})
            if isinstance(histogram_section, Mapping):
                _merge_section_distributions(_histograms, histogram_section)
            span_section = snap.get("spans", {})
            if isinstance(span_section, Mapping):
                _merge_section_distributions(_spans, span_section)


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class EventBus:
    """Multi-subscriber ``(event, key)`` callback bus.

    Any number of observers (fault-injection plans, telemetry adapters,
    progress reporters) subscribe concurrently and none clobbers the
    others.  Subscribers are invoked synchronously, in subscription
    order, on the emitting thread.

    >>> bus = EventBus()
    >>> seen = []
    >>> callback = bus.subscribe(lambda event, key: seen.append((event, key)))
    >>> bus.emit("put.after-artifact", "abc123")
    >>> seen
    [('put.after-artifact', 'abc123')]
    >>> bus.unsubscribe(callback)
    >>> bus.emit("put.after-artifact", "def456")
    >>> seen
    [('put.after-artifact', 'abc123')]
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: list[Callable[[str, str], None]] = []

    def subscribe(self, callback: Callable[[str, str], None]) -> Callable[[str, str], None]:
        """Register ``callback`` and return it (handy for one-liners)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[str, str], None]) -> None:
        """Remove a subscriber; raises ``ValueError`` if not subscribed."""
        self._subscribers.remove(callback)

    def emit(self, event: str, key: str) -> None:
        """Invoke every subscriber with ``(event, key)``, in order."""
        for callback in tuple(self._subscribers):
            callback(event, key)

    def __len__(self) -> int:
        return len(self._subscribers)


__all__ = [
    "SCHEMA",
    "enabled",
    "enable",
    "disable",
    "reset",
    "use_telemetry",
    "count",
    "gauge",
    "observe",
    "span",
    "snapshot",
    "merge_snapshots",
    "absorb",
    "EventBus",
]
