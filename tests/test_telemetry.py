"""Tests for :mod:`repro.telemetry` and its wiring through the stack.

The two load-bearing contracts (docs/observability.md):

* **telemetry never perturbs results** — pipeline output is
  bit-identical with telemetry enabled vs disabled on the serial,
  process-parallel and bounded monitor paths;
* **merging is deterministic** — worker snapshots fold into the same
  registry whatever order the workers finished in, including the
  non-commutative float ``total`` sums.

The rest covers the registry primitives (spans nest and survive
exceptions, snapshots round-trip through JSON exactly), the store
event bus, and the sweep-worker heartbeat files behind ``repro sweep
watch``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.experiments.report import render_sweep_watch
from repro.pipeline import Pipeline
from repro.store import RunSpec, RunStore
from repro.sweep import (
    WORKER_TELEMETRY_SCHEMA,
    SweepGrid,
    SweepWorker,
    read_worker_telemetry,
    worker_status,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled and empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_disabled_is_the_default_and_records_nothing(self):
        assert telemetry.enabled is False
        telemetry.count("a")
        telemetry.gauge("b", 3)
        telemetry.observe("c", 1.5)
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_counters_accumulate_and_gauges_overwrite(self):
        telemetry.enable()
        telemetry.count("packets", 10)
        telemetry.count("packets", 5)
        telemetry.gauge("backend", "fast")
        telemetry.gauge("backend", "reference")
        snap = telemetry.snapshot()
        assert snap["counters"] == {"packets": 15}
        assert snap["gauges"] == {"backend": "reference"}

    def test_histogram_buckets_by_power_of_two_magnitude(self):
        telemetry.enable()
        for value in (0.75, 1.5, 3.0, 0.0):
            telemetry.observe("sizes", value)
        hist = telemetry.snapshot()["histograms"]["sizes"]
        assert hist["count"] == 4
        assert hist["min"] == 0.0
        assert hist["max"] == 3.0
        # 0.75 -> exponent 0, 1.5 -> 1, 3.0 -> 2, 0.0 -> le0 sentinel.
        assert hist["buckets"] == {"le0": 1, "0": 1, "1": 1, "2": 1}

    def test_reset_clears_every_section(self):
        telemetry.enable()
        telemetry.count("a")
        telemetry.observe("b", 1.0)
        with telemetry.span("c"):
            pass
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["counters"] == snap["histograms"] == snap["spans"] == {}

    def test_use_telemetry_scopes_flag_and_registry(self):
        telemetry.enable()
        telemetry.count("outer")
        with telemetry.use_telemetry():
            assert telemetry.enabled
            telemetry.count("inner")
            assert "outer" not in telemetry.snapshot()["counters"]
        # Flag and prior registry contents restored on exit.
        assert telemetry.enabled
        snap = telemetry.snapshot()
        assert snap["counters"] == {"outer": 1}


class TestSpans:
    def test_disabled_span_is_a_shared_noop(self):
        first = telemetry.span("x")
        second = telemetry.span("y")
        assert first is second
        with first:
            pass
        assert telemetry.snapshot()["spans"] == {}

    def test_spans_nest_and_each_name_accumulates(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        spans = telemetry.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["inner"]["count"] == 2
        assert spans["outer"]["total"] >= spans["inner"]["total"]

    def test_span_records_on_exception_and_reraises(self):
        telemetry.enable()
        with pytest.raises(ValueError, match="boom"):
            with telemetry.span("failing"):
                raise ValueError("boom")
        spans = telemetry.snapshot()["spans"]
        assert spans["failing"]["count"] == 1
        assert spans["failing"]["min"] >= 0.0


# ----------------------------------------------------------------------
# Snapshots and deterministic merging
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_snapshot_round_trips_through_json_exactly(self):
        telemetry.enable()
        telemetry.count("packets", 12)
        telemetry.count("bytes", 4096)
        telemetry.gauge("backend", "fast")
        telemetry.gauge("jobs", 2)
        telemetry.observe("chunk", 1000.0)
        with telemetry.span("stage"):
            pass
        snap = telemetry.snapshot()
        assert snap["schema"] == telemetry.SCHEMA == "repro-telemetry/1"
        assert json.loads(json.dumps(snap)) == snap

    def test_section_keys_are_sorted(self):
        telemetry.enable()
        for name in ("zz", "aa", "mm"):
            telemetry.count(name)
        assert list(telemetry.snapshot()["counters"]) == ["aa", "mm", "zz"]


def _sample_snapshots() -> list[dict]:
    """Three worker-shaped snapshots with float span totals."""
    snaps = []
    for index, elapsed in enumerate((0.1, 0.2, 0.30000000000000004)):
        with telemetry.use_telemetry():
            telemetry.count("stream.chunks", index + 1)
            telemetry.gauge("parallel.jobs", index + 1)
            telemetry.observe("chunk.packets", 100.0 * (index + 1))
            telemetry.observe("span.like", elapsed)
            snaps.append(telemetry.snapshot())
    return snaps


class TestMergeDeterminism:
    def test_merge_is_order_independent(self):
        import itertools

        snaps = _sample_snapshots()
        reference = telemetry.merge_snapshots(snaps)
        for order in itertools.permutations(snaps):
            merged = telemetry.merge_snapshots(order)
            assert json.dumps(merged, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )
        assert reference["counters"]["stream.chunks"] == 6
        assert reference["gauges"]["parallel.jobs"] == 3
        assert reference["histograms"]["chunk.packets"]["count"] == 3

    def test_absorb_matches_merge_regardless_of_order(self):
        snaps = _sample_snapshots()
        outputs = []
        for order in (snaps, snaps[::-1], [snaps[1], snaps[2], snaps[0]]):
            with telemetry.use_telemetry():
                telemetry.absorb(order)
                outputs.append(json.dumps(telemetry.snapshot(), sort_keys=True))
        assert len(set(outputs)) == 1

    def test_absorb_folds_into_existing_registry(self):
        snaps = _sample_snapshots()
        with telemetry.use_telemetry():
            telemetry.count("stream.chunks", 10)
            telemetry.absorb(snaps)
            assert telemetry.snapshot()["counters"]["stream.chunks"] == 16

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_float_totals_merge_identically_under_any_permutation(self, values, seed):
        """The float ``total`` sum is folded in canonical order, so even
        permutations that change naive left-to-right float addition give
        the identical merged snapshot."""
        import random

        snaps = []
        for value in values:
            with telemetry.use_telemetry():
                telemetry.observe("d", value)
                snaps.append(telemetry.snapshot())
        reference = json.dumps(telemetry.merge_snapshots(snaps), sort_keys=True)
        shuffled = list(snaps)
        random.Random(seed).shuffle(shuffled)
        assert json.dumps(telemetry.merge_snapshots(shuffled), sort_keys=True) == reference


# ----------------------------------------------------------------------
# The flagship invariant: telemetry never perturbs results
# ----------------------------------------------------------------------
def _pipeline(trace, **kwargs) -> Pipeline:
    pipeline = (
        Pipeline()
        .with_trace(trace)
        .with_sampler("bernoulli", rate=0.1)
        .with_sampler("periodic", rate=0.1)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(2)
        .with_seed(11)
        .streaming(2048)
    )
    return pipeline


class TestBitIdentityOnVsOff:
    def test_serial_path(self, small_trace):
        baseline = _pipeline(small_trace).run(parallel="serial").to_dict()
        with telemetry.use_telemetry():
            instrumented = _pipeline(small_trace).run(parallel="serial").to_dict()
            snap = telemetry.snapshot()
        assert instrumented == baseline
        assert snap["counters"]["stream.chunks"] > 0
        assert snap["counters"]["stream.packets"] > 0
        assert "pipeline.execute" in snap["spans"]
        # Scoring is timed too, and unbounded runs record no evictions.
        assert {"stream.sample", "stream.account", "stream.score"} <= set(snap["spans"])
        assert "stream.evictions" not in snap["counters"]

    def test_process_path_merges_worker_snapshots(self, small_trace):
        baseline = _pipeline(small_trace).run(parallel="process", jobs=2).to_dict()
        with telemetry.use_telemetry():
            instrumented = (
                _pipeline(small_trace).run(parallel="process", jobs=2).to_dict()
            )
            snap = telemetry.snapshot()
        assert instrumented == baseline
        # The parent counts the chunks it ships; only the two workers fold
        # them, so their sampling spans and addressing gauge rode back
        # with the results.
        chunks = snap["counters"]["stream.chunks"]
        assert chunks > 0
        assert snap["spans"]["stream.sample"]["count"] == 2 * chunks
        assert snap["gauges"]["stream.addressing"] == "dense"
        assert snap["gauges"]["parallel.backend"] == "process"
        assert snap["gauges"]["parallel.jobs"] == 2

    def test_fused_monitor_path(self, small_trace):
        def build():
            return (
                Pipeline()
                .with_trace(small_trace)
                .with_sampler("bernoulli", rate=0.1)
                .with_bin_duration(60.0)
                .with_top(5)
                .with_runs(2)
                .with_seed(11)
                .with_monitor(max_flows=64)
                .streaming(2048)
            )

        baseline = build().run(parallel="serial").to_dict()
        with telemetry.use_telemetry():
            instrumented = build().run(parallel="serial").to_dict()
            snap = telemetry.snapshot()
        assert instrumented == baseline
        # Monitor runs share the plain fold's telemetry names.
        assert snap["counters"]["stream.chunks"] > 0
        assert "stream.evictions" in snap["counters"]
        assert {"stream.sample", "stream.account", "stream.score"} <= set(snap["spans"])
        assert not any(name.startswith("monitor.") for name in snap["counters"])

    def test_snapshot_never_reaches_the_store_key(self, tmp_path):
        """REP202: instrumenting a run cannot change where it is cached."""
        spec = RunSpec(
            samplers=("bernoulli:rate=0.5",),
            trace="sprint:duration=120,scale=0.002",
            num_runs=1,
            seed=0,
        )
        store = RunStore(tmp_path)
        key_off = store.key_of(spec)
        with telemetry.use_telemetry():
            key_on = store.key_of(spec)
        assert key_on == key_off


# ----------------------------------------------------------------------
# Store: event bus and counters
# ----------------------------------------------------------------------
class TestEventBus:
    def test_subscribe_emit_unsubscribe(self):
        bus = telemetry.EventBus()
        seen: list[tuple[str, str]] = []
        callback = bus.subscribe(lambda event, key: seen.append((event, key)))
        assert len(bus) == 1
        bus.emit("get.hit", "k1")
        bus.unsubscribe(callback)
        bus.emit("get.hit", "k2")
        assert seen == [("get.hit", "k1")]
        assert len(bus) == 0

    def test_multiple_subscribers_all_fire_in_order(self):
        bus = telemetry.EventBus()
        order: list[str] = []
        bus.subscribe(lambda event, key: order.append("first"))
        bus.subscribe(lambda event, key: order.append("second"))
        bus.emit("put.after-artifact", "k")
        assert order == ["first", "second"]

    def test_unsubscribe_unknown_callback_raises(self):
        bus = telemetry.EventBus()
        with pytest.raises(ValueError):
            bus.unsubscribe(lambda event, key: None)


class TestStoreTelemetry:
    @pytest.fixture()
    def store(self, tmp_path):
        return RunStore(tmp_path)

    SPEC = RunSpec(
        samplers=("bernoulli:rate=0.5",),
        trace="sprint:duration=120,scale=0.002",
        num_runs=1,
        seed=0,
    )

    def test_get_hit_miss_events_and_counters(self, store):
        events: list[tuple[str, str]] = []
        store.events.subscribe(lambda event, key: events.append((event, key)))
        with telemetry.use_telemetry():
            assert store.get(self.SPEC) is None
            store.put(self.SPEC, self.SPEC.execute())
            assert store.get(self.SPEC) is not None
            counters = telemetry.snapshot()["counters"]
        names = [event for event, _ in events]
        assert names == ["get.miss", "put.after-artifact", "get.hit"]
        assert counters["store.get.miss"] == 1
        assert counters["store.get.hit"] == 1
        assert counters["store.put"] == 1

    def test_lease_lifecycle_counters(self, store):
        with telemetry.use_telemetry():
            lease = store.claim(self.SPEC, "w0", ttl=30.0)
            assert lease is not None
            assert store.renew(lease, 30.0) is not None
            store.release(lease)
            counters = telemetry.snapshot()["counters"]
        assert counters["store.lease.claim"] == 1
        assert counters["store.lease.renew"] == 1
        assert counters["store.lease.release"] == 1

    def test_unsubscribed_store_callback_stops_firing(self, store):
        first: list[str] = []
        second: list[str] = []
        callback = store.events.subscribe(lambda event, key: first.append(event))
        store.events.unsubscribe(callback)
        store.events.subscribe(lambda event, key: second.append(event))
        store.get(self.SPEC)
        assert first == []
        assert second == ["get.miss"]

    def test_store_subscribers_coexist(self, store):
        seen_a: list[str] = []
        seen_b: list[str] = []
        store.events.subscribe(lambda event, key: seen_a.append(event))
        store.events.subscribe(lambda event, key: seen_b.append(event))
        store.get(self.SPEC)
        assert seen_a == ["get.miss"]
        assert seen_b == ["get.miss"]


# ----------------------------------------------------------------------
# Sweep workers: heartbeat telemetry files and the watch view
# ----------------------------------------------------------------------
GRID = SweepGrid(
    scenarios=("steady:duration=60,scale=0.002",),
    samplers=("bernoulli",),
    rates=(0.1, 0.5),
    seeds=(0,),
    num_runs=1,
)


class TestWorkerHeartbeats:
    def test_worker_writes_schema_stable_heartbeat(self, tmp_path):
        store = RunStore(tmp_path)
        worker = SweepWorker(GRID, store, "w0")
        report = worker.run()
        assert len(report.executed) == report.total
        payload = json.loads(worker.telemetry_path().read_text())
        assert payload["schema"] == WORKER_TELEMETRY_SCHEMA
        assert payload["owner"] == "w0"
        assert payload["cells_done"] == 2
        assert payload["cells_per_s"] is None or payload["cells_per_s"] > 0

    def test_read_worker_telemetry_sorts_and_filters(self, tmp_path):
        store = RunStore(tmp_path)
        for owner in ("w1", "w0"):
            SweepWorker(GRID, store, owner).run()
        (store.root / "telemetry" / "junk.json").write_text("not json")
        (store.root / "telemetry" / "other.json").write_text('{"schema": "other"}')
        rows = read_worker_telemetry(store)
        assert [row["owner"] for row in rows] == ["w0", "w1"]

    def test_worker_status_exposes_workers_and_cache_hits(self, tmp_path):
        store = RunStore(tmp_path)
        SweepWorker(GRID, store, "w0").run()
        # A second worker over the full grid sees every cell cached.
        SweepWorker(GRID, store, "w1").run()
        status = worker_status(GRID, store)
        workers = status["workers"]
        assert [row["owner"] for row in workers] == ["w0", "w1"]
        assert workers[0]["cache_hits"] == 0
        assert workers[1]["cache_hits"] == 2
        rendered = render_sweep_watch(status)
        assert "workers:" in rendered
        assert "cells/s" in rendered
        assert "w0" in rendered and "w1" in rendered

    def test_watch_renders_without_heartbeats(self, tmp_path):
        store = RunStore(tmp_path)
        status = worker_status(GRID, store)
        rendered = render_sweep_watch(status)
        assert "workers:" not in rendered
        assert f"sweep: 0/{len(GRID.cells())} done" in rendered
