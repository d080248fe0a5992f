"""Stream lanes: the in-process backend folds a large plan's cells on more than one thread.

``ExecutionPlan.execute`` splits an in-process run of at least
``_LANE_MIN_WORK`` packet-cells into lanes of at least
``_LANE_MIN_STREAMS`` cells, one per usable CPU up to ``_MAX_LANES``;
the calling thread is lane 0 and hands every chunk to the other lanes.
The tests pin the usable CPUs to 2 and drop the work floor (so the
lanes run on any host, one CPU included, over the suite's small traces)
and hold three things: the lanes' results equal one ``run_stream`` over
every cell, the stream is counted once however many lanes or workers
fold it, and no lane thread outlives the call, however it ends.  Runs
that might hang go through :func:`_within`, so a hand-off that blocks
fails the test instead of stalling the suite.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.pipeline import Pipeline
from repro.pipeline import parallel as parallel_module
from repro.pipeline.executor import run_stream
from repro.pipeline.parallel import _LANE_MIN_STREAMS, _LANE_MIN_WORK, _MAX_LANES, _build_samplers
from repro.sampling import BernoulliSampler

#: Seconds a run may take before the test calls it hung.
HANG_LIMIT_S = 60.0


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and no work floor: any plan of twice the lane floor splits."""
    monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)


def _lane_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name.startswith("stream-lane")]


def _within(call, seconds: float = HANG_LIMIT_S):
    """``call()`` on a watchdog thread: its value or error, or a failure if it hangs."""
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = call()
        except BaseException as error:  # noqa: BLE001 - re-raised on the test thread
            outcome["error"] = error

    watchdog = threading.Thread(target=target, name="lane-test-watchdog", daemon=True)
    watchdog.start()
    watchdog.join(seconds)
    assert not watchdog.is_alive(), f"the run did not end within {seconds:g} s: a lane hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _pipeline(trace, *samplers: str, runs: int = 4, chunk: int | None = 1024) -> Pipeline:
    pipeline = (
        Pipeline()
        .with_trace(trace)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(runs)
        .with_seed(23)
    )
    for spec in samplers:
        pipeline.with_sampler(spec)
    return pipeline.streaming(chunk) if chunk else pipeline.materialised()


def _one_fold(plan):
    """The inline reference: one ``run_stream`` over every cell of the plan."""
    samplers = _build_samplers(plan.sampler_specs, plan.cells)
    return run_stream(
        plan._chunks(), plan.groups, samplers, plan.bin_duration, plan.top_t, plan.max_flows
    )


def _assert_outcomes_equal(left, right) -> None:
    assert np.array_equal(left.bin_start_times, right.bin_start_times)
    assert left.flows_per_bin == right.flows_per_bin
    assert left.total_packets == right.total_packets
    assert np.array_equal(left.ranking_values, right.ranking_values)
    assert np.array_equal(left.detection_values, right.detection_values)
    assert np.array_equal(left.evictions, right.evictions)


def _lanes_gauge(pipeline: Pipeline) -> int:
    with telemetry.use_telemetry():
        pipeline.run(parallel="serial")
        return telemetry.snapshot()["gauges"]["parallel.lanes"]


MIXED = ("bernoulli:rate=0.1", "periodic:rate=0.1", "flow-hash:rate=0.2", "sample-and-hold:rate=0.05")


class TestLaneResults:
    """Lanes compute exactly what one inline fold of every cell computes."""

    @pytest.mark.parametrize("chunk", [1024, None], ids=["streamed", "materialised"])
    def test_every_sampler_kind_equals_one_fold(self, two_cpus, small_trace, chunk):
        # Periodic samplers carry their phase across the ~30 chunks of a
        # streamed run; sample-and-hold carries its flow set.
        plan = _pipeline(small_trace, *MIXED, chunk=chunk).plan()
        assert plan.num_cells == 2 * _LANE_MIN_STREAMS
        lanes = _within(lambda: plan.execute(backend="serial"))
        _assert_outcomes_equal(lanes, _one_fold(plan))

    @pytest.mark.parametrize("chunk", [1024, None], ids=["streamed", "materialised"])
    def test_bounded_monitor_with_evictions(self, two_cpus, small_trace, chunk):
        plan = (
            _pipeline(small_trace, "bernoulli:rate=0.2", "periodic:rate=0.5", chunk=chunk)
            .with_runs(8)
            .with_monitor(max_flows=8)
            .plan()
        )
        lanes = _within(lambda: plan.execute(backend="serial"))
        reference = _one_fold(plan)
        _assert_outcomes_equal(lanes, reference)
        assert (reference.evictions > 0).all()

    def test_repeated_labels_package_as_inline(self, two_cpus, small_trace, monkeypatch):
        specs = ("bernoulli:rate=0.1", "bernoulli:rate=0.1", "periodic:rate=0.1", "bernoulli:rate=0.1")
        lanes = _within(lambda: _pipeline(small_trace, *specs).run(parallel="serial"))
        labels = [summary.label for summary in lanes.samplers]
        assert [labels[0], labels[1], labels[3]] == [
            "bernoulli:rate=0.1",
            "bernoulli:rate=0.1 #2",
            "bernoulli:rate=0.1 #3",
        ]
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 1)
        inline = _pipeline(small_trace, *specs).run(parallel="serial")
        assert lanes.to_dict() == inline.to_dict()

    def test_more_lanes_than_cores_under_a_short_switch_interval(self, monkeypatch, small_trace):
        """Four lanes (the cap lifted), thread switches every microsecond: the
        same rows, and every lane's per-chunk spans land in the shared
        telemetry registry."""
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel_module, "_MAX_LANES", 4)
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)
        plan = _pipeline(small_trace, *MIXED, runs=8).plan()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with telemetry.use_telemetry():
                lanes = _within(lambda: plan.execute(backend="serial"))
                snapshot = telemetry.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert snapshot["gauges"]["parallel.lanes"] == 4
        chunks = snapshot["counters"]["stream.chunks"]
        assert snapshot["spans"]["stream.sample"]["count"] == 4 * chunks
        _assert_outcomes_equal(lanes, _one_fold(plan))

    def test_lanes_equal_the_process_backend(self, two_cpus, small_trace):
        lanes = _within(lambda: _pipeline(small_trace, *MIXED).run(parallel="serial"))
        process = _pipeline(small_trace, *MIXED).run(parallel="process", jobs=2)
        assert lanes.to_dict() == process.to_dict()


class TestLaneCount:
    """One lane per usable CPU up to the cap, each of at least the floor of
    streams, and only for plans of at least the work floor, in a process
    that ``multiprocessing`` did not start."""

    def test_two_lanes_at_twice_the_floor(self, two_cpus, small_trace):
        runs = 2 * _LANE_MIN_STREAMS // 2
        pipeline = _pipeline(small_trace, "bernoulli:rate=0.1", "periodic:rate=0.1", runs=runs)
        assert _lanes_gauge(pipeline) == 2

    def test_one_lane_below_twice_the_floor(self, two_cpus, small_trace):
        runs = 2 * _LANE_MIN_STREAMS - 1
        assert _lanes_gauge(_pipeline(small_trace, "bernoulli:rate=0.1", runs=runs)) == 1

    def test_one_lane_on_one_cpu(self, monkeypatch, small_trace):
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)
        assert _lanes_gauge(_pipeline(small_trace, *MIXED)) == 1

    def test_no_more_lanes_than_the_cap(self, monkeypatch, small_trace):
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)
        pipeline = _pipeline(small_trace, *MIXED, runs=4 * _LANE_MIN_STREAMS)
        assert _lanes_gauge(pipeline) == _MAX_LANES

    def test_the_work_floor(self, two_cpus, monkeypatch, small_trace):
        pipeline = _pipeline(small_trace, *MIXED)
        work = pipeline.plan().packet_work
        assert 0 < work < _LANE_MIN_WORK
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", work + 1)
        assert _lanes_gauge(pipeline) == 1
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", work)
        assert _lanes_gauge(pipeline) == 2

    def test_the_affinity_mask_sets_the_lanes(self, monkeypatch, small_trace):
        """CPUs unpatched: as many lanes as usable CPUs allow (1 when pinned to one CPU)."""
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)
        lanes = min(parallel_module._usable_cpus(), _MAX_LANES, 2)
        assert _lanes_gauge(_pipeline(small_trace, *MIXED)) == max(lanes, 1)

    def test_a_process_multiprocessing_started_folds_inline(
        self, two_cpus, monkeypatch, small_trace
    ):
        """A sweep drain's worker processes share the CPUs with their siblings."""
        pipeline = _pipeline(small_trace, *MIXED)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert _lanes_gauge(pipeline) == 1

    def test_a_child_process_plans_one_lane(self, two_cpus):
        """The same, in a real child process that ``multiprocessing`` started."""
        assert len(_rate_plan()._lanes()) == 2
        context = multiprocessing.get_context("spawn")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_child_lane_count, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(HANG_LIMIT_S), "the child reported no lane count"
            assert receiver.recv() == 1
        finally:
            child.join(HANG_LIMIT_S)
        assert child.exitcode == 0


def _rate_plan():
    """16 cells of a tiny sprint trace, built without test fixtures."""
    return (
        Pipeline()
        .with_trace("sprint", scale=0.001, duration=60.0)
        .with_sampling_rates((0.1, 0.5))
        .with_runs(_LANE_MIN_STREAMS)
        .plan()
    )


def _child_lane_count(connection) -> None:
    """Runs in a spawned child: the lanes the 16-cell plan gets with two CPUs."""
    parallel_module._usable_cpus = lambda: 2
    parallel_module._LANE_MIN_WORK = 0
    connection.send(len(_rate_plan()._lanes()))
    connection.close()


class _FailsOnSecondChunk(BernoulliSampler):
    """A Bernoulli sampler that raises on the second chunk it sees."""

    def __init__(self, rate: float, rng=None) -> None:
        super().__init__(rate, rng=rng)
        self.chunks_seen = 0

    def sample_mask(self, batch):
        self.chunks_seen += 1
        if self.chunks_seen == 2:
            raise RuntimeError("sampler failed on its second chunk")
        return super().sample_mask(batch)


def _failing_pipeline(trace, failing_lane: int) -> Pipeline:
    """16 cells: spec 0's eight runs form lane 0, spec 1's the helper lane."""
    pipeline = (
        Pipeline()
        .with_trace(trace)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(_LANE_MIN_STREAMS)
        .with_seed(5)
        .streaming(256)
    )
    for lane in range(2):
        if lane == failing_lane:
            pipeline.with_sampler(_FailsOnSecondChunk, rate=0.1)
        else:
            pipeline.with_sampler("bernoulli", rate=0.1)
    return pipeline


class TestLaneLifetime:
    """No lane thread outlives the call, and a lane's error is raised, not waited on."""

    def test_no_thread_outlives_a_normal_run(self, two_cpus, small_trace):
        seen: set[str] = set()

        class _Recording(BernoulliSampler):
            def sample_mask(self, batch):
                seen.add(threading.current_thread().name)
                return super().sample_mask(batch)

        pipeline = _pipeline(small_trace, "bernoulli:rate=0.1", runs=_LANE_MIN_STREAMS)
        pipeline.with_sampler(_Recording, rate=0.2)
        _within(lambda: pipeline.run(parallel="serial"))
        assert any(name.startswith("stream-lane") for name in seen), seen
        assert not _lane_threads()

    @pytest.mark.parametrize("failing_lane", [0, 1], ids=["lane-0", "helper-lane"])
    def test_a_failing_lane_raises_its_error_and_leaves_no_thread(
        self, two_cpus, small_trace, failing_lane
    ):
        with pytest.raises(RuntimeError, match="sampler failed on its second chunk"):
            _within(lambda: _failing_pipeline(small_trace, failing_lane).run(parallel="serial"))
        assert not _lane_threads()

    @pytest.mark.parametrize("failing_lane", [0, 1], ids=["lane-0", "helper-lane"])
    def test_the_inline_fold_raises_the_same_error(self, monkeypatch, small_trace, failing_lane):
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 1)
        with pytest.raises(RuntimeError, match="sampler failed on its second chunk"):
            _within(lambda: _failing_pipeline(small_trace, failing_lane).run(parallel="serial"))

    def test_a_source_error_reaches_the_caller(self, two_cpus, small_trace):
        plan = _pipeline(small_trace, *MIXED).plan()
        chunks = plan._chunks

        def failing_chunks():
            for index, chunk in enumerate(chunks()):
                if index == 3:
                    raise ValueError("source failed on its fourth chunk")
                yield chunk

        plan._chunks = failing_chunks
        with pytest.raises(ValueError, match="fourth chunk"):
            _within(lambda: plan.execute(backend="serial"))
        assert not _lane_threads()


class TestStreamCountedOnce:
    """``stream.*`` counters count the source pass, not the lanes or workers that fold it."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_stream_packets_equal_the_packets_streamed(self, two_cpus, small_trace, backend):
        with telemetry.use_telemetry():
            result = _pipeline(small_trace, *MIXED).run(parallel=backend, jobs=2)
            snapshot = telemetry.snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        # Two lanes in process; two workers, each folding inline, otherwise.
        lanes, jobs = (2, 1) if backend == "serial" else (1, 2)
        assert gauges["parallel.backend"] == backend
        assert (gauges["parallel.lanes"], gauges["parallel.jobs"]) == (lanes, jobs)
        assert counters["stream.packets"] == result.total_packets
        assert counters["stream.packets"] == counters["source.packets"]
        assert counters["stream.chunks"] == counters["source.chunks"]
        # Each lane or worker samples every chunk; the workers' spans reach
        # the parent only through the snapshots they post.
        assert snapshot["spans"]["stream.sample"]["count"] == 2 * counters["stream.chunks"]
