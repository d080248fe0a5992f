"""Tests for the parallel execution engine (:mod:`repro.pipeline.parallel`).

The load-bearing property is bit-identity: for the same seed, the
serial and process backends — at any worker count — must produce the
same :class:`PipelineResult` down to the last bit, including for
samplers that carry state across stream chunks (periodic counters,
sample-and-hold flow tables).  The rest covers plan construction,
backend resolution, merge-order independence and the failure modes of
the merge step.
"""

from __future__ import annotations

import copy
import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import Pipeline
from repro.pipeline import parallel as parallel_module
from repro.pipeline.executor import StreamOutcome
from repro.pipeline.parallel import (
    AUTO_PROCESS_MIN_WORK,
    merge_outcomes,
)
from repro.sampling import BernoulliSampler
from repro.traces.source import FlowTraceSource, TimeWarpSource

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _sweep_pipeline(trace, seed=11, runs=3) -> Pipeline:
    """A sweep mixing stateless, counter-stateful and table-stateful samplers."""
    return (
        Pipeline()
        .with_trace(trace)
        .with_sampler("bernoulli", rate=0.1)
        .with_sampler("periodic", rate=0.1)
        .with_sampler("sample-and-hold", rate=0.05)
        .with_sampler("flow-hash", rate=0.1)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(runs)
        .with_seed(seed)
        .streaming(2048)
    )


class TestBackendBitIdentity:
    def test_serial_and_process_results_identical(self, small_trace):
        """Acceptance criterion: identical to_dict() for the same seed."""
        serial = _sweep_pipeline(small_trace).run(parallel="serial")
        process = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        assert serial.to_dict() == process.to_dict()

    def test_identity_holds_for_any_worker_count(self, small_trace):
        reference = _sweep_pipeline(small_trace).run(parallel="serial").to_dict()
        for jobs in (3, 5):
            assert _sweep_pipeline(small_trace).run(parallel="process", jobs=jobs).to_dict() == reference

    def test_process_runs_are_reproducible(self, small_trace):
        first = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        second = _sweep_pipeline(small_trace).run(parallel="process", jobs=2)
        assert first.to_dict() == second.to_dict()

    def test_sample_and_hold_streaming_matches_materialised(self, small_trace):
        """The table-stateful sampler is chunk-size invariant too."""
        def build(pipeline):
            return (
                pipeline.with_trace(small_trace)
                .with_sampler("sample-and-hold", rate=0.05)
                .with_runs(2)
                .with_seed(4)
            )

        streamed = build(Pipeline()).streaming(1500).run(parallel="serial")
        materialised = build(Pipeline()).materialised().run(parallel="serial")
        for problem in ("ranking", "detection"):
            np.testing.assert_array_equal(
                streamed.series(problem, streamed.labels[0]).values,
                materialised.series(problem, materialised.labels[0]).values,
            )

    def test_parallel_int_shorthand(self, small_trace):
        reference = _sweep_pipeline(small_trace).run(parallel="serial").to_dict()
        assert _sweep_pipeline(small_trace).run(parallel=2).to_dict() == reference

    def test_conflicting_worker_counts_rejected(self, small_trace):
        with pytest.raises(ValueError, match="conflicting"):
            _sweep_pipeline(small_trace).run(parallel=2, jobs=3)

    def test_unknown_parallel_value_rejected(self, small_trace):
        with pytest.raises(ValueError, match="parallel"):
            _sweep_pipeline(small_trace).run(parallel="threads")


class TestExecutionPlan:
    def test_plan_enumerates_one_cell_per_spec_and_run(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=3).plan()
        assert plan.num_cells == 4 * 3
        assert [cell.stream_index for cell in plan.cells] == list(range(12))
        assert plan.cells[5].spec_index == 1 and plan.cells[5].run_index == 2
        assert plan.packet_work == small_trace.total_packets * 12

    def test_cell_seeds_are_distinct(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        states = {tuple(cell.seed.generate_state(2)) for cell in plan.cells}
        assert len(states) == plan.num_cells

    def test_batches_partition_contiguously(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=3).plan()
        for count in (1, 2, 5, 12, 40):
            batches = plan.batches(count)
            assert [i for batch in batches for i in batch] == list(range(plan.num_cells))
            assert len(batches) == min(count, plan.num_cells)
            assert all(batch for batch in batches)

    def test_auto_prefers_serial_for_small_workloads(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        assert plan.packet_work < AUTO_PROCESS_MIN_WORK
        assert plan.resolve_backend("auto", None)[0] == "serial"

    def test_auto_honours_an_explicit_job_count(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        backend, jobs = plan.resolve_backend("auto", 2)
        assert (backend, jobs) == ("process", 2)
        assert plan.resolve_backend("auto", 1) == ("serial", 1)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_auto_and_default_jobs_count_usable_cpus(self, small_trace, monkeypatch, cpus):
        """The affinity mask, not the machine's CPU count, sets ``"auto"`` and
        the default worker count: with no more usable CPUs than lanes,
        no plan runs in processes unless ``jobs > 1`` asks for it."""
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(parallel_module, "AUTO_PROCESS_MIN_WORK", 0)
        plan = _sweep_pipeline(small_trace).plan()
        auto = ("serial", 1) if cpus <= parallel_module._MAX_LANES else ("process", cpus)
        assert plan.resolve_backend("auto", None) == auto
        assert plan.resolve_backend("process", None) == ("process", cpus)
        assert plan.resolve_backend("auto", 2) == ("process", 2)

    def test_jobs_capped_at_cell_count(self, small_trace):
        plan = _sweep_pipeline(small_trace, runs=1).plan()
        assert plan.resolve_backend("process", 64) == ("process", plan.num_cells)

    def test_invalid_backend_and_jobs_rejected(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        with pytest.raises(ValueError, match="backend"):
            plan.resolve_backend("threads")
        with pytest.raises(ValueError, match="jobs"):
            plan.resolve_backend("process", 0)

    def test_unpicklable_factory_degrades_to_serial_in_auto(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        plan = pipeline.plan()
        assert plan.pickle_check() is not None
        result = pipeline.run(parallel="auto", jobs=4)  # serial, reason recorded
        assert result.num_runs == 2

    def test_fallback_reason_names_the_pickle_failure(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        plan = pipeline.plan()
        assert plan.fallback_reason is None
        problem = plan.pickle_check()
        assert problem is not None
        assert "Error" in problem and "lambda" in problem
        plan.execute("auto", jobs=4)
        assert plan.fallback_reason is not None
        assert "serial" in plan.fallback_reason
        assert problem in plan.fallback_reason

    def test_picklable_plan_records_no_fallback(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        assert plan.pickle_check() is None
        plan.execute("auto")
        assert plan.fallback_reason is None

    def test_unpicklable_factory_raises_for_explicit_process(self, small_trace):
        pipeline = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(lambda rng=None: BernoulliSampler(0.5, rng=rng))
            .with_runs(2)
            .with_seed(1)
        )
        with pytest.raises(ValueError, match="pickle"):
            pipeline.run(parallel="process", jobs=2)

    def test_pickle_check_ignores_the_source(self, small_trace):
        """Only sampler specs cross into workers; the source stays in the parent."""
        source = TimeWarpSource(FlowTraceSource(small_trace), lambda t: t * 0.5)

        def pipeline():
            return (
                Pipeline()
                .with_source(source)
                .with_sampler("bernoulli", rate=0.3)
                .with_sampler("periodic", rate=0.1)
                .with_runs(2)
                .with_seed(6)
                .streaming(4096)
            )

        plan = pipeline().plan()
        assert plan.pickle_check() is None
        if not _shm_available():
            pytest.skip("shared memory unusable in this environment")
        outcome = plan.execute(backend="process", jobs=2)
        assert plan.transport_used == "shm"
        _assert_outcome_matches(pipeline().plan().execute(backend="serial"), outcome)


def _outcome(indices: list[int], bins: int = 4, offset: float = 0.0) -> StreamOutcome:
    rows = len(indices)
    values = np.arange(rows * bins, dtype=float).reshape(rows, bins) + 100.0 * np.asarray(
        indices, dtype=float
    ).reshape(rows, 1)
    return StreamOutcome(
        bin_start_times=np.arange(bins, dtype=float) * 60.0 + offset,
        flows_per_bin=10.0,
        total_packets=1000,
        ranking_values=values,
        detection_values=values + 0.5,
        evictions=10 * np.asarray(indices, dtype=np.int64),
    )


class TestMergeOutcomes:
    def test_rows_land_at_their_stream_index_regardless_of_part_order(self):
        parts = [([2, 3], _outcome([2, 3])), ([0, 1], _outcome([0, 1]))]
        merged = merge_outcomes(parts, 4)
        np.testing.assert_array_equal(merged.ranking_values[0], _outcome([0]).ranking_values[0])
        np.testing.assert_array_equal(merged.ranking_values[2], _outcome([2]).ranking_values[0])
        assert merged.evictions.tolist() == [0, 10, 20, 30]
        assert merged.total_packets == 1000

    def test_missing_stream_rejected(self):
        with pytest.raises(ValueError, match="not evaluated"):
            merge_outcomes([([0], _outcome([0]))], 2)

    def test_duplicate_stream_rejected(self):
        with pytest.raises(ValueError, match="more than one"):
            merge_outcomes([([0], _outcome([0])), ([0], _outcome([0]))], 1)

    def test_diverged_expansion_detected(self):
        parts = [([0], _outcome([0])), ([1], _outcome([1], offset=1.0))]
        with pytest.raises(RuntimeError, match="disagree"):
            merge_outcomes(parts, 2)
        other_flows = replace(_outcome([1]), flows_per_bin=12.5)
        with pytest.raises(RuntimeError, match="disagree"):
            merge_outcomes([([0], _outcome([0])), ([1], other_flows)], 2)
        other_packets = replace(_outcome([1]), total_packets=999)
        with pytest.raises(RuntimeError, match="disagree"):
            merge_outcomes([([0], _outcome([0])), ([1], other_packets)], 2)

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError, match="no outcomes"):
            merge_outcomes([], 0)


class TestPlanExecuteDirectly:
    def test_execute_matches_run_packaging(self, small_trace):
        """plan().execute() returns the same rows run() packages into series."""
        pipeline = _sweep_pipeline(small_trace)
        outcome = pipeline.plan().execute(backend="serial")
        result = pipeline.run(parallel="serial")
        runs = result.num_runs
        for spec_index, label in enumerate(result.labels):
            np.testing.assert_array_equal(
                result.series("ranking", label).values,
                outcome.ranking_values[spec_index * runs : (spec_index + 1) * runs],
            )

    def test_execute_process_matches_serial(self, small_trace):
        plan_serial = _sweep_pipeline(small_trace).plan()
        plan_process = _sweep_pipeline(small_trace).plan()
        a = plan_serial.execute(backend="serial")
        b = plan_process.execute(backend="process", jobs=3)
        np.testing.assert_array_equal(a.ranking_values, b.ranking_values)
        np.testing.assert_array_equal(a.detection_values, b.detection_values)
        np.testing.assert_array_equal(a.bin_start_times, b.bin_start_times)
        assert a.total_packets == b.total_packets


# ----------------------------------------------------------------------
# The process transport (shared memory)
# ----------------------------------------------------------------------
def _shm_available() -> bool:
    from repro.pipeline.parallel import probe_shared_memory

    return probe_shared_memory() is None


def _batch(count: int, start: float = 0.0) -> "PacketBatch":
    from repro.flows.packets import PacketBatch

    timestamps = start + np.linspace(0.0, 1.0, count)
    flow_ids = np.arange(count, dtype=np.int64) % 7
    sizes = np.full(count, 500, dtype=np.int32)
    return PacketBatch(timestamps, flow_ids, sizes)


def _consume_one_and_hang(channel, started) -> None:
    iterator = channel.receive()
    next(iterator)
    started.set()
    time.sleep(300.0)


def _no_shm(monkeypatch) -> None:
    from repro.pipeline import parallel as parallel_module

    monkeypatch.setattr(parallel_module, "probe_shared_memory", lambda: "no /dev/shm in sandbox")


def _assert_outcome_matches(serial, outcome) -> None:
    np.testing.assert_array_equal(serial.ranking_values, outcome.ranking_values)
    np.testing.assert_array_equal(serial.detection_values, outcome.detection_values)
    np.testing.assert_array_equal(serial.bin_start_times, outcome.bin_start_times)
    assert serial.flows_per_bin == outcome.flows_per_bin
    assert serial.total_packets == outcome.total_packets


class TestBatchTransports:
    @pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
    def test_shm_transport_matches_serial(self, small_trace):
        serial = _sweep_pipeline(small_trace).plan().execute(backend="serial")
        plan = _sweep_pipeline(small_trace).plan()
        outcome = plan.execute(backend="process", jobs=2)
        _assert_outcome_matches(serial, outcome)
        assert plan.transport_used == "shm"

    @pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
    def test_auto_transport_records_its_choice(self, small_trace):
        """``"auto"`` with an explicit job count runs the process backend over shm."""
        plan = _sweep_pipeline(small_trace).plan()
        plan.execute(backend="auto", jobs=2)
        assert plan.transport_used == "shm"
        assert plan.fallback_reason is None

    def test_auto_falls_back_to_serial_without_shm(self, small_trace, monkeypatch):
        _no_shm(monkeypatch)
        serial = _sweep_pipeline(small_trace).plan().execute(backend="serial")
        plan = _sweep_pipeline(small_trace).plan()
        outcome = plan.execute(jobs=2)
        assert plan.transport_used is None
        assert "fell back to serial" in plan.fallback_reason
        assert "no /dev/shm in sandbox" in plan.fallback_reason
        _assert_outcome_matches(serial, outcome)

    def test_fallback_is_exported_as_a_telemetry_gauge(self, small_trace, monkeypatch):
        from repro import telemetry

        _no_shm(monkeypatch)
        with telemetry.use_telemetry():
            _sweep_pipeline(small_trace).run(jobs=2)
            gauges = telemetry.snapshot()["gauges"]
        assert gauges["parallel.backend"] == "serial"
        assert "no /dev/shm in sandbox" in gauges["parallel.fallback"]
        assert "parallel.transport" not in gauges

    def test_fallback_reason_resets_on_the_next_execution(self, small_trace, monkeypatch):
        plan = _sweep_pipeline(small_trace).plan()
        with monkeypatch.context() as patch:
            _no_shm(patch)
            plan.execute(jobs=2)
        assert plan.fallback_reason is not None
        plan.execute(backend="serial")
        assert plan.fallback_reason is None

    @pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
    def test_auto_streams_unbounded_chunks_over_shm(self, small_trace):
        serial = _sweep_pipeline(small_trace).materialised().plan().execute(backend="serial")
        plan = _sweep_pipeline(small_trace).materialised().plan()
        outcome = plan.execute(backend="auto", jobs=2)
        assert plan.transport_used == "shm" and plan.fallback_reason is None
        _assert_outcome_matches(serial, outcome)

    @pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
    def test_shm_carries_chunks_larger_than_a_slot(self, small_trace):
        # A source round emits its backlog plus a new block, so chunks
        # can exceed the two-chunk slot size; they must arrive intact.
        chunk_packets = 256
        plan = _sweep_pipeline(small_trace).streaming(chunk_packets).plan()
        rng = np.random.default_rng(copy.deepcopy(plan.expand_entropy))
        largest = max(len(chunk) for chunk in plan.source.iter_chunks(rng, chunk_packets))
        assert largest > 2 * chunk_packets
        serial = _sweep_pipeline(small_trace).streaming(chunk_packets).plan().execute("serial")
        outcome = plan.execute(backend="process", jobs=2)
        _assert_outcome_matches(serial, outcome)

    def test_serial_backend_records_no_transport(self, small_trace):
        plan = _sweep_pipeline(small_trace).plan()
        plan.execute(backend="serial")
        assert plan.transport_used is None

    def test_explicit_process_raises_when_shm_unusable(self, small_trace, monkeypatch):
        _no_shm(monkeypatch)
        plan = _sweep_pipeline(small_trace).plan()
        with pytest.raises(ValueError, match="shared memory is unusable.*no /dev/shm in sandbox"):
            plan.execute(backend="process", jobs=2)
        with pytest.raises(ValueError, match="no /dev/shm in sandbox"):
            _sweep_pipeline(small_trace).run(parallel="process", jobs=2)


class _FailingSampler(BernoulliSampler):
    """Raises on its first batch, in whichever process evaluates it."""

    def sample_mask(self, batch):
        raise RuntimeError("sampler failed on purpose")


class _ExitingSampler(BernoulliSampler):
    """Kills its worker process outright (the parent samples normally)."""

    def sample_mask(self, batch):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return super().sample_mask(batch)


@pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
class TestWorkerFailures:
    """A worker that exits early is reported at once, not after the transport timeout."""

    @staticmethod
    def _pipeline(trace, sampler) -> Pipeline:
        # Many small chunks: the failed worker's ring fills while the
        # parent is still sending, so the failure surfaces from send().
        return (
            Pipeline()
            .with_trace(trace)
            .with_sampler("bernoulli", rate=0.1)
            .with_sampler(sampler)
            .with_runs(2)
            .with_seed(2)
            .streaming(256)
        )

    def test_failing_sampler_reports_its_own_error(self, small_trace):
        with pytest.raises(RuntimeError, match="sampler failed on purpose"):
            self._pipeline(small_trace, _FailingSampler(0.5)).run(parallel="serial")
        before = set(glob.glob("/dev/shm/psm_*"))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="worker failed: .*sampler failed on purpose"):
            self._pipeline(small_trace, _FailingSampler(0.5)).run(parallel="process", jobs=2)
        assert time.monotonic() - start < 10.0
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    @pytest.mark.parametrize(
        "sampler, message",
        [(_FailingSampler, "sampler failed on purpose"), (_ExitingSampler, "exited with code 3")],
    )
    def test_failure_after_the_stream_is_sent_is_reported(self, small_trace, sampler, message):
        # One large chunk: the parent finishes sending before the worker
        # fails, so the failure surfaces while it waits for results.
        pipeline = self._pipeline(small_trace, sampler(0.5)).materialised()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=message):
            pipeline.run(parallel="process", jobs=2)
        assert time.monotonic() - start < 10.0

    def test_worker_that_exits_without_a_word_is_reported(self, small_trace):
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            self._pipeline(small_trace, _ExitingSampler(0.5)).run(parallel="process", jobs=2)
        assert time.monotonic() - start < 10.0


_START_METHOD_SCRIPT = """
import glob, multiprocessing, sys
sys.path.insert(0, {src!r})

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    from repro.pipeline import Pipeline

    pipeline = (
        Pipeline()
        .with_trace("sprint", scale=0.001, duration=120.0)
        .with_sampler("bernoulli", rate=0.5)
        .with_runs(2)
        .with_seed(0)
    )
    before = set(glob.glob("/dev/shm/psm_*"))
    process = pipeline.run(parallel="process", jobs=2)
    assert process.to_dict() == pipeline.run(parallel="serial").to_dict()
    print(sorted(set(glob.glob("/dev/shm/psm_*")) - before))
"""


@pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
@pytest.mark.parametrize(
    "method",
    [m for m in ("fork", "spawn", "forkserver") if m in multiprocessing.get_all_start_methods()],
)
def test_start_methods_run_clean(method, tmp_path):
    """No resource-tracker tracebacks and no leftover segments, whatever the start method."""
    script = tmp_path / "run.py"
    script.write_text(_START_METHOD_SCRIPT.format(src=str(REPO_SRC), method=method))
    child = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    assert "resource_tracker" not in child.stderr and "Traceback" not in child.stderr, child.stderr


def test_imports_where_fork_is_missing():
    """Without ``fork`` (Windows) the module imports: it registers no fork hook."""
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {str(REPO_SRC)!r})\n"
        "for name in ('fork', 'register_at_fork'):\n"
        "    vars(os).pop(name, None)\n"
        "import repro.pipeline.parallel\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


@pytest.mark.skipif(not _shm_available(), reason="shared memory unusable")
class TestSharedMemoryChannel:
    def _channel(self, capacity=1024, slots=2):
        from repro.pipeline.parallel import SharedMemoryBatchChannel

        return SharedMemoryBatchChannel(capacity, slots=slots)

    @staticmethod
    def _segment_paths(channel):
        return [f"/dev/shm/{name}" for name in channel.segment_names]

    def test_in_process_round_trip(self):
        channel = self._channel()
        sent = [_batch(100), _batch(1024, start=2.0), _batch(1, start=4.0)]
        try:
            for batch in sent[:2]:
                channel.send(batch)
            received = channel.receive()
            first = next(received)
            channel.send(sent[2])
            channel.close_sending()
            batches = [first, *received]
        finally:
            channel.unlink()
        assert len(batches) == 3
        for got, want in zip(batches, sent):
            np.testing.assert_array_equal(got.timestamps, want.timestamps)
            np.testing.assert_array_equal(got.flow_ids, want.flow_ids)
            np.testing.assert_array_equal(got.sizes_bytes, want.sizes_bytes)

    def test_oversized_batch_split_across_slots(self):
        channel = self._channel(capacity=8, slots=2)
        sent = _batch(13)
        try:
            channel.send(sent)
            channel.close_sending()
            received = list(channel.receive())
        finally:
            channel.unlink()
        assert [len(batch) for batch in received] == [8, 5]
        for column in ("timestamps", "flow_ids", "sizes_bytes"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(batch, column) for batch in received]),
                getattr(sent, column),
            )

    def test_send_times_out_when_consumer_stalls(self):
        channel = self._channel(slots=1)
        try:
            channel.send(_batch(4))
            with pytest.raises(TimeoutError, match="stopped draining"):
                channel.send(_batch(4), timeout=0.05)
        finally:
            channel.unlink()

    def test_unlink_is_idempotent_and_releases_segments(self):
        channel = self._channel()
        paths = self._segment_paths(channel)
        assert all(os.path.exists(path) for path in paths)
        channel.unlink()
        channel.unlink()
        assert not any(os.path.exists(path) for path in paths)

    def test_sigkilled_worker_mid_transfer_leaks_nothing(self):
        import multiprocessing

        context = multiprocessing.get_context()
        channel = self._channel()
        paths = self._segment_paths(channel)
        started = context.Event()
        worker = context.Process(
            target=_consume_one_and_hang, args=(channel, started), daemon=True
        )
        worker.start()
        try:
            channel.send(_batch(64))
            channel.send(_batch(64, start=2.0))  # in flight when the worker dies
            assert started.wait(timeout=30.0)
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        finally:
            channel.unlink()
        assert not any(os.path.exists(path) for path in paths)
