"""Grouped sweeps: one source pass for the cells that differ only in their sampler.

:func:`repro.sweep.run_sweep` groups a grid's misses by every
:class:`~repro.store.RunSpec` field except ``samplers`` and runs each
group as one pass of its source.  These tests hold it to the
cell-by-cell loop it replaced (:func:`oracles.sweep.reference_run_sweep`):
the same cells execute and hit, in the same order, with the same
progress events, and the store ends up holding the same results.  The
pass itself, ``_run_pipelines``, is checked against running each
pipeline on its own.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.sweep import reference_run_sweep

from repro import telemetry
from repro.pipeline import Pipeline
from repro.pipeline.parallel import probe_shared_memory
from repro.pipeline.pipeline import _run_pipelines
from repro.store import RunSpec, RunStore
from repro.sweep import SweepGrid, collect, run_sweep

#: Tiny sources (~1k-34k packets, two 30 s bins): a cell costs a few ms.
SOURCES = {
    "traces": (
        "sprint:scale=0.001,duration=60",
        "abilene:scale=0.001,duration=60",
        "sprint:scale=0.0015,duration=60",
    ),
    "scenarios": (
        "steady:scale=0.001,duration=60",
        "burst:scale=0.001,duration=60",
        "multilink:scale=0.001,duration=60",
    ),
}
#: Sampler specs that carry a rate, so a grid without a rate axis runs too.
SAMPLERS = (
    "bernoulli:rate=0.3",
    "periodic:rate=0.25",
    "sample-and-hold:rate=0.2",
    "flow-hash:rate=0.4",
)

needs_shm = pytest.mark.skipif(probe_shared_memory() is not None, reason="shared memory unusable")


@st.composite
def sweep_cases(draw) -> tuple[SweepGrid, list[bool], int | None]:
    """A small random grid, which of its cells to store first, and ``max_cells``.

    A grid sweeps either traces or scenarios, so each example draws one
    kind; sources, sampler specs, rates and seeds may repeat, which
    makes repeated cells.
    """
    kind = draw(st.sampled_from(sorted(SOURCES)))
    monitor = draw(st.booleans())
    grid = SweepGrid(
        **{kind: tuple(draw(st.lists(st.sampled_from(SOURCES[kind]), min_size=1, max_size=3)))},
        samplers=tuple(draw(st.lists(st.sampled_from(SAMPLERS), min_size=1, max_size=2))),
        rates=tuple(draw(st.lists(st.sampled_from((0.1, 0.25, 0.5)), max_size=3))),
        seeds=tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))),
        num_runs=draw(st.integers(1, 2)),
        bin_duration=30.0,
        top_t=5,
        monitor=monitor,
        max_flows=draw(st.sampled_from((None, 20))) if monitor else None,
    )
    total = len(grid.cells())
    prefilled = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    max_cells = draw(st.one_of(st.none(), st.integers(0, total)))
    return grid, prefilled, max_cells


def _sweep_and_record(sweep, grid: SweepGrid, store: RunStore, **kwargs):
    events: list[tuple[str, int, int, RunSpec]] = []
    report = sweep(
        grid, store, progress=lambda *event: events.append(event), **kwargs
    )
    return report, events


def _stored(grid: SweepGrid, store: RunStore) -> list[tuple[str, dict]]:
    return [(run.key, run.result.to_dict()) for run in collect(grid, store, strict=False)]


class TestGroupedSweepMatchesCellByCell:
    @given(case=sweep_cases())
    @settings(max_examples=40, deadline=None)
    def test_same_cells_events_and_results(self, case):
        grid, prefilled, max_cells = case
        with tempfile.TemporaryDirectory() as root:
            oracle_store = RunStore(Path(root) / "oracle")
            grouped_store = RunStore(Path(root) / "grouped")
            for spec, stored in zip(grid.cells(), prefilled):
                if stored:
                    result = spec.execute()
                    oracle_store.put(spec, result)
                    grouped_store.put(spec, result)

            expected, expected_events = _sweep_and_record(
                reference_run_sweep, grid, oracle_store, max_cells=max_cells
            )
            actual, events = _sweep_and_record(
                run_sweep, grid, grouped_store, max_cells=max_cells
            )

            assert actual.total == expected.total
            assert actual.executed == expected.executed
            assert actual.cached == expected.cached
            assert actual.interrupted == expected.interrupted
            assert events == expected_events
            # One pass per (source, seed) among the executed cells: every
            # other field is fixed across a grid.
            executed = {spec for event, _, _, spec in events if event == "run"}
            assert actual.passes == len({(s.trace, s.scenario, s.seed) for s in executed})
            assert _stored(grid, grouped_store) == _stored(grid, oracle_store)

    def test_repeated_cell_is_a_hit_after_its_first_occurrence(self, tmp_path):
        grid = SweepGrid(
            scenarios=("steady:scale=0.001,duration=60",),
            samplers=("bernoulli",),
            rates=(0.5, 0.1, 0.5),
            seeds=(0, 1),
            num_runs=1,
            bin_duration=30.0,
        )
        report, events = _sweep_and_record(run_sweep, grid, RunStore(tmp_path / "store"))
        assert [(event, index) for event, index, _, _ in events] == [
            ("run", 0), ("run", 1), ("run", 2), ("run", 3), ("hit", 4), ("hit", 5),
        ]
        assert report.cached == report.executed[:2]
        assert report.passes == 2

    def test_budget_takes_the_first_misses_in_grid_order(self, tmp_path):
        grid = SweepGrid(
            scenarios=("steady:scale=0.001,duration=60",),
            samplers=("bernoulli",),
            rates=(0.1, 0.5),
            seeds=(0, 1),
            num_runs=1,
            bin_duration=30.0,
        )
        store = RunStore(tmp_path / "store")
        cells = grid.cells()
        first = run_sweep(grid, store, max_cells=3)
        # Cells 0 and 2 share seed 0 (one pass); cell 1 is seed 1 alone.
        assert first.executed == [store.key_of(spec) for spec in cells[:3]]
        assert (first.passes, first.interrupted) == (2, True)
        assert cells[3] not in store
        second = run_sweep(grid, store)
        assert second.executed == [store.key_of(cells[3])]
        assert (second.cached, second.passes) == (first.executed, 1)

    def test_every_stored_cell_equals_its_own_serial_run(self, tmp_path):
        grid = SweepGrid(
            traces=("sprint:scale=0.001,duration=60",),
            samplers=("bernoulli", "periodic"),
            rates=(0.1, 0.5),
            seeds=(3,),
            num_runs=2,
            bin_duration=30.0,
        )
        store = RunStore(tmp_path / "store")
        assert run_sweep(grid, store).passes == 1
        for spec in grid.cells():
            direct = spec.build_pipeline().run(parallel="serial")
            assert store.get(spec).result.to_dict() == direct.to_dict()

    @needs_shm
    def test_process_group_equals_serial(self, tmp_path):
        grid = SweepGrid(
            scenarios=("steady:scale=0.001,duration=60",),
            samplers=("bernoulli",),
            rates=(0.1, 0.25, 0.5),
            seeds=(0,),
            num_runs=2,
            bin_duration=30.0,
        )
        serial = RunStore(tmp_path / "serial")
        process = RunStore(tmp_path / "process")
        reference_run_sweep(grid, serial, parallel="serial")
        with telemetry.use_telemetry():
            report = run_sweep(grid, process, parallel="process", jobs=2)
            snapshot = telemetry.snapshot()
        assert snapshot["gauges"]["parallel.backend"] == "process"
        assert snapshot["gauges"]["parallel.jobs"] == 2
        assert report.passes == 1
        assert _stored(grid, process) == _stored(grid, serial)

    def test_passes_counter(self, tmp_path):
        grid = SweepGrid(
            scenarios=("steady:scale=0.001,duration=60",),
            samplers=("bernoulli",),
            rates=(0.1, 0.5),
            seeds=(0, 1),
            num_runs=1,
            bin_duration=30.0,
        )
        store = RunStore(tmp_path / "store")
        with telemetry.use_telemetry():
            run_sweep(grid, store)
            run_sweep(grid, store)
            counters = telemetry.snapshot()["counters"]
        assert counters["sweep.passes"] == 2
        assert counters["sweep.cells.executed"] == 4
        assert counters["sweep.cells.hit"] == 4


def _pipeline(*samplers: str, monitor: int | None = None) -> Pipeline:
    pipeline = (
        Pipeline()
        .with_scenario("burst", scale=0.001, duration=60.0)
        .with_bin_duration(30.0)
        .with_top(5)
        .with_runs(2)
        .with_seed(11)
    )
    for sampler in samplers:
        pipeline.with_sampler(sampler)
    if monitor is not None:
        pipeline.with_monitor(monitor)
    return pipeline


class TestOneSourcePass:
    SETS = (
        ("bernoulli:rate=0.1", "bernoulli:rate=0.1"),
        ("bernoulli:rate=0.1",),
        ("periodic:rate=0.5", "sample-and-hold:rate=0.2", "bernoulli:rate=0.1"),
    )

    @pytest.mark.parametrize("parallel", ["serial", pytest.param("process", marks=needs_shm)])
    def test_each_result_equals_its_own_run(self, parallel):
        pipelines = [_pipeline(*samplers) for samplers in self.SETS]
        shared = _run_pipelines(pipelines, parallel=parallel, jobs=2)
        alone = [_pipeline(*samplers).run(parallel="serial") for samplers in self.SETS]
        assert [result.to_dict() for result in shared] == [
            result.to_dict() for result in alone
        ]
        # Labels and their " #2" suffixes are scoped to each pipeline.
        assert [summary.label for summary in shared[0].samplers] == [
            "bernoulli:rate=0.1",
            "bernoulli:rate=0.1 #2",
        ]
        assert [summary.label for summary in shared[1].samplers] == ["bernoulli:rate=0.1"]

    def test_monitor_evictions_are_per_pipeline(self):
        pipelines = [_pipeline(*samplers, monitor=10) for samplers in self.SETS]
        shared = _run_pipelines(pipelines, parallel="serial")
        alone = [_pipeline(*samplers, monitor=10).run() for samplers in self.SETS]
        assert [result.to_dict() for result in shared] == [
            result.to_dict() for result in alone
        ]
        assert any(sum(counts) for counts in shared[2].evictions.values())

    def test_one_pass_streams_the_source_once(self):
        pipelines = [_pipeline(*samplers) for samplers in self.SETS]
        with telemetry.use_telemetry():
            _run_pipelines(pipelines, parallel="serial")
            counters = telemetry.snapshot()["counters"]
        with telemetry.use_telemetry():
            alone = _pipeline(*self.SETS[0]).run(parallel="serial")
            single = telemetry.snapshot()["counters"]
        assert counters["stream.packets"] == single["stream.packets"] == alone.total_packets
        assert counters["pipeline.runs"] == len(self.SETS)
        assert counters["pipeline.cells"] == 2 * sum(len(s) for s in self.SETS)
