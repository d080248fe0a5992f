"""The benchmark's four workloads, driven through public entry points only.

Each workload is a closed loop: one client in one process, and each
call starts when the previous one returns.  The benchmark seed reaches
the program only as ``Pipeline.with_seed(seed)`` or as the seeds of a
sweep grid.

The pipeline workloads stream one fixed packet source, resolved once
from :data:`SOURCE_SEED`: flow sizes are heavy-tailed, so a trace
synthesised per seed would change the packet count by up to 45% from
seed to seed (0.97M to 1.45M packets over 120 seeds of the sprint
trace) and swamp any change in speed.  The benchmark seed still drives
packet placement and every sampling decision.

``rate_sweep``
    The paper's trace-driven experiment: sprint trace, five-tuple key,
    scale 0.05 over 900 s (~1.0M packets, ~7.2k flows per 60 s bin),
    Bernoulli rates {0.001, 0.01, 0.1, 0.5} x 10 runs = 40 cells, top
    10, ``Pipeline.run(parallel="serial")``.  Per-cell sampling, the
    stream accumulator and bin scoring do nearly all the work; the
    source is built once for 40 cells.
``rate_sweep_process``
    The same plan through ``Pipeline.run(parallel="process", jobs=2)``
    with the automatic transport (shared memory).  The only workload
    that runs ``pipeline.parallel``: spawn, the shm ring and the merge.
``link_monitor``
    Monitor mode with ``with_monitor(200)``: one ``bernoulli:rate=0.01``
    cell over the ``multilink`` scenario (3 links, scale 0.05, 900 s,
    ~3.0M packets) keyed by /24 prefix.  Source assembly and the
    accounting engine (~13k evictions) do the work; sampling and
    scoring do almost nothing.
``sweep_store``
    ``run_sweep`` of steady/burst/churn (scale 0.01, 300 s) x Bernoulli
    {0.01, 0.1} x 8 seeds x 2 runs = 48 small cells into a fresh
    ``RunStore`` (the timed cold pass), then a warm pass where every
    cell is a hit, one timed ``RunStore.get`` per cell, ``collect`` and
    ``aggregate_rows``.  Per-cell fixed costs dominate: trace
    synthesis, planning, JSON writes and the locked index merge.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections.abc import Callable
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from pathlib import Path

from repro import sweep, telemetry
from repro.pipeline import Pipeline, PipelineResult
from repro.store import RunSpec, RunStore, StoredRun, store_key

RATES = (0.001, 0.01, 0.1, 0.5)
#: Seed of the packet source the pipeline workloads stream.
SOURCE_SEED = 0
#: Store hits timed after each call of a pipeline workload.
GETS_PER_CALL = 20


def result_digest(result: PipelineResult) -> str:
    """sha256 of the canonical JSON of ``PipelineResult.to_dict()``."""
    return _digest(result.to_dict())


def sweep_digest(runs: list[StoredRun], rows: list[dict]) -> str:
    """sha256 over every stored result of a sweep plus its aggregate rows."""
    return _digest({"results": [run.result.to_dict() for run in runs], "rows": rows})


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CallOutcome:
    """What one user call did and how long it took."""

    #: The timed user call: one ``Pipeline.run()`` or one cold sweep pass.
    wall_s: float
    #: Everything the call does, warm pass included (the traced unit).
    cycle_s: float
    #: Cells executed: (sampler, run) streams, or sweep cells stored.
    cells: int
    #: Packets streamed x (sampler, run) cells.
    cell_pkts: int
    digest: str
    #: Latency of each store hit the call timed.
    get_s: list[float] = field(default_factory=list)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Verification:
    checks: list[Check]
    #: Backend and transport the program reported through its telemetry.
    backend: str
    transport: str | None


def _now() -> float:
    return time.perf_counter()


#: Brackets the program's part of a call; a traced run passes its
#: recorder's call span so benchmark bookkeeping stays outside it.
Bracket = Callable[[], AbstractContextManager]


class PipelineWorkload:
    """One ``Pipeline.run()`` per call, checked against the first call's digest.

    After each call, outside the timed part, the result is read back
    from a ``RunStore`` the way a repeated ``repro run --store`` reads
    it; the first call puts it there.
    """

    parallel = "serial"
    jobs: int | None = None

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.pipeline = self.build(tiny).with_seed(SOURCE_SEED)
        self.pipeline.with_source(self.pipeline.plan().source).with_seed(seed)
        self.spec = self.store_spec(seed, tiny)
        self.store = RunStore(work_dir / "round-trip")

    def build(self, tiny: bool) -> Pipeline:
        scale, duration = (0.002, 120.0) if tiny else (0.05, 900.0)
        return (
            Pipeline()
            .with_trace("sprint", scale=scale, duration=duration)
            .with_key_policy("five-tuple")
            .with_sampling_rates(RATES)
            .with_runs(2 if tiny else 10)
            .with_top(10)
        )

    def store_spec(self, seed: int, tiny: bool) -> RunSpec:
        """The key the result is stored under for the round-trip reads."""
        scale, duration = (0.002, 120.0) if tiny else (0.05, 900.0)
        return RunSpec(
            samplers=tuple(f"bernoulli:rate={rate}" for rate in RATES),
            trace=f"sprint:duration={duration},scale={scale}",
            key="five-tuple",
            top_t=10,
            num_runs=2 if tiny else 10,
            seed=seed,
        )

    def run(self, parallel: str | None = None) -> PipelineResult:
        return self.pipeline.run(parallel=parallel or self.parallel, jobs=self.jobs)

    def call(self, bracket: Bracket = contextlib.nullcontext) -> CallOutcome:
        with bracket():
            start = _now()
            result = self.run()
            wall = _now() - start
        digest = result_digest(result)
        if self.spec not in self.store:
            self.store.put(self.spec, result)
        gets = []
        for _ in range(GETS_PER_CALL):
            begin = _now()
            stored = self.store.get(self.spec)
            gets.append(_now() - begin)
        if stored is None or result_digest(stored.result) != digest:
            raise RuntimeError("RunStore.get did not return the result that was put")
        cells = len(result.samplers) * result.num_runs
        return CallOutcome(wall, wall, cells, result.total_packets * cells, digest, gets)

    def verify(self, reference: str) -> Verification:
        with telemetry.use_telemetry():
            result = self.run()
            gauges = telemetry.snapshot()["gauges"]
        checks = [
            Check(
                "telemetry_on_same_result",
                result_digest(result) == reference,
                "a call with telemetry on returns the same digest",
            )
        ]
        checks += self.extra_checks(reference, gauges)
        return Verification(
            checks,
            backend=str(gauges.get("parallel.backend", "serial")),
            transport=gauges.get("parallel.transport"),
        )

    def extra_checks(self, reference: str, gauges: dict) -> list[Check]:
        return []


class RateSweepProcess(PipelineWorkload):
    parallel = "process"
    jobs = 2

    def extra_checks(self, reference: str, gauges: dict) -> list[Check]:
        used = (gauges.get("parallel.backend"), gauges.get("parallel.transport"))
        return [
            Check(
                "shm_transport",
                used == ("process", "shm") and gauges.get("parallel.jobs") == self.jobs,
                f"backend/transport used: {used[0]}/{used[1]}, jobs {gauges.get('parallel.jobs')}",
            ),
            Check(
                "serial_equals_process",
                result_digest(self.run(parallel="serial")) == reference,
                "serial and process runs are bit-identical",
            ),
        ]


class LinkMonitor(PipelineWorkload):
    parallel = "auto"

    def build(self, tiny: bool) -> Pipeline:
        scale, duration = (0.002, 120.0) if tiny else (0.05, 900.0)
        return (
            Pipeline()
            .with_scenario("multilink", scale=scale, duration=duration)
            .with_key_policy("prefix", prefix_length=24)
            .with_sampler("bernoulli", rate=0.01)
            .with_runs(1)
            .with_monitor(200)
        )

    def store_spec(self, seed: int, tiny: bool) -> RunSpec:
        scale, duration = (0.002, 120.0) if tiny else (0.05, 900.0)
        return RunSpec(
            samplers=("bernoulli:rate=0.01",),
            scenario=f"multilink:duration={duration},scale={scale}",
            key="prefix:prefix_length=24",
            num_runs=1,
            seed=seed,
            monitor=True,
            max_flows=200,
        )


class SweepStore:
    """A cold sweep into a fresh store, then a warm pass over the same grid."""

    SCENARIOS = ("steady", "burst", "churn")

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        scale, duration, count = (0.002, 120, 1) if tiny else (0.01, 300, 8)
        self.work_dir = work_dir
        self.grid = sweep.SweepGrid(
            scenarios=tuple(f"{name}:duration={duration},scale={scale}" for name in self.SCENARIOS),
            samplers=("bernoulli",),
            rates=(0.01, 0.1),
            seeds=tuple(range(seed * count, (seed + 1) * count)),
            num_runs=2,
        )
        self.cells = self.grid.cells()
        self._stores = 0

    def call(self, bracket: Bracket = contextlib.nullcontext) -> CallOutcome:
        # Stores stay until the run's work directory goes: deleting files
        # between passes would put the file system's cleanup inside the
        # next timed pass.
        self._stores += 1
        store = RunStore(self.work_dir / f"store-{self._stores}")
        with bracket():
            start = _now()
            cold = sweep.run_sweep(self.grid, store)
            cold_s = _now() - start
            warm = sweep.run_sweep(self.grid, store)
            gets = []
            for spec in self.cells:
                begin = _now()
                store.get(spec)
                gets.append(_now() - begin)
            runs = sweep.collect(self.grid, store)
            rows = sweep.aggregate_rows(runs)
            cycle_s = _now() - start
        total = len(self.cells)
        if len(cold.executed) != total or len(warm.cached) != total:
            raise RuntimeError(
                f"cold pass executed {len(cold.executed)} and warm pass hit "
                f"{len(warm.cached)} of {total} cells"
            )
        cell_pkts = sum(
            run.result.total_packets * len(run.result.samplers) * run.result.num_runs
            for run in runs
        )
        return CallOutcome(cold_s, cycle_s, total, cell_pkts, sweep_digest(runs, rows), gets)

    def verify(self, reference: str) -> Verification:
        # Executing every cell directly is the computation the cold pass
        # stored; the warm pass must have served exactly those results.
        with telemetry.use_telemetry():
            runs = [StoredRun(store_key(spec), spec, spec.execute()) for spec in self.cells]
            gauges = telemetry.snapshot()["gauges"]
        checks = [
            Check(
                "warm_equals_cold",
                sweep_digest(runs, sweep.aggregate_rows(runs)) == reference,
                "collect after the warm pass equals direct execution of every cell",
            )
        ]
        return Verification(
            checks,
            backend=str(gauges.get("parallel.backend", "serial")),
            transport=gauges.get("parallel.transport"),
        )


WORKLOADS = {
    "rate_sweep": PipelineWorkload,
    "rate_sweep_process": RateSweepProcess,
    "link_monitor": LinkMonitor,
    "sweep_store": SweepStore,
}
