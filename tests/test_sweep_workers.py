"""Fault-injection tests for distributed sweep execution.

The contract under test (docs/sweeps.md, "Distributed execution"):
N uncoordinated workers draining one grid through the shared store
produce **bit-identical aggregates, leaderboards and store contents**
for workers in {1, 2, 4}, under *any* crash schedule — workers killed
before/after claiming a cell, mid-execution, or in the nastiest window
between the artifact write and the index update — and every cell is
completed exactly once.

Crash schedules are driven two ways:

* **hypothesis** generates random :class:`~repro.sweep.Kill` schedules
  which an in-process, deterministic simulation executes (fake clock,
  injected sleep, ``WorkerCrash`` soft kills);
* real ``multiprocessing`` workers are spawned and one is SIGKILLed,
  which exercises the heartbeat/TTL path end to end.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.store import RunStore
from repro.sweep import (
    FAULT_EVENTS,
    FaultPlan,
    Kill,
    SweepGrid,
    SweepWorker,
    WorkerCrash,
    aggregate_rows,
    collect,
    leaderboard_rows,
    run_sweep,
    run_sweep_workers,
    start_sweep_workers,
    sweep_status,
    worker_status,
)

#: The reference grid of the fault suite: 4 cells, each a few ms.
GRID = SweepGrid(
    scenarios=("steady:duration=60,scale=0.002",),
    samplers=("bernoulli",),
    rates=(0.1, 0.5),
    seeds=(0, 1),
    num_runs=1,
)

TTL = 10.0


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def canonical_rows(rows: list[dict]) -> str:
    """Rows as bytes-comparable JSON — the bit-identity currency."""
    return json.dumps(rows, sort_keys=True)


@pytest.fixture(scope="module")
def serial_baseline(tmp_path_factory):
    """The uninterrupted single-process sweep every schedule must match."""
    store = RunStore(tmp_path_factory.mktemp("baseline"))
    report = run_sweep(GRID, store, parallel="serial")
    assert report.complete
    runs = collect(GRID, store)
    return {
        "store": store,
        "aggregates": canonical_rows(aggregate_rows(runs)),
        "leaderboard": canonical_rows(leaderboard_rows(runs)),
        "artifacts": artifact_bytes(store),
    }


def artifact_bytes(store: RunStore) -> dict:
    """The raw artifact files, keyed by name — compared across stores."""
    return {path.name: path.read_bytes() for path in sorted(store.runs_dir.glob("*.json"))}


def run_schedule(store: RunStore, clock: FakeClock, workers: int, plan: FaultPlan) -> list:
    """Deterministic sequential simulation of a multi-worker drain.

    Workers run one at a time (w0..wN-1); a killed worker stays dead,
    leaving its leases to expire on the fake clock.  The injected
    ``sleep`` advances the clock past the TTL, so a later worker's
    blocked poll becomes the lease-expiry reclaim of the crash-recovery
    contract.  A final fault-free worker models the operator re-running
    the sweep after the pool died; afterwards the grid must be
    complete no matter what the schedule did.

    Returns the keys put into the store, in completion order — the
    exactly-once ledger (``store.put`` is wrapped to record them).
    """
    puts: list[str] = []
    real_put = store.put

    def recording_put(spec, result):
        puts.append(store.key_of(spec))
        return real_put(spec, result)

    store.put = recording_put
    owners = [f"w{index}" for index in range(workers)] + ["rerun"]
    for owner in owners:
        worker = SweepWorker(
            GRID,
            store,
            owner,
            ttl=TTL,
            fault_plan=plan if owner != "rerun" else None,
            sleep=lambda seconds: clock.tick(TTL + 1.0),
        )
        try:
            worker.run()
        except WorkerCrash:
            clock.tick(1.0)  # the crash took (fake) time; leases age
    return puts


def assert_matches_baseline(store: RunStore, baseline: dict) -> None:
    status = sweep_status(GRID, store)
    assert status["missing"] == 0, "sweep did not converge"
    runs = collect(GRID, store)
    assert canonical_rows(aggregate_rows(runs)) == baseline["aggregates"]
    assert canonical_rows(leaderboard_rows(runs)) == baseline["leaderboard"]
    assert artifact_bytes(store) == baseline["artifacts"]


kill_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(FAULT_EVENTS),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=3,
    unique=True,
)


class TestFaultInjection:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(schedule=kill_schedules)
    def test_any_kill_schedule_converges_bit_identically(
        self, tmp_path_factory, serial_baseline, workers, schedule
    ):
        clock = FakeClock()
        store = RunStore(tmp_path_factory.mktemp("faulted"), clock=clock)
        plan = FaultPlan(
            kills=tuple(
                Kill(f"w{owner % workers}", event, occurrence)
                for owner, event, occurrence in schedule
            )
        )
        puts = run_schedule(store, clock, workers, plan)
        # Exactly once: every cell completed, no cell completed twice.
        assert sorted(puts) == sorted(store.key_of(spec) for spec in GRID.cells())
        assert_matches_baseline(store, serial_baseline)

    @pytest.mark.parametrize("event", FAULT_EVENTS)
    def test_each_crash_window_heals(self, tmp_path, serial_baseline, event):
        """One named test per lifecycle window, without hypothesis."""
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        plan = FaultPlan(kills=(Kill("w0", event), Kill("w1", event, occurrence=2)))
        puts = run_schedule(store, clock, workers=2, plan=plan)
        assert sorted(puts) == sorted(store.key_of(spec) for spec in GRID.cells())
        assert_matches_baseline(store, serial_baseline)

    def test_crash_between_artifact_and_index_leaves_cell_done(self, tmp_path):
        """The nastiest window: artifact on disk, index and lease stale."""
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        plan = FaultPlan(kills=(Kill("w0", "put.after-artifact"),))
        worker = SweepWorker(
            GRID, store, "w0", ttl=TTL, fault_plan=plan,
            sleep=lambda seconds: clock.tick(TTL + 1.0),
        )
        with pytest.raises(WorkerCrash):
            worker.run()
        # The artifact exists, so the cell is done and is never re-run...
        first = GRID.cells()[0]
        assert store.cell_state(first) == "done"
        # ...even though the index missed it and the lease lingers.
        assert store.key_of(first) not in [key for key, _ in store.list()]
        assert store.list_leases() != []
        # gc reconciles both leftovers.
        summary = store.gc()
        assert store.key_of(first) in summary["reindexed"]
        assert summary["reaped_leases"] == [store.key_of(first)]
        assert store.verify().clean

    def test_fault_plan_validates_events(self):
        with pytest.raises(ValueError, match="unknown fault event"):
            Kill("w0", "execute.before")
        with pytest.raises(ValueError, match="occurrence"):
            Kill("w0", "execute.mid", occurrence=0)

    def test_crashed_worker_report_stays_readable(self, tmp_path):
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        plan = FaultPlan(kills=(Kill("w0", "execute.mid", occurrence=2),))
        worker = SweepWorker(
            GRID, store, "w0", ttl=TTL, fault_plan=plan,
        )
        with pytest.raises(WorkerCrash):
            worker.run()
        assert len(worker.report.executed) == 2
        assert worker.report.total == len(GRID.cells())


class TestOneWalk:
    """Workers and ``run_sweep`` share one walk; only workers lease."""

    def test_worker_runs_one_source_pass_per_group(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with telemetry.use_telemetry():
            report = SweepWorker(GRID, store, "w0").run()
            counters = telemetry.snapshot()["counters"]
        # Two (source, seed) groups of two rates each.
        assert (counters["sweep.passes"], counters["sweep.cells.executed"]) == (2, 4)
        assert (report.passes, len(report.executed)) == (2, 4)
        for spec in GRID.cells():
            assert store.get(spec).result.to_dict() == spec.execute().to_dict()
        assert store.list_leases() == []  # each put released its lease

    @pytest.mark.parametrize("event", FAULT_EVENTS)
    def test_no_heartbeat_outlives_a_crash(self, tmp_path, event):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        plan = FaultPlan(kills=(Kill("w0", event),))
        with pytest.raises(WorkerCrash):
            SweepWorker(GRID, store, "w0", ttl=TTL, fault_plan=plan).run()
        beats = [t for t in threading.enumerate() if t.name.startswith("lease-heartbeat")]
        assert beats == []

    def test_run_sweep_takes_no_lease(self, tmp_path):
        store = RunStore(tmp_path / "store")
        events: list[str] = []
        store.events.subscribe(lambda event, key: events.append(event))
        assert run_sweep(GRID, store).passes == 2
        assert not store.leases_dir.exists()
        assert not [event for event in events if event.startswith("lease.")]


# ----------------------------------------------------------------------
# Property: live vs reloaded vs multi-worker bit-identity
# ----------------------------------------------------------------------
small_grids = st.builds(
    SweepGrid,
    scenarios=st.just(("steady:duration=60,scale=0.002",)),
    samplers=st.just(("bernoulli",)),
    rates=st.lists(
        st.sampled_from([0.1, 0.3, 0.5]), min_size=1, max_size=2, unique=True
    ).map(tuple),
    seeds=st.lists(
        st.integers(min_value=0, max_value=3), min_size=1, max_size=2, unique=True
    ).map(tuple),
    num_runs=st.just(1),
)


class TestLiveReloadedMultiWorkerIdentity:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(grid=small_grids)
    def test_status_collect_leaderboard_identical(self, tmp_path_factory, grid):
        # Live: the store instance that executed the sweep.
        live = RunStore(tmp_path_factory.mktemp("live"))
        assert run_sweep(grid, live, parallel="serial").complete
        # Reloaded: a fresh handle on the same directory (index re-read,
        # results re-parsed from JSON).
        reloaded = RunStore(live.root)
        # Multi-worker: two in-process workers draining a second store.
        multi = RunStore(tmp_path_factory.mktemp("multi"), clock=FakeClock())
        for owner in ("w0", "w1"):
            SweepWorker(grid, multi, owner, ttl=TTL).run()

        reference = sweep_status(grid, live)
        assert sweep_status(grid, reloaded) == reference
        assert sweep_status(grid, multi) == reference
        rows = canonical_rows(aggregate_rows(collect(grid, live)))
        assert canonical_rows(aggregate_rows(collect(grid, reloaded))) == rows
        assert canonical_rows(aggregate_rows(collect(grid, multi))) == rows
        board = canonical_rows(leaderboard_rows(collect(grid, live)))
        assert canonical_rows(leaderboard_rows(collect(grid, reloaded))) == board
        assert canonical_rows(leaderboard_rows(collect(grid, multi))) == board


# ----------------------------------------------------------------------
# Real processes: spawn, SIGKILL, heartbeat, degradation, watch
# ----------------------------------------------------------------------
class TestWorkerProcesses:
    def test_run_sweep_workers_matches_serial(self, tmp_path, serial_baseline):
        store = RunStore(tmp_path / "store")
        report = run_sweep_workers(GRID, store, workers=2, ttl=5.0)
        assert report.complete and report.degraded is None
        assert report.exitcodes == [0, 0]
        assert_matches_baseline(store, serial_baseline)

    def test_single_worker_runs_in_process(self, tmp_path, serial_baseline):
        store = RunStore(tmp_path / "store")
        report = run_sweep_workers(GRID, store, workers=1)
        assert report.complete and report.exitcodes == []
        assert_matches_baseline(store, serial_baseline)

    def test_sigkilled_worker_does_not_lose_the_sweep(self, tmp_path, serial_baseline):
        store = RunStore(tmp_path / "store")
        pool = start_sweep_workers(GRID, store, workers=2, ttl=1.0)
        os.kill(pool.pids[0], signal.SIGKILL)
        pool.join(timeout=60.0)
        assert pool.exitcodes()[0] in (-signal.SIGKILL, 0)  # 0 iff it finished first
        # Re-running (the operator's resume) must complete the grid and
        # match the serial baseline bit for bit.
        report = run_sweep_workers(GRID, store, workers=2, ttl=1.0)
        assert report.complete
        store.gc()  # reconcile any index entry the kill window lost
        assert_matches_baseline(store, serial_baseline)

    def test_degrades_to_serial_when_spawn_unavailable(
        self, tmp_path, serial_baseline, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.sweep.probe_process_spawn", lambda: "sandbox forbids fork"
        )
        store = RunStore(tmp_path / "store")
        report = run_sweep_workers(GRID, store, workers=4)
        assert report.complete
        assert report.degraded is not None and "sandbox forbids fork" in report.degraded
        assert report.exitcodes == []
        assert_matches_baseline(store, serial_baseline)

    def test_workers_validate_count(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(ValueError, match="workers"):
            run_sweep_workers(GRID, store, workers=0)
        with pytest.raises(ValueError, match="workers"):
            start_sweep_workers(GRID, store, workers=0)

    def test_heartbeat_keeps_a_slow_cell_leased(self, tmp_path):
        from repro.sweep import _LeaseHeartbeat

        store = RunStore(tmp_path / "store")  # real monotonic clock
        cells = GRID.cells()[:2]
        leases = [store.claim(spec, "w0", ttl=0.3) for spec in cells]
        beat = _LeaseHeartbeat(store, leases, ttl=0.3)  # one thread, both leases
        beat.start()
        deadline = max(lease.deadline for lease in leases) + 0.6
        while store.clock() < deadline:
            pass  # outlive the original deadlines by 2x
        current = [store.get_lease(lease.key) for lease in leases]
        beat.stop()
        assert not beat.lost
        for lease, renewed, spec in zip(leases, current, cells):
            assert renewed is not None and renewed.deadline > lease.deadline
            assert store.cell_state(spec) == "leased"


class TestWorkerStatus:
    def test_states_and_counts(self, tmp_path, result=None):
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        cells = GRID.cells()
        # done / leased / orphaned / pending, one of each.
        SweepWorker(
            SweepGrid(
                scenarios=GRID.scenarios, samplers=GRID.samplers,
                rates=(GRID.rates[0],), seeds=(GRID.seeds[0],), num_runs=1,
            ),
            store, "w0", ttl=TTL,
        ).run()
        store.claim(cells[1], "w1", ttl=TTL)
        store.claim(cells[2], "w2", ttl=TTL)
        status = worker_status(GRID, store)
        assert status["total"] == 4 and status["done"] == 1 and status["leased"] == 2
        clock.tick(TTL)
        status = worker_status(GRID, store)
        assert (status["done"], status["leased"], status["orphaned"], status["pending"]) == (
            1, 0, 2, 1,
        )
        rows = {row["key"]: row for row in status["cells"]}
        assert rows[store.key_of(cells[1])]["owner"] == "w1"
        assert rows[store.key_of(cells[3])]["state"] == "pending"

    def test_render_sweep_watch(self, tmp_path):
        from repro.experiments.report import render_sweep_watch

        store = RunStore(tmp_path / "store", clock=FakeClock())
        store.claim(GRID.cells()[0], "worker-1234-0", ttl=TTL)
        text = render_sweep_watch(worker_status(GRID, store))
        assert "1 leased" in text and "3 pending" in text
        assert "worker-1234-0" in text and f"{TTL:.1f}s" in text
