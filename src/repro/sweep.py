"""Resumable sweep orchestration over the experiment store.

A *sweep* is the declarative form of the paper's figure grids: a
Cartesian product of sources (scenarios or traces), samplers, sampling
rates and seeds, each cell one :class:`~repro.store.RunSpec`.  The
orchestrator walks the grid in deterministic order, skips cells already
present in a :class:`~repro.store.RunStore`, and executes the misses
through the existing pipeline backends
(:class:`~repro.pipeline.parallel.ExecutionPlan` serial/process) —
so a sweep is **resumable by construction**: kill it after *k* cells,
re-run the same command, and only the remaining cells execute; the
final aggregates are bit-identical to an uninterrupted sweep.  Misses
that differ only in their sampler (the rate axis, typically) stream the
same packets, so each such group runs as one pass of its source.

>>> import tempfile
>>> from repro.store import RunStore
>>> grid = SweepGrid(
...     scenarios=("steady:duration=120,scale=0.002",),
...     samplers=("bernoulli",), rates=(0.1, 0.5), seeds=(0, 1), num_runs=2,
... )
>>> len(grid.cells())
4
>>> store = RunStore(tempfile.mkdtemp())
>>> report = run_sweep(grid, store)  # both rates of a seed share a pass
>>> (len(report.executed), len(report.cached), report.passes)
(4, 0, 2)
>>> report = run_sweep(grid, store)  # warm: every cell is a store hit
>>> (len(report.executed), len(report.cached), report.passes)
(0, 4, 0)

On top of the raw cells, :func:`leaderboard_rows` ranks samplers per
scenario by mean swapped pairs and :func:`comparison_rows` reports
metric deltas against a named baseline sweep (another store); the CLI
surfaces both as ``repro sweep report``.

Because cells are content-addressed and idempotent, a sweep also
distributes: :class:`SweepWorker` runs the same walk and source passes
cooperatively with any number of other workers sharing the store
directory (cells are leased via :meth:`RunStore.claim
<repro.store.RunStore.claim>`, crashed workers' leases expire and are
reclaimed), and :func:`run_sweep_workers` spawns N such workers as
processes — ``repro sweep run --workers N`` on the CLI, with ``repro
sweep watch`` showing live pending/leased/done/orphaned counts via
:func:`worker_status`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import telemetry
from .flows.accounting import _checked_bin_duration, _checked_max_flows
from .pipeline.parallel import probe_process_spawn
from .registry import KEY_POLICIES
from .spec import format_spec, parse_spec
from .store import Lease, RunSpec, RunStore, StoredRun, _atomic_write_text, _execute_specs

#: Schema tag of the per-worker heartbeat telemetry files under
#: ``<store>/telemetry/<owner>.json`` (see :meth:`SweepWorker` and
#: :func:`worker_status`).
WORKER_TELEMETRY_SCHEMA = "repro-telemetry/worker/1"


@dataclass(frozen=True)
class SweepGrid:
    """Declarative grid of runs: axes x fixed evaluation parameters.

    Axes (each a tuple, Cartesian-multiplied in the order below):

    ``scenarios`` / ``traces``
        Source specs — scenario workloads (``"burst:factor=20"``) or
        plain traces (``"sprint:scale=0.01"``).  Mutually exclusive;
        with neither given the grid runs the default ``sprint`` trace.
    ``samplers``
        Sampler specs; each cell evaluates exactly one.
    ``rates``
        Optional sampling rates composed into each sampler spec as its
        ``rate=`` argument (overriding any rate the spec carries).
        Empty means: use the sampler specs as written.
    ``seeds``
        Pipeline seeds; one independent cell per seed.

    The remaining fields (``key``, ``bin_duration``, ``top_t``,
    ``num_runs``, ``monitor``, ``max_flows``) are fixed across the grid
    and map straight onto :class:`~repro.store.RunSpec`; ``max_flows``,
    when given, must be an integer of at least 1, ``bin_duration``
    positive and finite, and ``key`` a spec a key policy can be built
    from.
    """

    scenarios: tuple[str, ...] = ()
    traces: tuple[str, ...] = ()
    samplers: tuple[str, ...] = ("bernoulli",)
    rates: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (0,)
    key: str = "five-tuple"
    bin_duration: float = 60.0
    top_t: int = 10
    num_runs: int = 5
    monitor: bool = False
    max_flows: int | None = None

    def __post_init__(self) -> None:
        for name in ("scenarios", "traces", "samplers", "rates", "seeds"):
            value = getattr(self, name)
            if isinstance(value, (str, int, float)):
                value = (value,)
            object.__setattr__(self, name, tuple(value))
        if self.scenarios and self.traces:
            raise ValueError("a sweep grid sweeps scenarios or traces, not both")
        if not self.samplers:
            raise ValueError("a sweep grid needs at least one sampler spec")
        if not self.seeds:
            raise ValueError("a sweep grid needs at least one seed")
        _checked_max_flows(self.max_flows)
        _checked_bin_duration(self.bin_duration)
        # Build the key policy once, so a bad key spec fails here and not
        # after the first cells have been stored.
        name, kwargs = parse_spec(self.key)
        KEY_POLICIES.create(name, **kwargs)

    # ------------------------------------------------------------------
    @property
    def sources(self) -> tuple[tuple[str, str], ...]:
        """The source axis as ``(kind, spec)`` pairs, kind in {scenario, trace}."""
        if self.scenarios:
            return tuple(("scenario", spec) for spec in self.scenarios)
        return tuple(("trace", spec) for spec in (self.traces or ("sprint",)))

    def sampler_specs(self) -> tuple[str, ...]:
        """The sampler axis with the rate axis composed in.

        >>> SweepGrid(samplers=("bernoulli",), rates=(0.01, 0.1)).sampler_specs()
        ('bernoulli:rate=0.01', 'bernoulli:rate=0.1')
        """
        if not self.rates:
            return self.samplers
        composed = []
        for spec in self.samplers:
            name, kwargs = parse_spec(spec)
            for rate in self.rates:
                composed.append(format_spec(name, {**kwargs, "rate": float(rate)}))
        return tuple(composed)

    def cells(self) -> list[RunSpec]:
        """Expand the grid into run specs, in deterministic nested order.

        Source is the outermost axis, then sampler (with rate composed
        in), then seed — the order ``repro sweep status`` lists and the
        orchestrator executes.
        """
        specs: list[RunSpec] = []
        for kind, source in self.sources:
            for sampler in self.sampler_specs():
                for seed in self.seeds:
                    specs.append(
                        RunSpec(
                            samplers=(sampler,),
                            trace=source if kind == "trace" else None,
                            scenario=source if kind == "scenario" else None,
                            key=self.key,
                            bin_duration=self.bin_duration,
                            top_t=self.top_t,
                            num_runs=self.num_runs,
                            seed=seed,
                            monitor=self.monitor,
                            max_flows=self.max_flows,
                        ).canonical()
                    )
        return specs


@dataclass
class SweepReport:
    """What one :func:`run_sweep` invocation did.

    ``executed`` and ``cached`` hold store keys in grid order;
    ``interrupted`` is True when a ``max_cells`` budget stopped the
    sweep before every miss was computed (the resume case); ``passes``
    counts the source passes that computed the executed cells, one per
    group of cells that differ only in their sampler.
    """

    total: int = 0
    executed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    interrupted: bool = False
    passes: int = 0

    @property
    def complete(self) -> bool:
        """True when every cell of the grid is now in the store."""
        return not self.interrupted and (
            len(self.executed) + len(self.cached) == self.total
        )


def run_sweep(
    grid: SweepGrid,
    store: RunStore,
    *,
    parallel: str | bool | int | None = "auto",
    jobs: int | None = None,
    max_cells: int | None = None,
    progress: Callable[[str, int, int, RunSpec], None] | None = None,
) -> SweepReport:
    """Execute every missing cell of the grid and persist it in the store.

    Cells already in the store are skipped (a warm re-run touches no
    pipeline code at all).  The misses are grouped by every
    :class:`~repro.store.RunSpec` field except ``samplers``, so the
    cells of a group stream the same packets, and each group runs as
    one pass of its source through the standard
    :class:`~repro.pipeline.parallel.ExecutionPlan` backends; every
    result is bit-identical to :meth:`RunSpec.execute
    <repro.store.RunSpec.execute>` of its cell.  A group's results are
    stored as soon as its pass ends, so an interrupted sweep loses at
    most the group in flight.  Which cells execute, and what the report
    and ``progress`` see, are those of a cell-by-cell walk of the grid:
    a cell is a hit when it was stored before the sweep or repeats an
    earlier cell, the first ``max_cells`` misses in grid order execute,
    and events arrive in grid order.  A :class:`SweepWorker` runs the
    same walk but leases each group's cells first; this one takes no
    lease, as one process alone on a store needs none.

    Parameters
    ----------
    grid, store:
        The declarative grid and the store that caches its cells.
    parallel, jobs:
        Backend selection per source pass, as in :meth:`Pipeline.run
        <repro.pipeline.pipeline.Pipeline.run>`.
    max_cells:
        Execute at most this many misses, then stop and mark the report
        ``interrupted`` — the hook the kill-and-resume tests (and CI)
        use to interrupt a sweep deterministically.
    progress:
        Optional callback ``(event, index, total, spec)`` with event
        ``"hit"`` or ``"run"``, called once per cell in grid order; the
        ``"run"`` event of a group's first cell comes before the
        group's pass.

    Returns
    -------
    SweepReport
        Keys of the executed and cache-hit cells, in grid order, and
        the number of source passes.
    """
    return _walk(grid.cells(), store, parallel, jobs, max_cells=max_cells, progress=progress)


def _walk(
    cells: list[RunSpec],
    store: RunStore,
    parallel: str | bool | int | None,
    jobs: int | None,
    *,
    max_cells: int | None = None,
    progress: Callable[[str, int, int, RunSpec], None] | None = None,
    lease: Callable[[list[RunSpec]], AbstractContextManager[list[RunSpec]]] = nullcontext,
) -> SweepReport:
    """The one sweep walk of :func:`run_sweep` and :class:`SweepWorker`.

    At the first cell of each group of misses, ``lease(group)`` yields
    the cells one source pass computes and puts: all of them, or those
    a worker could claim.
    """
    report = SweepReport(total=len(cells))
    # Decide every cell first, as a cell-by-cell walk would: by the time
    # it reaches a repeat of an earlier miss, that miss is stored.  A
    # miss carries its group, a hit None.
    decided: list[tuple[int, RunSpec, str, list[RunSpec] | None]] = []
    groups: dict[tuple, list[RunSpec]] = {}
    misses: set[str] = set()
    for index, spec in enumerate(cells):
        key = store.key_of(spec)
        group: list[RunSpec] | None = None
        if key not in misses and key not in store:
            if max_cells is not None and len(misses) >= max_cells:
                report.interrupted = True
                break
            misses.add(key)
            group = groups.setdefault(_group_of(spec), [])
            group.append(spec)
        decided.append((index, spec, key, group))

    stored: set[str] = set()
    for index, spec, key, group in decided:
        if progress is not None:
            progress("hit" if group is None else "run", index, len(cells), spec)
        if group is None:
            if telemetry.enabled:
                telemetry.count("sweep.cells.hit")
            report.cached.append(key)
            continue
        if spec is group[0]:
            with lease(group) as claimed:
                if claimed:
                    with telemetry.span("sweep.pass"):
                        results = _execute_specs(claimed, parallel, jobs)
                    for member, result in zip(claimed, results):
                        stored.add(store.put(member, result))
                    report.passes += 1
                    if telemetry.enabled:
                        telemetry.count("sweep.passes")
        if key not in stored:
            continue  # a live peer holds it
        if telemetry.enabled:
            telemetry.count("sweep.cells.executed")
        report.executed.append(key)
    return report


def _group_of(spec: RunSpec) -> tuple:
    """Every field of ``spec`` but its samplers: the cells of one source pass."""
    return tuple(getattr(spec, item.name) for item in fields(spec) if item.name != "samplers")


def sweep_status(grid: SweepGrid, store: RunStore) -> dict:
    """Coverage of the grid in the store, without executing anything.

    Returns a dict with ``total``, ``cached``, ``missing`` counts and a
    ``cells`` list of ``(key, cached, spec)`` in grid order.
    """
    cells = grid.cells()
    rows = [(store.key_of(spec), spec in store, spec) for spec in cells]
    cached = sum(1 for _, hit, _ in rows if hit)
    return {
        "total": len(cells),
        "cached": cached,
        "missing": len(cells) - cached,
        "cells": rows,
    }


def collect(grid: SweepGrid, store: RunStore, *, strict: bool = True) -> list[StoredRun]:
    """Load the grid's stored results, in grid order.

    Parameters
    ----------
    strict:
        When True (default) a missing cell raises ``KeyError`` — run
        the sweep first; when False missing cells are silently skipped
        (partial reports while a sweep is still running).
    """
    runs: list[StoredRun] = []
    for spec in grid.cells():
        stored = store.get(spec)
        if stored is None:
            if strict:
                raise KeyError(
                    f"sweep cell {store.key_of(spec)} is not in the store; "
                    "run `repro sweep run` first"
                )
            continue
        runs.append(stored)
    return runs


# ----------------------------------------------------------------------
# Distributed execution: leased, crash-safe workers
# ----------------------------------------------------------------------

#: Default lease TTL in seconds.  Generous against multi-second passes
#: (the heartbeat renews at a third of this), short enough that a
#: crashed worker's cells are reclaimed promptly by its survivors.
DEFAULT_LEASE_TTL = 30.0

#: Seconds a worker sleeps before it walks again, when live peers held all its cells.
_POLL_SECONDS = 0.05

#: Fault-injection points, in lifecycle order.  ``claim.before`` and
#: ``claim.after`` bracket each cell's lease acquisition, ``execute.mid``
#: fires once per source pass, once its cells are leased and before any
#: result exists, and ``put.after-artifact`` fires between a cell's
#: artifact write and its index update / lease release (the nastiest
#: crash window).
FAULT_EVENTS = (
    "claim.before",
    "claim.after",
    "execute.mid",
    "put.after-artifact",
)


class WorkerCrash(RuntimeError):
    """Simulated worker death, raised by a :class:`FaultPlan` soft kill."""


@dataclass(frozen=True)
class Kill:
    """One scheduled death: ``owner`` dies the ``occurrence``-th time it
    reaches ``event`` (an entry of :data:`FAULT_EVENTS`)."""

    owner: str
    event: str
    occurrence: int = 1

    def __post_init__(self) -> None:
        if self.event not in FAULT_EVENTS:
            raise ValueError(
                f"unknown fault event {self.event!r}; expected one of {FAULT_EVENTS}"
            )
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be at least 1, got {self.occurrence}")


@dataclass
class FaultPlan:
    """A deterministic kill schedule injected into :class:`SweepWorker`.

    The worker reports every lifecycle event it passes through via
    :meth:`fire`; when an event matches one of the scheduled
    :class:`Kill` entries the plan kills the worker — by raising
    :class:`WorkerCrash` (``hard=False``, the in-process simulation the
    hypothesis suite drives) or by ``os._exit(137)`` (``hard=True``,
    indistinguishable from SIGKILL: no ``finally`` blocks, no lease
    release, no index update).

    The same plan instance can drive several sequential workers — the
    per-(owner, event) occurrence counters live on the plan, so a
    schedule is reproducible from a fresh plan and a fixed worker
    order.
    """

    kills: tuple[Kill, ...] = ()
    hard: bool = False
    counts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.kills = tuple(self.kills)

    def fire(self, owner: str, event: str) -> None:
        """Record one lifecycle event; kill the caller if scheduled."""
        count = self.counts.get((owner, event), 0) + 1
        self.counts[(owner, event)] = count
        for kill in self.kills:
            if (kill.owner, kill.event, kill.occurrence) == (owner, event, count):
                if self.hard:
                    os._exit(137)
                raise WorkerCrash(
                    f"worker {owner!r} killed at {event} (occurrence {count})"
                )


@dataclass
class WorkerReport:
    """What one :meth:`SweepWorker.run` drain did (readable mid-crash).

    ``executed`` holds the keys this worker completed (artifact written
    *and* indexed) as each source pass ends; ``skipped`` counts claim
    attempts lost to a live lease held by someone else; ``passes``
    counts source passes, as in :class:`SweepReport`.  The report is
    mutated in place, so a crashed worker's partial report is still
    inspectable.
    """

    owner: str
    total: int = 0
    executed: list[str] = field(default_factory=list)
    skipped: int = 0
    passes: int = 0


class _LeaseHeartbeat(threading.Thread):
    """Background renewal of one pass's leases at ttl/3 while it executes.

    Stops renewing a lease (and records :attr:`lost`) the moment it is
    seen reclaimed, so a worker wrongly presumed dead does not fight its
    reclaimer.
    """

    def __init__(self, store: RunStore, leases: list[Lease], ttl: float) -> None:
        super().__init__(daemon=True, name=f"lease-heartbeat-{leases[0].owner}")
        self._store = store
        self._leases = leases
        self._ttl = ttl
        self._stopped = threading.Event()
        self.lost = False

    def run(self) -> None:
        interval = max(self._ttl / 3.0, 0.01)
        leases: list[Lease] = self._leases
        while leases and not self._stopped.wait(interval):
            renewed = [self._store.renew(lease, self._ttl) for lease in leases]
            leases = [lease for lease in renewed if lease is not None]
            self.lost = self.lost or len(leases) < len(renewed)

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=5.0)


class SweepWorker:
    """One cooperative drain loop over a grid, leasing cells as it goes.

    N workers pointed at the same grid and store directory need no
    other coordination channel.  Each runs the walk of :func:`run_sweep`
    and, before a group's source pass, tries to
    :meth:`~repro.store.RunStore.claim` each of its cells; the pass
    computes and stores the claimed ones while one heartbeat thread
    renews their leases.  A cell leased by a *live* peer is skipped; a
    lease whose deadline passed (its owner crashed) is reclaimed by
    whoever reaches it next.  The worker walks the skipped cells again,
    after a short sleep when live peers held them all, until the grid
    is fully done.

    Duplicate execution (a slow-but-alive worker losing its lease to an
    over-eager reclaimer) is *safe*, merely wasteful: cells are
    deterministic, so both workers write bit-identical artifacts and
    the atomic ``put`` makes the second write a no-op in effect.

    ``sleep`` and the store's ``clock`` are injectable, so the fault
    suite can simulate whole multi-worker schedules deterministically
    in one process.

    >>> import tempfile
    >>> from repro.store import RunStore
    >>> grid = SweepGrid(
    ...     scenarios=("steady:duration=60,scale=0.002",),
    ...     samplers=("bernoulli",), rates=(0.1, 0.5), seeds=(0,), num_runs=1,
    ... )
    >>> store = RunStore(tempfile.mkdtemp())
    >>> report = SweepWorker(grid, store, "w0").run()  # both rates in one pass
    >>> (report.total, len(report.executed), report.skipped, report.passes)
    (2, 2, 0, 1)
    >>> worker_status(grid, store)["done"]
    2
    """

    def __init__(
        self,
        grid: SweepGrid,
        store: RunStore,
        owner: str,
        *,
        ttl: float = DEFAULT_LEASE_TTL,
        parallel: str | bool | int | None = "serial",
        jobs: int | None = None,
        fault_plan: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.grid = grid
        self.store = store
        self.owner = owner
        self.ttl = float(ttl)
        self.parallel = parallel
        self.jobs = jobs
        self.fault_plan = fault_plan
        self.sleep = sleep
        self.report = WorkerReport(owner=owner)
        self._started: float = 0.0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    def _fire(self, event: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.fire(self.owner, event)

    def telemetry_path(self) -> Path:
        """Heartbeat telemetry file this worker publishes for ``sweep watch``."""
        return self.store.root / "telemetry" / f"{self.owner}.json"

    def _write_heartbeat(self) -> None:
        """Publish live per-worker throughput for :func:`worker_status`.

        Written atomically (same temp-and-replace idiom as artifacts) so
        a reader never sees a torn file; any I/O failure is swallowed —
        observability must never fail the drain.  The clocks are the
        store's monotonic lease clock, so elapsed times are comparable
        across workers sharing the store.
        """
        elapsed = self.store.clock() - self._started
        done = len(self.report.executed)
        payload = {
            "schema": WORKER_TELEMETRY_SCHEMA,
            "owner": self.owner,
            "cells_done": done,
            "cache_hits": self._cache_hits,
            "skipped": self.report.skipped,
            "passes": self.report.passes,
            "elapsed_s": round(elapsed, 6),
            "cells_per_s": round(done / elapsed, 6) if elapsed > 0 else None,
        }
        try:
            path = self.telemetry_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")
        except OSError:
            pass  # heartbeat only; the artifacts remain the source of truth

    @contextmanager
    def _leased(self, group: list[RunSpec]) -> Iterator[list[RunSpec]]:
        """Yield the cells of ``group`` this worker could claim, for one pass.

        One heartbeat renews their leases until the pass's puts, which
        release them, are done or the worker dies.
        """
        held: dict[RunSpec, Lease] = {}
        for spec in group:
            self._fire("claim.before")
            lease = self.store.claim(spec, self.owner, self.ttl)
            if lease is None:
                self.report.skipped += 1
                continue
            self._fire("claim.after")
            held[spec] = lease
        if not held:
            yield []
            return
        beat = _LeaseHeartbeat(self.store, list(held.values()), self.ttl)
        beat.start()
        try:
            self._fire("execute.mid")
            yield list(held)
        finally:
            beat.stop()
        self.report.executed.extend(lease.key for lease in held.values())
        self.report.passes += 1
        self._write_heartbeat()

    def run(self) -> WorkerReport:
        """Drain until every cell of the grid is in the store.

        Returns this worker's :class:`WorkerReport`; raises
        :class:`WorkerCrash` when the fault plan kills the worker
        (the report stays readable either way).
        """
        cells = self.grid.cells()
        self.report.total = len(cells)
        self._started = self.store.clock()
        self._write_heartbeat()
        subscribed = self.store.events.subscribe(lambda event, key: self._fire(event))
        try:
            # A repeated cell is one unit of work, and a walk after the
            # first covers only cells live peers held: one hit per cell.
            pending = list(dict.fromkeys(cells))
            while pending:
                scan = _walk(pending, self.store, self.parallel, self.jobs, lease=self._leased)
                self._cache_hits += len(scan.cached)
                self._write_heartbeat()
                finished = {*scan.executed, *scan.cached}
                pending = [spec for spec in pending if self.store.key_of(spec) not in finished]
                if pending and not scan.passes:
                    # Every remaining cell is held by a live peer: wait
                    # for it to finish or for its lease to expire.
                    self.sleep(_POLL_SECONDS)
            return self.report
        finally:
            self.store.events.unsubscribe(subscribed)


def _worker_entry(
    grid: SweepGrid,
    store_root: str,
    array_format: str,
    owner: str,
    ttl: float,
    parallel: str | bool | int | None,
    jobs: int | None,
) -> None:
    """Child-process entry point: open a private store handle and drain."""
    store = RunStore(store_root, array_format=array_format)
    SweepWorker(grid, store, owner, ttl=ttl, parallel=parallel, jobs=jobs).run()


@dataclass
class WorkerPool:
    """Handle on the worker processes started by :func:`start_sweep_workers`."""

    processes: list

    @property
    def pids(self) -> list[int | None]:
        """OS pids, in worker order (CI's kill-and-resume test SIGKILLs one)."""
        return [process.pid for process in self.processes]

    def join(self, timeout: float | None = None) -> None:
        """Wait for every worker to exit (``timeout`` applies per process)."""
        for process in self.processes:
            process.join(timeout)

    def exitcodes(self) -> list[int | None]:
        """Exit codes in worker order: 0 clean, negative = killed by signal,
        ``None`` = still running."""
        return [process.exitcode for process in self.processes]


def start_sweep_workers(
    grid: SweepGrid,
    store: RunStore,
    workers: int,
    *,
    ttl: float = DEFAULT_LEASE_TTL,
    parallel: str | bool | int | None = "serial",
    jobs: int | None = None,
) -> WorkerPool:
    """Spawn ``workers`` uncoordinated drain processes over one grid.

    Each child opens its own :class:`~repro.store.RunStore` on the same
    directory and runs a :class:`SweepWorker`; nothing is shared but
    the filesystem.  Owner ids embed the parent pid, so two pools (or a
    pool and its rerun after a crash) never collide.

    Raises ``OSError``/``RuntimeError`` when processes cannot be
    spawned — any workers already started are terminated first, so a
    partial pool never leaks.  :func:`run_sweep_workers` wraps this
    with graceful degradation to a serial in-process drain.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    context = multiprocessing.get_context()
    processes: list = []
    try:
        for index in range(workers):
            owner = f"worker-{os.getpid()}-{index}"
            process = context.Process(
                target=_worker_entry,
                args=(grid, str(store.root), store.array_format, owner, ttl, parallel, jobs),
                name=f"sweep-{owner}",
            )
            process.start()
            processes.append(process)
    except (OSError, PermissionError, RuntimeError):
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join(5.0)
        raise
    return WorkerPool(processes=processes)


@dataclass
class DistributedSweepReport:
    """What one :func:`run_sweep_workers` invocation achieved.

    ``completed`` counts grid cells present in the store afterwards;
    ``exitcodes`` are the workers' exit statuses (empty for the
    in-process paths); ``degraded`` carries the reason when process
    spawn was unavailable and the drain ran serially instead.
    """

    total: int
    completed: int
    workers: int
    exitcodes: list = field(default_factory=list)
    degraded: str | None = None

    @property
    def complete(self) -> bool:
        """True when every cell of the grid is now in the store."""
        return self.completed == self.total


def run_sweep_workers(
    grid: SweepGrid,
    store: RunStore,
    workers: int = 2,
    *,
    ttl: float = DEFAULT_LEASE_TTL,
    parallel: str | bool | int | None = "serial",
    jobs: int | None = None,
) -> DistributedSweepReport:
    """Drain the grid with ``workers`` processes, degrading gracefully.

    ``workers=1`` drains in process (no spawn at all).  For higher
    counts the environment is probed first
    (:func:`~repro.pipeline.parallel.probe_process_spawn`); when
    processes cannot be spawned — sandboxes, resource exhaustion — the
    drain falls back to a serial in-process worker and records why in
    ``degraded``.  Workers default to ``parallel="serial"`` per source
    pass: with N workers running passes concurrently, nested process
    pools would oversubscribe the machine.  For the same reason a
    worker process folds each pass inline, on one thread; stream lanes
    run only in a process that ``multiprocessing`` did not start, such
    as the in-process drain of ``workers=1``.

    A non-zero exit code (e.g. a SIGKILLed worker) does **not** imply
    an incomplete sweep: surviving workers reclaim the dead worker's
    expired leases and finish the grid.  Check ``report.complete`` —
    when False, re-running the same call resumes exactly the missing
    cells.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = grid.cells()
    degraded: str | None = None
    exitcodes: list = []
    spawn_problem = probe_process_spawn() if workers > 1 else None
    if workers > 1 and spawn_problem is None:
        try:
            pool = start_sweep_workers(grid, store, workers, ttl=ttl, parallel=parallel, jobs=jobs)
        except (OSError, PermissionError, RuntimeError) as error:
            spawn_problem = f"{type(error).__name__}: {error}"
        else:
            pool.join()
            exitcodes = pool.exitcodes()
    if workers == 1 or spawn_problem is not None:
        if spawn_problem is not None:
            degraded = f"worker processes unavailable ({spawn_problem}); ran serially"
        owner = f"worker-{os.getpid()}-serial"
        SweepWorker(grid, store, owner, ttl=ttl, parallel=parallel, jobs=jobs).run()
    completed = sum(1 for spec in cells if spec in store)
    return DistributedSweepReport(
        total=len(cells),
        completed=completed,
        workers=workers,
        exitcodes=exitcodes,
        degraded=degraded,
    )


def read_worker_telemetry(store: RunStore) -> list[dict]:
    """Heartbeat telemetry published by live (or recently live) workers.

    Reads every ``<store>/telemetry/*.json`` file written by
    :meth:`SweepWorker._write_heartbeat`, skipping unreadable or
    foreign-schema files, and returns the payloads sorted by owner so
    the view is deterministic regardless of directory order.
    """
    directory = store.root / "telemetry"
    rows: list[dict] = []
    try:
        paths = sorted(directory.glob("*.json"))
    except OSError:
        return rows
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        if payload.get("schema") != WORKER_TELEMETRY_SCHEMA:
            continue
        rows.append(payload)
    rows.sort(key=lambda row: str(row.get("owner", "")))
    return rows


def worker_status(grid: SweepGrid, store: RunStore) -> dict:
    """Live distribution view of the grid — what ``repro sweep watch`` shows.

    Classifies every cell via :meth:`RunStore.cell_state
    <repro.store.RunStore.cell_state>` and returns ``total`` plus
    ``done`` / ``leased`` / ``orphaned`` / ``pending`` counts, a
    ``cells`` list of per-cell dicts (``key``, ``state``, ``owner``,
    ``remaining`` lease seconds, ``spec``) in grid order, and a
    ``workers`` list of heartbeat telemetry payloads
    (:func:`read_worker_telemetry`).  ``orphaned`` cells — an expired
    or corrupt lease with no artifact — are exactly the ones a crashed
    worker left behind; any running worker (or the next ``sweep run``)
    reclaims them.
    """
    now = store.clock()
    counts = {"done": 0, "leased": 0, "orphaned": 0, "pending": 0}
    rows: list[dict] = []
    for spec in grid.cells():
        key = store.key_of(spec)
        state = store.cell_state(key)
        counts[state] += 1
        lease = store.get_lease(key) if state in ("leased", "orphaned") else None
        rows.append(
            {
                "key": key,
                "state": state,
                "owner": None if lease is None else lease.owner,
                "remaining": (
                    lease.remaining(now) if lease is not None and state == "leased" else None
                ),
                "spec": spec,
            }
        )
    return {
        "total": len(rows),
        **counts,
        "cells": rows,
        "workers": read_worker_telemetry(store),
    }


# ----------------------------------------------------------------------
# Aggregation / comparison
# ----------------------------------------------------------------------
def _source_label(spec: RunSpec) -> str:
    return spec.scenario if spec.scenario is not None else (spec.trace or "sprint")


def aggregate_rows(runs: list[StoredRun]) -> list[dict]:
    """Flat per-cell rows: one per (source, sampler, seed, problem).

    The bit-identity currency of the resumability contract: the rows of
    an interrupted-then-resumed sweep equal those of an uninterrupted
    one exactly, floats and order included.
    """
    rows: list[dict] = []
    for stored in runs:
        for summary_row in stored.result.summary_rows():
            rows.append(
                {
                    "source": _source_label(stored.spec),
                    "seed": stored.spec.seed,
                    "key": stored.key,
                    **summary_row,
                }
            )
    return rows


def leaderboard_rows(runs: list[StoredRun], problem: str = "ranking") -> list[dict]:
    """Per-source sampler leaderboard: mean swapped pairs over seeds, best first.

    Groups the cells by (source, sampler label), averages the overall
    mean swapped pairs and the acceptable-bin fraction across seeds,
    and ranks samplers per source by ascending error.  Ties break by
    sampler label, so the table is fully deterministic.
    """
    if problem not in ("ranking", "detection"):
        raise ValueError(f"unknown problem {problem!r}; expected 'ranking' or 'detection'")
    grouped: dict[tuple[str, str], dict] = {}
    for stored in runs:
        source = _source_label(stored.spec)
        result = stored.result
        store_map = result.ranking if problem == "ranking" else result.detection
        for summary in result.samplers:
            series = store_map.get(summary.label)
            if series is None:
                continue
            entry = grouped.setdefault(
                (source, summary.label),
                {
                    "source": source,
                    "sampler": summary.label,
                    "problem": problem,
                    "rate": summary.effective_rate,
                    "seeds": 0,
                    "mean_swapped_pairs": 0.0,
                    "fraction_bins_acceptable": 0.0,
                },
            )
            entry["seeds"] += 1
            entry["mean_swapped_pairs"] += series.overall_mean
            entry["fraction_bins_acceptable"] += series.fraction_of_bins_acceptable()
    rows = []
    for entry in grouped.values():
        seeds = entry.pop("seeds")
        entry["mean_swapped_pairs"] /= seeds
        entry["fraction_bins_acceptable"] /= seeds
        entry["num_seeds"] = seeds
        rows.append(entry)
    rows.sort(key=lambda row: (row["source"], row["mean_swapped_pairs"], row["sampler"]))
    rank = 0
    current_source = None
    for row in rows:
        rank = rank + 1 if row["source"] == current_source else 1
        current_source = row["source"]
        row["rank"] = rank
    return rows


def comparison_rows(
    runs: list[StoredRun], baseline_store: RunStore, problem: str = "ranking"
) -> list[dict]:
    """Metric deltas of this sweep against the same cells of a baseline store.

    For every cell present in both stores (matched by spec key — the
    baseline must have been swept with the same grid), reports the mean
    swapped pairs here, in the baseline, and the delta (negative =
    better than baseline).  Cells missing from the baseline are listed
    with ``baseline=None``.
    """
    if problem not in ("ranking", "detection"):
        raise ValueError(f"unknown problem {problem!r}; expected 'ranking' or 'detection'")
    rows: list[dict] = []
    for stored in runs:
        baseline = baseline_store.get(stored.spec)
        store_map = (
            stored.result.ranking if problem == "ranking" else stored.result.detection
        )
        for summary in stored.result.samplers:
            series = store_map.get(summary.label)
            if series is None:
                continue
            row = {
                "source": _source_label(stored.spec),
                "seed": stored.spec.seed,
                "sampler": summary.label,
                "problem": problem,
                "mean_swapped_pairs": series.overall_mean,
                "baseline_mean_swapped_pairs": None,
                "delta": None,
            }
            if baseline is not None:
                base_map = (
                    baseline.result.ranking
                    if problem == "ranking"
                    else baseline.result.detection
                )
                base_series = base_map.get(summary.label)
                if base_series is not None:
                    row["baseline_mean_swapped_pairs"] = base_series.overall_mean
                    row["delta"] = series.overall_mean - base_series.overall_mean
            rows.append(row)
    return rows


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DistributedSweepReport",
    "FAULT_EVENTS",
    "FaultPlan",
    "Kill",
    "SweepGrid",
    "SweepReport",
    "SweepWorker",
    "WORKER_TELEMETRY_SCHEMA",
    "WorkerCrash",
    "WorkerPool",
    "WorkerReport",
    "aggregate_rows",
    "collect",
    "comparison_rows",
    "leaderboard_rows",
    "read_worker_telemetry",
    "run_sweep",
    "run_sweep_workers",
    "start_sweep_workers",
    "sweep_status",
    "worker_status",
]
