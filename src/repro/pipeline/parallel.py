"""Parallel execution of the independent cells of a pipeline.

Every trace-driven experiment in this repository is an embarrassingly
parallel sweep: the (sampler spec, run) streams evaluated by
:func:`repro.pipeline.executor.run_stream` never interact.  This module
turns that structure into an explicit :class:`ExecutionPlan` — one
:class:`Cell` per independent stream, each carrying its own
``SeedSequence`` child — and dispatches contiguous *batches* of cells
through one of two backends:

* ``"serial"`` — every cell in this process, over one expansion and one
  pass of the stream.  A large enough plan (see
  :meth:`ExecutionPlan.execute`) on a process that may use more than one
  CPU splits its cells into *lanes*, each folded on a thread of its own
  (the calling thread is lane 0 and pulls the source); otherwise one
  inline fold runs them all;
* ``"process"`` — one batch per worker process.  The parent expands the
  packet stream once and ships every chunk to each worker through a
  parent-owned ring of ``multiprocessing.shared_memory`` slots
  (:class:`SharedMemoryBatchChannel`): only small slot descriptors are
  pickled, the packet columns cross as plain memcpys, and each worker
  evaluates only its cells.  Workers are *warm*: a call that ends
  cleanly leaves them, with their rings, idle for the next call of the
  same shape in this interpreter (see :meth:`ExecutionPlan.execute`);
* ``"auto"`` — picks ``"process"`` when an explicit job count asks for
  it, or on a host with more usable CPUs than in-process lanes use when
  the workload is large; ``"serial"`` otherwise.

The process backend needs picklable sampler specs (each worker rebuilds
its samplers from them) and usable shared memory.  Without them
``"auto"`` runs serially and records why — in
:attr:`ExecutionPlan.fallback_reason` and the ``parallel.fallback``
telemetry gauge — while an explicit ``"process"`` raises ``ValueError``
naming the problem.  A worker that fails is reported as soon as it
exits, with its own error message.

Because every cell's sampler generator is derived from the cell's own
``SeedSequence`` child and every worker receives the parent's exact
packet stream, the merged :class:`~repro.pipeline.executor.StreamOutcome`
is **bit-identical** across backends for the same seed; merging orders
rows by cell index, never by completion order.  The test suite asserts
this equality.

>>> from repro.pipeline import Pipeline
>>> result = (
...     Pipeline()
...     .with_trace("sprint", scale=0.001, duration=120.0)
...     .with_sampler("bernoulli", rate=0.5)
...     .with_runs(2)
...     .with_seed(0)
...     .run(parallel="serial")
... )
>>> result.num_runs
2
"""

from __future__ import annotations

import atexit
import copy
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import telemetry
from ..flows.packets import PacketBatch
from ..registry import _BUILTIN_SAMPLERS, SAMPLERS
from ..traces.source import DEFAULT_CHUNK_PACKETS, PacketSource, _usable_cpus
from .executor import StreamOutcome, run_stream

if TYPE_CHECKING:
    from concurrent.futures import Future
    from multiprocessing.connection import Connection

#: Backend names accepted by :meth:`ExecutionPlan.execute`.
BACKENDS = ("auto", "serial", "process")

#: Ring slots per worker for the shared-memory transport: enough to keep
#: the producer ahead of a consumer without unbounded buffering.
SHM_SLOTS_PER_WORKER = 4

#: Seconds a transport waits for a live but silent peer before declaring
#: it wedged.  A peer that has exited is noticed within ``_POLL_S``.
TRANSPORT_TIMEOUT_S = 120.0

#: Seconds between liveness checks while the parent waits on a worker.
_POLL_S = 0.1

#: Seconds between an idle warm worker's checks that its parent lives.
_IDLE_POLL_S = 0.5

#: Seconds a closing pool waits for its workers at each step: stopped,
#: then terminated, then killed.
_STOP_WAIT_S = 1.0

#: Seconds an idle pool waits for its next call before it closes, so its
#: workers and their touched rings are held no longer than this after
#: the call that left them.  Repeated calls and a sweep's next source
#: pass come far sooner.
_IDLE_KEEP_S = 5.0

#: Minimum workload (total packets x cells, i.e. per-packet sampling
#: decisions) from which ``"auto"`` without a job count runs the process
#: backend, on a host with more usable CPUs than ``_MAX_LANES``.  The
#: figure is a guess, unmeasured: no such host was available.  On hosts
#: with at most ``_MAX_LANES`` usable CPUs ``"auto"`` stays in process,
#: where lanes beat two freshly started workers on every plan measured
#: (sprint, scale 0.05, 900 s, 2 vCPUs: 16 cells 0.195 s against 0.284 s,
#: 40 cells 0.309 s against 0.413 s; medians of 10 calls) and matched
#: two warm ones (40 cells: 0.298 s against 0.300 s, medians of 10).
AUTO_PROCESS_MIN_WORK = 8_000_000

#: Fewest streams a lane of the in-process backend folds.  Each lane
#: pays for a truth engine, bin closing and top-t ranking of its own.
#: Over ``rate_sweep``'s pre-built chunks (sprint, scale 0.05, 900 s, on
#: a 2-vCPU host) a one-stream ``run_stream`` cost 36-44 ns a packet and
#: each extra Bernoulli stream 6-8 ns, so a lane repays its engine only
#: with well over 36 / 6 ~ 44 / 8 ~ 6 streams.
_LANE_MIN_STREAMS = 8

#: Most lanes an in-process run folds.  Every lane timing and memory
#: figure so far was taken at two lanes on a 2-vCPU host, where two lanes
#: raised ``rate_sweep``'s peak RSS ~11% (each lane keeps a truth engine
#: and chunk temporaries of its own); three or more lanes were never
#: measured, so a host with more CPUs still folds two until they are.
#: The cap also bounds the lanes where the affinity mask overstates the
#: CPUs, as it does under a cgroup CPU quota, which it does not see.
_MAX_LANES = 2

#: Fewest packet-cells (:attr:`ExecutionPlan.packet_work`) an in-process
#: run splits into lanes.  The lane thread, its per-chunk hand-off and
#: the second truth engine cost the same whatever the plan does, so a
#: small plan loses: on a 2-vCPU host, sprint plans of 16 and 40
#: Bernoulli cells took, with two lanes, 2.2x and 1.6x the inline fold's
#: median time at 78k and 194k packet-cells, 1.14x at 1.2M, 0.93x at
#: 3.0M and 0.75x at 3.5M.  A source that cannot predict its packet
#: count reports no work, and its runs fold inline.
_LANE_MIN_WORK = 3_000_000


@dataclass(frozen=True)
class Cell:
    """One independent unit of pipeline work: a (sampler spec, run) pair.

    Attributes
    ----------
    stream_index:
        Global position of this cell's stream, ``spec_index * num_runs
        + run_index``; merge order is defined by this index.
    spec_index:
        Index into the plan's sampler specs.
    run_index:
        Independent sampling realisation number within the spec.
    seed:
        The ``SeedSequence`` child that (alone) seeds this cell's
        sampler, making the cell relocatable to any worker.
    """

    stream_index: int
    spec_index: int
    run_index: int
    seed: np.random.SeedSequence


@dataclass
class ExecutionPlan:
    """The independent cells of one pipeline run, ready to dispatch.

    An :class:`ExecutionPlan` is a fully resolved description of the
    work: the packet source, the flow-group mapping, the stream
    entropy, and one :class:`Cell` per (sampler spec, run) stream.  It
    is built by :meth:`repro.pipeline.Pipeline.plan` and consumed by
    :meth:`execute`; it is also the natural unit to inspect when
    reasoning about scaling (``plan.num_cells``, ``plan.packet_work``).

    ``"serial"`` execution means *in process*, not one thread: a large
    enough plan on more than one usable CPU has :meth:`execute` fold its
    :meth:`batches` of cells as lanes, each on a thread of its own, over
    one source pass.

    Attributes
    ----------
    source:
        The resolved :class:`~repro.traces.source.PacketSource` every
        cell streams (a :class:`~repro.traces.source.FlowTraceSource`
        for classic ``with_trace`` pipelines, any composed source for
        scenario workloads).
    groups:
        Flow id to flow-group mapping under the chosen flow definition.
    expand_entropy:
        Source of the stream's randomness (packet placement etc.): a
        ``SeedSequence`` child of the pipeline seed.  Every
        :meth:`execute` derives a *fresh* generator from a copy of it,
        so each execution streams the bit-identical packets.
    sampler_specs:
        The pipeline's sampler specs, indexed by ``Cell.spec_index``.
    cells:
        One cell per independent stream, in stream order.
    bin_duration, top_t, chunk_packets:
        Evaluation parameters, as in :func:`run_stream` and
        :meth:`PacketSource.iter_chunks
        <repro.traces.source.PacketSource.iter_chunks>`.
    max_flows:
        Flow-memory bound of every stream's monitor, as in
        :func:`run_stream`; ``None`` (unbounded) for plain runs.  Both
        backends hand it to :func:`run_stream`, so a bounded monitor
        run dispatches like any other.
    """

    source: PacketSource
    groups: np.ndarray
    expand_entropy: np.random.SeedSequence
    sampler_specs: list
    cells: list[Cell]
    bin_duration: float
    top_t: int
    chunk_packets: int | None
    max_flows: int | None = None
    #: Set by :meth:`execute` when the ``"auto"`` backend ran serially
    #: because the process backend cannot run here (unpicklable sampler
    #: specs, unusable shared memory) — the downgrade is observable
    #: instead of silent.  ``None`` when the last execution did not
    #: fall back.
    fallback_reason: str | None = None
    #: Transport the last :meth:`execute` used: ``"shm"`` for the
    #: process backend, ``None`` for serial execution (no transport).
    transport_used: str | None = None

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of independent (sampler spec, run) streams."""
        return len(self.cells)

    @property
    def packet_work(self) -> int:
        """Total per-packet sampling decisions: packets x cells.

        The quantity the ``"auto"`` backend compares against
        :data:`AUTO_PROCESS_MIN_WORK`.  Sources that cannot predict
        their packet count report zero work, which keeps ``"auto"``
        dispatch serial unless an explicit job count asks otherwise.
        """
        return int(self.source.expected_packets or 0) * self.num_cells

    def _lanes(self) -> list[list[int]]:
        """The cells of an in-process run, split into the lanes that fold them.

        More than one lane only when the plan reaches ``_LANE_MIN_WORK``
        packet-cells, each lane gets ``_LANE_MIN_STREAMS`` cells or more,
        the process may use more than one CPU (its affinity mask) and
        ``multiprocessing`` did not start it: a sweep drain's worker
        processes, like process-backend workers, already share the CPUs
        with their siblings.  At most ``_MAX_LANES``.
        """
        if self.packet_work < _LANE_MIN_WORK or multiprocessing.parent_process() is not None:
            return self.batches(1)
        return self.batches(min(_usable_cpus(), _MAX_LANES, self.num_cells // _LANE_MIN_STREAMS))

    def batches(self, count: int) -> list[list[int]]:
        """Split the cell indices into ``count`` contiguous batches.

        Parameters
        ----------
        count:
            Desired number of batches; capped at the number of cells.

        Returns
        -------
        list[list[int]]
            Non-empty, contiguous, in-order index batches.  Contiguity
            keeps each worker's cells adjacent in stream order, and the
            near-equal sizes balance the per-worker sampling and
            accounting work.
        """
        count = max(1, min(int(count), self.num_cells))
        bounds = np.linspace(0, self.num_cells, count + 1).astype(int)
        return [list(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def pickle_check(self) -> str | None:
        """Why the sampler specs cannot be shipped to worker processes, if they cannot.

        The process backend pickles only what crosses into the workers:
        each worker rebuilds its samplers from the plan's sampler specs,
        while the source stays in the parent, which expands the stream
        and ships the packets.  Returns ``None`` when the specs
        serialise, or a short diagnostic (exception type and message)
        when they do not.  Only genuine serialisation failures are
        caught — ``PicklingError`` (lambdas, local closures),
        ``TypeError`` (open handles, locks) and ``AttributeError``
        (objects whose module-level name is gone) — so a real bug inside
        ``__reduce__`` still surfaces.
        """
        try:
            pickle.dumps(self.sampler_specs)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            return f"{type(error).__name__}: {error}"
        return None

    def _process_problem(self) -> str | None:
        """Why the process backend cannot run this plan here — or ``None``."""
        problem = self.pickle_check()
        if problem is not None:
            return (
                "the pipeline uses sampler factories or instances that cannot be "
                f"pickled to worker processes ({problem})"
            )
        problem = probe_shared_memory()
        if problem is not None:
            return f"shared memory is unusable here ({problem})"
        return None

    # ------------------------------------------------------------------
    def resolve_backend(self, backend: str = "auto", jobs: int | None = None) -> tuple[str, int]:
        """Normalise (backend, jobs) into a concrete dispatch decision.

        Parameters
        ----------
        backend:
            One of :data:`BACKENDS`.  ``"auto"`` chooses ``"process"``
            when an explicit ``jobs > 1`` was requested.  Without a job
            count it chooses ``"process"`` only when the process may use
            more CPUs (its affinity mask, as for lanes) than
            ``_MAX_LANES`` and :attr:`packet_work` reaches
            :data:`AUTO_PROCESS_MIN_WORK`; with fewer usable CPUs it
            stays in process, where a large plan folds as lanes.
        jobs:
            Worker count; ``None`` means one per usable CPU.  Always
            capped at the number of cells.

        Returns
        -------
        tuple[str, int]
            The chosen backend (``"serial"`` or ``"process"``) and the
            resolved worker count.
        """
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        cpus = _usable_cpus()
        resolved_jobs = jobs if jobs is not None else cpus
        if resolved_jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        resolved_jobs = min(int(resolved_jobs), self.num_cells)
        if backend == "auto":
            if jobs is not None:
                backend = "process" if resolved_jobs > 1 else "serial"
            elif (
                cpus > _MAX_LANES
                and resolved_jobs > 1
                and self.packet_work >= AUTO_PROCESS_MIN_WORK
            ):
                backend = "process"
            else:
                backend = "serial"
        if backend == "serial":
            resolved_jobs = 1
        return backend, resolved_jobs

    def execute(self, backend: str = "auto", jobs: int | None = None) -> StreamOutcome:
        """Run every cell and merge the outcomes deterministically.

        Parameters
        ----------
        backend:
            ``"serial"`` (in process), ``"process"`` or ``"auto"`` (the
            default).  When the process backend cannot run here (see
            :meth:`pickle_check` and :func:`probe_shared_memory`),
            ``"auto"`` runs serially and records why in
            :attr:`fallback_reason`; ``"process"`` raises
            ``ValueError``.  In process, a plan of ``_LANE_MIN_WORK``
            packet-cells or more folds as up to ``_MAX_LANES`` lanes,
            one per usable CPU (the affinity mask), each of at least
            ``_LANE_MIN_STREAMS`` cells on a thread of its own.  A
            process pinned to one CPU, a smaller plan, a process that
            ``multiprocessing`` started (a sweep drain's worker, say)
            and process-backend workers fold inline.
        jobs:
            Worker processes for the process backend; ``None`` means one
            per usable CPU.  It sets no lane count.

        The process backend's workers are warm.  When every sampler
        spec names a built-in registry sampler, the call takes the idle
        workers this interpreter left from an earlier call of the same
        start method, worker count and slot capacity (or starts them),
        and a call that ends cleanly leaves them idle again, rings
        mapped; any failure or interruption stops them.  A plan with a
        sampler factory, an instance or a user-registered name gets
        workers for its call alone.  The counter
        ``parallel.workers_started`` reads the workers a call started:
        ``jobs`` on a cold call, 0 on a warm one.  The idle workers stop
        ``_IDLE_KEEP_S`` after the call that left them unless another
        call takes them first, at interpreter exit, or within
        ``_IDLE_POLL_S`` of the interpreter's death.

        Returns
        -------
        StreamOutcome
            Per-bin metric rows for every stream, ordered by cell index
            — bit-identical across backends for the same plan.

        Raises
        ------
        RuntimeError
            When a worker process fails; the message carries the
            worker's own error, or its exit code if it posted none.  A
            lane's error (a sampler that raises, say) is raised as it
            is, as the inline fold raises it.
        """
        choice, resolved_jobs = self.resolve_backend(backend, jobs)
        self.fallback_reason = None
        self.transport_used = None
        if choice == "process":
            problem = self._process_problem()
            if problem is not None:
                if backend == "process":
                    raise ValueError(f"{problem}; run with parallel='serial' instead")
                # auto mode degrades gracefully — and observably.
                self.fallback_reason = f"auto backend fell back to serial: {problem}"
                choice, resolved_jobs = "serial", 1
        lanes = self._lanes() if choice == "serial" else []
        if telemetry.enabled:
            telemetry.gauge("parallel.backend", choice)
            telemetry.gauge("parallel.jobs", resolved_jobs)
            telemetry.gauge("parallel.lanes", max(len(lanes), 1))
            if self.fallback_reason is not None:
                telemetry.gauge("parallel.fallback", self.fallback_reason)
        if len(lanes) > 1:
            parts = self._execute_lanes(lanes)
        elif choice == "serial":
            parts = [self._fold(range(self.num_cells), self._chunks())]
        else:
            self.transport_used = "shm"
            if telemetry.enabled:
                telemetry.gauge("parallel.transport", "shm")
            parts = self._execute_streamed(resolved_jobs)
        return merge_outcomes(parts, self.num_cells)

    def _fold(
        self, indices: Iterable[int], chunks: Iterable[PacketBatch]
    ) -> tuple[list[int], StreamOutcome]:
        """One lane's part: ``chunks`` folded through the cells at ``indices``."""
        cells = [self.cells[index] for index in indices]
        outcome = _fold_cells(
            chunks, self.sampler_specs, cells, self.groups, self.bin_duration, self.top_t,
            self.max_flows,
        )
        return [cell.stream_index for cell in cells], outcome

    def _execute_lanes(self, lanes: list[list[int]]) -> list[tuple[list[int], StreamOutcome]]:
        """Fold each lane of cells on a thread of its own over one source pass.

        The calling thread is lane 0: it pulls each chunk from the
        source, hands it to every other lane through a one-chunk queue,
        then folds it through its own cells' streams.  A lane that
        raises stops taking chunks, and lane 0 raises its error at its
        next hand-off instead of waiting on a full queue; if lane 0
        raises, the other lanes' streams end where they are.  Either
        way no lane thread outlives the call.
        """
        # Imported here, as the merge read-ahead does: with the logging it
        # loads, ~8 ms that a process which never runs lanes does not pay.
        import concurrent.futures

        feeds: list[queue_module.Queue] = [queue_module.Queue(maxsize=1) for _ in lanes[1:]]
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=len(feeds), thread_name_prefix="stream-lane"
        )
        helpers: list[Future] = []

        def lead() -> Iterator[PacketBatch]:
            for chunk in self._chunks():
                for feed, helper in zip(feeds, helpers):
                    _hand_off(feed, helper, chunk)
                yield chunk
            for feed, helper in zip(feeds, helpers):
                _hand_off(feed, helper, None)

        stream = lead()
        try:
            for lane, feed in zip(lanes[1:], feeds):
                helpers.append(pool.submit(self._fold, lane, _drain(feed)))
            parts = [self._fold(lanes[0], stream)]
            return parts + [helper.result() for helper in helpers]
        finally:
            stream.close()
            for feed in feeds:
                # Ends a stream lane 0 broke off; a queued chunk is dropped.
                try:
                    feed.get_nowait()
                except queue_module.Empty:
                    pass
                feed.put_nowait(None)
            pool.shutdown(wait=True)

    def _execute_streamed(self, jobs: int) -> list[tuple[list[int], StreamOutcome]]:
        """Expand once in the parent and stream chunks to every worker over shm.

        The workers are the idle warm pool when it matches this call and
        the plan runs only built-in samplers (:func:`_reusable`), fresh
        ones otherwise.  Each gets its batch of cells as one job, then
        the stream through its own :class:`SharedMemoryBatchChannel`.
        A slot holds twice the target chunk size; the rarer larger
        chunks travel as slot-sized slices (see
        :meth:`SharedMemoryBatchChannel.send`).  Each channel watches its
        worker, so a worker that exits early is reported while the
        parent is still sending instead of after a transport timeout.
        The parent owns every segment, and a call that does not end
        cleanly closes its pool, so a crashed (even SIGKILLed) worker
        cannot leak shared memory.
        """
        context = multiprocessing.get_context()
        batches = self.batches(jobs)
        capacity = 2 * int(self.chunk_packets or DEFAULT_CHUNK_PACKETS)
        reusable = _reusable(self.sampler_specs)
        pool = _take_idle_pool((context.get_start_method(), jobs, capacity)) if reusable else None
        started = 0
        if pool is None:
            pool = _WorkerPool(context, jobs, capacity)
            started = jobs
        telemetry.count("parallel.workers_started", started)
        clean = False
        try:
            for batch, worker in zip(batches, pool.workers):
                worker.post_job(
                    (
                        self.sampler_specs,
                        [self.cells[index] for index in batch],
                        self.groups,
                        self.bin_duration,
                        self.top_t,
                        self.max_flows,
                        telemetry.enabled,
                    )
                )
            channels = [worker.channel for worker in pool.workers]
            for chunk in self._chunks():
                for channel in channels:
                    channel.send(chunk)
            for channel in channels:
                channel.close_sending()
            parts: list[tuple[list[int], StreamOutcome]] = []
            snapshots: list[dict] = []
            for batch, channel in zip(batches, channels):
                outcome, snapshot = channel.result()
                parts.append(([self.cells[index].stream_index for index in batch], outcome))
                if snapshot is not None:
                    snapshots.append(snapshot)
            if snapshots:
                telemetry.absorb(snapshots)
            clean = True
            return parts
        finally:
            if clean and reusable:
                _leave_idle(pool)
            else:
                pool.close(stop=clean)

    # ------------------------------------------------------------------
    def _chunks(self) -> Iterator[PacketBatch]:
        """The plan's packet stream, replayed from a fresh generator.

        The generator is seeded from a *copy* of :attr:`expand_entropy`:
        sources that spawn child generators (``MergeSource``) advance
        the spawn counter of the sequence they are given, and a shared
        sequence would make the next execution replay a different
        stream.  The ``stream.chunks`` / ``stream.packets`` counters
        count the stream here, once per source pass, however many lanes
        or workers fold it.
        """
        rng = np.random.default_rng(copy.deepcopy(self.expand_entropy))
        for chunk in self.source.iter_chunks(rng, chunk_packets=self.chunk_packets):
            if telemetry.enabled and len(chunk):
                telemetry.count("stream.chunks")
                telemetry.count("stream.packets", len(chunk))
            yield chunk


def _spawn_probe_target() -> None:
    """No-op child-process target for :func:`probe_process_spawn`."""


def probe_process_spawn(timeout: float = 30.0) -> str | None:
    """Why worker processes cannot be started here — or ``None`` if they can.

    Starts (and immediately joins) one trivial child process.  Sandboxed
    or resource-exhausted environments fail at ``fork``/``spawn`` time
    with ``OSError``/``PermissionError``; interpreters embedded without
    a main module raise ``RuntimeError``.  Callers that want graceful
    degradation (``repro.sweep.run_sweep_workers``) probe once up front
    instead of half-starting a worker pool.

    Parameters
    ----------
    timeout:
        Seconds to wait for the probe child to exit before declaring
        the environment unusable for process workers.

    Returns
    -------
    str | None
        ``None`` when a child process started and exited cleanly, else
        a one-line diagnostic naming the failure.
    """
    try:
        process = multiprocessing.get_context().Process(
            target=_spawn_probe_target, daemon=True
        )
        process.start()
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join(1.0)
            return f"probe process did not exit within {timeout:g}s"
        if process.exitcode != 0:
            return f"probe process exited with code {process.exitcode}"
    except (OSError, PermissionError, RuntimeError, ValueError) as error:
        return f"{type(error).__name__}: {error}"
    return None


def probe_shared_memory() -> str | None:
    """Why ``multiprocessing.shared_memory`` is unusable here — or ``None``.

    Creates, writes, reads and unlinks a tiny segment.  Sandboxes
    without a usable ``/dev/shm`` fail at creation time with
    ``OSError``/``PermissionError``; the probe turns that into a
    one-line diagnostic the ``"auto"`` transport records instead of
    crashing mid-sweep.
    """
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=16)
        try:
            segment.buf[0] = 42
            if segment.buf[0] != 42:
                return "shared memory readback mismatch"
        finally:
            segment.close()
            segment.unlink()
    except (ImportError, OSError, PermissionError, ValueError) as error:
        return f"{type(error).__name__}: {error}"
    return None


class SharedMemoryBatchChannel:
    """Parent-owned link to one worker: a ring of shared-memory slots out, a result back.

    One channel connects the parent (producer) to one worker process
    (consumer).  The parent pre-creates ``slots`` fixed-size shared
    memory segments, each laid out as the two :class:`PacketBatch`
    columns back to back (``float64`` timestamps, ``int64`` flow ids:
    16 bytes a packet); :meth:`send` copies a batch's columns into free
    slots and posts ``(slot, count)`` descriptors, :meth:`receive` (in
    the worker) rebuilds each batch from its slot and returns the slot
    to the free ring.  Only the small descriptors are pickled — the
    packet columns cross the process boundary as plain memcpys.  The
    worker answers once, through :meth:`post_result`, and the parent
    collects the answer with :meth:`result`.

    Failure detection: the parent records the worker process in
    :attr:`consumer`.  While the parent waits — for a free slot or for
    the result — it checks every ``_POLL_S`` whether the consumer has
    exited, and if so raises ``RuntimeError`` carrying the error the
    worker posted (or its exit code when it posted none).
    :data:`TRANSPORT_TIMEOUT_S` bounds only a consumer that is alive
    but wedged.

    A channel carries any number of streams, one after another: each
    ends with :meth:`close_sending` and one answer, and the ring and the
    worker's mappings stay for the next stream.

    Crash safety: the *parent* creates, unlinks and closes every segment
    (:meth:`unlink` and :meth:`close`, both idempotent).  A worker that
    dies mid-transfer — even ``SIGKILL`` — leaks nothing, because it
    never owns a segment.

    Parameters
    ----------
    capacity_packets:
        Packets one slot can carry; larger batches are split.
    slots:
        Ring depth; bounds how far the producer can run ahead.
    context:
        Multiprocessing context for the descriptor and result queues.
    """

    #: The worker process draining this channel (parent side only);
    #: ``None`` until the parent assigns it.
    consumer: multiprocessing.process.BaseProcess | None

    def __init__(
        self,
        capacity_packets: int,
        slots: int = SHM_SLOTS_PER_WORKER,
        context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        from multiprocessing import shared_memory

        if capacity_packets < 1:
            raise ValueError(f"capacity_packets must be at least 1, got {capacity_packets}")
        if slots < 1:
            raise ValueError(f"slots must be at least 1, got {slots}")
        ctx = context if context is not None else multiprocessing.get_context()
        self.capacity = int(capacity_packets)
        self._slot_bytes = self.capacity * (8 + 8)
        self._segments: list | None = [
            shared_memory.SharedMemory(create=True, size=self._slot_bytes)
            for _ in range(slots)
        ]
        self.segment_names = [segment.name for segment in self._segments]
        self._ready: multiprocessing.queues.Queue = ctx.Queue()
        self._free: multiprocessing.queues.Queue = ctx.Queue()
        self._results: multiprocessing.queues.Queue = ctx.Queue()
        for index in range(slots):
            self._free.put(index)
        self.consumer = None
        self._owner = True
        self._unlinked = False

    # -- pickling: the worker re-attaches segments by name ---------------
    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "_slot_bytes": self._slot_bytes,
            "segment_names": self.segment_names,
            "_ready": self._ready,
            "_free": self._free,
            "_results": self._results,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._segments = None
        self.consumer = None
        self._owner = False
        self._unlinked = False

    def _attach(self) -> bool:
        """Map the segments by name in a worker that did not inherit them.

        Returns whether it had to: a forked worker inherits the parent's
        handles and never attaches.  A spawned worker shares the parent's
        resource tracker, which keys segments by name: attaching
        re-registers a name it already holds, and the parent's unlink,
        which waits until the worker has attached, unregisters it once.
        """
        if self._segments is not None:
            return False
        from multiprocessing import shared_memory

        self._segments = [shared_memory.SharedMemory(name=name) for name in self.segment_names]
        return True

    def _views(self, slot: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        assert self._segments is not None
        buffer = self._segments[slot].buf
        timestamps = np.ndarray(count, dtype=np.float64, buffer=buffer)
        flow_ids = np.ndarray(count, dtype=np.int64, buffer=buffer, offset=self.capacity * 8)
        return timestamps, flow_ids

    def _wait(self, source: multiprocessing.queues.Queue, timeout: float, stalled: str) -> Any:
        """Take the next item from ``source``, or ``None`` once the consumer has exited.

        Raises
        ------
        TimeoutError
            With ``stalled`` as the message, when nothing arrives within
            ``timeout`` seconds from a consumer that is still alive.
        """
        for _ in range(max(1, math.ceil(timeout / _POLL_S))):
            try:
                return source.get(timeout=min(timeout, _POLL_S))
            except queue_module.Empty:
                pass
            if self.consumer is not None and self.consumer.exitcode is not None:
                # Whatever the consumer posted is flushed before it exits.
                try:
                    return source.get_nowait()
                except queue_module.Empty:
                    return None
        raise TimeoutError(stalled)

    def _failure(self, message: tuple | None) -> RuntimeError:
        """The error for a consumer that answered ``message`` (``None``: nothing) and exited."""
        if message is not None and message[0] == "error":
            detail = message[1]
        else:
            assert self.consumer is not None
            detail = f"exited with code {self.consumer.exitcode} before posting a result"
        return RuntimeError(f"transport worker failed: {detail}")

    # -- producer side ---------------------------------------------------
    def send(self, batch: PacketBatch, timeout: float = TRANSPORT_TIMEOUT_S) -> None:
        """Copy one batch into free slots and post their descriptors.

        A batch larger than one slot travels as consecutive slot-sized
        slices, which the consumer receives as separate time-ordered
        chunks — the stream is the same, and stream results do not
        depend on chunk boundaries.  Empty batches post nothing.

        Raises
        ------
        RuntimeError
            When the consumer has exited (see :meth:`_wait`).
        TimeoutError
            When no slot frees up within ``timeout`` seconds — the
            consumer is alive but has stopped draining.
        """
        stalled = (
            f"no free transport slot within {timeout:g}s; the worker "
            "has stopped draining the channel"
        )
        total = len(batch)
        for lo in range(0, total, self.capacity):
            hi = min(lo + self.capacity, total)
            slot = self._wait(self._free, timeout, stalled)
            if slot is None:
                # The worker left before the end of the stream, so what
                # it posted, if anything, is its error.
                raise self._failure(self._wait(self._results, timeout, stalled))
            timestamps, flow_ids = self._views(slot, hi - lo)
            timestamps[:] = batch.timestamps[lo:hi]
            flow_ids[:] = batch.flow_ids[lo:hi]
            self._ready.put((slot, hi - lo))

    def close_sending(self) -> None:
        """Signal end of stream to the consumer."""
        self._ready.put(None)

    def result(self) -> tuple[StreamOutcome, dict | None]:
        """Wait for the worker's ``(outcome, telemetry snapshot)``.

        Raises
        ------
        RuntimeError
            When the worker posted an error or exited without a result.
        TimeoutError
            When a live worker posts nothing within
            :data:`TRANSPORT_TIMEOUT_S` seconds.
        """
        message = self._wait(
            self._results,
            TRANSPORT_TIMEOUT_S,
            f"the transport worker produced no result within {TRANSPORT_TIMEOUT_S:g}s",
        )
        if message is None or message[0] == "error":
            raise self._failure(message)
        return message[1], message[2]

    # -- consumer side ---------------------------------------------------
    def receive(self, timeout: float = TRANSPORT_TIMEOUT_S) -> Iterator[PacketBatch]:
        """Yield the batches in transfer order until end of stream.

        Each batch is copied out of its slot before the slot returns to
        the free ring, so the yielded arrays are ordinary process-local
        NumPy arrays (already validated by the producer — the
        constructor checks are skipped).  The worker keeps its mappings
        for the channel's next stream; they go when it exits.
        """
        self._attach()
        while True:
            item = self._ready.get(timeout=timeout)
            if item is None:
                return
            slot, count = item
            timestamps, flow_ids = self._views(slot, count)
            batch = PacketBatch.from_trusted_columns(timestamps.copy(), flow_ids.copy())
            self._free.put(slot)
            yield batch

    def post_result(self, message: tuple) -> None:
        """Send the answer to one stream: ``("ok", outcome, snapshot)`` or ``("error", text)``."""
        self._results.put(message)

    # -- owner cleanup ---------------------------------------------------
    def unlink(self) -> None:
        """Remove every segment's name (parent side; idempotent).

        Safe to call regardless of worker state.  The segments stay
        usable in every process that has mapped them, and their memory
        goes with the last mapping (see :meth:`close`).  The process
        backend unlinks as soon as its worker has mapped the segments,
        so no name outlives a pool's start-up, and a SIGKILLed parent
        leaves nothing in ``/dev/shm``.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        assert self._segments is not None
        for segment in self._segments:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Unlink every segment if not yet done, and unmap it (parent side; idempotent)."""
        if not self._owner or self._segments is None:
            return
        self.unlink()
        for segment in self._segments:
            segment.close()
        self._segments = None


def _build_samplers(sampler_specs: list, cells: list[Cell]) -> list:
    """One fresh sampler per cell, seeded from the cell's own seed alone."""
    return [
        sampler_specs[cell.spec_index].build(np.random.default_rng(cell.seed)) for cell in cells
    ]


def _fold_cells(
    chunks: Iterable[PacketBatch],
    sampler_specs: list,
    cells: list[Cell],
    groups: np.ndarray,
    bin_duration: float,
    top_t: int,
    max_flows: int | None,
) -> StreamOutcome:
    """Fold ``chunks`` through one fresh sampler per cell: a lane's or a worker's work."""
    samplers = _build_samplers(sampler_specs, cells)
    return run_stream(chunks, groups, samplers, bin_duration, top_t, max_flows=max_flows)


def _hand_off(feed: queue_module.Queue, lane: Future, item: PacketBatch | None) -> None:
    """Queue ``item`` for a helper lane, or raise the lane's error once it has stopped.

    The lane is checked before every wait, so a lane that failed (and
    so stopped draining ``feed``) can never leave lane 0 blocked on a
    full queue.
    """
    while True:
        if lane.done():
            lane.result()
            raise RuntimeError("a stream lane ended before its packet stream did")
        try:
            feed.put(item, timeout=_POLL_S)
            return
        except queue_module.Full:
            pass


def _drain(feed: queue_module.Queue) -> Iterator[PacketBatch]:
    """A helper lane's packet stream: the chunks lane 0 queues, up to ``None``."""
    while (chunk := feed.get()) is not None:
        yield chunk


def _stream_worker(channel: SharedMemoryBatchChannel, job: bytes) -> bool:
    """One job of a process-backend worker; returns whether it succeeded.

    ``job`` pickles ``(sampler_specs, cells, groups, bin_duration,
    top_t, max_flows, telemetry_on)``.  Receives the parent's exact
    packet stream through ``channel`` — so every cell sees the very same
    packet stream the serial backend would — evaluates ``cells`` on it,
    and posts ``("ok", outcome, snapshot)`` or ``("error", message)``
    back on the channel.  ``snapshot`` is this job's telemetry registry
    when the parent had telemetry on, ``None`` otherwise: the registry
    is reset and the flag set from the job, since a reused worker still
    holds its last job's.
    """
    try:
        specs, cells, groups, bin_duration, top_t, max_flows, telemetry_on = pickle.loads(job)
        telemetry.reset()
        if telemetry_on:
            telemetry.enable(reset=False)
        else:
            telemetry.disable()
        outcome = _fold_cells(
            channel.receive(), specs, cells, groups, bin_duration, top_t, max_flows
        )
        snapshot = telemetry.snapshot() if telemetry_on else None
        channel.post_result(("ok", outcome, snapshot))
        return True
    except BaseException as error:  # noqa: BLE001 - marshalled to the parent
        channel.post_result(("error", f"{type(error).__name__}: {error}"))
        return False


def _warm_worker(channel: SharedMemoryBatchChannel, jobs: Connection) -> None:
    """Entry point of a process-backend worker: one :func:`_stream_worker` per job.

    Maps the ring (a spawned worker then tells the parent, which
    unlinks the names), and leaves the resource tracker, whose pipe it
    would otherwise hold open.  SIGINT is ignored, since the parent
    decides when its workers stop, and SIGTERM takes its default action
    whatever handler a forked worker inherited.  Returns when the
    parent sends an empty job or closes its end of ``jobs``, after a
    job that failed, or, while idle, within ``_IDLE_POLL_S`` of the
    parent's death.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    if channel._attach():
        channel.post_result(("attached",))
    _leave_resource_tracker()
    try:
        while True:
            while not jobs.poll(_IDLE_POLL_S):
                if os.getppid() != parent:
                    return
            job = jobs.recv_bytes()
            if not job or not _stream_worker(channel, job):
                return
    except EOFError:
        return


def _leave_resource_tracker() -> None:
    """Close this process's copy of the pipe to ``multiprocessing``'s resource tracker.

    A forked or spawned worker holds it open, and the tracker exits only
    when every copy is closed, so an idle worker would keep a parent
    that stops its tracker (``perfbench/run.py`` does at exit) waiting.
    The worker never creates or unlinks a segment; should it register
    anything later, the tracker module starts one of its own.
    """
    from multiprocessing import resource_tracker

    tracker: Any = resource_tracker._resource_tracker  # its pipe fields are private
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None


class _Worker:
    """Parent side of one process-backend worker: its process, ring and job pipe."""

    def __init__(self, context: multiprocessing.context.DefaultContext, capacity: int) -> None:
        receiver, self.jobs = context.Pipe(duplex=False)
        self.channel = SharedMemoryBatchChannel(capacity, context=context)
        self.process = context.Process(
            target=_warm_worker, args=(self.channel, receiver), daemon=True
        )
        self._receiver: Connection | None = receiver

    def start(self) -> None:
        """Start the process; the channel then watches it."""
        assert self._receiver is not None
        try:
            self.process.start()
        finally:
            # The worker has its own end now; holding ours would hide its exit.
            self._receiver.close()
            self._receiver = None
        self.channel.consumer = self.process

    def post_job(self, job: tuple) -> None:
        """Hand the worker its next job (see :func:`_stream_worker`); it is idle."""
        try:
            self.jobs.send_bytes(pickle.dumps(job))
        except OSError as error:
            raise RuntimeError(f"transport worker failed: cannot take a job ({error})") from error

    def stop(self) -> None:
        """Ask the worker to exit once it is idle; a worker already gone is ignored."""
        try:
            self.jobs.send_bytes(b"")
        except OSError:
            pass


class _WorkerPool:
    """The workers of one process-backend call, kept warm between calls.

    ``key`` is (start method, worker count, slot capacity): a call takes
    the idle pool only when its own key matches.  Starting unlinks each
    worker's segment names as soon as the worker has mapped them: right
    after start under ``fork``, after the worker's ``("attached",)``
    answer under ``spawn`` and ``forkserver``.
    """

    def __init__(
        self, context: multiprocessing.context.DefaultContext, jobs: int, capacity: int
    ) -> None:
        self.key = (context.get_start_method(), jobs, capacity)
        self.workers: list[_Worker] = []
        started = False
        try:
            for _ in range(jobs):
                self.workers.append(_Worker(context, capacity))
                self.workers[-1].start()
            for worker in self.workers:
                channel = worker.channel
                if self.key[0] != "fork":
                    message = channel._wait(
                        channel._results,
                        TRANSPORT_TIMEOUT_S,
                        f"the transport worker did not start within {TRANSPORT_TIMEOUT_S:g}s",
                    )
                    if message != ("attached",):
                        raise channel._failure(message)
                channel.unlink()
            started = True
        finally:
            if not started:
                self.close(stop=False)
        # Registered again after multiprocessing's own exit hook, which
        # starting a worker installs, so that this one runs first and
        # the idle workers exit on their own instead of being terminated.
        atexit.unregister(_close_idle_pool)
        atexit.register(_close_idle_pool)

    def close(self, stop: bool = True) -> None:
        """End every worker and release its ring (idempotent; every wait is bounded).

        ``stop`` asks idle workers to exit and gives each ``_STOP_WAIT_S``
        to do so; a call that failed passes ``False``, and its workers,
        which may be mid-job, are terminated at once.  A worker that
        survives termination is killed.
        """
        workers, self.workers = self.workers, []
        processes = [worker.process for worker in workers if worker.channel.consumer is not None]
        if stop:
            for worker in workers:
                worker.stop()
            for process in processes:
                process.join(_STOP_WAIT_S)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(_STOP_WAIT_S)
            if process.is_alive():
                process.kill()
                process.join(_STOP_WAIT_S)
        for worker in workers:
            worker.jobs.close()
            worker.channel.close()


#: The idle pool: workers a call left for the next one.  At most one per
#: interpreter; a call takes it out under ``_pool_lock``, so concurrent
#: calls never share workers.  ``_idle_timer`` closes it ``_IDLE_KEEP_S``
#: after it went idle.
_idle_pool: _WorkerPool | None = None
_idle_timer: threading.Timer | None = None
_pool_lock = threading.Lock()


def _reusable(sampler_specs: list) -> bool:
    """Whether warm workers may run these specs: each names a built-in sampler.

    A warm worker runs the library as it was when the worker started.  A
    sampler factory, an instance or a name registered since may be code
    it never saw, so such plans get workers for their call alone.
    """
    return all(
        spec.factory is None
        and spec.instance is None
        and spec.name in SAMPLERS
        and SAMPLERS.get(spec.name) in _BUILTIN_SAMPLERS
        for spec in sampler_specs
    )


def _take_idle_pool(key: tuple) -> _WorkerPool | None:
    """The idle pool, if its key matches and every worker lives; else ``None``.

    The idle pool leaves its slot either way; one that does not fit is
    closed, so a worker killed between calls is replaced.
    """
    global _idle_pool, _idle_timer
    with _pool_lock:
        pool, _idle_pool = _idle_pool, None
        timer, _idle_timer = _idle_timer, None
    _cancel(timer)
    if pool is not None and (
        pool.key != key or not all(worker.process.is_alive() for worker in pool.workers)
    ):
        pool.close()
        pool = None
    return pool


def _leave_idle(pool: _WorkerPool | None) -> None:
    """Keep ``pool`` for ``_IDLE_KEEP_S``, closing the idle pool it replaces."""
    global _idle_pool, _idle_timer
    with _pool_lock:
        previous, _idle_pool = _idle_pool, pool
        timer, _idle_timer = _idle_timer, None
        if pool is not None:
            _idle_timer = threading.Timer(_IDLE_KEEP_S, _expire_idle_pool, args=(pool,))
            _idle_timer.daemon = True
            _idle_timer.start()
    _cancel(timer)
    if previous is not None:
        previous.close()


def _expire_idle_pool(pool: _WorkerPool) -> None:
    """Close ``pool`` if it is still the idle pool (``_idle_timer``'s thread)."""
    global _idle_pool
    with _pool_lock:
        if _idle_pool is not pool:
            return
        _idle_pool = None
    pool.close()


def _cancel(timer: threading.Timer | None) -> None:
    """Stop ``timer``, waiting out a close it has begun, so no fork overlaps it."""
    if timer is not None:
        timer.cancel()
        timer.join()


def _close_idle_pool() -> None:
    """Stop the idle pool's workers and release their rings (at exit, and in tests)."""
    _leave_idle(None)


def _forget_idle_pool() -> None:
    """In a forked child: no idle pool, since the workers are the parent's."""
    global _idle_pool, _idle_timer, _pool_lock
    _idle_pool = None
    _idle_timer = None
    _pool_lock = threading.Lock()


# Without fork (Windows) no child can inherit the idle pool.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_pool)


def merge_outcomes(
    parts: list[tuple[list[int], StreamOutcome]], num_streams: int
) -> StreamOutcome:
    """Fold per-batch outcomes into one, ordered by stream index.

    Parameters
    ----------
    parts:
        ``(stream indices, outcome)`` pairs, one per batch; together
        they must cover every stream exactly once.
    num_streams:
        Total number of streams across all parts.

    Returns
    -------
    StreamOutcome
        One outcome whose metric rows and eviction counts sit at their
        stream index, regardless of batch completion order.  The shared
        fields (bin start times, flows per bin, total packets) are
        checked for equality across batches — a mismatch would mean the
        workers saw different packet streams, which breaks the
        determinism contract.
    """
    if not parts:
        raise ValueError("no outcomes to merge")
    _, reference = parts[0]
    num_bins = reference.bin_start_times.size
    ranking = np.empty((num_streams, num_bins), dtype=float)
    detection = np.empty((num_streams, num_bins), dtype=float)
    evictions = np.empty(num_streams, dtype=np.int64)
    seen = np.zeros(num_streams, dtype=bool)
    for indices, outcome in parts:
        if (
            not np.array_equal(outcome.bin_start_times, reference.bin_start_times)
            or outcome.flows_per_bin != reference.flows_per_bin
            or outcome.total_packets != reference.total_packets
        ):
            raise RuntimeError(
                "parallel batches disagree on the packet stream; the workers' "
                "streams diverged"
            )
        rows = np.asarray(indices, dtype=int)
        if seen[rows].any():
            raise ValueError("a stream index appears in more than one batch")
        seen[rows] = True
        ranking[rows] = outcome.ranking_values
        detection[rows] = outcome.detection_values
        evictions[rows] = outcome.evictions
    if not seen.all():
        missing = np.flatnonzero(~seen).tolist()
        raise ValueError(f"streams {missing} were not evaluated by any batch")
    return StreamOutcome(
        bin_start_times=reference.bin_start_times,
        flows_per_bin=reference.flows_per_bin,
        total_packets=reference.total_packets,
        ranking_values=ranking,
        detection_values=detection,
        evictions=evictions,
    )


__all__ = [
    "AUTO_PROCESS_MIN_WORK",
    "BACKENDS",
    "Cell",
    "ExecutionPlan",
    "SHM_SLOTS_PER_WORKER",
    "SharedMemoryBatchChannel",
    "TRANSPORT_TIMEOUT_S",
    "merge_outcomes",
    "probe_process_spawn",
    "probe_shared_memory",
]
