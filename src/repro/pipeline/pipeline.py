"""The :class:`Pipeline` facade — one public way to run any experiment.

A pipeline composes the four stages every workload in this repository
needs::

    PacketSource -> PacketSampler(s) -> flow accounting -> Evaluator

The first stage is any :class:`~repro.traces.source.PacketSource`:
``with_trace`` wraps the classic flow-trace expansion, ``with_source``
accepts an arbitrary source (merged multi-link streams, packet files,
load/time transforms), and ``with_scenario`` pulls a named workload
from :data:`repro.scenarios.SCENARIOS`::

    result = (
        Pipeline()
        .with_scenario("burst", scale=0.002, duration=120.0, factor=20)
        .with_sampler("bernoulli", rate=0.1)
        .with_seed(0)
        .run()
    )

and is built either fluently::

    result = (
        Pipeline()
        .with_trace("sprint", scale=0.01, duration=600.0)
        .with_sampler("bernoulli", rate=0.01)
        .with_key_policy("prefix", prefix_length=24)
        .with_bin_duration(60.0)
        .with_top(10)
        .with_runs(5)
        .with_seed(42)
        .run()
    )

or from string specs (config files, CLI flags)::

    result = Pipeline.from_spec(
        trace="sprint:scale=0.01,duration=600",
        sampler="bernoulli:rate=0.01",
        key="five-tuple",
        seed=42,
    ).run()

Execution streams the packet expansion chunk by chunk (see
:mod:`repro.pipeline.executor`), so arbitrarily long traces run in
bounded memory; ``.materialised()`` opts back into single-chunk
execution, which is guaranteed to produce *identical* results for the
same seed.

The independent (sampler, run) cells of a pipeline can be fanned out
across worker processes with ``.run(parallel="process", jobs=4)`` (or
``parallel="auto"``, the default, which decides by workload size); the
parallel path is bit-identical to the serial one for the same seed —
see :mod:`repro.pipeline.parallel`.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..flows.accounting import _checked_bin_duration, _checked_max_flows
from ..flows.keys import FlowKeyPolicy
from ..registry import KEY_POLICIES, SAMPLERS, TRACES, accepts_rng, parse_spec
from ..sampling.base import PacketSampler
from ..scenarios import SCENARIOS
from ..traces.flow_trace import FlowLevelTrace
from ..traces.source import DEFAULT_CHUNK_PACKETS, FlowTraceSource, PacketSource
from ..traces.synthetic import SyntheticTraceGenerator
from .executor import StreamOutcome, metric_series_for_stream
from .executor import run_monitor_stream  # noqa: F401 - perfbench/tracer.py wraps this name
from .parallel import Cell, ExecutionPlan
from .result import PipelineResult, SamplerSummary


@dataclass
class SamplerSpec:
    """How to build one sampler, once per independent run.

    Exactly one of ``name`` (registry lookup), ``factory`` (callable
    returning a :class:`PacketSampler`) or ``instance`` (a prototype
    cloned with :meth:`PacketSampler.spawn`) is set.
    """

    name: str | None = None
    kwargs: dict = field(default_factory=dict)
    factory: Callable[..., PacketSampler] | None = None
    instance: PacketSampler | None = None
    label: str | None = None
    #: Whether ``factory`` takes ``rng``: decided once per spec, not per
    #: cell (registry factories are decided when they are registered).
    _factory_takes_rng: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.factory is not None:
            self._factory_takes_rng = accepts_rng(self.factory)

    def build(self, rng: np.random.Generator) -> PacketSampler:
        """A fresh sampler for one independent run."""
        if self.instance is not None:
            return self.instance.spawn(rng)
        if self.factory is not None:
            if self._factory_takes_rng:
                return self.factory(**self.kwargs, rng=rng)
            return self.factory(**self.kwargs)
        if SAMPLERS.accepts_rng(self.name):
            return SAMPLERS.create(self.name, **self.kwargs, rng=rng)
        return SAMPLERS.create(self.name, **self.kwargs)


class Pipeline:
    """Composable, streaming experiment pipeline (builder style).

    All ``with_*`` methods mutate the pipeline and return it, so calls
    chain fluently.  :meth:`run` may be called repeatedly; every call
    re-executes the experiment from the configured seed.
    """

    def __init__(self) -> None:
        self._trace: FlowLevelTrace | None = None
        self._trace_name: str | None = None
        self._trace_kwargs: dict = {}
        self._generator: SyntheticTraceGenerator | None = None
        self._source: PacketSource | None = None
        self._source_factory: Callable[..., PacketSource] | None = None
        self._source_kwargs: dict = {}
        self._scenario_name: str | None = None
        self._scenario_kwargs: dict = {}
        self._samplers: list[SamplerSpec] = []
        self._key_policy: FlowKeyPolicy | None = None
        self._key_name: str = "five-tuple"
        self._key_kwargs: dict = {}
        self._bin_duration: float = 60.0
        self._top_t: int = 10
        self._num_runs: int = 5
        self._seed: int | None = None
        self._chunk_packets: int | None = DEFAULT_CHUNK_PACKETS
        self._monitor: bool = False
        self._monitor_max_flows: int | None = None
        # (source, key spec, dense groups) of the last plan over a source
        # set by with_source: a fixed source's groups are ranked once.
        self._groups_memo: tuple[PacketSource, object, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Builder methods
    # ------------------------------------------------------------------
    def with_trace(
        self,
        trace: FlowLevelTrace | SyntheticTraceGenerator | str,
        **kwargs: object,
    ) -> "Pipeline":
        """Set the trace source: a trace object, a generator, or a registry name.

        Parameters
        ----------
        trace:
            A concrete :class:`FlowLevelTrace`, a synthetic generator,
            or a registry spec such as ``"sprint:scale=0.01"``.
        **kwargs:
            Extra generator arguments; only valid with a registry name.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._clear_stream_config()
        if isinstance(trace, FlowLevelTrace):
            if kwargs:
                raise ValueError("keyword arguments are only valid with a trace name")
            self._trace = trace
        elif isinstance(trace, str):
            name, spec_kwargs = parse_spec(trace)
            self._trace_name = name
            self._trace_kwargs = {**spec_kwargs, **kwargs}
        else:
            if kwargs:
                raise ValueError("keyword arguments are only valid with a trace name")
            self._generator = trace
        return self

    def _clear_stream_config(self) -> None:
        """Reset every way of saying where the packets come from."""
        self._trace = self._generator = self._trace_name = None
        self._trace_kwargs = {}
        self._source = self._source_factory = self._scenario_name = None
        self._source_kwargs = {}
        self._scenario_kwargs = {}
        self._groups_memo = None

    def with_source(
        self,
        source: PacketSource | Callable[..., PacketSource] | str,
        **kwargs: object,
    ) -> "Pipeline":
        """Stream packets from any :class:`~repro.traces.source.PacketSource`.

        This is the general form of :meth:`with_trace` (which is now a
        thin adapter wrapping the trace in a
        :class:`~repro.traces.source.FlowTraceSource`): merged
        multi-link streams, packet-level files, load/time transforms
        and scenario compositions all plug in here without the executor
        knowing the difference.

        Parameters
        ----------
        source:
            A concrete :class:`~repro.traces.source.PacketSource`, a
            factory callable returning one (given ``rng`` when it
            accepts the keyword), or a scenario spec string such as
            ``"burst:factor=20"`` (equivalent to
            :meth:`with_scenario`).
        **kwargs:
            Extra factory/scenario arguments; only valid with a
            callable or a spec string.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        if isinstance(source, str):
            return self.with_scenario(source, **kwargs)
        self._clear_stream_config()
        if isinstance(source, PacketSource):
            if kwargs:
                raise ValueError("keyword arguments are only valid with a factory or spec")
            self._source = source
        elif callable(source):
            self._source_factory = source
            self._source_kwargs = dict(kwargs)
        else:
            raise TypeError(f"cannot interpret {source!r} as a packet source")
        return self

    def with_scenario(self, scenario: str, **kwargs: object) -> "Pipeline":
        """Stream one of the named workloads of :data:`repro.scenarios.SCENARIOS`.

        Parameters
        ----------
        scenario:
            Scenario name or spec, e.g. ``"diurnal"`` or
            ``"burst:factor=20,start=120"``.
        **kwargs:
            Extra scenario arguments, merged over the spec's.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        name, spec_kwargs = parse_spec(scenario)
        self._clear_stream_config()
        self._scenario_name = name
        self._scenario_kwargs = {**spec_kwargs, **kwargs}
        return self

    def with_sampler(
        self,
        sampler: PacketSampler | Callable[..., PacketSampler] | str,
        *,
        label: str | None = None,
        **kwargs: object,
    ) -> "Pipeline":
        """Add one sampler to evaluate: registry name (with kwargs), factory, or instance.

        Parameters
        ----------
        sampler:
            A registry spec (``"bernoulli:rate=0.01"``), a factory
            callable returning a :class:`PacketSampler` (given ``rng``
            when it accepts one), or a prototype instance cloned per
            run via :meth:`PacketSampler.spawn`.
        label:
            Series label in the result; defaults to the built sampler's
            ``name`` (its canonical spec for built-in samplers).
        **kwargs:
            Extra constructor arguments; only valid with a name/factory.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        if isinstance(sampler, str):
            name, spec_kwargs = parse_spec(sampler)
            self._samplers.append(
                SamplerSpec(name=name, kwargs={**spec_kwargs, **kwargs}, label=label)
            )
        elif isinstance(sampler, PacketSampler):
            if kwargs:
                raise ValueError("keyword arguments are only valid with a sampler name")
            self._samplers.append(SamplerSpec(instance=sampler, label=label))
        elif callable(sampler):
            self._samplers.append(SamplerSpec(factory=sampler, kwargs=kwargs, label=label))
        else:
            raise TypeError(f"cannot interpret {sampler!r} as a sampler")
        return self

    def with_sampling_rates(self, rates: tuple[float, ...] | list[float]) -> "Pipeline":
        """Convenience: one Bernoulli sampler per rate (the paper's sweep).

        Parameters
        ----------
        rates:
            Packet sampling probabilities, one sampler each.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        for rate in rates:
            self.with_sampler("bernoulli", rate=float(rate))
        return self

    def with_key_policy(self, policy: FlowKeyPolicy | str, **kwargs: object) -> "Pipeline":
        """Set the flow definition: a policy object or a registry name.

        Parameters
        ----------
        policy:
            A :class:`FlowKeyPolicy` instance or a registry spec such
            as ``"prefix:prefix_length=24"``.
        **kwargs:
            Extra policy arguments; only valid with a registry name.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        if isinstance(policy, str):
            name, spec_kwargs = parse_spec(policy)
            self._key_policy = None
            self._key_name = name
            self._key_kwargs = {**spec_kwargs, **kwargs}
        else:
            if kwargs:
                raise ValueError("keyword arguments are only valid with a policy name")
            self._key_policy = policy
        self._groups_memo = None
        return self

    def with_bin_duration(self, seconds: float) -> "Pipeline":
        """Set the measurement interval length.

        Parameters
        ----------
        seconds:
            Bin duration in seconds, positive and finite (anything else
            raises :class:`ValueError`).

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._bin_duration = _checked_bin_duration(seconds)
        return self

    def with_top(self, top_t: int) -> "Pipeline":
        """Set the number of top flows to rank/detect.

        Parameters
        ----------
        top_t:
            The ``t`` of the paper's top-*t* problems: an integer (a
            non-integer raises :class:`TypeError`), at least 1.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._top_t = operator.index(top_t)
        return self

    def with_runs(self, num_runs: int) -> "Pipeline":
        """Set the number of independent sampling realisations per sampler.

        Parameters
        ----------
        num_runs:
            Runs per sampler, an integer (a non-integer raises
            :class:`TypeError`) of at least 1; each run gets its own
            seed child and is an independently dispatchable cell of the
            execution plan.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._num_runs = operator.index(num_runs)
        return self

    def with_seed(self, seed: int | None) -> "Pipeline":
        """Seed the whole pipeline (trace synthesis, expansion, sampling).

        Parameters
        ----------
        seed:
            Root of the ``SeedSequence`` tree; ``None`` draws fresh
            entropy (non-reproducible).

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._seed = seed
        return self

    def streaming(self, chunk_packets: int = DEFAULT_CHUNK_PACKETS) -> "Pipeline":
        """Stream the expansion in chunks of roughly ``chunk_packets`` packets.

        Parameters
        ----------
        chunk_packets:
            Target packets per chunk, an integer (a non-integer raises
            :class:`TypeError`) of at least 1; peak memory scales with
            it, the results do not.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        chunk_packets = operator.index(chunk_packets)
        if chunk_packets < 1:
            raise ValueError("chunk_packets must be positive")
        self._chunk_packets = chunk_packets
        return self

    def materialised(self) -> "Pipeline":
        """Expand the whole packet trace at once (legacy behaviour).

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._chunk_packets = None
        return self

    def with_monitor(
        self, max_flows: int | None = None, *, enabled: bool = True
    ) -> "Pipeline":
        """Evaluate through the monitor-in-the-loop accounting engine.

        In monitor mode every (sampler, run) stream feeds its sampled
        packets into a real bounded flow table
        (:class:`~repro.flows.accounting.FlowAccountingEngine`): when
        ``max_flows`` is set and the table fills up, the smallest
        tracked flow is evicted and its count restarts if it returns —
        so the reported metrics include the ranking error caused by
        bounded flow memory, not just by sampling.  With
        ``max_flows=None`` the metrics are bit-identical to the default
        (idealised) evaluation; the mode then serves as a cross-check.

        Monitor runs dispatch like plain ones: each stream's flow table
        lives with its sampler, so every backend of :meth:`run` (and
        :meth:`plan` ``.execute()``) gives bit-identical metrics and
        evictions.

        Parameters
        ----------
        max_flows:
            Flow-memory bound of each stream's monitor, an integer of at
            least 1 (a non-integer raises :class:`TypeError`); ``None``
            means unbounded.
        enabled:
            Pass ``False`` to switch monitor mode back off.

        Returns
        -------
        Pipeline
            ``self``, for chaining.
        """
        self._monitor_max_flows = _checked_max_flows(max_flows)
        self._monitor = bool(enabled)
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        trace: str | FlowLevelTrace | SyntheticTraceGenerator = "sprint",
        sampler: str | tuple[str, ...] | list[str] = "bernoulli:rate=0.01",
        key: str | FlowKeyPolicy = "five-tuple",
        bin_duration: float = 60.0,
        top_t: int = 10,
        num_runs: int = 5,
        seed: int | None = None,
        streaming: bool = True,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        monitor: bool = False,
        max_flows: int | None = None,
        scenario: str | None = None,
    ) -> "Pipeline":
        """Build a pipeline entirely from string specs.

        Parameters
        ----------
        trace, sampler, key:
            ``name:key=value,...`` strings resolved through
            :mod:`repro.registry` (objects are also accepted);
            ``sampler`` may be a list of specs to evaluate several
            samplers in one pass.
        bin_duration, top_t, num_runs, seed:
            As the corresponding ``with_*`` builder methods.
        streaming, chunk_packets:
            Chunked streaming execution (the default) and its chunk
            size; ``streaming=False`` materialises the expansion.
        monitor, max_flows:
            Monitor-in-the-loop evaluation (see :meth:`with_monitor`);
            giving ``max_flows`` implies ``monitor=True``.
        scenario:
            A :data:`repro.scenarios.SCENARIOS` spec such as
            ``"burst:factor=20"``; when given it replaces ``trace`` as
            the packet source.

        Returns
        -------
        Pipeline
            A configured pipeline; call :meth:`run` on it.
        """
        pipeline = (
            cls()
            .with_trace(trace)
            .with_key_policy(key)
            .with_bin_duration(bin_duration)
            .with_top(top_t)
            .with_runs(num_runs)
            .with_seed(seed)
        )
        if scenario is not None:
            pipeline.with_scenario(scenario)
        specs = [sampler] if isinstance(sampler, str) else list(sampler)
        for spec in specs:
            pipeline.with_sampler(spec)
        if streaming:
            pipeline.streaming(chunk_packets)
        else:
            pipeline.materialised()
        if monitor or max_flows is not None:
            pipeline.with_monitor(max_flows)
        return pipeline

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if (
            self._trace is None
            and self._generator is None
            and self._trace_name is None
            and self._source is None
            and self._source_factory is None
            and self._scenario_name is None
        ):
            raise ValueError(
                "no packet source configured; call with_trace(...), "
                "with_source(...) or with_scenario(...)"
            )
        if not self._samplers:
            raise ValueError("no sampler configured; call with_sampler(...)")
        if self._top_t < 1:
            raise ValueError("top_t must be at least 1")
        if self._num_runs < 1:
            raise ValueError("num_runs must be at least 1")

    def _resolve_trace(self, rng: np.random.Generator) -> FlowLevelTrace:
        if self._trace is not None:
            return self._trace
        generator = self._generator
        if generator is None:
            generator = TRACES.create(self._trace_name, **self._trace_kwargs)
        return generator.generate(rng=rng)

    def _resolve_source(self, rng: np.random.Generator) -> PacketSource:
        """Resolve whatever stream configuration is set into one source.

        The trace path wraps the resolved trace in a
        :class:`~repro.traces.source.FlowTraceSource` with the
        historical clipping, so ``with_trace`` pipelines execute the
        exact packet stream they always have.
        """
        if self._source is not None:
            return self._source
        if self._source_factory is not None:
            if accepts_rng(self._source_factory):
                return self._source_factory(**self._source_kwargs, rng=rng)
            return self._source_factory(**self._source_kwargs)
        if self._scenario_name is not None:
            if SCENARIOS.accepts_rng(self._scenario_name):
                return SCENARIOS.create(self._scenario_name, **self._scenario_kwargs, rng=rng)
            return SCENARIOS.create(self._scenario_name, **self._scenario_kwargs)
        return FlowTraceSource(self._resolve_trace(rng))

    def _resolve_key_policy(self) -> FlowKeyPolicy:
        if self._key_policy is not None:
            return self._key_policy
        return KEY_POLICIES.create(self._key_name, **self._key_kwargs)

    def _dense_groups_of(self, source: PacketSource) -> np.ndarray:
        """The plan's dense group ids of ``source`` under the key policy.

        A source set by :meth:`with_source` is the same object on every
        plan, so its groups are ranked once and reused until the source
        or the key policy changes; a resolved trace, factory or scenario
        source is new on each plan and is ranked each time.
        """
        # What the key policy resolves from: the object, or its spec.
        key_spec = (
            self._key_policy
            if self._key_policy is not None
            else (self._key_name, self._key_kwargs)
        )
        memo = self._groups_memo
        if memo is not None and memo[0] is source and memo[1] == key_spec:
            return memo[2]
        groups = _dense_groups(source.group_ids(self._resolve_key_policy()))
        if source is self._source:
            self._groups_memo = (source, key_spec, groups)
        return groups

    def plan(self) -> ExecutionPlan:
        """Resolve the pipeline into an :class:`ExecutionPlan` of cells.

        The plan enumerates one :class:`~repro.pipeline.parallel.Cell`
        per independent (sampler spec, run) stream, each with its own
        ``SeedSequence`` child, over the resolved packet source and
        flow-group mapping; a monitor pipeline's flow-memory bound rides
        along as ``plan.max_flows``.  :meth:`run` is ``plan().execute()``
        plus result packaging; call this directly to inspect or dispatch
        the cells yourself.

        Sparse flow-group ids (a span of at least the number of flows,
        as /24 prefix codes have) are replaced by their order-preserving
        ranks, so the truth engine and every monitor address a dense
        table.  Ranks keep the ids' order, so every tie breaks as it
        would on the raw ids and results do not change.  The plans of a
        source set by :meth:`with_source` share one ranked array, so
        treat ``plan.groups`` as read-only.

        Returns
        -------
        ExecutionPlan
            A fully resolved, backend-agnostic description of the work.
        """
        self._validate()
        children = self._seed_children()
        source = self._resolve_source(np.random.default_rng(children[0]))
        groups = self._dense_groups_of(source)
        return ExecutionPlan(
            source=source,
            groups=groups,
            expand_entropy=children[1],
            sampler_specs=list(self._samplers),
            cells=self._cells(children, spec_offset=0, stream_offset=0),
            bin_duration=self._bin_duration,
            top_t=self._top_t,
            chunk_packets=self._chunk_packets,
            max_flows=self._monitor_max_flows if self._monitor else None,
        )

    def _seed_children(self) -> list[np.random.SeedSequence]:
        """The seed tree: source, expansion, then one child per (sampler, run) stream."""
        num_streams = len(self._samplers) * self._num_runs
        return np.random.SeedSequence(self._seed).spawn(2 + num_streams)

    def _cells(
        self, children: list[np.random.SeedSequence], spec_offset: int, stream_offset: int
    ) -> list[Cell]:
        """One cell per (sampler spec, run), placed after ``stream_offset`` streams.

        Stream ``l`` of this pipeline is seeded by ``children[2 + l]``
        wherever it sits in a plan, so sharing a pass with other
        pipelines changes none of its sampling decisions.
        """
        cells: list[Cell] = []
        for spec_index in range(len(self._samplers)):
            for run in range(self._num_runs):
                stream = spec_index * self._num_runs + run
                cells.append(
                    Cell(
                        stream_index=stream_offset + stream,
                        spec_index=spec_offset + spec_index,
                        run_index=run,
                        seed=children[2 + stream],
                    )
                )
        return cells

    def run(
        self,
        parallel: str | bool | int | None = "auto",
        jobs: int | None = None,
    ) -> PipelineResult:
        """Execute the pipeline and return a :class:`PipelineResult`.

        Parameters
        ----------
        parallel:
            Execution backend: ``"auto"`` (default) fans the independent
            (sampler, run) cells out across processes when the workload
            is large enough and the process may use more than one CPU,
            ``"serial"``/``False`` forces in-process execution,
            ``"process"``/``True`` forces the process pool.  An integer
            is shorthand for ``jobs`` with auto dispatch.
        jobs:
            Worker processes for the process backend; ``None`` means one
            per usable CPU (the process's affinity mask).

        Returns
        -------
        PipelineResult
            Per-sampler ranking/detection series.  Bit-identical for
            the same seed whatever ``parallel`` and ``jobs`` are.
        """
        return _run_pipelines([self], parallel, jobs)[0]

    def _package(
        self, plan: ExecutionPlan, outcome: StreamOutcome, stream_offset: int
    ) -> PipelineResult:
        """This pipeline's result: its streams start at ``stream_offset`` of the pass."""
        result = PipelineResult(
            flow_definition=self._resolve_key_policy().name,
            bin_duration=self._bin_duration,
            top_t=self._top_t,
            num_runs=self._num_runs,
            flows_per_bin=outcome.flows_per_bin,
            total_packets=outcome.total_packets,
            streamed=self._chunk_packets is not None,
            monitor=self._monitor,
            max_flows=self._monitor_max_flows if self._monitor else None,
            source=plan.source.describe(),
            scenario=self._scenario_name,
        )
        used_labels: set[str] = set()
        for spec_index, spec in enumerate(self._samplers):
            first_stream = stream_offset + spec_index * self._num_runs
            # Rebuild the first run's sampler for its label and rate; the
            # cell seed makes it identical to the one the backend used.
            first = spec.build(np.random.default_rng(plan.cells[first_stream].seed))
            label = spec.label or first.name
            if label in used_labels:
                suffix = 2
                while f"{label} #{suffix}" in used_labels:
                    suffix += 1
                label = f"{label} #{suffix}"
            used_labels.add(label)
            stream_slice = slice(first_stream, first_stream + self._num_runs)
            result.samplers.append(
                SamplerSummary(label=label, effective_rate=first.effective_rate)
            )
            result.ranking[label] = metric_series_for_stream(
                outcome, "ranking", first.effective_rate, stream_slice
            )
            result.detection[label] = metric_series_for_stream(
                outcome, "detection", first.effective_rate, stream_slice
            )
            if self._monitor:
                result.evictions[label] = [
                    int(value) for value in outcome.evictions[stream_slice]
                ]
        return result


def _run_pipelines(
    pipelines: Sequence[Pipeline],
    parallel: str | bool | int | None = "auto",
    jobs: int | None = None,
) -> list[PipelineResult]:
    """Run pipelines that differ only in their samplers over one source pass.

    The first pipeline's source, key policy, bins, ``top_t``, runs,
    seed, chunking and monitor settings stand for all of them (callers
    pass pipelines that agree on everything but their samplers).  The
    source is resolved and planned once, and one pass of its packet
    stream feeds every (sampler, run) stream of every pipeline.  Each
    stream keeps the seed its own pipeline's plan gives it (see
    :meth:`Pipeline._cells`), and each result is packaged as that
    pipeline's :meth:`Pipeline.run` packages it, with labels, ``#2``
    suffixes and evictions scoped to the pipeline.  So every result is
    bit-identical to running its pipeline alone; :meth:`Pipeline.run`
    is this function with one pipeline.

    Parameters
    ----------
    pipelines:
        One or more pipelines, each with at least one sampler.
    parallel, jobs:
        As in :meth:`Pipeline.run`; the backend is chosen once, for the
        whole pass.

    Returns
    -------
    list[PipelineResult]
        One result per pipeline, in order.
    """
    base = pipelines[0]
    backend, jobs = _normalise_parallel(parallel, jobs)
    with telemetry.span("pipeline.plan"):
        plan = base.plan()
        for pipeline in pipelines[1:]:
            pipeline._validate()
            plan.cells += pipeline._cells(
                pipeline._seed_children(), len(plan.sampler_specs), plan.num_cells
            )
            plan.sampler_specs += pipeline._samplers
    with telemetry.span("pipeline.execute"):
        outcome = plan.execute(backend=backend, jobs=jobs)
    if telemetry.enabled:
        telemetry.count("pipeline.runs", len(pipelines))
        telemetry.count("pipeline.cells", plan.num_cells)
    results: list[PipelineResult] = []
    stream_offset = 0
    for pipeline in pipelines:
        results.append(pipeline._package(plan, outcome, stream_offset))
        stream_offset += len(pipeline._samplers) * pipeline._num_runs
    return results


def _dense_groups(groups: np.ndarray) -> np.ndarray:
    """``groups``, or their order-preserving ranks when the ids are sparse."""
    if groups.size and int(groups.max()) - int(groups.min()) >= groups.size:
        return np.unique(groups, return_inverse=True)[1].astype(np.int64, copy=False)
    return groups


def _normalise_parallel(
    parallel: str | bool | int | None, jobs: int | None
) -> tuple[str, int | None]:
    """Map the ``run(parallel=..., jobs=...)`` surface onto (backend, jobs).

    Parameters
    ----------
    parallel:
        ``"auto"``/``None``, ``"serial"``/``False``, ``"process"``/
        ``True``, or an integer worker count (shorthand for ``jobs``).
    jobs:
        Explicit worker count; conflicts with an integer ``parallel``.

    Returns
    -------
    tuple[str, int | None]
        Backend name for :meth:`ExecutionPlan.execute` and the worker
        count (``None`` when unspecified).
    """
    if isinstance(parallel, bool):
        return ("process" if parallel else "serial"), jobs
    if parallel is None:
        return "auto", jobs
    if isinstance(parallel, int):
        if jobs is not None and jobs != parallel:
            raise ValueError(f"conflicting worker counts: parallel={parallel}, jobs={jobs}")
        return "auto", int(parallel)
    if parallel in ("auto", "serial", "process"):
        return parallel, jobs
    raise ValueError(
        f"cannot interpret parallel={parallel!r}; expected 'auto', 'serial', "
        "'process', a bool, or a worker count"
    )


__all__ = ["Pipeline", "SamplerSpec"]
