"""Command-line interface.

Seven subcommands cover the workflows the library supports:

* ``run`` — run an arbitrary pipeline built from registry specs
  (``repro run --sampler bernoulli:rate=0.01 --trace sprint --bin 60
  --top 10``); ``--scenario burst:factor=20`` streams a named workload
  from the scenario registry instead of a plain trace; ``--store DIR``
  caches the result in (and reuses it from) a persistent experiment
  store, ``--json PATH`` dumps the full result as JSON, and
  ``--telemetry [PATH.json]`` captures a metrics/spans snapshot of the
  run (see ``docs/observability.md``);
* ``sweep`` — resumable grid sweeps over a store: ``repro sweep run``
  executes the missing cells of a (source x sampler x rate x seed)
  grid (``--workers N`` drains it with N crash-safe, lease-coordinated
  worker processes), ``repro sweep status`` shows coverage,
  ``repro sweep watch`` is the live per-cell lease view of a running
  (possibly distributed) sweep, and ``repro sweep report`` prints
  per-scenario sampler leaderboards and deltas against a baseline
  sweep;
* ``store`` — experiment-store maintenance: ``repro store ls`` lists
  the cached runs, ``repro store verify`` checks every artifact
  against the cache-key contract (and reports stale worker leases),
  ``repro store gc`` reconciles the index and removes stale artifacts
  and expired leases;
* ``scenarios`` — list the named workload scenarios and their
  parameters (``repro scenarios``);
* ``figure`` — regenerate the data behind one figure of the paper and
  print it as a text table (``repro figure fig04``);
* ``plan`` — compute the sampling rate required to rank or detect the
  top-t flows of a link (``repro plan --flows 700000 --top 10``);
* ``simulate`` — run the paper's trace-driven Bernoulli sweep on a
  synthetic Sprint-like or Abilene-like trace
  (``repro simulate --scale 0.01``).

``repro run --monitor [max_flows=N]`` switches ``run`` to the
monitor-in-the-loop evaluation: each sampler's packets feed a real
bounded flow table (smallest-flow eviction) and the reported metrics
include the bounded-memory error; eviction counts are printed per
sampler.

Component specs use the ``name:key=value,key=value`` syntax of
:func:`repro.registry.parse_spec`; ``repro run --list-components``
prints every registered name.  ``run``, ``figure`` and ``simulate``
accept ``--jobs N`` to fan the independent sampling runs out across
``N`` worker processes (results are bit-identical to a serial run for
the same seed).  Run ``python -m repro --help`` for the full option
list; ``docs/cli.md`` is the complete reference with examples.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from . import telemetry
from .analysis import cli as analysis_cli
from .core.flow_size_model import FlowPopulation
from .core.rate_planning import required_sampling_rate
from .distributions.pareto import ParetoFlowSizes
from .experiments.figures import ANALYTICAL_FIGURES, TRACE_FIGURES
from .experiments.report import (
    render_figure_result,
    render_pipeline_result,
    render_sweep_comparison,
    render_sweep_leaderboard,
    render_sweep_status,
    render_sweep_watch,
)
from .pipeline import Pipeline
from .registry import (
    DISTRIBUTIONS,
    KEY_POLICIES,
    SAMPLERS,
    TRACES,
    format_spec,
    parse_kwargs,
    parse_spec,
)
from .scenarios import SCENARIOS
from .store import RunSpec, RunStore
from .sweep import (
    DEFAULT_LEASE_TTL,
    SweepGrid,
    collect,
    comparison_rows,
    leaderboard_rows,
    run_sweep,
    run_sweep_workers,
    sweep_status,
    worker_status,
)
from .traces.source import DEFAULT_CHUNK_PACKETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ranking flows from sampled traffic — reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run a pipeline built from registry component specs"
    )
    run.add_argument(
        "--trace",
        default=None,
        help="trace spec, e.g. sprint or abilene:sigma=1.2 (default sprint; "
        "see --list-components)",
    )
    run.add_argument(
        "--scenario",
        default=None,
        metavar="SPEC",
        help="stream a named workload instead of a plain trace, e.g. "
        "burst:factor=20 or multilink:links=4 (see `repro scenarios`); "
        "conflicts with --trace",
    )
    run.add_argument(
        "--sampler",
        action="append",
        default=None,
        metavar="SPEC",
        help="sampler spec, e.g. bernoulli:rate=0.01 (repeatable; default bernoulli:rate=0.01)",
    )
    run.add_argument(
        "--key",
        default="five-tuple",
        help="flow-key policy spec, e.g. five-tuple or prefix:prefix_length=24",
    )
    run.add_argument("--scale", type=float, default=0.01, help="fraction of backbone flow rate")
    run.add_argument("--duration", type=float, default=600.0, help="trace duration in seconds")
    run.add_argument("--bin", type=float, default=60.0, help="measurement interval in seconds")
    run.add_argument("--top", type=int, default=10, help="number of top flows")
    run.add_argument("--runs", type=int, default=5, help="sampling runs per sampler")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--chunk-packets",
        type=int,
        default=None,
        help=f"streaming chunk size in packets (default {DEFAULT_CHUNK_PACKETS})",
    )
    run.add_argument(
        "--materialised",
        action="store_true",
        help="expand the whole packet trace in memory instead of streaming",
    )
    run.add_argument(
        "--monitor",
        nargs="?",
        const="",
        default=None,
        metavar="K=V,...",
        help="evaluate through the monitor-in-the-loop flow-accounting engine; "
        "optionally bound its flow memory, e.g. --monitor max_flows=4096 "
        "(evictions are reported per sampler)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the independent sampling runs "
        "(default: auto — parallel only when the workload is large; 1 forces one "
        "process, which may still fold a large workload on more than one thread: "
        "stream lanes)",
    )
    run.add_argument("--csv", metavar="PATH", help="also write a per-bin CSV to PATH")
    run.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent experiment store: reuse the result when this exact run "
        "is already cached there, persist it otherwise (see `repro store`)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full result (PipelineResult.to_dict) as JSON to PATH",
    )
    run.add_argument(
        "--telemetry",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH.json",
        help="enable telemetry for this run and print the registry snapshot "
        "(schema repro-telemetry/1: counters, gauges, histograms, spans) "
        "after the result, or write it to PATH.json; results are "
        "bit-identical with or without this flag and it never enters the "
        "store key",
    )
    run.add_argument(
        "--list-components",
        action="store_true",
        help="print the registered component names and exit",
    )

    sweep = subparsers.add_parser(
        "sweep", help="resumable grid sweeps backed by the experiment store"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="execute the missing cells of a sweep grid into a store"
    )
    sweep_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per source pass, with or without --workers "
        "(default: auto; serial passes with --workers)",
    )
    sweep_run.add_argument(
        "--max-cells", type=int, default=None, metavar="K",
        help="execute at most K missing cells, then stop (resume later with "
        "the same command; used by the CI kill-and-resume smoke test)",
    )
    sweep_run.add_argument(
        "--array-format", choices=("json", "npz"), default="json",
        help="artifact format for newly stored results (default json)",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="drain the grid with N uncoordinated worker processes sharing "
        "the store via leases (crash-safe: re-run to resume); default is the "
        "single-process orchestrator",
    )
    sweep_run.add_argument(
        "--ttl", type=float, default=DEFAULT_LEASE_TTL, metavar="S",
        help="lease time-to-live in seconds for --workers; a crashed "
        f"worker's cells are reclaimable after S seconds (default {DEFAULT_LEASE_TTL:g})",
    )
    sweep_status_parser = sweep_sub.add_parser(
        "status", help="show which cells of the grid are cached vs missing"
    )
    sweep_watch = sweep_sub.add_parser(
        "watch", help="live per-cell lease view of a (possibly distributed) sweep"
    )
    sweep_watch.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between refreshes (default 2)",
    )
    sweep_watch.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit instead of refreshing until done",
    )
    sweep_report = sweep_sub.add_parser(
        "report", help="per-source sampler leaderboard (and deltas vs a baseline sweep)"
    )
    sweep_report.add_argument(
        "--problem", choices=("ranking", "detection"), default="ranking",
        help="which metric family to aggregate (default ranking)",
    )
    sweep_report.add_argument(
        "--baseline-store", metavar="DIR", default=None,
        help="a second store swept with the same grid; the report adds "
        "per-cell metric deltas against it",
    )
    for sweep_parser in (sweep_run, sweep_status_parser, sweep_watch, sweep_report):
        _add_grid_arguments(sweep_parser)

    store = subparsers.add_parser("store", help="experiment-store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list the cached runs (index only)")
    store_verify = store_sub.add_parser(
        "verify", help="check every artifact against the cache-key contract"
    )
    store_gc = store_sub.add_parser(
        "gc", help="reconcile the index and remove stale or unreadable artifacts"
    )
    for store_parser in (store_ls, store_verify, store_gc):
        store_parser.add_argument(
            "--store", metavar="DIR", required=True, help="store directory"
        )

    subparsers.add_parser(
        "scenarios", help="list the named workload scenarios and their parameters"
    )

    lint = subparsers.add_parser(
        "lint", help="run the reprolint contract linter (see docs/analysis.md)"
    )
    analysis_cli.configure_parser(lint)

    figure = subparsers.add_parser("figure", help="regenerate one figure of the paper")
    figure.add_argument(
        "name",
        choices=sorted(list(ANALYTICAL_FIGURES) + list(TRACE_FIGURES)),
        help="figure identifier (fig01..fig16)",
    )
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for trace-driven figures (fig12..fig16); "
        "ignored by the analytical figures",
    )

    plan = subparsers.add_parser("plan", help="required sampling rate for a link profile")
    plan.add_argument("--flows", type=int, default=700_000, help="flows per measurement interval")
    plan.add_argument("--top", type=int, default=10, help="number of top flows of interest")
    plan.add_argument("--mean-packets", type=float, default=9.6, help="mean flow size in packets")
    plan.add_argument("--shape", type=float, default=1.5, help="Pareto shape of the flow sizes")
    plan.add_argument(
        "--target", type=float, default=1.0, help="accuracy target (average swapped pairs)"
    )

    simulate = subparsers.add_parser("simulate", help="trace-driven sampling simulation")
    simulate.add_argument("--trace", choices=("sprint", "abilene"), default="sprint")
    simulate.add_argument("--scale", type=float, default=0.01, help="fraction of backbone flow rate")
    simulate.add_argument("--duration", type=float, default=600.0, help="trace duration in seconds")
    simulate.add_argument("--bin", type=float, default=60.0, help="measurement interval in seconds")
    simulate.add_argument("--top", type=int, default=10, help="number of top flows")
    simulate.add_argument("--runs", type=int, default=5, help="sampling runs per rate")
    simulate.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.001, 0.01, 0.1, 0.5],
        help="packet sampling rates to evaluate",
    )
    simulate.add_argument("--prefix", action="store_true", help="use the /24 prefix flow definition")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the independent sampling runs (default: auto)",
    )
    return parser


def _fold_source_defaults(spec: str, args: argparse.Namespace) -> str:
    """Fold the ``--scale``/``--duration`` flags into a source spec as defaults.

    An explicit value inside the spec (e.g. ``burst:duration=300``)
    wins over the flag, exactly as documented for ``repro run``.
    """
    name, kwargs = parse_spec(spec)
    kwargs.setdefault("scale", args.scale)
    kwargs.setdefault("duration", args.duration)
    return format_spec(name, kwargs)


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared sweep-grid flags of ``repro sweep run|status|report``."""
    parser.add_argument(
        "--store", metavar="DIR", required=True,
        help="experiment store directory holding the sweep's cells",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="SPEC",
        help="scenario spec for the source axis (repeatable; conflicts with --trace)",
    )
    parser.add_argument(
        "--trace", action="append", default=None, metavar="SPEC",
        help="trace spec for the source axis (repeatable; default sprint)",
    )
    parser.add_argument(
        "--sampler", action="append", default=None, metavar="SPEC",
        help="sampler spec for the sampler axis (repeatable; default bernoulli)",
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=None, metavar="R",
        help="sampling rates composed into each sampler spec as rate=R",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0], metavar="S",
        help="pipeline seeds, one cell per seed (default 0)",
    )
    parser.add_argument("--key", default="five-tuple", help="flow-key policy spec")
    parser.add_argument("--scale", type=float, default=0.01, help="fraction of backbone flow rate")
    parser.add_argument("--duration", type=float, default=600.0, help="trace duration in seconds")
    parser.add_argument("--bin", type=float, default=60.0, help="measurement interval in seconds")
    parser.add_argument("--top", type=int, default=10, help="number of top flows")
    parser.add_argument("--runs", type=int, default=5, help="sampling runs per cell")


def _grid_of(args: argparse.Namespace) -> SweepGrid:
    """Build the :class:`SweepGrid` described by the sweep subcommand flags.

    ``--scale``/``--duration`` are folded into every source spec as
    defaults — an explicit value inside the spec wins, exactly as in
    ``repro run``.
    """

    def _resolved(specs: list[str] | None) -> tuple[str, ...]:
        return tuple(_fold_source_defaults(spec, args) for spec in specs or [])

    if args.scenario and args.trace:
        raise ValueError("--scenario and --trace are mutually exclusive")
    return SweepGrid(
        scenarios=_resolved(args.scenario),
        traces=_resolved(args.trace if args.trace or args.scenario else ["sprint"]),
        samplers=tuple(args.sampler) if args.sampler else ("bernoulli:rate=0.01",),
        rates=tuple(args.rates) if args.rates else (),
        seeds=tuple(args.seeds),
        key=args.key,
        bin_duration=args.bin,
        top_t=args.top,
        num_runs=args.runs,
    )


def _run_sweep_cli(args: argparse.Namespace) -> str:
    grid = _grid_of(args)
    if args.sweep_command == "run":
        store = RunStore(args.store, array_format=args.array_format)
        events: list[str] = []

        def progress(event: str, index: int, total: int, spec: RunSpec) -> None:
            if event == "run":
                source = spec.scenario if spec.scenario is not None else spec.trace
                events.append(
                    f"  cell {index + 1}/{total}: {source} | {spec.samplers[0]} "
                    f"| seed={spec.seed}"
                )

        if args.workers is not None:
            if args.max_cells is not None:
                raise ValueError(
                    "--max-cells interrupts the single-process orchestrator and "
                    "does not combine with --workers (kill a worker instead; "
                    "leases make the sweep resumable)"
                )
            worker_report = run_sweep_workers(
                grid,
                store,
                args.workers,
                ttl=args.ttl,
                parallel="auto" if args.jobs is not None else "serial",
                jobs=args.jobs,
            )
            lines = [
                f"sweep over {worker_report.total} cells into {args.store} "
                f"with {worker_report.workers} worker(s)"
            ]
            if worker_report.degraded is not None:
                lines.append(f"  {worker_report.degraded}")
            if worker_report.exitcodes:
                codes = ", ".join(str(code) for code in worker_report.exitcodes)
                lines.append(f"  worker exit codes: {codes}")
            lines.append(
                f"{worker_report.completed}/{worker_report.total} cell(s) in the store"
            )
            lines.append(
                "sweep complete"
                if worker_report.complete
                else "sweep incomplete — re-run the same command to resume"
            )
            return "\n".join(lines)
        report = run_sweep(
            grid, store, jobs=args.jobs, max_cells=args.max_cells, progress=progress
        )
        lines = [f"sweep over {report.total} cells into {args.store}"]
        lines.extend(events)
        lines.append(
            f"executed {len(report.executed)} cell(s), reused {len(report.cached)} "
            f"cached cell(s)"
        )
        lines.append(f"{report.passes} source pass(es)")
        if report.interrupted:
            remaining = report.total - len(report.executed) - len(report.cached)
            lines.append(
                f"stopped at --max-cells {args.max_cells}; {remaining} cell(s) "
                "remain — re-run the same command to resume"
            )
        else:
            lines.append("sweep complete")
        return "\n".join(lines)
    store = RunStore(args.store)
    if args.sweep_command == "status":
        return render_sweep_status(sweep_status(grid, store))
    if args.sweep_command == "watch":
        status = worker_status(grid, store)
        if not args.once:
            while status["done"] < status["total"]:
                print(render_sweep_watch(status), flush=True)
                time.sleep(args.interval)
                status = worker_status(grid, store)
        return render_sweep_watch(status)
    if args.sweep_command == "report":
        runs = collect(grid, store, strict=False)
        text = render_sweep_leaderboard(leaderboard_rows(runs, problem=args.problem))
        missing = len(grid.cells()) - len(runs)
        if missing:
            text += f"\n({missing} cell(s) not in the store yet — partial report)"
        if args.baseline_store is not None:
            baseline = RunStore(args.baseline_store)
            text += "\n\n" + render_sweep_comparison(
                comparison_rows(runs, baseline, problem=args.problem)
            )
        return text
    raise ValueError(f"unknown sweep command {args.sweep_command!r}")


def _run_store_cli(args: argparse.Namespace) -> str:
    root = Path(args.store)
    if root.exists() and not root.is_dir():
        raise NotADirectoryError(f"--store {args.store!r} exists but is not a directory")
    store = RunStore(args.store)
    if args.store_command == "ls":
        entries = store.list()
        lines = [f"{args.store}: {len(entries)} stored run(s)"]
        for key, spec in entries:
            source = spec.scenario if spec.scenario is not None else (spec.trace or "sprint")
            lines.append(
                f"  {key}  {source} | {', '.join(spec.samplers)} | seed={spec.seed} "
                f"| bin={spec.bin_duration:g}s top={spec.top_t} runs={spec.num_runs}"
            )
        return "\n".join(lines)
    if args.store_command == "verify":
        report = store.verify()
        lines = [
            f"{args.store}: checked {report.checked} entr(ies), {report.ok} ok, "
            f"{len(report.issues)} issue(s)"
        ]
        lines.extend(f"  {key}: {problem}" for key, problem in report.issues)
        return "\n".join(lines)
    if args.store_command == "gc":
        summary = store.gc()
        lines = [
            f"{args.store}: removed {len(summary['removed'])}, "
            f"reindexed {len(summary['reindexed'])}, "
            f"reaped {len(summary['reaped_leases'])} lease(s), kept {summary['kept']}"
        ]
        lines.extend(f"  removed {key}" for key in summary["removed"])
        lines.extend(f"  reaped lease {key}" for key in summary["reaped_leases"])
        return "\n".join(lines)
    raise ValueError(f"unknown store command {args.store_command!r}")


def _list_components() -> str:
    lines = ["registered components (name:key=value,... specs):"]
    for title, registry in (
        ("samplers", SAMPLERS),
        ("flow-key policies", KEY_POLICIES),
        ("distributions", DISTRIBUTIONS),
        ("traces", TRACES),
        ("scenarios", SCENARIOS),
    ):
        lines.append(f"  {title}: {', '.join(registry.names())}")
    return "\n".join(lines)


def _list_scenarios() -> str:
    """Render the scenario registry: name, parameters, one-line description."""
    lines = ["named workload scenarios (run with `repro run --scenario name:key=value,...`):"]
    for name in SCENARIOS.names():
        factory = SCENARIOS.get(name)
        parameters = [
            parameter.name
            if parameter.default is inspect.Parameter.empty
            else f"{parameter.name}={parameter.default!r}"
            for parameter in inspect.signature(factory).parameters.values()
            if parameter.name != "rng" and parameter.kind is not inspect.Parameter.VAR_KEYWORD
        ]
        doc_lines = (inspect.getdoc(factory) or "").splitlines()
        summary = doc_lines[0] if doc_lines else "(no description)"
        lines.append(f"  {name}({', '.join(parameters)})")
        lines.append(f"      {summary}")
    return "\n".join(lines)


def _run_pipeline(args: argparse.Namespace) -> str:
    if args.list_components:
        return _list_components()
    # Everything that determines the numbers is folded into one RunSpec
    # first, and the executed pipeline is derived *from* it — so the
    # store key and the computation can never drift apart.
    trace_spec: str | None = None
    scenario_spec: str | None = None
    if args.scenario is not None:
        if args.trace is not None:
            raise ValueError("--scenario and --trace are mutually exclusive")
        # --scale/--duration are defaults; an explicit value inside the
        # --scenario spec (e.g. burst:duration=300) wins.
        scenario_spec = _fold_source_defaults(args.scenario, args)
    else:
        # Same precedence for the --trace spec (e.g. sprint:scale=0.05).
        trace_spec = _fold_source_defaults(args.trace or "sprint", args)
    max_flows = None
    monitor = args.monitor is not None
    if monitor:
        options = parse_kwargs(args.monitor)
        unknown = set(options) - {"max_flows"}
        if unknown:
            raise ValueError(
                f"unknown --monitor option(s) {sorted(unknown)}; expected max_flows=N"
            )
        max_flows = options.get("max_flows")

    run_spec = RunSpec(
        samplers=tuple(args.sampler) if args.sampler else ("bernoulli:rate=0.01",),
        trace=trace_spec,
        scenario=scenario_spec,
        key=args.key,
        bin_duration=args.bin,
        top_t=args.top,
        num_runs=args.runs,
        seed=args.seed,
        monitor=monitor,
        max_flows=max_flows,
    )
    pipeline = run_spec.build_pipeline()
    # Execution-only knobs (bit-identical results by contract, hence
    # not part of the spec) layer on top of the derived pipeline.
    if args.materialised:
        if args.chunk_packets is not None:
            raise ValueError("--chunk-packets conflicts with --materialised")
        pipeline.materialised()
    else:
        pipeline.streaming(
            DEFAULT_CHUNK_PACKETS if args.chunk_packets is None else args.chunk_packets
        )
    store = RunStore(args.store) if args.store is not None else None

    def _execute() -> tuple[object, bool]:
        if store is not None:
            stored = store.get(run_spec)
            if stored is not None:
                return stored.result, True
            executed = pipeline.run(jobs=args.jobs)
            store.put(run_spec, executed)
            return executed, False
        return pipeline.run(jobs=args.jobs), False

    # --telemetry is an observation knob, not an experiment parameter:
    # it never reaches the RunSpec above, and the executed numbers are
    # bit-identical either way (asserted in the test suite).
    snapshot: dict | None = None
    if args.telemetry is not None:
        with telemetry.use_telemetry():
            result, cached = _execute()
            snapshot = telemetry.snapshot()
    else:
        result, cached = _execute()
    text = render_pipeline_result(result)
    if store is not None:
        state = "loaded from" if cached else "stored in"
        text += f"\n{state} {args.store} (key {store.key_of(run_spec)})"
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        text += f"\nwrote result JSON to {args.json}"
    if args.csv:
        result.to_csv(args.csv)
        text += f"\nwrote per-bin CSV to {args.csv}"
    if snapshot is not None:
        rendered = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.telemetry == "-":
            text += f"\ntelemetry snapshot ({telemetry.SCHEMA}):\n{rendered}"
        else:
            Path(args.telemetry).write_text(rendered + "\n")
            text += f"\nwrote telemetry snapshot to {args.telemetry}"
    return text


def _run_figure(name: str, jobs: int | None = None) -> str:
    if name in ANALYTICAL_FIGURES:
        return render_figure_result(ANALYTICAL_FIGURES[name]())
    driver = TRACE_FIGURES[name]
    return render_pipeline_result(driver(jobs=jobs))


def _run_plan(args: argparse.Namespace) -> str:
    distribution = ParetoFlowSizes.from_mean(mean=args.mean_packets, shape=args.shape)
    population = FlowPopulation.from_distribution(distribution, total_flows=args.flows)
    lines = [
        f"link profile: {args.flows:,} flows/interval, Pareto(shape={args.shape}), "
        f"mean {args.mean_packets} packets",
        f"accuracy target: fewer than {args.target} swapped pairs on average",
    ]
    for problem in ("detection", "ranking"):
        plan = required_sampling_rate(
            population, args.top, problem, target_swapped_pairs=args.target
        )
        rate_text = f"{plan.required_rate:.2%}" if plan.feasible else "not achievable"
        lines.append(f"  {problem:<10} top {args.top:>3} flows -> required sampling rate {rate_text}")
    return "\n".join(lines)


def _run_simulate(args: argparse.Namespace) -> str:
    pipeline = (
        Pipeline()
        .with_trace(args.trace, scale=args.scale, duration=args.duration)
        .with_sampling_rates(tuple(args.rates))
        .with_key_policy("prefix" if args.prefix else "five-tuple")
        .with_bin_duration(args.bin)
        .with_top(args.top)
        .with_runs(args.runs)
        .with_seed(args.seed)
        .streaming()
    )
    return render_pipeline_result(pipeline.run(jobs=args.jobs))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script.

    A user error in any subcommand but ``lint`` (which reports its own
    exit status) prints one ``error: ...`` line to stderr and exits 2.
    """
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        return analysis_cli.run(args)
    try:
        if args.command == "run":
            output = _run_pipeline(args)
        elif args.command == "sweep":
            output = _run_sweep_cli(args)
        elif args.command == "store":
            output = _run_store_cli(args)
        elif args.command == "scenarios":
            output = _list_scenarios()
        elif args.command == "figure":
            output = _run_figure(args.name, jobs=args.jobs)
        elif args.command == "plan":
            output = _run_plan(args)
        elif args.command == "simulate":
            output = _run_simulate(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    # KeyError covers the registries' UnknownComponentError.
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


__all__ = ["main"]
