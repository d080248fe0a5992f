"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same calls untraced for half the time, then
traced for the other half, and reports the per-layer metrics.  Every
run checks the program's outputs, prints one ``metric NAME VALUE UNIT``
line per metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance, checks, per-call samples and, when traced, every span) is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
#: Extra fresh processes that repeat set-up, so ``setup_s`` is a median.
SETUP_PROBES = 2
#: Fastest time of :class:`HostClock`'s kernel on the 2-CPU Intel Xeon
#: host the benchmark was tuned on; corrected times are in that host's
#: seconds when it runs undisturbed.
HOST_CLOCK_REFERENCE_S = 0.020

#: The end-to-end metrics of an untraced run, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "call_s_min": "s",
    "cell_pkts_per_s": "cell-packets/s",
    "sweep_cells_per_s": "cells/s",
    "store_get_ms_min": "ms",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}") from None
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {src}")


def _now() -> float:
    return time.perf_counter()


def _set_up(name: str, seed: int, tiny: bool, work_dir: Path) -> tuple[object, str]:
    """Import the program, build the workload and make the untimed warm-up call.

    Returns the workload and the warm-up's result digest, which every
    later call must match.
    """
    load_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed, tiny, work_dir)
    return workload, workload.call().digest


class HostClock:
    """How fast the host ran during a run, from a fixed kernel timed between calls.

    Other tenants of the host slow every process on it, often for longer
    than a whole run.  The kernel's fastest time in a run measures that
    slowdown, and dividing the program's fastest call by it removes most
    of it: over 200 s of ``link_monitor`` calls, 15 s windows spread
    0.114 (interquartile range over median) raw and 0.045 corrected.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._values = rng.random(250_000)
        self._keys = rng.integers(0, 20_000, 250_000)
        self.times: list[float] = []

    def tick(self) -> None:
        import numpy

        start = _now()
        numpy.sort(self._values)
        numpy.unique(self._keys, return_counts=True)
        total = 0
        for index in range(400_000):
            total += index & 7
        self.times.append(_now() - start)

    def slowdown(self) -> float:
        """Fastest kernel time over the reference host's (1.0 = as fast)."""
        return min(self.times) / HOST_CLOCK_REFERENCE_S


def _loop(
    workload,
    reference: str,
    seconds: float,
    failures: list[str],
    clock: HostClock | None = None,
    **kwargs,
) -> tuple[list, int]:
    """Call the workload back to back until ``seconds`` have passed.

    Returns the outcomes of the calls that returned and the number of
    calls attempted.  A ``clock`` is ticked after every call.
    """
    outcomes = []
    calls = 0
    deadline = _now() + seconds
    while True:
        calls += 1
        try:
            outcome = workload.call(**kwargs)
        except Exception as error:  # a failed call is counted and the loop goes on
            failures.append(f"call raised {type(error).__name__}: {error}")
        else:
            outcomes.append(outcome)
            if outcome.digest != reference:
                failures.append(f"call digest {outcome.digest[:12]} != {reference[:12]}")
        if clock is not None:
            clock.tick()
        if _now() >= deadline:
            return outcomes, calls


def _verify(workload, reference: str, failures: list[str]):
    try:
        verification = workload.verify(reference)
    except Exception as error:  # the checks themselves failed to run
        failures.append(f"verify raised {type(error).__name__}: {error}")
        return None
    failures.extend(f"check {c.name} failed: {c.detail}" for c in verification.checks if not c.ok)
    return verification


def _setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Set-up time of the workload in a fresh process."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name]
    command += ["--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=90)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _untraced_metrics(
    outcomes: list, setup: list[float], rss_mb: float, slowdown: float
) -> tuple[dict, dict]:
    """End-to-end metrics, and the uncorrected figures behind them.

    Every call time and rate comes from the fastest sample, because other
    tenants of the host only ever slow a call down.  They and the median
    set-up time are then corrected by the run's :class:`HostClock`
    slowdown.
    """
    walls = [outcome.wall_s for outcome in outcomes]
    gets = [get for outcome in outcomes for get in outcome.get_s]
    raw = {
        "setup_s": _median(setup),
        "call_s_min": min(walls, default=0.0),
        "cell_pkts_per_s": max((o.cell_pkts / o.wall_s for o in outcomes), default=0.0),
        "sweep_cells_per_s": max((o.cells / o.wall_s for o in outcomes), default=0.0),
        "store_get_ms_min": min(gets, default=0.0) * 1e3,
    }
    metrics = {
        "setup_s": raw["setup_s"] / slowdown,
        "call_s_min": raw["call_s_min"] / slowdown,
        "cell_pkts_per_s": raw["cell_pkts_per_s"] * slowdown,
        "sweep_cells_per_s": raw["sweep_cells_per_s"] * slowdown,
        "store_get_ms_min": raw["store_get_ms_min"] / slowdown,
        "peak_rss_mb": rss_mb,
    }
    raw.update(
        {
            "call_s_p50": _median(walls),
            "store_get_ms_p50": _median(gets) * 1e3,
            "host_slowdown": slowdown,
        }
    )
    return metrics, raw


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, seconds: float, trace: bool, tiny: bool, verification) -> dict:
    import numpy

    import repro

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "backend": None if verification is None else verification.backend,
        "transport": None if verification is None else verification.transport,
    }


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    setup_probes: int = SETUP_PROBES,
    started: float | None = None,
) -> dict:
    """Set up, measure and check one workload; returns the full record.

    ``record["result"]`` is the object the command prints last.
    """
    started = _now() if started is None else started
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    failures: list[str] = []
    record: dict = {}
    try:
        workload, reference = _set_up(name, seed, tiny, work_dir)
        setup = [_now() - started]
        if not trace:
            setup += [_setup_probe(name, seed, tiny) for _ in range(setup_probes)]
            clock = HostClock()
            outcomes, calls = _loop(workload, reference, seconds, failures, clock=clock)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            verification = _verify(workload, reference, failures)
            metrics, record["uncorrected"] = _untraced_metrics(
                outcomes, setup, rss_mb, clock.slowdown()
            )
            units = E2E_UNITS
        else:
            import tracer

            untraced, calls = _loop(workload, reference, seconds / 2, failures)
            recorder = tracer.Recorder()
            with tracer.traced(recorder):
                outcomes, traced_calls = _loop(
                    workload, reference, seconds / 2, failures, bracket=recorder.call
                )
            calls += traced_calls
            verification = _verify(workload, reference, failures)
            metrics = tracer.layer_metrics(recorder, [o.cycle_s for o in untraced])
            units = tracer.LAYER_METRIC_UNITS
            record["spans"] = tracer.span_table(recorder)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = [] if verification is None else verification.checks
    attempted = calls + max(len(checks), 1)
    failed = len(failures)
    if not trace:
        metrics["success_share"] = 1.0 - failed / attempted
    record.update(
        {
            "provenance": provenance(name, seed, seconds, trace, tiny, verification),
            "checks": [[c.name, c.ok, c.detail] for c in checks],
            "failures": failures,
            "setup_s": setup,
            "call_s": [o.wall_s for o in outcomes],
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric: {"value": float(metrics[metric]), "unit": unit}
                    for metric, unit in units.items()
                },
            },
        }
    )
    return record


def main(argv: list[str] | None = None) -> int:
    started = _now()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        "rate_sweep", "rate_sweep_process", "link_monitor", "sweep_store",
    ])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        work_dir = OUT_DIR / f"work-{os.getpid()}"
        try:
            _set_up(args.workload, args.seed, args.tiny, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(json.dumps({"setup_s": _now() - started}))
        return 0

    record = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny, started=started
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    result = record["result"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} -> {out_path}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, ok, detail in record["checks"]:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    for failure in record["failures"]:
        print(f"failure {failure}")
    for name, value in record.get("uncorrected", {}).items():
        print(f"uncorrected {name} {value:.6g}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def _reap_resource_tracker() -> None:
    """Stop and wait for the helper process shared memory starts, if any.

    The shm transport starts ``multiprocessing``'s resource tracker,
    which would otherwise outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _reap_resource_tracker()
    sys.exit(code)
