"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: str) -> None:
    done = _command(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    assert printed == expected


def test_digest_mismatch_counts_as_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    run.load_program()
    import workloads

    real_call = workloads.PipelineWorkload.call
    calls: list[object] = []

    def drifting_call(self: object, *args: object, **kwargs: object) -> object:
        outcome = real_call(self, *args, **kwargs)
        calls.append(outcome)
        if len(calls) > 1:  # the warm-up sets the reference; later calls drift
            outcome.digest += "-drift"
        return outcome

    monkeypatch.setattr(workloads.PipelineWorkload, "call", drifting_call)
    result = run.run_benchmark("rate_sweep", 3, 0.2, False, tiny=True, setup_probes=0)["result"]
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert result["metrics"]["success_share"]["value"] < 1.0


def test_traced_run_restores_the_original_functions(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    run.load_program()
    import tracer
    import workloads

    made: list[tracer.Recorder] = []

    class Capturing(tracer.Recorder):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    before = tracer.patch_points()
    monkeypatch.setattr(tracer, "Recorder", Capturing)
    record = run.run_benchmark("sweep_store", 3, 0.2, True, tiny=True)
    assert record["result"]["correct"] and record["spans"]
    (recorder,) = made
    after = tracer.patch_points()
    assert len(after) == len(before)
    for (owner, name, original), (_, _, current) in zip(before, after):
        assert current is original, f"{owner}.{name} is still wrapped"

    # Were any wrapper left installed, this call would record layer spans
    # under its root span.
    spans = len(recorder.names)
    workloads.WORKLOADS["sweep_store"](3, True, tmp_path).call(bracket=recorder.call)
    assert recorder.names[spans:] == ["call"]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _command(
        "--workload", "rate_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
