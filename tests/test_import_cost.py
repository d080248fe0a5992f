"""The pipeline path needs only NumPy; SciPy loads where a model first calls it.

Each test starts a fresh interpreter, because the test process already
has SciPy loaded.  With SciPy made unimportable (``sys.modules["scipy"]
= None``), importing :mod:`repro`, serial pipeline runs, a store-backed
sweep and ``python -m repro run`` must all succeed and leave no
``scipy`` module loaded.  With SciPy importable, the analytical models
must return the same bits on their first call in a fresh interpreter as
they do here.  Neither ``import repro`` nor a serial run loads the
reprolint linter, ``repro.analysis``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: Prepended to every child script: optionally blocks SciPy, and prints
#: the ``scipy`` modules left loaded as the last line at exit.
PRELUDE = """\
import atexit, json, sys
if {block}:
    sys.modules["scipy"] = None

def _scipy_modules():
    return sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    )

atexit.register(lambda: print("SCIPY " + json.dumps(_scipy_modules()), flush=True))
"""

SERIAL_RUN = """\
from repro import Pipeline
result = (
    Pipeline().with_trace({trace!r}, scale=0.002, duration=120)
    .with_sampler("bernoulli:rate=0.1").with_runs(2).with_seed(1)
    .run(parallel="serial")
)
assert result.samplers
"""

SWEEP_AND_GET = """\
import tempfile
from repro.store import RunStore
from repro.sweep import SweepGrid, run_sweep
grid = SweepGrid(
    scenarios=("burst:scale=0.002,duration=120", "churn:scale=0.002,duration=120"),
    rates=(0.1,),
    num_runs=2,
)
with tempfile.TemporaryDirectory() as root:
    store = RunStore(root)
    report = run_sweep(grid, store, parallel="serial")
    assert len(report.executed) == 2, report
    assert all(store.get(cell) is not None for cell in grid.cells())
"""

PIPELINE_PATHS = {
    "import": "import repro\n",
    "sprint": SERIAL_RUN.format(trace="sprint"),
    "abilene": SERIAL_RUN.format(trace="abilene"),
    "sweep": SWEEP_AND_GET,
}

#: Whether ``repro.analysis`` is loaded after ``import repro``, then
#: after a serial run.
LINTER_LOADED = (
    "import repro\n"
    "loaded = ['repro.analysis' in sys.modules]\n"
    + SERIAL_RUN.format(trace="sprint")
    + "loaded.append('repro.analysis' in sys.modules)\n"
    "print(json.dumps(loaded))\n"
)

#: ``python -m repro ARGS``: ``runpy`` is what ``-m`` runs.
CLI_RUN = """\
import runpy
sys.argv = ["repro", *sys.argv[1:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: The model calls compared bit for bit; ``values`` is what they return.
#: ``loaded_before`` records whether SciPy was loaded before the first.
MODEL_CALLS = """\
import dataclasses

import numpy as np

from repro.core import (
    DetectionModel,
    FlowPopulation,
    RankingModel,
    misranking_probability_exact,
    misranking_probability_gaussian,
    optimal_sampling_rate,
)
from repro.distributions import LognormalFlowSizes, ParetoFlowSizes

loaded_before = "scipy" in sys.modules
population = FlowPopulation.from_distribution(
    ParetoFlowSizes.from_mean(mean=9.6, shape=1.5), total_flows=2_000, grid_points=60
)
lognormal = LognormalFlowSizes(mu=1.0, sigma=1.2)
levels = np.array([0.1, 0.5, 0.9])
values = {
    "exact": misranking_probability_exact(50, 60, 0.01),
    "exact_equal": misranking_probability_exact(20, 20, 0.1),
    "gaussian": misranking_probability_gaussian(100, 120, 0.1),
    "gaussian_array": misranking_probability_gaussian(np.array([5.0, 50.0]), 60.0, 0.2).tolist(),
    "optimal_gaussian": optimal_sampling_rate(50, 60, 1e-3),
    "optimal_exact": optimal_sampling_rate(50, 60, 1e-3, method="exact"),
    "ranking": dataclasses.asdict(RankingModel(population, top_t=5).evaluate(0.1)),
    "detection": dataclasses.asdict(DetectionModel(population, top_t=5).evaluate(0.1)),
    "lognormal_cdf": lognormal.cdf(np.array([1.5, 4.0, 30.0])).tolist(),
    "lognormal_quantile": lognormal.quantile(levels).tolist(),
    "lognormal_mean": lognormal.mean,
}
"""


def _run_fresh(
    code: str, *args: str, block_scipy: bool, cwd: Path
) -> tuple[list[str], list[str]]:
    """Run ``code`` in a fresh interpreter; its output lines and final ``scipy`` modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    child = subprocess.run(
        [sys.executable, "-c", PRELUDE.format(block=block_scipy) + code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    lines = child.stdout.splitlines()
    assert lines and lines[-1].startswith("SCIPY "), child.stdout[-2000:]
    return lines[:-1], json.loads(lines[-1][len("SCIPY "):])


@pytest.mark.parametrize("path", sorted(PIPELINE_PATHS))
def test_pipeline_paths_need_no_scipy(path, tmp_path):
    _, loaded = _run_fresh(PIPELINE_PATHS[path], block_scipy=True, cwd=tmp_path)
    assert loaded == []


def test_import_and_serial_run_leave_the_linter_unloaded(tmp_path):
    output, _ = _run_fresh(LINTER_LOADED, block_scipy=True, cwd=tmp_path)
    assert json.loads(output[-1]) == [False, False]


def test_cli_run_needs_no_scipy(tmp_path):
    output, loaded = _run_fresh(
        CLI_RUN,
        "run", "--trace", "sprint:scale=0.002,duration=120",
        "--sampler", "bernoulli:rate=0.5", "--runs", "2",
        block_scipy=True,
        cwd=tmp_path,
    )
    assert any(line.startswith("ranking") for line in output), output
    assert loaded == []


def test_the_block_is_real(tmp_path):
    # Without this, a broken block would let the tests above pass with
    # SciPy loaded: a model call must fail where the pipeline does not.
    code = (
        "from repro.core import misranking_probability_exact\n"
        "try:\n"
        "    misranking_probability_exact(50, 60, 0.01)\n"
        "except ImportError:\n"
        "    print('blocked')\n"
    )
    output, loaded = _run_fresh(code, block_scipy=True, cwd=tmp_path)
    assert output == ["blocked"]
    assert loaded == []


def test_models_load_scipy_at_first_use_with_the_same_bits(tmp_path):
    code = MODEL_CALLS + "print(json.dumps({'before': loaded_before, 'values': values}))\n"
    output, loaded = _run_fresh(code, block_scipy=False, cwd=tmp_path)
    child = json.loads(output[-1])
    assert child["before"] is False
    assert "scipy.stats" in loaded and "scipy.special" in loaded

    namespace: dict = {"sys": sys}
    exec(MODEL_CALLS, namespace)
    here = json.loads(json.dumps(namespace["values"]))
    assert child["values"] == here
