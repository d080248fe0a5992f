"""Pinned results: the sha256 of small runs' canonical results.

Every other equivalence test compares two paths of this code with each
other (backends, chunkings, lanes, oracles), so a change that moves
every path the same way passes them all: a new RNG draw order, a new
tie rule, or a NumPy whose ``Generator`` streams differ.  This table
pins what the runs *return*.

What is digested: ``PipelineResult.to_dict()`` with every float
rounded to 12 significant digits, and each sampler's per-run
swapped-pair counts and eviction counts converted to ``int`` and
compared exactly.  Means and standard deviations are float reductions
whose last bits may depend on the CPU's SIMD path; the counts are
integers and must not move at all.

A change that moves results on purpose recomputes the table with
:func:`result_digest`, updates :data:`TABLE_NUMPY`, and says so in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import telemetry
from repro.pipeline import parallel as parallel_module
from repro.pipeline.result import PipelineResult
from repro.store import RunSpec

#: The NumPy version the digests below were computed with.
TABLE_NUMPY = "2.4.6"

SMALL = "scale=0.002,duration=120"
SPRINT = "sprint:" + SMALL
PREFIX = "prefix:prefix_length=24"
SAMPLERS = {
    "bernoulli": "bernoulli:rate=0.1",
    "flow-hash": "flow-hash:rate=0.2",
    "periodic": "periodic:rate=0.1",
    "sample-and-hold": "sample-and-hold:rate=0.05",
}


def _spec(samplers, **fields) -> RunSpec:
    fields = {"top_t": 5, "num_runs": 2, "seed": 7, **fields}
    if "scenario" not in fields:
        fields["trace"] = SPRINT
    return RunSpec(samplers=tuple(samplers), **fields)


#: name -> (spec, how it runs, sha256 of its canonical result).  "streamed"
#: runs in chunks of 1,024 packets, "materialised" expands the trace at
#: once, and "lanes" streams with two usable CPUs and no lane work floor,
#: so its 16 cells fold on two lane threads.
CASES: dict[str, tuple[RunSpec, str, str]] = {
    "bernoulli-five-tuple": (
        _spec([SAMPLERS["bernoulli"]]),
        "streamed",
        "a840afcaec27c6c5137575fd7b759760d9ceaa2623629efda956713700822d85",
    ),
    "flow-hash-five-tuple": (
        _spec([SAMPLERS["flow-hash"]]),
        "streamed",
        "f959397febf772029d725bfed747cf3016bbee07e624fc72fd89f148e5d9bbd3",
    ),
    "periodic-five-tuple": (
        _spec([SAMPLERS["periodic"]]),
        "streamed",
        "4b23b5ef66d85973ee7a514d59d1dffbfea5b2d85b591bbd265df7a17951df5f",
    ),
    "sample-and-hold-five-tuple": (
        _spec([SAMPLERS["sample-and-hold"]]),
        "streamed",
        "8ae603c7a6acf26cfae57fad7e186aac94dab70f259b2dfa12e3c48f86ee6e41",
    ),
    "bernoulli-prefix": (
        _spec([SAMPLERS["bernoulli"]], key=PREFIX),
        "streamed",
        "9d5c7e318061a317cfefcf8d7e016c2c8564d096593301f195a477b41a7fb727",
    ),
    "flow-hash-prefix": (
        _spec([SAMPLERS["flow-hash"]], key=PREFIX),
        "streamed",
        "6051c173ae43e91e9e92481ca7d0f460f1e202499a2ed989550c7ffbb9b79ffa",
    ),
    "periodic-prefix": (
        _spec([SAMPLERS["periodic"]], key=PREFIX),
        "streamed",
        "0271e4bf4b5df84d79d354056248f047cef9c4b42187d6a9bd0a48abef172f00",
    ),
    "sample-and-hold-prefix": (
        _spec([SAMPLERS["sample-and-hold"]], key=PREFIX),
        "streamed",
        "0770ae40e95dd75d630c40ff3888db9dde2c8236846a311dcdcffb1fbce93345",
    ),
    "scenario-steady": (
        _spec([SAMPLERS["bernoulli"]], scenario="steady:" + SMALL),
        "streamed",
        "8bd5672478d44d70b7eb83a201847b42da9f4b8fcbd1c3cf79242336401417f2",
    ),
    "scenario-diurnal": (
        _spec([SAMPLERS["bernoulli"]], scenario="diurnal:" + SMALL),
        "streamed",
        "9dca50db560daac67caa4b359794af8b86d0c373cb1d12312092d4baac3e8e27",
    ),
    "scenario-burst": (
        _spec([SAMPLERS["bernoulli"]], scenario="burst:" + SMALL),
        "streamed",
        "f9893209c867686e1563a5b0d754624dbb761ea29686635bbfc9cce5f339fa85",
    ),
    "scenario-churn": (
        _spec([SAMPLERS["bernoulli"]], scenario="churn:" + SMALL),
        "streamed",
        "cac08090052e419dd66efc258bce6000f6f66cc4046b90b91a7ab37f02ad28a8",
    ),
    "scenario-multilink": (
        _spec([SAMPLERS["bernoulli"]], scenario="multilink:" + SMALL),
        "streamed",
        "cf53c4c0432ab359b7a59e67b1e7c3a18509860de988e70e712cc6a615bca9f0",
    ),
    # seed 5 evicts 357 and 403 flows in its two runs
    "monitor-max-flows-8": (
        _spec([SAMPLERS["bernoulli"]], seed=5, max_flows=8),
        "streamed",
        "a1a0fff3a739c3b2489f5d70e6fb21aa350cf204d79783f55332e7a1da525ca4",
    ),
    "materialised": (
        _spec(SAMPLERS.values()),
        "materialised",
        "a4968861bcdbbbb1da57ea3fd59b605a32a6a42f2e4ce470c2bc1814ff4c3e12",
    ),
    "lanes": (
        _spec(SAMPLERS.values(), num_runs=4),
        "lanes",
        "e90d58697171e568768147d8b2e2a0e661ed3130996e718eb8d34474f256953b",
    ),
}


def _canonical(result: PipelineResult) -> dict:
    """``result.to_dict()`` with the counts as ``int`` and every float at 12 digits."""
    data = result.to_dict()
    for problem in ("ranking", "detection"):
        for series in data[problem].values():
            values = np.asarray(series["values"], dtype=float)
            assert np.array_equal(values, np.round(values)), "swapped-pair counts must be integral"
            series["values"] = values.astype(np.int64).tolist()
    return _rounded(data)


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


def result_digest(result: PipelineResult) -> str:
    """sha256 of the sorted-key JSON of :func:`_canonical`."""
    payload = json.dumps(_canonical(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run(spec: RunSpec, mode: str) -> PipelineResult:
    pipeline = spec.build_pipeline()
    if mode == "materialised":
        return pipeline.materialised().run(parallel="serial")
    pipeline.streaming(1024)
    if mode == "streamed":
        return pipeline.run(parallel="serial")
    with telemetry.use_telemetry():
        result = pipeline.run(parallel="serial")
        assert telemetry.snapshot()["gauges"]["parallel.lanes"] == 2
    return result


@pytest.mark.parametrize("name", list(CASES))
def test_result_digest_is_pinned(name, monkeypatch):
    spec, mode, expected = CASES[name]
    if mode == "lanes":
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(parallel_module, "_LANE_MIN_WORK", 0)
    actual = result_digest(_run(spec, mode))
    assert actual == expected, (
        f"{name}: the result changed (digest {actual}, pinned {expected}). "
        f"The table was computed with NumPy {TABLE_NUMPY}; this is NumPy {np.__version__}. "
        "If the change is meant, recompute the table and say so in CHANGES.md."
    )


def test_the_monitor_case_evicts():
    spec, mode, _ = CASES["monitor-max-flows-8"]
    assert _run(spec, mode).evictions == {SAMPLERS["bernoulli"]: [357, 403]}
