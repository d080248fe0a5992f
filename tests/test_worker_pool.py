"""Tests for the process backend's warm workers (:mod:`repro.pipeline.parallel`).

A clean process-backend call leaves its workers, with their
shared-memory rings, idle for the next call of the same shape in the
interpreter.  These tests pin the reuse rule (only plans of built-in
registry samplers reuse workers), the lifecycle (a failure closes the
pool, a dead worker is replaced, an idle pool closes after
``_IDLE_KEEP_S``, the workers go with their parent) and
that reuse changes no result and no telemetry count.  The autouse
fixture in ``conftest.py`` closes the idle pool after every test.
"""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import telemetry
from repro.pipeline import Pipeline
from repro.pipeline import parallel
from repro.registry import SAMPLERS
from repro.sampling import BernoulliSampler

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    parallel.probe_shared_memory() is not None, reason="shared memory unusable"
)


class _FailingSampler(BernoulliSampler):
    """Raises on its first batch, in whichever process evaluates it."""

    def sample_mask(self, batch):
        raise RuntimeError("sampler failed on purpose")


def _bernoulli(rate, rng=None):
    """A sampler factory outside the registry (module level, so it pickles)."""
    return BernoulliSampler(rate, rng=rng)


def _pipeline(trace, *samplers) -> Pipeline:
    """Two built-in samplers, or the given ones: ``(name or factory, kwargs)`` or instances."""
    pipeline = Pipeline().with_trace(trace).with_runs(2).with_seed(3).streaming(4096)
    for sampler, kwargs in samplers or (("bernoulli", {"rate": 0.1}), ("periodic", {"rate": 0.1})):
        pipeline.with_sampler(sampler, **kwargs)
    return pipeline


def _run(pipeline: Pipeline):
    """A two-worker process run with telemetry on: (result dict, snapshot)."""
    with telemetry.use_telemetry():
        result = pipeline.run(parallel="process", jobs=2)
        snapshot = telemetry.snapshot()
    return result.to_dict(), snapshot


def _started(snapshot) -> int:
    return snapshot["counters"]["parallel.workers_started"]


def _idle_pids() -> list[int]:
    assert parallel._idle_pool is not None, "no idle pool"
    return [worker.process.pid for worker in parallel._idle_pool.workers]


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie nobody reaped counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def test_second_call_reuses_the_first_calls_workers(small_trace):
    serial = _pipeline(small_trace).run(parallel="serial").to_dict()
    first, cold = _run(_pipeline(small_trace))
    pids = _idle_pids()
    second, warm = _run(_pipeline(small_trace))
    assert (_started(cold), _started(warm)) == (2, 0)
    assert _idle_pids() == pids
    assert first == second == serial


def test_idle_workers_ignore_sigint(small_trace):
    _run(_pipeline(small_trace))
    pids = _idle_pids()
    for pid in pids:
        os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    _, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 0 and _idle_pids() == pids


@pytest.mark.parametrize("kind", ["factory", "instance", "registered name"])
def test_plans_outside_the_registry_get_workers_for_their_call_alone(
    small_trace, monkeypatch, kind
):
    if kind == "factory":
        sampler = (_bernoulli, {"rate": 0.1})
    elif kind == "instance":
        sampler = (BernoulliSampler(0.1), {})
    else:
        monkeypatch.setitem(SAMPLERS._factories, "test-bernoulli", _bernoulli)
        monkeypatch.setitem(SAMPLERS._takes_rng, "test-bernoulli", True)
        sampler = ("test-bernoulli", {"rate": 0.1})
    expected = _pipeline(small_trace, sampler).run(parallel="serial").to_dict()
    _run(_pipeline(small_trace))
    pids = _idle_pids()
    result, snapshot = _run(_pipeline(small_trace, sampler))
    assert _started(snapshot) == 2
    assert result == expected
    assert _idle_pids() == pids
    assert {child.pid for child in multiprocessing.active_children()} == set(pids)
    _, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 0


def test_a_worker_killed_between_calls_is_replaced(small_trace):
    serial = _pipeline(small_trace).run(parallel="serial").to_dict()
    _run(_pipeline(small_trace))
    pids = _idle_pids()
    os.kill(pids[0], signal.SIGKILL)
    killed = parallel._idle_pool.workers[0].process
    killed.join(10.0)
    assert not killed.is_alive()
    result, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 2
    assert not set(_idle_pids()) & set(pids)
    assert result == serial


def test_an_idle_pool_closes_after_its_keep_time(small_trace, monkeypatch):
    monkeypatch.setattr(parallel, "_IDLE_KEEP_S", 1.0)
    _run(_pipeline(small_trace))
    pids = _idle_pids()
    workers = parallel._idle_pool.workers
    names = [name for worker in workers for name in worker.channel.segment_names]
    parallel._idle_timer.join(30.0)
    assert parallel._idle_pool is None
    assert all(_gone(pid) for pid in pids)
    assert multiprocessing.active_children() == []
    with open("/proc/self/maps") as maps:
        mapped = maps.read()
    assert not [name for name in names if name in mapped]  # the parent unmapped the rings
    _, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 2


def test_a_call_within_the_keep_time_keeps_the_pool(small_trace, monkeypatch):
    monkeypatch.setattr(parallel, "_IDLE_KEEP_S", 30.0)
    _run(_pipeline(small_trace))
    pids = _idle_pids()
    timer = parallel._idle_timer
    _, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 0 and _idle_pids() == pids
    assert not timer.is_alive() and parallel._idle_timer is not timer


def test_a_failing_call_closes_the_pool(small_trace, monkeypatch):
    serial = _pipeline(small_trace).run(parallel="serial").to_dict()
    with monkeypatch.context() as patch:
        # Built-in names, so the call takes the reusable path; forked
        # after the patch, its workers fail on their first batch.
        patch.setattr(BernoulliSampler, "sample_mask", _FailingSampler.sample_mask)
        with pytest.raises(RuntimeError, match="sampler failed on purpose"):
            _pipeline(small_trace).run(parallel="process", jobs=2)
    assert parallel._idle_pool is None
    assert multiprocessing.active_children() == []
    result, snapshot = _run(_pipeline(small_trace))
    assert _started(snapshot) == 2
    assert result == serial


def test_concurrent_calls_do_not_share_workers(small_trace, monkeypatch):
    serial = _pipeline(small_trace).run(parallel="serial").to_dict()
    _run(_pipeline(small_trace))
    used: dict[int, list[int]] = {}
    both_started = threading.Barrier(2, timeout=60.0)
    post_job = parallel._Worker.post_job

    def recording_post_job(worker, job):
        pids = used.setdefault(threading.get_ident(), [])
        pids.append(worker.process.pid)
        if len(pids) == 1:
            both_started.wait()  # each call holds its workers here
        post_job(worker, job)

    monkeypatch.setattr(parallel._Worker, "post_job", recording_post_job)
    results: list[dict] = []

    def call():
        results.append(_pipeline(small_trace).run(parallel="process", jobs=2).to_dict())

    threads = [threading.Thread(target=call) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    assert results == [serial, serial]
    first, second = used.values()
    assert len(first) == len(second) == 2
    assert not set(first) & set(second)


def test_threads_racing_for_the_pool_leak_no_worker(small_trace):
    """More calling threads than CPUs, switching often: every result is
    right, and once the idle pool is closed no worker is left, so no
    pool was lost between a take and a return."""
    serial = _pipeline(small_trace).run(parallel="serial").to_dict()
    results: list[dict] = []
    errors: list[BaseException] = []

    def calls():
        try:
            for _ in range(3):
                results.append(_pipeline(small_trace).run(parallel="process", jobs=1).to_dict())
        except BaseException as error:  # reprolint: disable=broad-except -- asserted below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=calls) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and results == [serial] * 12
    parallel._close_idle_pool()
    assert multiprocessing.active_children() == []


def test_reused_workers_report_each_call_once(small_trace):
    _, first = _run(_pipeline(small_trace))
    _, second = _run(_pipeline(small_trace))

    def counts(snapshot):
        stream = {k: v for k, v in snapshot["counters"].items() if k.startswith("stream.")}
        spans = {name: span["count"] for name, span in snapshot["spans"].items()}
        return stream, spans

    assert counts(first) == counts(second)
    assert counts(first)[1]["stream.sample"] > 0


_IDLE_SCRIPT = """
import glob, json, multiprocessing, sys, time
sys.path.insert(0, {src!r})
from repro.pipeline import Pipeline

if __name__ == "__main__":
    before = set(glob.glob("/dev/shm/psm_*"))
    Pipeline().with_trace("sprint", scale=0.001, duration=120.0).with_sampler(
        "bernoulli", rate=0.5
    ).with_runs(2).with_seed(0).run(parallel="process", jobs=2)
    pids = [child.pid for child in multiprocessing.active_children()]
    print(json.dumps({{"pids": pids, "before": sorted(before)}}), flush=True)
    time.sleep(120)
"""


def test_idle_workers_exit_with_a_killed_parent(tmp_path):
    script = tmp_path / "idle.py"
    script.write_text(_IDLE_SCRIPT.format(src=str(REPO_SRC)))
    child = subprocess.Popen(
        [sys.executable, str(script)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        report = json.loads(child.stdout.readline())
    finally:
        child.kill()
        child.wait(30.0)
    deadline = time.monotonic() + 2.0
    while not all(_gone(pid) for pid in report["pids"]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_gone(pid) for pid in report["pids"])
    assert set(glob.glob("/dev/shm/psm_*")) <= set(report["before"])


_TWO_CALLS_SCRIPT = """
import glob, hashlib, json, multiprocessing, sys
sys.path.insert(0, {src!r})

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    from repro import telemetry
    from repro.pipeline import Pipeline

    before = set(glob.glob("/dev/shm/psm_*"))
    started, digests = [], []
    for _ in range(2):
        with telemetry.use_telemetry():
            result = Pipeline().with_trace("sprint", scale=0.001, duration=120.0).with_sampler(
                "bernoulli", rate=0.5
            ).with_runs(2).with_seed(0).run(parallel="process", jobs=2)
            started.append(telemetry.snapshot()["counters"]["parallel.workers_started"])
        text = json.dumps(result.to_dict(), sort_keys=True)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    print(json.dumps({{
        "started": started,
        "same": digests[0] == digests[1],
        "pids": [child.pid for child in multiprocessing.active_children()],
        "leaked": sorted(set(glob.glob("/dev/shm/psm_*")) - before),
    }}))
"""


@pytest.mark.parametrize(
    "method",
    [m for m in ("fork", "spawn", "forkserver") if m in multiprocessing.get_all_start_methods()],
)
def test_two_calls_reuse_workers_and_exit_clean(method, tmp_path):
    script = tmp_path / "two_calls.py"
    script.write_text(_TWO_CALLS_SCRIPT.format(src=str(REPO_SRC), method=method))
    child = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    assert "resource_tracker" not in child.stderr and "Traceback" not in child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert report["started"] == [2, 0] and report["same"]
    assert report["leaked"] == []
    assert all(_gone(pid) for pid in report["pids"])
