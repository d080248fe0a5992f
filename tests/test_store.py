"""Tests for the persistent experiment store (:mod:`repro.store`).

Covers the three contracts the store documents:

* **Result round trip** — ``PipelineResult.from_dict`` is the exact
  inverse of ``to_dict``, including through a JSON dump and for
  monitor/source/scenario fields (property-based with hypothesis);
* **Key stability** — the same spec hashes identically across
  processes and across dict/kwargs orderings, and changing any field
  changes the key (hypothesis);
* **Store operations** — put/get/list/verify/gc over JSON and NPZ
  artifacts, salt invalidation, corrupt-artifact handling, the
  append-only index journal (torn lines, pre-journal stores) and ``gc``
  beside live writers.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.result import MetricSeries, PipelineResult, SamplerSummary
from repro.spec import canonical_spec
from repro.store import STORE_SALT, RunSpec, RunStore, store_key

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

SPEC = RunSpec(
    samplers=("bernoulli:rate=0.5",),
    trace="sprint:duration=120,scale=0.002",
    num_runs=2,
    seed=0,
)


@pytest.fixture(scope="module")
def result() -> PipelineResult:
    """One small executed pipeline result shared by the module's tests."""
    return SPEC.execute()


# ----------------------------------------------------------------------
# PipelineResult.from_dict round trip
# ----------------------------------------------------------------------
finite_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def pipeline_results(draw) -> PipelineResult:
    """Random but structurally valid results, monitor fields included."""
    num_runs = draw(st.integers(min_value=1, max_value=3))
    num_bins = draw(st.integers(min_value=1, max_value=4))
    labels = draw(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    monitor = draw(st.booleans())
    starts = np.arange(num_bins, dtype=float) * 60.0
    result = PipelineResult(
        flow_definition=draw(st.sampled_from(["5-tuple", "/24 prefix"])),
        bin_duration=60.0,
        top_t=draw(st.integers(min_value=1, max_value=10)),
        num_runs=num_runs,
        flows_per_bin=draw(finite_floats),
        total_packets=draw(st.integers(min_value=0, max_value=10**9)),
        streamed=draw(st.booleans()),
        monitor=monitor,
        max_flows=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)))
        if monitor
        else None,
        source=draw(st.one_of(st.none(), st.just("flow-trace(sprint)"))),
        scenario=draw(st.one_of(st.none(), st.just("burst"))),
    )
    for index, label in enumerate(labels):
        rate = float(0.01 * (index + 1))
        result.samplers.append(SamplerSummary(label=label, effective_rate=rate))
        values = draw(
            st.lists(
                st.lists(finite_floats, min_size=num_bins, max_size=num_bins),
                min_size=num_runs,
                max_size=num_runs,
            )
        )
        result.ranking[label] = MetricSeries(
            problem="ranking",
            sampling_rate=rate,
            bin_start_times=starts,
            values=np.asarray(values, dtype=float),
        )
        result.detection[label] = MetricSeries(
            problem="detection",
            sampling_rate=rate,
            bin_start_times=starts,
            values=np.asarray(values, dtype=float) * 0.5,
        )
        if monitor:
            result.evictions[label] = [index] * num_runs
    return result


class TestResultRoundTrip:
    @given(result=pipeline_results())
    @settings(max_examples=40, deadline=None)
    def test_from_dict_is_exact_inverse_of_to_dict(self, result):
        data = result.to_dict()
        assert PipelineResult.from_dict(data).to_dict() == data

    @given(result=pipeline_results())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_survives_json(self, result):
        data = result.to_dict()
        rebuilt = PipelineResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data

    def test_real_result_round_trips(self, result):
        data = result.to_dict()
        rebuilt = PipelineResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.to_dict() == data
        assert rebuilt.labels == result.labels
        assert rebuilt.series("ranking", "bernoulli:rate=0.5").num_runs == 2

    def test_monitor_fields_round_trip(self):
        spec = replace(SPEC, monitor=True, max_flows=64)
        result = spec.execute()
        rebuilt = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.monitor is True
        assert rebuilt.max_flows == 64
        assert rebuilt.evictions == result.evictions

    def test_to_dict_is_json_safe(self, result):
        # Every value must be a plain Python type: json.dumps raises on
        # stray NumPy scalars, so this doubles as a type audit.
        json.dumps(result.to_dict())


# ----------------------------------------------------------------------
# Store-key stability
# ----------------------------------------------------------------------
spec_field_strategies = {
    "samplers": st.sampled_from(
        [("bernoulli:rate=0.1",), ("periodic:rate=0.1",), ("bernoulli:rate=0.1", "hash:rate=0.2")]
    ),
    "key": st.sampled_from(["five-tuple", "prefix:prefix_length=24"]),
    "bin_duration": st.sampled_from([30.0, 60.0, 120.0]),
    "top_t": st.integers(min_value=1, max_value=50),
    "num_runs": st.integers(min_value=1, max_value=30),
    "seed": st.integers(min_value=0, max_value=2**31),
    "monitor": st.booleans(),
}


class TestStoreKeyStability:
    def test_key_is_stable_across_processes(self):
        # The same spec must hash identically in a fresh interpreter —
        # no dependence on PYTHONHASHSEED, dict iteration or import
        # order.
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.store import RunSpec, store_key\n"
            "spec = RunSpec(samplers=('bernoulli:rate=0.5',),\n"
            "               trace='sprint:duration=120,scale=0.002', num_runs=2, seed=0)\n"
            "print(store_key(spec))\n"
        ).format(src=str(REPO_SRC))
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert child.stdout.strip() == store_key(SPEC)

    def test_key_independent_of_spec_kwargs_order(self):
        a = replace(SPEC, samplers=("periodic:period=100,phase=3",))
        b = replace(SPEC, samplers=("periodic:phase=3,period=100",))
        assert store_key(a) == store_key(b)

    def test_key_independent_of_trace_kwargs_order(self):
        a = replace(SPEC, trace="sprint:duration=120,scale=0.002")
        b = replace(SPEC, trace="sprint:scale=0.002,duration=120")
        assert store_key(a) == store_key(b)

    @given(
        field=st.sampled_from(sorted(spec_field_strategies)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_changed_field_changes_the_key(self, field, data):
        value = data.draw(spec_field_strategies[field])
        changed = replace(SPEC, **{field: value})
        if changed.canonical() == SPEC.canonical():
            assert store_key(changed) == store_key(SPEC)
        else:
            assert store_key(changed) != store_key(SPEC)

    def test_key_independent_of_int_float_spelling(self):
        # The CLI folds --duration in as a float (120.0) while a spec
        # may spell it 120; both describe the same run and must share a
        # cache cell.
        a = replace(SPEC, trace="sprint:duration=120,scale=0.002")
        b = replace(SPEC, trace="sprint:duration=120.0,scale=0.002")
        assert store_key(a) == store_key(b)
        assert a.canonical() == b.canonical()

    def test_trace_vs_scenario_differ(self):
        trace = replace(SPEC, trace="sprint", scenario=None)
        scenario = replace(SPEC, trace=None, scenario="sprint")
        assert store_key(trace) != store_key(scenario)

    def test_salt_changes_the_key(self):
        assert store_key(SPEC) != store_key(SPEC, salt=STORE_SALT + "-other")

    def test_unseeded_spec_rejected(self):
        with pytest.raises(ValueError, match="seeded"):
            RunSpec(samplers=("bernoulli",), trace="sprint", seed=None)

    def test_trace_and_scenario_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            RunSpec(samplers=("bernoulli",), trace="sprint", scenario="steady")

    def test_spec_dict_round_trip(self):
        assert RunSpec.from_dict(SPEC.to_dict()) == SPEC
        assert RunSpec.from_dict(json.loads(json.dumps(SPEC.to_dict()))) == SPEC


def _hashed(spec_dict: dict) -> str:
    """The key derivation written out: sha256 of the salted canonical JSON."""
    payload = json.dumps(
        {"salt": STORE_SALT, "spec": spec_dict}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


class TestRunSpecIntegerFields:
    """``top_t``, ``num_runs``, ``seed`` and ``max_flows`` are never rounded."""

    @pytest.mark.parametrize(
        ("field", "value", "error"),
        [
            ("top_t", 2.5, TypeError),
            ("top_t", 2.0, TypeError),
            ("top_t", np.float64(3.0), TypeError),
            ("top_t", 0, ValueError),
            ("num_runs", 2.5, TypeError),
            ("num_runs", 2.0, TypeError),
            ("num_runs", 0, ValueError),
            ("num_runs", -1, ValueError),
            ("seed", 1.5, TypeError),
            ("seed", 1.0, TypeError),
            ("seed", "1", TypeError),
            ("max_flows", 3.7, TypeError),
            ("max_flows", 0, ValueError),
        ],
    )
    def test_bad_values_raise(self, field, value, error):
        with pytest.raises(error, match=field):
            replace(SPEC, **{field: value})

    @pytest.mark.parametrize(
        ("field", "value"),
        [("top_t", 2.5), ("num_runs", 2.5), ("seed", 1.5), ("max_flows", 3.7)],
    )
    def test_from_dict_does_not_truncate(self, field, value):
        data = {**SPEC.to_dict(), field: value}
        with pytest.raises(TypeError, match=field):
            RunSpec.from_dict(data)

    def test_fractional_values_no_longer_alias_a_stored_key(self):
        # These used to hash as top_t=2, num_runs=2 and seed=1.
        for field, value in (("top_t", 2.5), ("num_runs", 2.5), ("seed", 1.5)):
            with pytest.raises(TypeError):
                store_key(replace(SPEC, **{field: value}))

    def test_numpy_integers_are_plain_ints(self):
        spec = replace(
            SPEC, top_t=np.int64(7), num_runs=np.int32(3), seed=np.uint8(5), max_flows=np.int64(9)
        )
        assert (spec.top_t, spec.num_runs, spec.seed, spec.max_flows) == (7, 3, 5, 9)
        assert all(type(value) is int for value in (spec.top_t, spec.num_runs, spec.seed))
        assert type(spec.max_flows) is int
        assert spec == replace(SPEC, top_t=7, num_runs=3, seed=5, max_flows=9)
        json.dumps(spec.to_dict())

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC,
            replace(SPEC, top_t=np.int64(10), num_runs=np.int64(2), seed=np.int64(0)),
            RunSpec(
                samplers=("periodic:phase=3,period=100", "bernoulli:rate=0.1"),
                scenario="multilink:scale=0.05,duration=900.0",
                key="prefix:prefix_length=24",
                bin_duration=300,
                top_t=5,
                num_runs=1,
                seed=2**31,
                monitor=True,
                max_flows=200,
            ),
        ],
    )
    def test_keys_of_valid_specs_are_unchanged(self, spec):
        canonical = spec.canonical()
        assert store_key(spec) == _hashed(
            {
                "samplers": list(canonical.samplers),
                "trace": canonical.trace,
                "scenario": canonical.scenario,
                "key": canonical.key,
                "bin_duration": float(spec.bin_duration),
                "top_t": int(spec.top_t),
                "num_runs": int(spec.num_runs),
                "seed": int(spec.seed),
                "monitor": bool(spec.monitor),
                "max_flows": None if spec.max_flows is None else int(spec.max_flows),
            }
        )

    def test_grid_seeds_are_not_truncated(self):
        from repro.sweep import SweepGrid

        with pytest.raises(TypeError, match="seed"):
            SweepGrid(samplers=("bernoulli:rate=0.1",), seeds=(1.5,)).cells()


class TestCanonicalSpecCache:
    """``canonical_spec`` is memoised; keys read the same cold and warm."""

    def test_cache_is_bounded(self):
        maxsize = canonical_spec.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    @pytest.mark.parametrize(
        ("field", "left", "right"),
        [
            ("samplers", ("periodic:period=100,phase=3",), ("periodic:phase=3,period=100",)),
            ("trace", "sprint:duration=120,scale=0.002", "sprint:scale=0.002,duration=120"),
            ("trace", "sprint:duration=120,scale=0.002", "sprint:duration=120.0,scale=0.002"),
        ],
    )
    def test_spellings_share_a_key_cold_and_warm(self, field, left, right):
        canonical_spec.cache_clear()
        cold = store_key(replace(SPEC, **{field: right}))
        assert store_key(replace(SPEC, **{field: left})) == cold
        assert store_key(replace(SPEC, **{field: right})) == cold

    def test_keys_are_the_written_out_derivation_cold_and_warm(self):
        spec = RunSpec(
            samplers=("periodic:phase=3,period=100", "bernoulli:rate=0.1"),
            scenario="multilink:scale=0.05,duration=900.0",
            key="prefix:prefix_length=24",
            bin_duration=300,
            top_t=5,
            num_runs=1,
            seed=7,
            monitor=True,
            max_flows=200,
        )
        # The canonical strings are typed out, not derived through the cache.
        expected = _hashed(
            {
                "samplers": ["periodic:period=100,phase=3", "bernoulli:rate=0.1"],
                "trace": None,
                "scenario": "multilink:duration=900,scale=0.05",
                "key": "prefix:prefix_length=24",
                "bin_duration": 300.0,
                "top_t": 5,
                "num_runs": 1,
                "seed": 7,
                "monitor": True,
                "max_flows": 200,
            }
        )
        canonical_spec.cache_clear()
        assert store_key(spec) == expected
        assert store_key(spec) == expected

    def test_put_canonicalises_the_spec_once(self, tmp_path, result, monkeypatch):
        calls = []
        canonical = RunSpec.canonical

        def counting(spec):
            calls.append(spec)
            return canonical(spec)

        monkeypatch.setattr(RunSpec, "canonical", counting)
        key = RunStore(tmp_path / "store").put(SPEC, result)
        assert len(calls) == 1
        monkeypatch.undo()
        assert key == store_key(SPEC)


# ----------------------------------------------------------------------
# Store operations
# ----------------------------------------------------------------------
class TestRunStore:
    @pytest.mark.parametrize("array_format", ["json", "npz"])
    def test_put_get_round_trip(self, tmp_path, result, array_format):
        store = RunStore(tmp_path / "store", array_format=array_format)
        assert store.get(SPEC) is None
        assert SPEC not in store
        key = store.put(SPEC, result)
        assert SPEC in store
        stored = store.get(SPEC)
        assert stored.key == key
        assert stored.spec == SPEC.canonical()
        assert stored.result.to_dict() == result.to_dict()

    def test_get_by_key_string(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        assert store.get(key).result.to_dict() == result.to_dict()

    def test_npz_artifacts_exist_and_json_is_small(self, tmp_path, result):
        store = RunStore(tmp_path / "store", array_format="npz")
        key = store.put(SPEC, result)
        assert (store.runs_dir / f"{key}.npz").is_file()
        payload = json.loads(store.run_path(key).read_text())
        assert payload["result"]["ranking"][result.labels[0]]["values"] == {
            "__npz__": payload["result"]["ranking"][result.labels[0]]["values"]["__npz__"]
        }

    def test_put_is_idempotent(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        first = store.run_path(key).read_bytes()
        assert store.put(SPEC, result) == key
        assert store.run_path(key).read_bytes() == first

    def test_list_reads_only_the_index(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        entries = store.list()
        assert [entry[0] for entry in entries] == [key]
        assert entries[0][1] == SPEC.canonical()
        # Listing must not require the artifacts themselves.
        store.run_path(key).unlink()
        assert [entry[0] for entry in store.list()] == [key]

    def test_verify_clean_store(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        store.put(SPEC, result)
        report = store.verify()
        assert report.clean and report.ok == report.checked == 1

    def test_verify_flags_missing_artifact(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        store.run_path(key).unlink()
        report = store.verify()
        assert not report.clean
        assert any("missing" in problem for _, problem in report.issues)

    def test_verify_flags_corrupt_artifact_and_stale_salt(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        payload = json.loads(store.run_path(key).read_text())
        payload["salt"] = "repro-store/0/repro/0.0.0"
        store.run_path(key).write_text(json.dumps(payload))
        report = store.verify()
        assert any("salt" in problem for _, problem in report.issues)
        store.run_path(key).write_text("{not json")
        report = store.verify()
        assert any("unreadable" in problem for _, problem in report.issues)

    def test_gc_removes_stale_and_reindexes_orphans(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key = store.put(SPEC, result)
        # Orphan: drop the index; gc must rebuild it from the artifact.
        store.index_path.unlink()
        summary = store.gc()
        assert summary["reindexed"] == [key] and summary["kept"] == 1
        assert store.verify().clean
        # Stale: corrupt the artifact; gc must remove it everywhere.
        store.run_path(key).write_text("{not json")
        summary = store.gc()
        assert summary["removed"] == [key] and summary["kept"] == 0
        assert store.list() == []
        assert store.verify().checked == 0

    @pytest.mark.parametrize("array_format", ["json", "npz"])
    def test_writes_are_atomic(self, tmp_path, result, array_format):
        # Artifacts land via temp file + os.replace: no .tmp leftovers
        # after a put, and gc clears any stray ones an interrupted
        # write might leave behind.
        store = RunStore(tmp_path / "store", array_format=array_format)
        store.put(SPEC, result)
        assert not list(store.runs_dir.glob("*.tmp"))
        assert not list((tmp_path / "store").glob("*.tmp"))
        (store.runs_dir / "deadbeef.json.tmp").write_text("{truncated")
        store.gc()
        assert not list(store.runs_dir.glob("*.tmp"))
        assert store.verify().clean

    def test_extract_arrays_does_not_mutate_the_result_dict(self, result):
        from repro.store import _extract_arrays

        data = result.to_dict()
        reference = json.loads(json.dumps(data))
        slimmed, arrays = _extract_arrays(data)
        assert json.loads(json.dumps(data)) == reference  # input untouched
        assert arrays and all(
            isinstance(payload[name], dict) and "__npz__" in payload[name]
            for payload in slimmed["ranking"].values()
            for name in ("bin_start_times", "mean", "std", "values")
        )

    def test_bad_array_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="array_format"):
            RunStore(tmp_path, array_format="parquet")


class TestRenderDeterminism:
    def test_reloaded_result_renders_identically(self, result):
        from repro.experiments.report import render_pipeline_result

        reloaded = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert render_pipeline_result(reloaded) == render_pipeline_result(result)

    def test_reloaded_monitor_result_renders_identically(self):
        from repro.experiments.report import render_pipeline_result

        result = replace(SPEC, monitor=True, max_flows=64).execute()
        reloaded = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert render_pipeline_result(reloaded) == render_pipeline_result(result)

    def test_stored_result_renders_identically(self, tmp_path, result):
        from repro.experiments.report import render_pipeline_result

        for array_format in ("json", "npz"):
            store = RunStore(tmp_path / array_format, array_format=array_format)
            store.put(SPEC, result)
            assert render_pipeline_result(store.get(SPEC).result) == render_pipeline_result(
                result
            )

    def test_csv_export_identical_after_reload(self, result):
        reloaded = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert reloaded.to_csv() == result.to_csv()

    def test_summary_rows_identical_after_reload(self, result):
        reloaded = PipelineResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert reloaded.summary_rows() == result.summary_rows()


# ----------------------------------------------------------------------
# Leases: claim / renew / release / expiry / reclaim
# ----------------------------------------------------------------------
class FakeClock:
    """Injectable monotonic clock: tests control lease time explicitly."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


SPEC2 = replace(SPEC, seed=1)


class TestLeases:
    def test_claim_lifecycle(self, tmp_path):
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        assert store.cell_state(SPEC) == "pending"
        lease = store.claim(SPEC, "w0", ttl=10.0)
        assert lease is not None
        assert lease.owner == "w0" and lease.deadline == 10.0
        assert store.cell_state(SPEC) == "leased"
        # A live lease blocks other owners...
        assert store.claim(SPEC, "w1", ttl=10.0) is None
        # ...but the holder re-claiming renews its own deadline.
        clock.tick(4.0)
        renewed = store.claim(SPEC, "w0", ttl=10.0)
        assert renewed is not None and renewed.deadline == 14.0
        store.release(renewed)
        assert store.cell_state(SPEC) == "pending"
        assert store.list_leases() == []

    def test_claim_done_cell_returns_none(self, tmp_path, result):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        store.put(SPEC, result)
        assert store.cell_state(SPEC) == "done"
        assert store.claim(SPEC, "w0", ttl=10.0) is None

    def test_claim_rejects_nonpositive_ttl(self, tmp_path):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        with pytest.raises(ValueError, match="ttl"):
            store.claim(SPEC, "w0", ttl=0.0)

    def test_expired_lease_is_orphaned_then_reclaimable(self, tmp_path):
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        first = store.claim(SPEC, "w0", ttl=10.0)
        assert first is not None
        clock.tick(10.0)  # deadline is inclusive: now >= deadline expires
        assert store.cell_state(SPEC) == "orphaned"
        second = store.claim(SPEC, "w1", ttl=10.0)
        assert second is not None and second.owner == "w1"
        assert store.cell_state(SPEC) == "leased"
        # The original holder's renew observes the loss.
        assert store.renew(first, ttl=10.0) is None

    def test_renew_extends_an_owned_lease(self, tmp_path):
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        lease = store.claim(SPEC, "w0", ttl=10.0)
        clock.tick(5.0)
        renewed = store.renew(lease, ttl=10.0)
        assert renewed is not None and renewed.deadline == 15.0

    def test_release_ignores_leases_of_other_owners(self, tmp_path):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        lease = store.claim(SPEC, "w0", ttl=10.0)
        store.release(replace(lease, owner="w1"))
        assert store.cell_state(SPEC) == "leased"  # w0's claim survives

    def test_corrupt_lease_counts_as_orphaned_and_is_reclaimable(self, tmp_path):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        key = store.key_of(SPEC)
        store.leases_dir.mkdir(parents=True)
        store.lease_path(key).write_text("{not json")
        assert store.cell_state(SPEC) == "orphaned"
        assert key not in [lease.key for lease in store.list_leases()]
        lease = store.claim(SPEC, "w0", ttl=10.0)
        assert lease is not None and lease.owner == "w0"

    def test_put_wins_over_any_lease(self, tmp_path, result):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        assert store.claim(SPEC, "w0", ttl=10.0) is not None
        store.put(SPEC, result)
        assert store.cell_state(SPEC) == "done"
        assert store.list_leases() == []

    def test_claim_leaves_no_temp_files(self, tmp_path):
        store = RunStore(tmp_path / "store", clock=FakeClock())
        store.claim(SPEC, "w0", ttl=10.0)
        assert store.claim(SPEC, "w1", ttl=10.0) is None  # contended path
        assert not list(store.leases_dir.glob("*.tmp"))


class TestLeaseAuditing:
    """`store verify` reports lease problems; `store gc` reaps them.

    Neither touches valid artifacts or live leases (the satellite
    contract of the distributed-sweep issue).
    """

    def _store(self, tmp_path, result) -> tuple[RunStore, FakeClock]:
        clock = FakeClock()
        store = RunStore(tmp_path / "store", clock=clock)
        store.put(SPEC, result)
        return store, clock

    def test_verify_reports_expired_lease(self, tmp_path, result):
        store, clock = self._store(tmp_path, result)
        store.claim(SPEC2, "w0", ttl=5.0)
        clock.tick(6.0)
        report = store.verify()
        issues = dict(report.issues)
        assert "expired lease" in issues[store.key_of(SPEC2)]
        assert "w0" in issues[store.key_of(SPEC2)]

    def test_verify_reports_lease_outliving_artifact(self, tmp_path, result):
        store, _ = self._store(tmp_path, result)
        key = store.key_of(SPEC)
        from repro.store import Lease

        store.leases_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(key).write_text(
            json.dumps(Lease(key=key, owner="w0", deadline=99.0, acquired=0.0).to_dict())
        )
        report = store.verify()
        assert any("outlived" in problem for _, problem in report.issues)

    def test_verify_reports_unreadable_lease_and_keeps_it(self, tmp_path, result):
        store, _ = self._store(tmp_path, result)
        store.leases_dir.mkdir(parents=True, exist_ok=True)
        bad = store.leases_dir / "deadbeef.json"
        bad.write_text("{not json")
        report = store.verify()
        assert any("unreadable lease" in problem for _, problem in report.issues)
        assert bad.is_file()  # verify only reports; gc reaps

    def test_verify_accepts_live_lease_on_pending_cell(self, tmp_path, result):
        store, _ = self._store(tmp_path, result)
        store.claim(SPEC2, "w0", ttl=10.0)
        assert store.verify().clean

    def test_gc_reaps_stale_leases_and_keeps_live_ones(self, tmp_path, result):
        store, clock = self._store(tmp_path, result)
        done_key = store.key_of(SPEC)
        from repro.store import Lease

        # A lease that outlived its completed artifact...
        store.leases_dir.mkdir(parents=True, exist_ok=True)
        store.lease_path(done_key).write_text(
            json.dumps(Lease(key=done_key, owner="w0", deadline=99.0, acquired=0.0).to_dict())
        )
        # ...an expired lease on a pending cell...
        store.claim(SPEC2, "w1", ttl=5.0)
        expired_key = store.key_of(SPEC2)
        clock.tick(6.0)
        # ...an unreadable lease file...
        (store.leases_dir / "deadbeef.json").write_text("{not json")
        # ...and a live lease that must survive.
        live_spec = replace(SPEC, seed=2)
        live = store.claim(live_spec, "w2", ttl=60.0)
        assert live is not None

        summary = store.gc()
        assert sorted(summary["reaped_leases"]) == sorted(
            [done_key, expired_key, "deadbeef"]
        )
        assert store.get_lease(live.key) == live  # live lease untouched
        assert store.get(SPEC).result is not None  # artifact untouched
        assert summary["removed"] == [] and summary["kept"] == 1
        assert store.verify().clean


# ----------------------------------------------------------------------
# The index journal under concurrent writers (regression tests)
# ----------------------------------------------------------------------
class TestConcurrentIndexWriters:
    def test_interleaved_writers_see_each_other(self, tmp_path, result):
        a = RunStore(tmp_path / "store")
        b = RunStore(tmp_path / "store")
        key_a = a.put(SPEC, result)
        assert [key for key, _ in b.list()] == [key_a]  # b reads a's write
        key_b = b.put(SPEC2, result)
        # a's list() folds the journal afresh, so it sees b's appended
        # line even though a never wrote again.
        assert sorted(key for key, _ in a.list()) == sorted([key_a, key_b])
        assert sorted(key for key, _ in b.list()) == sorted([key_a, key_b])

    def test_put_merges_entries_written_between_artifact_and_index(
        self, tmp_path, result
    ):
        # Writer B lands a full put in A's window between artifact write
        # and journal append; A appends its own line after B's and never
        # rewrites the journal, so both entries survive.
        a = RunStore(tmp_path / "store")
        b = RunStore(tmp_path / "store")

        def interleave(event: str, key: str) -> None:
            if event == "put.after-artifact" and key == a.key_of(SPEC):
                a.events.unsubscribe(interleave)
                b.put(SPEC2, result)

        a.events.subscribe(interleave)
        a.put(SPEC, result)
        assert len(a.events) == 0  # the interleaving write really happened
        expected = sorted([a.key_of(SPEC), b.key_of(SPEC2)])
        assert sorted(key for key, _ in a.list()) == expected
        assert sorted(key for key, _ in RunStore(tmp_path / "store").list()) == expected

    def test_threaded_writers_lose_no_index_entries(self, tmp_path, result):
        # Two writer threads race puts on the same journal.  Each put
        # appends one line under the index flock, so no append can tear
        # or overwrite a sibling's.  Every put must survive in the index.
        import threading

        specs = [replace(SPEC, seed=seed) for seed in range(10)]
        halves = (specs[:5], specs[5:])
        errors: list[Exception] = []

        def writer(batch):
            try:
                own = RunStore(tmp_path / "store")  # per-thread instance
                for spec in batch:
                    own.put(spec, result)
            except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(half,)) for half in halves]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        merged = RunStore(tmp_path / "store")
        expected = sorted(merged.key_of(spec) for spec in specs)
        assert sorted(key for key, _ in merged.list()) == expected
        assert merged.verify().clean


# ----------------------------------------------------------------------
# The index journal: one appended record per put
# ----------------------------------------------------------------------
def _journal_lines(store: RunStore) -> list[bytes]:
    return store.index_path.read_bytes().split(b"\n")


class TestIndexJournal:
    def test_put_appends_one_record_to_the_same_file(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        store.put(SPEC, result)
        before, lines = store.index_path.stat(), _journal_lines(store)
        key = store.put(SPEC2, result)
        assert store.index_path.stat().st_ino == before.st_ino
        after = _journal_lines(store)
        assert after[: len(lines)] == lines and len(after) == len(lines) + 1
        assert json.loads(after[-1]) == {"key": key, "spec": SPEC2.canonical().to_dict()}

    def test_torn_tail_is_skipped_and_gc_repairs_it(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        key_a, key_b = store.put(SPEC, result), store.put(SPEC2, result)
        # An append killed mid-write: B's record loses its second half.
        journal = store.index_path.read_bytes()
        store.index_path.write_bytes(journal[: journal.rindex(b"\n") + 40])
        assert [key for key, _ in store.list()] == [key_a]
        # The next put's record opens with its own newline.
        key_c = store.put(replace(SPEC, seed=2), result)
        assert sorted(key for key, _ in store.list()) == sorted([key_a, key_c])
        report = store.verify()
        assert report.issues == [(key_b, "artifact present but not indexed (run gc to reindex)")]
        summary = store.gc()
        assert summary["reindexed"] == [key_b] and summary["kept"] == 3
        assert sorted(key for key, _ in store.list()) == sorted([key_a, key_b, key_c])
        assert len(_journal_lines(store)) == 4  # compacted: one record per run
        assert store.verify().clean

    def test_pre_journal_index_lists_the_same_and_gc_folds_it(self, tmp_path, result, capsys):
        from repro.cli import main

        root = tmp_path / "store"
        store = RunStore(root)
        store.put(SPEC, result)
        store.put(SPEC2, result)
        assert main(["store", "ls", "--store", str(root)]) == 0
        listed = capsys.readouterr().out
        # Rewrite the index in the layout stores had before the journal.
        entries = {key: spec.to_dict() for key, spec in store.list()}
        store.index_path.unlink()
        legacy = root / "index.json"
        legacy.write_text(
            json.dumps(
                {"format": 1, "salt": STORE_SALT, "entries": entries}, indent=2, sort_keys=True
            )
            + "\n"
        )
        assert main(["store", "ls", "--store", str(root)]) == 0
        assert capsys.readouterr().out == listed
        key_c = store.put(replace(SPEC, seed=2), result)
        assert sorted(key for key, _ in store.list()) == sorted([*entries, key_c])
        assert store.verify().clean
        summary = store.gc()
        assert summary["removed"] == summary["reindexed"] == [] and summary["kept"] == 3
        assert not legacy.exists()
        assert sorted(key for key, _ in store.list()) == sorted([*entries, key_c])
        assert len(_journal_lines(store)) == 4
        assert store.verify().clean


# ----------------------------------------------------------------------
# gc beside live writers: only dead writers' temp files are reaped
# ----------------------------------------------------------------------
GC_LOOP = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from repro.store import RunStore

store, stop = RunStore(sys.argv[2]), Path(sys.argv[3])
runs = 0
while not stop.exists():
    store.gc()
    runs += 1
    if runs == 1:
        print("ready", flush=True)
print(runs, flush=True)
"""


class TestGcBesideLiveWriters:
    def test_gc_reaps_only_dead_writers_temp_files(self, tmp_path, result):
        store = RunStore(tmp_path / "store")
        store.put(SPEC, result)
        store.leases_dir.mkdir()
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        live = [
            store.runs_dir / f"{store.key_of(SPEC2)}.json.{os.getpid()}.tmp",
            store.leases_dir / f"{store.key_of(SPEC2)}.{os.getpid()}.reclaim.tmp",
        ]
        dead = [
            store.runs_dir / f"{store.key_of(SPEC2)}.npz.{finished.pid}.tmp",
            store.leases_dir / f"{store.key_of(SPEC2)}.json.{finished.pid}.tmp",
            store.root / f"index.jsonl.{finished.pid}.tmp",
            store.runs_dir / "deadbeef.json.tmp",  # no pid at all
        ]
        for path in live + dead:
            path.write_text("{half")
        store.gc()
        assert all(path.is_file() for path in live)
        assert not any(path.exists() for path in dead)
        assert store.verify().clean

    def test_puts_beside_a_gc_loop_all_land(self, tmp_path, result):
        root, stop = tmp_path / "store", tmp_path / "stop"
        looper = subprocess.Popen(
            [sys.executable, "-c", GC_LOOP, str(REPO_SRC), str(root), str(stop)],
            stdout=subprocess.PIPE,
            text=True,
        )
        store = RunStore(root)
        specs = [replace(SPEC, seed=seed) for seed in range(80)]
        errors: list[Exception] = []
        try:
            assert looper.stdout.readline().strip() == "ready"
            for spec in specs:
                try:
                    store.put(spec, result)
                except Exception as error:  # noqa: BLE001 - counted below
                    errors.append(error)
        finally:
            stop.touch()
            output, _ = looper.communicate(timeout=60.0)
        assert looper.returncode == 0
        assert int(output.split()[-1]) > 1  # gc kept running during the puts
        assert errors == []
        assert sorted(key for key, _ in store.list()) == sorted(map(store.key_of, specs))
        assert store.verify().clean
