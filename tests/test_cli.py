"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestFigureCommand:
    def test_analytical_figure(self, capsys):
        assert main(["figure", "fig01"]) == 0
        output = capsys.readouterr().out
        assert "fig01" in output
        assert "diagonal" in output

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestPlanCommand:
    def test_default_plan(self, capsys):
        assert main(["plan", "--flows", "100000", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "detection" in output and "ranking" in output
        assert "required sampling rate" in output

    def test_detection_rate_below_ranking_rate(self, capsys):
        main(["plan", "--flows", "200000", "--top", "10"])
        output = capsys.readouterr().out
        lines = [line for line in output.splitlines() if "required sampling rate" in line]
        assert len(lines) == 2

    def test_infeasible_target_reported(self, capsys):
        main(["plan", "--flows", "50000", "--top", "25", "--shape", "3.0"])
        output = capsys.readouterr().out
        assert "not achievable" in output or "%" in output


class TestRunCommand:
    def test_run_with_registry_specs(self, capsys):
        code = main(
            [
                "run",
                "--trace", "sprint",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--bin", "60",
                "--top", "3",
                "--runs", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "pipeline run (streamed)" in output
        # The printed label is the sampler's canonical spec, so it can be
        # pasted straight back into a --sampler flag.
        assert "bernoulli:rate=0.5" in output
        assert "ranking" in output and "detection" in output

    def test_run_monitor_mode(self, capsys):
        code = main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--runs", "2",
                "--monitor", "max_flows=16",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "monitor-in-the-loop (max_flows = 16)" in output
        assert "mean evictions per run" in output

    def test_run_monitor_unbounded_flag(self, capsys):
        assert main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--runs", "1",
                "--monitor",
            ]
        ) == 0
        assert "monitor-in-the-loop (unbounded)" in capsys.readouterr().out

    def test_run_monitor_rejects_unknown_option(self, capsys):
        assert main(["run", "--monitor", "max_memory=4096"]) == 2
        assert "max_flows" in capsys.readouterr().err

    def test_run_multiple_samplers(self, capsys):
        main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--sampler", "periodic:rate=0.5",
                "--runs", "1",
            ]
        )
        output = capsys.readouterr().out
        assert "bernoulli:rate=0.5" in output
        assert "periodic:period=2" in output

    def test_run_prefix_key_spec(self, capsys):
        main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--key", "prefix:prefix_length=24",
                "--runs", "1",
            ]
        )
        assert "/24" in capsys.readouterr().out

    def test_run_writes_csv(self, capsys, tmp_path):
        path = tmp_path / "result.csv"
        main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--runs", "1",
                "--csv", str(path),
            ]
        )
        assert path.exists()
        assert path.read_text().startswith("problem,sampler,sampling_rate")

    def test_run_trace_spec_overrides_scale_flag(self, capsys, tmp_path):
        path = tmp_path / "bins.csv"
        main(
            [
                "run",
                "--trace", "sprint:scale=0.002,duration=120",
                "--duration", "600",  # must lose against the spec's duration=120
                "--sampler", "bernoulli:rate=0.5",
                "--runs", "1",
                "--csv", str(path),
            ]
        )
        assert "pipeline run" in capsys.readouterr().out
        bin_starts = {
            line.split(",")[3] for line in path.read_text().splitlines()[1:]
        }
        # 120 s of arrivals at 60 s bins -> 2-3 bins (flow tails may spill
        # past the window); 600 s (the flag) would give ~10.
        assert len(bin_starts) <= 4

    def test_run_with_jobs_matches_serial(self, capsys):
        """repro run --jobs 2 works end-to-end and matches the serial output."""
        args = [
            "run",
            "--trace", "sprint",
            "--scale", "0.002",
            "--duration", "120",
            "--sampler", "bernoulli:rate=0.5",
            "--sampler", "sample-and-hold:rate=0.1",
            "--bin", "60",
            "--top", "3",
            "--runs", "2",
            "--seed", "7",
        ]
        assert main(args + ["--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert main(args + ["--jobs", "1"]) == 0
        serial_output = capsys.readouterr().out
        assert parallel_output == serial_output
        assert "sample-and-hold:rate=0.1" in parallel_output

    def test_run_chunk_packets_conflicts_with_materialised(self, capsys):
        assert main(
            ["run", "--materialised", "--chunk-packets", "1000", "--sampler", "bernoulli:rate=0.5"]
        ) == 2
        assert "--materialised" in capsys.readouterr().err

    def test_run_chunk_packets_is_invariant(self, capsys):
        """--chunk-packets N streams in smaller chunks with identical output."""
        args = [
            "run",
            "--scale", "0.002",
            "--duration", "120",
            "--sampler", "bernoulli:rate=0.5",
            "--runs", "2",
            "--seed", "5",
        ]
        assert main(args + ["--chunk-packets", "512"]) == 0
        small_chunks = capsys.readouterr().out
        assert main(args) == 0
        default_chunks = capsys.readouterr().out
        assert small_chunks == default_chunks

    def test_run_scenario(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "burst:factor=4",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "bernoulli:rate=0.5",
                "--runs", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario: burst" in output
        assert "ranking" in output and "detection" in output

    def test_telemetry_shows_the_merge_read_ahead(self, capsys, monkeypatch):
        """Small chunks make every multilink part span several, so all
        three are read ahead on a two-CPU host; telemetry moves no result."""
        monkeypatch.setattr("repro.traces.source._usable_cpus", lambda: 2)
        args = [
            "run",
            "--scenario", "multilink",
            "--scale", "0.002",
            "--duration", "120",
            "--sampler", "bernoulli:rate=0.5",
            "--runs", "1",
            "--chunk-packets", "1024",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--telemetry"]) == 0
        instrumented = capsys.readouterr().out
        table, snapshot = instrumented.split("\ntelemetry snapshot (repro-telemetry/1):\n")
        assert json.loads(snapshot)["gauges"]["source.read_ahead"] == 3
        assert table.rstrip("\n") == plain.rstrip("\n")

    def test_run_scenario_conflicts_with_trace(self, capsys):
        assert main(
            ["run", "--scenario", "steady", "--trace", "abilene",
             "--sampler", "bernoulli:rate=0.5"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_run_unknown_scenario_reports_available(self, capsys):
        assert main(["run", "--scenario", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "no-such-scenario" in err and "burst" in err

    def test_unknown_sampler_reports_available_names(self, capsys):
        code = main(
            [
                "run",
                "--scale", "0.002",
                "--duration", "120",
                "--sampler", "no-such-sampler:rate=0.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-sampler" in err
        assert "bernoulli" in err

    def test_malformed_spec_reports_error(self, capsys):
        assert main(["run", "--sampler", "bernoulli:rate"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_list_components(self, capsys):
        assert main(["run", "--list-components"]) == 0
        output = capsys.readouterr().out
        assert "bernoulli" in output
        assert "five-tuple" in output
        assert "sprint" in output
        assert "multilink" in output


class TestRunStoreFlags:
    RUN_ARGS = [
        "run",
        "--scale", "0.002",
        "--duration", "120",
        "--sampler", "bernoulli:rate=0.5",
        "--runs", "2",
    ]

    def test_run_store_caches_and_reuses(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(self.RUN_ARGS + ["--store", store_dir]) == 0
        first = capsys.readouterr().out
        assert f"stored in {store_dir}" in first
        assert main(self.RUN_ARGS + ["--store", store_dir]) == 0
        second = capsys.readouterr().out
        assert f"loaded from {store_dir}" in second
        # The rendered table is identical live vs reloaded-from-store.
        assert first.split("\nstored in")[0] == second.split("\nloaded from")[0]

    def test_run_store_key_changes_with_seed(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        assert main(self.RUN_ARGS + ["--store", store_dir, "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(self.RUN_ARGS + ["--store", store_dir, "--seed", "2"]) == 0
        assert "stored in" in capsys.readouterr().out  # a different cell, not a hit

    def test_run_json_dump(self, capsys, tmp_path):
        import json

        path = tmp_path / "result.json"
        assert main(self.RUN_ARGS + ["--json", str(path)]) == 0
        assert "wrote result JSON" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["num_runs"] == 2
        from repro.pipeline.result import PipelineResult

        assert PipelineResult.from_dict(data).to_dict() == data


class TestSweepCommand:
    GRID_ARGS = [
        "--scenario", "steady",
        "--sampler", "bernoulli",
        "--rates", "0.1", "0.5",
        "--seeds", "0",
        "--scale", "0.002",
        "--duration", "120",
        "--runs", "2",
    ]

    def test_sweep_run_status_report_cycle(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "store")]
        assert main(["sweep", "status"] + store + self.GRID_ARGS) == 0
        assert "0/2 cells cached" in capsys.readouterr().out

        assert main(["sweep", "run"] + store + self.GRID_ARGS) == 0
        output = capsys.readouterr().out
        assert "executed 2 cell(s), reused 0 cached cell(s)" in output
        # Both rates of the one (scenario, seed) share a source pass.
        assert "\n1 source pass(es)\n" in output
        assert "sweep complete" in output

        assert main(["sweep", "run"] + store + self.GRID_ARGS) == 0
        output = capsys.readouterr().out
        assert "executed 0 cell(s), reused 2 cached cell(s)" in output
        assert "\n0 source pass(es)\n" in output

        assert main(["sweep", "status"] + store + self.GRID_ARGS) == 0
        assert "2/2 cells cached" in capsys.readouterr().out

        assert main(["sweep", "report"] + store + self.GRID_ARGS) == 0
        report = capsys.readouterr().out
        assert "sweep leaderboard" in report
        assert "bernoulli:rate=0.5" in report

    def test_sweep_max_cells_then_resume(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "store")]
        assert main(["sweep", "run", "--max-cells", "1"] + store + self.GRID_ARGS) == 0
        output = capsys.readouterr().out
        assert "executed 1 cell(s)" in output
        assert "re-run the same command to resume" in output
        assert main(["sweep", "run"] + store + self.GRID_ARGS) == 0
        output = capsys.readouterr().out
        assert "executed 1 cell(s), reused 1 cached cell(s)" in output
        assert "sweep complete" in output

    def test_interleaved_grid_max_cells_then_resume(self, capsys, tmp_path):
        grid = [
            "--scenario", "steady",
            "--sampler", "bernoulli",
            "--rates", "0.1", "0.5",
            "--seeds", "0", "1",
            "--scale", "0.002",
            "--duration", "120",
            "--runs", "2",
        ]
        resumed = ["--store", str(tmp_path / "resumed")]
        assert main(["sweep", "run", "--max-cells", "3"] + resumed + grid) == 0
        output = capsys.readouterr().out
        # Cells 1 and 3 (seed 0) share a pass; cell 2 (seed 1) runs alone.
        assert "executed 3 cell(s), reused 0 cached cell(s)\n2 source pass(es)\n" in output
        assert main(["sweep", "run"] + resumed + grid) == 0
        output = capsys.readouterr().out
        assert "executed 1 cell(s), reused 3 cached cell(s)\n1 source pass(es)\n" in output

        fresh = ["--store", str(tmp_path / "fresh")]
        assert main(["sweep", "run"] + fresh + grid) == 0
        assert "\n2 source pass(es)\n" in capsys.readouterr().out
        assert main(["sweep", "report"] + resumed + grid) == 0
        resumed_report = capsys.readouterr().out
        assert main(["sweep", "report"] + fresh + grid) == 0
        assert capsys.readouterr().out == resumed_report

    def test_sweep_report_with_baseline(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "store")]
        assert main(["sweep", "run"] + store + self.GRID_ARGS) == 0
        capsys.readouterr()
        baseline = ["--baseline-store", str(tmp_path / "store")]
        assert main(["sweep", "report"] + store + baseline + self.GRID_ARGS) == 0
        output = capsys.readouterr().out
        assert "sweep comparison vs baseline" in output
        assert "+0" in output  # identical stores -> zero deltas

    def test_sweep_partial_report_counts_missing(self, capsys, tmp_path):
        store = ["--store", str(tmp_path / "store")]
        assert main(["sweep", "run", "--max-cells", "1"] + store + self.GRID_ARGS) == 0
        capsys.readouterr()
        assert main(["sweep", "report"] + store + self.GRID_ARGS) == 0
        assert "1 cell(s) not in the store yet" in capsys.readouterr().out

    def test_sweep_scenario_trace_conflict(self, capsys, tmp_path):
        assert main(
            ["sweep", "run", "--store", str(tmp_path / "s"),
             "--scenario", "steady", "--trace", "sprint"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_npz_format(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main(
            ["sweep", "run", "--array-format", "npz", "--store", str(store_dir)]
            + self.GRID_ARGS
        ) == 0
        assert list((store_dir / "runs").glob("*.npz"))


class TestStoreCommand:
    def _populate(self, tmp_path) -> str:
        store_dir = str(tmp_path / "store")
        assert main(
            ["run", "--scale", "0.002", "--duration", "120",
             "--sampler", "bernoulli:rate=0.5", "--runs", "1", "--store", store_dir]
        ) == 0
        return store_dir

    def test_store_ls(self, capsys, tmp_path):
        store_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_dir]) == 0
        output = capsys.readouterr().out
        assert "1 stored run(s)" in output
        assert "bernoulli:rate=0.5" in output

    def test_store_verify_clean_and_corrupt(self, capsys, tmp_path):
        from repro.store import RunStore

        store_dir = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", "--store", store_dir]) == 0
        assert "1 ok, 0 issue(s)" in capsys.readouterr().out
        key = RunStore(store_dir).list()[0][0]
        RunStore(store_dir).run_path(key).write_text("{broken")
        assert main(["store", "verify", "--store", store_dir]) == 0
        assert "unreadable artifact" in capsys.readouterr().out

    def test_store_gc(self, capsys, tmp_path):
        from repro.store import RunStore

        store_dir = self._populate(tmp_path)
        capsys.readouterr()
        RunStore(store_dir).index_path.unlink()
        assert main(["store", "gc", "--store", store_dir]) == 0
        assert "reindexed 1" in capsys.readouterr().out


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, capsys):
        from repro.scenarios import SCENARIOS

        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        for name in SCENARIOS.names():
            assert name in output
        assert "--scenario" in output


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--scale", "0.002",
                "--duration", "120",
                "--bin", "60",
                "--runs", "2",
                "--rates", "0.1", "0.5",
                "--top", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "pipeline run (streamed)" in output
        assert "ranking" in output and "detection" in output

    def test_prefix_flag(self, capsys):
        main(
            [
                "simulate",
                "--scale", "0.002",
                "--duration", "120",
                "--runs", "1",
                "--rates", "0.5",
                "--prefix",
            ]
        )
        output = capsys.readouterr().out
        assert "/24" in output

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
