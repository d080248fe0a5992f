"""Error-path tests for the ``repro`` CLI.

Every user mistake the issue calls out must exit with a nonzero status
and print an actionable ``error:`` line to stderr — never a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main

FAST_RUN = ["run", "--trace", "sprint", "--duration", "5", "--scale", "0.001"]
#: ``{tmp}`` stands for the test's temporary directory.
SWEEP_RUN = ["sweep", "run", "--store", "{tmp}/store", "--duration", "5", "--scale", "0.001"]
SWEEP_STATUS = ["sweep", "status", "--store", "{tmp}/store", "--duration", "5", "--scale", "0.001"]


class TestRunErrorPaths:
    def test_unknown_sampler_spec(self, capsys):
        assert main(["run", "--trace", "sprint", "--sampler", "nope:rate=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown sampler 'nope'" in err
        assert "bernoulli" in err  # lists the available names

    def test_unknown_trace_spec(self, capsys):
        assert main(["run", "--trace", "wat"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace generator 'wat'" in err

    def test_trace_and_scenario_conflict(self, capsys):
        assert main(["run", "--trace", "sprint", "--scenario", "steady"]) == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err

    def test_malformed_monitor_kwargs(self, capsys):
        assert main(FAST_RUN + ["--monitor", "max_flows=@@"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "@@" in err

    def test_malformed_sampler_kwargs(self, capsys):
        assert main(["run", "--trace", "sprint", "--sampler", "bernoulli:rate"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_store_path_is_a_file(self, tmp_path, capsys):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("not a store")
        assert main(FAST_RUN + ["--store", str(not_a_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "occupied" in err

    def test_no_traceback_on_error(self, capsys):
        main(["run", "--trace", "wat"])
        err = capsys.readouterr().err
        assert "Traceback" not in err


class TestStoreAndSweepErrorPaths:
    def test_store_ls_on_file_path(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("x")
        assert main(["store", "ls", "--store", str(occupied)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_unknown_component(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            ["sweep", "run", "--store", str(store), "--trace", "nope:scale=1"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestEverySubcommandReportsErrors:
    """One handler covers every subcommand but ``lint``."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (FAST_RUN + ["--sampler", "bernoulli:rate=2.0"], "rate must be in (0, 1]"),
            (FAST_RUN + ["--runs", "0"], "num_runs must be at least 1"),
            (["plan", "--flows", "0"], "total_flows must be at least 2"),
            (FAST_RUN + ["--bin", "inf"], "bin_duration must be positive and finite"),
            (FAST_RUN + ["--bin", "nan"], "bin_duration must be positive and finite"),
            (FAST_RUN + ["--bin", "1e-300"], "gives bin indices beyond int64"),
            (SWEEP_RUN + ["--bin", "nan"], "bin_duration must be positive and finite"),
            (SWEEP_STATUS + ["--bin", "nan"], "bin_duration must be positive and finite"),
            (["plan", "--target", "nan"], "target_swapped_pairs must be positive"),
            (FAST_RUN + ["--key", "prefix:prefix_length=24.5"], "prefix_length must be an integer"),
            (
                SWEEP_STATUS + ["--key", "prefix:prefix_length=24.5"],
                "prefix_length must be an integer",
            ),
        ],
        ids=[
            "run-rate",
            "run-runs",
            "plan-flows",
            "run-bin-inf",
            "run-bin-nan",
            "run-bin-tiny",
            "sweep-run-bin-nan",
            "sweep-status-bin-nan",
            "plan-target-nan",
            "run-prefix-fraction",
            "sweep-status-prefix-fraction",
        ],
    )
    def test_bad_value_exits_2_without_traceback(self, argv, message, capsys, tmp_path):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err


class TestErrorPathsLeaveNoPartialState:
    def test_failed_store_run_creates_nothing(self, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("not a store")
        main(FAST_RUN + ["--store", str(occupied)])
        # the path is untouched: still a plain file, no sibling debris
        assert occupied.read_text() == "not a store"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied"]
