"""Tests for ``repro.analysis`` — the reprolint AST contract linter.

Every registered rule is exercised with at least one violating and one
clean fixture, suppression comments are checked (including the
``requires_reason`` rules that ignore bare disables), and the CLI is
driven end to end.  The final gate test lints the real repository, so
the contracts the rules encode can never silently regress.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import RULES, all_rules, lint_file, lint_paths, lint_source
from repro.analysis import cli as analysis_cli
from repro.analysis.base import PARSE_ERROR_ID, resolve_rule_keys
from repro.analysis.engine import collect_files, module_name_of, parse_suppressions

LIB = "repro.fixture"  # module name that activates library-scoped rules

#: (rule name, violating source, clean source) — the per-rule fixtures.
#: Sources are linted as if they lived inside the library package, which
#: is the stricter of the two scopes, so every rule participates.
RULE_FIXTURES = [
    (
        "global-rng",
        "import numpy as np\nx = np.random.rand(3)\n",
        "import numpy as np\nrng = np.random.default_rng(7)\nx = rng.random(3)\n",
    ),
    (
        "global-rng",
        "import random\n",
        "from numpy.random import SeedSequence\n",
    ),
    (
        "wall-clock",
        "import time\nstamp = time.time()\n",
        "def run(clock: float) -> float:\n    return clock + 1.0\n",
    ),
    (
        "wall-clock",
        "from datetime import datetime\nnow = datetime.now()\n",
        "from datetime import datetime\nepoch = datetime(1970, 1, 1)\n",
    ),
    (
        "unordered-iteration",
        "def f() -> list:\n    return [x for x in {'a', 'b'}]\n",
        "def f() -> list:\n    return [x for x in sorted({'a', 'b'})]\n",
    ),
    (
        "unordered-iteration",
        "names = list({'a', 'b'})\n",
        "names = sorted({'a', 'b'})\n",
    ),
    (
        "float-eq",
        "def close(x: float) -> bool:\n    return x == 0.3\n",
        "def close(x: float) -> bool:\n    return abs(x - 0.3) < 1e-12\n",
    ),
    (
        # Integral float literals are exact sentinels, not a comparison hazard.
        "float-eq",
        "def bad(x: float) -> bool:\n    return x != 2.5\n",
        "def ok(rate: float) -> bool:\n    return rate == 1.0\n",
    ),
    (
        "broad-except",
        "try:\n    pass\nexcept Exception:\n    pass\n",
        "try:\n    pass\nexcept ValueError:\n    pass\n",
    ),
    (
        "broad-except",
        "try:\n    pass\nexcept (TypeError, Exception):\n    pass\n",
        "try:\n    pass\nexcept Exception:  # noqa: BLE001 - top-level CLI guard\n    pass\n",
    ),
    (
        "mutable-default",
        "def f(items=[]):\n    return items\n",
        "def f(items=()):\n    return list(items)\n",
    ),
    (
        "mutable-default",
        "def f(*, cache=dict()):\n    return cache\n",
        "def f(*, cache=None):\n    return cache or {}\n",
    ),
    (
        "unpicklable-plan",
        "plan = ExecutionPlan(sampler_specs=[], source=lambda: 1)\n",
        "plan = ExecutionPlan(sampler_specs=[], source=make_source)\n",
    ),
    (
        "unpicklable-plan",
        "def build():\n"
        "    def local_source():\n"
        "        return 1\n"
        "    return Cell(local_source)\n",
        "def build():\n    return Cell(module_level_source)\n",
    ),
    (
        "cache-key-purity",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class RunSpec:\n"
        "    seed: int\n"
        "    backend: str\n",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class RunSpec:\n"
        "    seed: int\n"
        "    trace: str\n",
    ),
    (
        "cache-key-purity",
        "def store_key(spec, jobs: int) -> str:\n    return str(jobs)\n",
        "def store_key(spec) -> str:\n    return 'k'\n",
    ),
    (
        "registry-spec",
        "@SAMPLERS.register('demo')\n"
        "def make_demo(rate=object()):\n"
        "    return rate\n",
        "@SAMPLERS.register('demo')\n"
        "def make_demo(rate=0.01, label='x'):\n"
        "    return rate\n",
    ),
    (
        "registry-spec",
        "@TRACES.register('demo')\n"
        "def make_demo(*args):\n"
        "    return args\n",
        "@TRACES.register('demo')\n"
        "def make_demo(scale=1.0, duration=-1.0, shape=(1.5, 2.0)):\n"
        "    return scale\n",
    ),
    (
        "non-atomic-write",
        "def save(path, data):\n    path.write_text(data)\n",
        "import os\n"
        "def save(path, data):\n"
        "    temp = path.with_name(path.name + '.tmp')\n"
        "    temp.write_text(data)\n"
        "    os.replace(temp, path)\n",
    ),
    (
        # Read-mode opens are not writes; only 'w'/'a'/'x' modes publish.
        "non-atomic-write",
        "def save(path, data):\n"
        "    with open(path, 'w') as handle:\n"
        "        handle.write(data)\n",
        "def load(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n",
    ),
    (
        "hot-path-sort",
        "import numpy as np\n"
        "def account_chunk(codes):\n"
        "    return np.argsort(codes)\n",
        "import numpy as np\n"
        "def sort_group_index(codes):\n"
        "    return np.argsort(codes, kind='stable')\n",
    ),
    (
        "source-hot-concat",
        "import numpy as np\n"
        "def stream(chunks):\n"
        "    pending = np.empty(0)\n"
        "    for chunk in chunks:\n"
        "        pending = np.concatenate((pending, chunk))\n"
        "    return pending\n",
        "from .buffers import ChunkBuffer\n"
        "def stream(chunks):\n"
        "    pending = ChunkBuffer()\n"
        "    for chunk in chunks:\n"
        "        pending.append(chunk.timestamps, chunk.flow_ids)\n"
        "    return pending.run()\n",
    ),
    (
        "raw-timing",
        "import time\nstart = time.perf_counter()\n",
        "from repro import telemetry\n"
        "def timed(work):\n"
        "    with telemetry.span('stage'):\n"
        "        return work()\n",
    ),
    (
        "missing-annotations",
        "def run(spec):\n    return spec\n",
        "def run(spec: str) -> str:\n    return spec\n",
    ),
    (
        "missing-annotations",
        "class Store:\n"
        "    def put(self, key) -> None:\n"
        "        pass\n",
        "class Store:\n"
        "    def put(self, key: str) -> None:\n"
        "        pass\n"
        "    def _internal(self, key):\n"
        "        pass\n",
    ),
]

ANNOTATION_MODULE = "repro.store.fixture"  # inside the typed API + store surface
HOT_PATH_MODULE = "repro.flows.accounting"  # rule REP205's exact-module scope
SOURCE_MODULE = "repro.traces.source"  # rule REP206's exact-module scope

#: Rules scoped to a module prefix narrower than the library: their
#: fixtures must be linted as if they lived under that prefix.
PREFIX_SCOPED_RULES = ("missing-annotations", "non-atomic-write")


def _module_for(rule_name: str) -> str:
    if rule_name == "hot-path-sort":
        return HOT_PATH_MODULE
    if rule_name == "source-hot-concat":
        return SOURCE_MODULE
    return ANNOTATION_MODULE if rule_name in PREFIX_SCOPED_RULES else LIB


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_name,violating,clean",
        RULE_FIXTURES,
        ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(RULE_FIXTURES)],
    )
    def test_violating_and_clean_fixture(self, rule_name, violating, clean):
        module = _module_for(rule_name)
        findings = lint_source(violating, module=module, select=rule_name)
        assert findings, f"{rule_name}: violating fixture produced no finding"
        assert {v.rule_name for v in findings} == {rule_name}
        assert all(v.line >= 1 and v.message for v in findings)
        assert lint_source(clean, module=module, select=rule_name) == []

    def test_every_registered_rule_has_fixtures(self):
        covered = {name for name, _, _ in RULE_FIXTURES}
        assert covered == {rule.name for rule in all_rules()}

    def test_at_least_eight_rules_registered(self):
        assert len(RULES) >= 8

    def test_library_rules_skip_non_library_code(self):
        # Without a repro module name the determinism rules stay silent:
        # tests and scripts may use wall clocks and global RNG freely.
        assert lint_source("import random\nimport time\nt = time.time()\n") == []

    def test_violation_metadata(self):
        (violation,) = lint_source("import random\n", module=LIB, select="REP001")
        assert violation.rule_id == "REP001"
        assert violation.line == 1
        assert "REP001" in violation.format()
        payload = violation.to_dict()
        assert payload["rule_id"] == "REP001"
        assert payload["rule_name"] == "global-rng"


class TestSuppressions:
    def test_line_disable_by_name_and_id(self):
        for tag in ("global-rng", "REP001"):
            source = f"import random  # reprolint: disable={tag}\n"
            assert lint_source(source, module=LIB) == []

    def test_disable_only_masks_named_rule(self):
        source = "import random  # reprolint: disable=wall-clock\n"
        assert [v.rule_name for v in lint_source(source, module=LIB)] == ["global-rng"]

    def test_file_level_disable(self):
        source = (
            "# reprolint: disable-file=global-rng\n"
            "import random\n"
            "import random as r2  # still the same file\n"
        )
        assert lint_source(source, module=LIB) == []

    def test_requires_reason_rejects_bare_disable(self):
        bare = "try:\n    pass\nexcept Exception:  # reprolint: disable=broad-except\n    pass\n"
        findings = lint_source(bare, module=LIB, select="broad-except")
        assert [v.rule_name for v in findings] == ["broad-except"]

    def test_requires_reason_accepts_justified_disable(self):
        justified = (
            "try:\n"
            "    pass\n"
            "except Exception:  # reprolint: disable=broad-except -- probe must survive\n"
            "    pass\n"
        )
        assert lint_source(justified, module=LIB, select="broad-except") == []

    def test_multiple_rules_one_comment(self):
        source = (
            "import random, time\n"
            "t = time.time()  # reprolint: disable=wall-clock,global-rng\n"
        )
        findings = lint_source(source, module=LIB)
        assert [v.line for v in findings] == [1]  # line 2 fully suppressed


class TestHotPathSort:
    HOT = "repro.flows.accounting"

    def test_flags_argsort_and_lexsort_in_hot_modules(self):
        source = (
            "import numpy as np\n"
            "def observe(codes, keys):\n"
            "    a = np.argsort(codes)\n"
            "    b = np.lexsort(keys)\n"
            "    return a, b\n"
        )
        for module in ("repro.flows.accounting", "repro.flows.groupby"):
            findings = lint_source(source, module=module, select="hot-path-sort")
            assert [v.line for v in findings] == [3, 4]

    def test_reference_backend_functions_exempt(self):
        source = (
            "import numpy as np\n"
            "def sort_group_index(codes):\n"
            "    return np.argsort(codes, kind='stable')\n"
            "def aggregate_codes(codes):\n"
            "    return np.lexsort((codes,))\n"
        )
        assert lint_source(source, module=self.HOT, select="hot-path-sort") == []

    def test_silent_outside_hot_modules(self):
        source = "import numpy as np\norder = np.argsort([3, 1, 2])\n"
        for module in (LIB, "repro.flows.packets", None):
            assert lint_source(source, module=module, select="hot-path-sort") == []

    def test_suppression_requires_reason(self):
        bare = (
            "import numpy as np\n"
            "order = np.argsort(codes)  # reprolint: disable=hot-path-sort\n"
        )
        findings = lint_source(bare, module=self.HOT, select="hot-path-sort")
        assert [v.rule_name for v in findings] == ["hot-path-sort"]
        justified = (
            "import numpy as np\n"
            "order = np.argsort(uniques)"
            "  # reprolint: disable=hot-path-sort -- sorts unique flows once per extract\n"
        )
        assert lint_source(justified, module=self.HOT, select="hot-path-sort") == []


class TestSourceHotConcat:
    SRC = "repro.traces.source"

    def test_flags_concat_growth_in_chunk_loops(self):
        source = (
            "import numpy as np\n"
            "def stream(chunks):\n"
            "    pending = np.empty(0)\n"
            "    while True:\n"
            "        pending = np.concatenate((pending, next(chunks)))\n"
            "        pending = np.append(pending, 0.0)\n"
        )
        findings = lint_source(source, module=self.SRC, select="source-hot-concat")
        assert [v.line for v in findings] == [5, 6]

    def test_concat_outside_loops_allowed(self):
        # One-shot assembly (e.g. materialising a whole stream once) is
        # not per-chunk churn.
        source = (
            "import numpy as np\n"
            "def materialise(parts):\n"
            "    return np.concatenate(parts)\n"
        )
        assert lint_source(source, module=self.SRC, select="source-hot-concat") == []

    def test_list_append_not_flagged(self):
        source = (
            "def stream(chunks):\n"
            "    parts = []\n"
            "    for chunk in chunks:\n"
            "        parts.append(chunk)\n"
            "    return parts\n"
        )
        assert lint_source(source, module=self.SRC, select="source-hot-concat") == []

    def test_silent_outside_source_module(self):
        source = (
            "import numpy as np\n"
            "def stream(chunks):\n"
            "    out = np.empty(0)\n"
            "    for chunk in chunks:\n"
            "        out = np.concatenate((out, chunk))\n"
        )
        for module in (LIB, "repro.traces.buffers", None):
            assert lint_source(source, module=module, select="source-hot-concat") == []

    def test_suppression_requires_reason(self):
        bare = (
            "import numpy as np\n"
            "def stream(chunks):\n"
            "    out = np.empty(0)\n"
            "    for chunk in chunks:\n"
            "        out = np.concatenate((out, chunk))"
            "  # reprolint: disable=source-hot-concat\n"
        )
        findings = lint_source(bare, module=self.SRC, select="source-hot-concat")
        assert [v.rule_name for v in findings] == ["source-hot-concat"]
        justified = (
            "import numpy as np\n"
            "def stream(chunks):\n"
            "    out = np.empty(0)\n"
            "    for chunk in chunks:\n"
            "        out = np.concatenate((out, chunk))"
            "  # reprolint: disable=source-hot-concat -- retained reference path\n"
        )
        assert lint_source(justified, module=self.SRC, select="source-hot-concat") == []


class TestRawTiming:
    def test_flags_perf_counter_variants(self):
        source = (
            "import time\n"
            "def bench(work):\n"
            "    start = time.perf_counter()\n"
            "    work()\n"
            "    return time.perf_counter_ns() - start\n"
        )
        findings = lint_source(source, module=LIB, select="raw-timing")
        assert [v.line for v in findings] == [3, 5]

    def test_telemetry_module_exempt(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert lint_source(source, module="repro.telemetry", select="raw-timing") == []

    def test_silent_outside_library(self):
        source = "import time\nstart = time.perf_counter()\n"
        assert lint_source(source, select="raw-timing") == []

    def test_suppression_requires_reason(self):
        bare = (
            "import time\n"
            "start = time.perf_counter()  # reprolint: disable=raw-timing\n"
        )
        findings = lint_source(bare, module=LIB, select="raw-timing")
        assert [v.rule_name for v in findings] == ["raw-timing"]
        justified = (
            "import time\n"
            "start = time.perf_counter()"
            "  # reprolint: disable=raw-timing -- calibration loop, spans unavailable\n"
        )
        assert lint_source(justified, module=LIB, select="raw-timing") == []


class TestEngine:
    def test_syntax_error_reported_as_parse_finding(self):
        (violation,) = lint_source("def broken(:\n")
        assert violation.rule_id == PARSE_ERROR_ID
        assert "parse" in violation.message

    def test_unknown_rule_key_raises(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            resolve_rule_keys("no-such-rule")

    def test_select_and_ignore(self):
        source = "import random\nx = 0.1 == 0.2\n"
        all_findings = lint_source(source, module=LIB)
        assert {v.rule_name for v in all_findings} == {"global-rng", "float-eq"}
        only = lint_source(source, module=LIB, select="float-eq")
        assert {v.rule_name for v in only} == {"float-eq"}
        rest = lint_source(source, module=LIB, ignore="float-eq")
        assert {v.rule_name for v in rest} == {"global-rng"}

    def test_module_name_of(self, tmp_path):
        assert module_name_of(Path("src/repro/store.py")) == "repro.store"
        assert module_name_of(Path("src/repro/pipeline/__init__.py")) == "repro.pipeline"
        assert module_name_of(tmp_path / "scratch.py") is None

    def test_lint_file_and_collect(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def f(items=[]):\n    return items\n")
        hidden = tmp_path / ".cache"
        hidden.mkdir()
        (hidden / "skipme.py").write_text("import random\n")
        assert collect_files([tmp_path]) == [bad, good]
        assert lint_file(good) == []
        findings = lint_paths([tmp_path])
        assert [v.rule_name for v in findings] == ["mutable-default"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["definitely/not/here.py"])


class TestLintCli:
    def _write_bad(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(items=[]):\n    return items\n")
        return bad

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert analysis_cli.main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_text_format(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert analysis_cli.main([str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "REP102" in output and str(bad) in output

    def test_json_format(self, tmp_path, capsys):
        self._write_bad(tmp_path)
        assert analysis_cli.main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert [v["rule_id"] for v in payload["violations"]] == ["REP102"]

    def test_select_and_ignore_flags(self, tmp_path):
        self._write_bad(tmp_path)
        assert analysis_cli.main([str(tmp_path), "--select", "float-eq"]) == 0
        assert analysis_cli.main([str(tmp_path), "--ignore", "REP102"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert analysis_cli.main([str(tmp_path), "--select", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert analysis_cli.main(["definitely/not/here.py"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_catalog(self, capsys):
        assert analysis_cli.main(["--list-rules"]) == 0
        catalog = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in catalog and rule.name in catalog

    def test_repro_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        (tmp_path / "ok.py").write_text("x = 1\n")
        assert repro_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out


class TestRepositoryIsClean:
    def test_src_and_tests_lint_clean(self):
        # The gate the CI lint job enforces, kept runnable locally: the
        # real codebase must satisfy its own contracts.
        repo = Path(__file__).resolve().parent.parent
        findings = lint_paths([repo / "src", repo / "tests"])
        assert findings == [], "\n".join(v.format() for v in findings)

    def test_hot_path_suppressions_are_pinned(self):
        # One implementation per stage: no chunk loop in the library may
        # carry a source-hot-concat suppression, and the only hot-path
        # sort is HashAccumulator.extract's once-per-bin sort of flows.
        repo = Path(__file__).resolve().parent.parent
        aliases = {"rep205": "hot-path-sort", "rep206": "source-hot-concat"}
        found: dict[str, list[tuple[Path, int]]] = {name: [] for name in aliases.values()}
        for path in sorted((repo / "src" / "repro").rglob("*.py")):
            line_scoped, file_scoped = parse_suppressions(path.read_text().splitlines())
            for suppression in line_scoped + file_scoped:
                for key in suppression.keys:
                    name = aliases.get(key, key)
                    if name in found:
                        found[name].append((path, suppression.line))
        assert found["source-hot-concat"] == []
        assert len(found["hot-path-sort"]) == 1
        ((path, line),) = found["hot-path-sort"]
        owners = [
            f"{cls.name}.{function.name}"
            for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef)
            for function in cls.body
            if isinstance(function, ast.FunctionDef)
            and function.lineno <= line <= (function.end_lineno or function.lineno)
        ]
        assert owners == ["HashAccumulator.extract"]

    def test_registry_defaults_are_spec_representable(self):
        # Dynamic counterpart of REP203: every registered factory's
        # defaults must survive the spec round-trip the rule encodes.
        from repro.registry import DISTRIBUTIONS, KEY_POLICIES, SAMPLERS, TRACES
        from repro.spec import format_spec, parse_spec
        import inspect

        for registry in (SAMPLERS, KEY_POLICIES, DISTRIBUTIONS, TRACES):
            for name in registry.names():
                factory = registry.get(name)
                for parameter in inspect.signature(factory).parameters.values():
                    default = parameter.default
                    if default is inspect.Parameter.empty or default is None:
                        continue
                    if isinstance(default, tuple):
                        continue  # tuples are literal but not flag syntax
                    spec = format_spec(name, {parameter.name: default})
                    parsed_name, kwargs = parse_spec(spec)
                    assert parsed_name == name
                    assert kwargs[parameter.name] == default
