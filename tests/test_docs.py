"""Doc-health checks: the docs tree stays in sync with the code.

CI runs this file as a dedicated step.  The important check is the
registry cross-reference: every name registered in :mod:`repro.registry`
must be documented in ``docs/registry.md``, and every name the page
documents must actually resolve — so the documentation can never drift
from `repro run --list-components`.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.registry import DISTRIBUTIONS, KEY_POLICIES, SAMPLERS, TRACES
from repro.scenarios import SCENARIOS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: docs/registry.md section heading -> the registry it documents.
SECTION_REGISTRIES = {
    "Samplers": SAMPLERS,
    "Flow-key policies": KEY_POLICIES,
    "Flow-size distributions": DISTRIBUTIONS,
    "Trace generators": TRACES,
    "Scenarios": SCENARIOS,
}

#: Every page of the docs tree (README must link each one).
DOC_PAGES = (
    "architecture.md",
    "pipeline.md",
    "traces.md",
    "flows.md",
    "sweeps.md",
    "registry.md",
    "analysis.md",
    "observability.md",
    "cli.md",
)


def _registry_tables() -> dict[str, list[tuple[str, list[str]]]]:
    """Parse docs/registry.md into section -> [(name, aliases), ...]."""
    sections: dict[str, list[tuple[str, list[str]]]] = {}
    current: str | None = None
    for line in (DOCS / "registry.md").read_text().splitlines():
        if line.startswith("## "):
            current = None
            for title in SECTION_REGISTRIES:
                if line[3:].startswith(title):
                    current = title
                    sections[title] = []
        elif current is not None and line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            name = re.findall(r"`([^`]+)`", cells[0])[0]
            aliases = re.findall(r"`([^`]+)`", cells[1]) if len(cells) > 1 else []
            sections[current].append((name, aliases))
    return sections


class TestDocsTree:
    @pytest.mark.parametrize("page", DOC_PAGES)
    def test_page_exists_and_is_nonempty(self, page):
        path = DOCS / page
        assert path.is_file(), f"missing docs page {page}"
        assert len(path.read_text()) > 500

    def test_readme_links_every_page(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in DOC_PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"


class TestRegistryCrossReference:
    @pytest.mark.parametrize("section", sorted(SECTION_REGISTRIES))
    def test_every_registered_name_is_documented(self, section):
        registry = SECTION_REGISTRIES[section]
        table = _registry_tables().get(section)
        assert table, f"docs/registry.md has no table under the {section!r} section"
        documented = {name for name, _ in table}
        missing = set(registry.names()) - documented
        assert not missing, f"{section}: registered but undocumented: {sorted(missing)}"

    @pytest.mark.parametrize("section", sorted(SECTION_REGISTRIES))
    def test_every_registered_alias_is_documented(self, section):
        registry = SECTION_REGISTRIES[section]
        documented_aliases = {
            alias for _, aliases in _registry_tables().get(section, []) for alias in aliases
        }
        missing = set(registry.aliases()) - documented_aliases
        assert not missing, f"{section}: aliases missing from docs: {sorted(missing)}"

    @pytest.mark.parametrize("section", sorted(SECTION_REGISTRIES))
    def test_every_documented_name_resolves(self, section):
        registry = SECTION_REGISTRIES[section]
        for name, aliases in _registry_tables().get(section, []):
            assert name in registry, f"documented {section} name {name!r} does not resolve"
            for alias in aliases:
                assert alias in registry, (
                    f"documented {section} alias {alias!r} does not resolve"
                )

    def test_documented_names_are_canonical(self):
        """The first column lists canonical names, not aliases."""
        for section, registry in SECTION_REGISTRIES.items():
            for name, _ in _registry_tables().get(section, []):
                assert name in registry.names(), (
                    f"{section}: {name!r} is an alias; document the canonical name"
                )


class TestAnalysisDocs:
    """docs/analysis.md stays in sync with the registered lint rules."""

    def test_every_rule_is_documented(self):
        from repro.analysis import all_rules

        text = (DOCS / "analysis.md").read_text()
        for rule in all_rules():
            assert f"`{rule.id}`" in text, f"analysis.md misses rule id {rule.id}"
            assert f"`{rule.name}`" in text, f"analysis.md misses rule name {rule.name}"

    def test_no_phantom_rules_documented(self):
        """Every REPnnn id the page mentions is actually registered."""
        from repro.analysis import RULES
        from repro.analysis.base import PARSE_ERROR_ID

        text = (DOCS / "analysis.md").read_text()
        for rule_id in set(re.findall(r"REP\d{3}", text)) - {PARSE_ERROR_ID, "REP901"}:
            assert rule_id in RULES, f"analysis.md documents unregistered rule {rule_id}"

    def test_suppression_syntax_and_policy_documented(self):
        text = (DOCS / "analysis.md").read_text()
        for term in (
            "reprolint: disable=",
            "reprolint: disable-file=",
            "-- ",
            "mypy --strict",
            "py.typed",
            "--select",
            "--ignore",
            "--list-rules",
        ):
            assert term in text, f"analysis.md does not document {term!r}"


class TestCliDocs:
    def test_cli_page_covers_every_subcommand_and_jobs(self):
        text = (DOCS / "cli.md").read_text()
        for subcommand in (
            "repro run",
            "repro sweep",
            "repro store",
            "repro scenarios",
            "repro lint",
            "repro figure",
            "repro plan",
            "repro simulate",
        ):
            assert subcommand in text
        assert "--jobs" in text
        assert "--scenario" in text
        assert "--chunk-packets" in text
        for flag in (
            "--store",
            "--json",
            "--max-cells",
            "--baseline-store",
            "--seeds",
            "--workers",
            "--ttl",
            "--interval",
            "--once",
        ):
            assert flag in text, f"cli.md does not document {flag}"
        for store_subcommand in ("store ls", "store verify", "store gc"):
            assert store_subcommand in text
        for sweep_subcommand in ("sweep run", "sweep status", "sweep watch", "sweep report"):
            assert sweep_subcommand in text, f"cli.md does not document {sweep_subcommand}"
        assert "source pass(es)" in text, "cli.md does not document the passes line"

    def test_sweeps_page_covers_the_contract(self):
        """docs/sweeps.md documents the pieces the store contract names."""
        text = (DOCS / "sweeps.md").read_text()
        for term in (
            "index.json",
            "store_key",
            "canonical",
            "salt",
            "RunSpec",
            "resume",
            "bit-identical",
            "--max-cells",
            "One source pass per group",
            "SweepReport.passes",
        ):
            assert term in text, f"sweeps.md does not mention {term}"

    def test_sweeps_page_covers_distributed_execution(self):
        """The distributed-execution section documents the lease contract."""
        text = (DOCS / "sweeps.md").read_text()
        for term in (
            "Distributed execution",
            "lease",
            "--workers",
            "--ttl",
            "sweep watch",
            "orphaned",
            "heartbeat",
            "exactly once",
            "SIGKILL",
            "run_sweep_workers",
            "worker_status",
        ):
            assert term in text, f"sweeps.md does not document {term!r}"

    def test_documented_scenario_specs_parse(self):
        """Every scenario spec quoted in the docs resolves to a factory."""
        from repro.registry import parse_spec

        names = "|".join(SCENARIOS.names())
        spec_pattern = re.compile(rf"`((?:{names}):[^`]+)`")
        for page in DOC_PAGES:
            for spec in spec_pattern.findall((DOCS / page).read_text()):
                name, kwargs = parse_spec(spec)
                assert name in SCENARIOS
                import numpy as np

                source = SCENARIOS.create(
                    name, **{**kwargs, "scale": 0.001, "duration": 60.0},
                    rng=np.random.default_rng(0),
                )
                assert source.num_flows > 0

    def test_documented_sampler_specs_parse(self):
        """Every sampler spec quoted in the docs builds a real sampler."""
        from repro.registry import parse_spec

        spec_pattern = re.compile(r"`((?:bernoulli|periodic|flow-hash|sample-and-hold):[^`]+)`")
        for page in ("registry.md", "pipeline.md", "cli.md"):
            for spec in spec_pattern.findall((DOCS / page).read_text()):
                name, kwargs = parse_spec(spec)
                sampler = SAMPLERS.create(name, **kwargs)
                assert sampler.effective_rate > 0
