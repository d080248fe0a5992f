"""Tests for the string-keyed component registries and spec parsing."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy, FlowKeyPolicy
from repro.registry import (
    DISTRIBUTIONS,
    KEY_POLICIES,
    SAMPLERS,
    TRACES,
    Registry,
    UnknownComponentError,
    format_spec,
    parse_spec,
)
from repro.sampling.base import PacketSampler
from repro.traces.synthetic import SyntheticTraceGenerator


class TestRegistry:
    def test_register_and_create(self):
        registry = Registry("demo")

        @registry.register("widget", aliases=("w",))
        def make_widget(size=1):
            return ("widget", size)

        assert registry.create("widget", size=3) == ("widget", 3)
        assert registry.create("w") == ("widget", 1)
        assert "widget" in registry and "w" in registry
        assert registry.names() == ("widget",)

    def test_unknown_name_lists_available_keys(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            SAMPLERS.create("no-such-sampler")
        message = str(excinfo.value)
        for name in SAMPLERS.names():
            assert name in message
        assert "no-such-sampler" in message

    def test_unknown_component_is_a_key_error(self):
        with pytest.raises(KeyError):
            KEY_POLICIES.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = Registry("demo")
        registry.register("a", lambda: 1)
        with pytest.raises(ValueError):
            registry.register("a", lambda: 2)
        with pytest.raises(ValueError):
            registry.register("b", lambda: 3, aliases=("a",))

    def test_bad_kwargs_give_helpful_error(self):
        with pytest.raises(TypeError) as excinfo:
            SAMPLERS.create("bernoulli", rate=0.1, bogus=1)
        assert "bernoulli" in str(excinfo.value)


class TestRngDecidedOnce:
    """Whether a factory takes ``rng`` is decided once, never per built cell."""

    @pytest.fixture
    def inspections(self, monkeypatch):
        calls = []
        signature = inspect.signature

        def counted(obj, *args, **kwargs):
            calls.append(obj)
            return signature(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counted)
        return calls

    def test_a_40_cell_build_inspects_no_signature(self, inspections):
        from repro.pipeline import Pipeline
        from repro.pipeline.parallel import _build_samplers

        plan = (
            Pipeline()
            .with_trace("sprint", scale=0.001, duration=120.0)
            .with_sampling_rates((0.001, 0.01, 0.1, 0.5))
            .with_runs(10)
            .plan()
        )
        inspections.clear()
        samplers = _build_samplers(plan.sampler_specs, plan.cells)
        assert len(samplers) == 40
        assert inspections == []

    def test_a_user_factory_is_inspected_once_per_spec(self, inspections):
        from repro.pipeline.pipeline import SamplerSpec
        from repro.sampling import BernoulliSampler

        def with_rng(rate, rng=None):
            return BernoulliSampler(rate, rng=rng)

        def without_rng(rate):
            return BernoulliSampler(rate, rng=0)

        specs = [
            SamplerSpec(factory=with_rng, kwargs={"rate": 0.5}),
            SamplerSpec(factory=without_rng, kwargs={"rate": 0.5}),
        ]
        assert inspections == [with_rng, without_rng]
        rngs = [np.random.default_rng(seed) for seed in range(20)]
        drawn = [spec.build(rng) for spec in specs for rng in rngs]
        assert len(inspections) == 2
        # ``rng`` reaches only the factory that takes it.
        masks = {tuple(s.sample_mask(np.zeros(64)).tolist()) for s in drawn[:20]}
        assert len(masks) > 1
        assert len({tuple(s.sample_mask(np.zeros(64)).tolist()) for s in drawn[20:]}) == 1

    def test_registration_decides_and_errors_stay(self):
        registry = Registry("demo")
        registry.register("takes", lambda rate, rng=None: ("takes", rate, rng))
        registry.register("keywords", lambda **kwargs: ("keywords", kwargs))
        registry.register("plain", lambda rate: ("plain", rate))
        assert registry.accepts_rng("takes") and registry.accepts_rng("keywords")
        assert not registry.accepts_rng("plain")
        with pytest.raises(UnknownComponentError):
            registry.accepts_rng("missing")
        with pytest.raises(TypeError, match="cannot build demo 'plain'"):
            registry.create("plain", rate=0.1, rng=None)


class TestParseSpec:
    def test_name_only(self):
        assert parse_spec("bernoulli") == ("bernoulli", {})

    def test_name_with_kwargs(self):
        name, kwargs = parse_spec("periodic:rate=0.1,phase=3")
        assert name == "periodic"
        assert kwargs == {"rate": 0.1, "phase": 3}

    def test_string_values_kept_verbatim(self):
        assert parse_spec("x:mode=fast")[1] == {"mode": "fast"}

    def test_bool_and_none_literals(self):
        assert parse_spec("x:flag=True,empty=None")[1] == {"flag": True, "empty": None}

    def test_tuple_and_list_values_survive_commas(self):
        assert parse_spec("x:rates=(0.1,0.5),n=2")[1] == {"rates": (0.1, 0.5), "n": 2}
        assert parse_spec("x:items=[1,2,3]")[1] == {"items": [1, 2, 3]}

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            parse_spec(":rate=0.1")
        with pytest.raises(ValueError):
            parse_spec("bernoulli:rate")


class TestSpecRoundTrip:
    """Spec -> sampler -> spec is exact, so CLI output is re-usable input."""

    @pytest.mark.parametrize(
        "spec",
        [
            "bernoulli:rate=0.01",
            "bernoulli:rate=0.5",
            "periodic:period=100",
            "periodic:period=100,phase=3",
            "flow-hash:rate=0.1",
            "flow-hash:rate=0.1,seed=7",
            "sample-and-hold:rate=0.05",
        ],
    )
    def test_pinned_spec_round_trips_exactly(self, spec):
        name, kwargs = parse_spec(spec)
        sampler = SAMPLERS.create(name, **kwargs)
        assert sampler.spec == spec
        assert sampler.name == spec  # reports echo the spec verbatim

    @pytest.mark.parametrize("name", SAMPLERS.names())
    def test_every_builtin_sampler_spec_rebuilds_itself(self, name):
        sampler = SAMPLERS.create(name, rate=0.25)
        spec_name, kwargs = parse_spec(sampler.spec)
        rebuilt = SAMPLERS.create(spec_name, **kwargs)
        assert rebuilt.spec == sampler.spec
        assert rebuilt.effective_rate == sampler.effective_rate

    def test_format_spec_is_parse_spec_inverse(self):
        cases = [
            ("bernoulli", {"rate": 0.01}),
            ("periodic", {"period": 100, "phase": 3}),
            ("custom", {"rates": (0.1, 0.5), "mode": "fast", "flag": True}),
            ("plain", {}),
        ]
        for name, kwargs in cases:
            assert parse_spec(format_spec(name, kwargs)) == (name, kwargs)

    def test_format_spec_quotes_ambiguous_strings(self):
        spec = format_spec("x", {"label": "a,b"})
        assert parse_spec(spec) == ("x", {"label": "a,b"})

    @pytest.mark.parametrize(
        "value",
        ["don't", 'say "hi"', "a'b\"c,d", " padded ", "", "True", "(x)"],
    )
    def test_format_spec_round_trips_awkward_strings(self, value):
        """Quotes, commas, padding and literal-lookalikes survive exactly."""
        assert parse_spec(format_spec("x", {"v": value, "n": 1})) == (
            "x",
            {"v": value, "n": 1},
        )

    def test_bare_apostrophe_values_parse_as_before(self):
        """A mid-word quote is just a character, not a quoted region."""
        assert parse_spec("x:a=don't,b=1") == ("x", {"a": "don't", "b": 1})

    def test_format_spec_rejects_bad_names(self):
        with pytest.raises(ValueError):
            format_spec("")
        with pytest.raises(ValueError):
            format_spec("a:b")

    def test_pipeline_labels_are_valid_specs(self, small_trace):
        """The labels a pipeline prints resolve back through the registry."""
        from repro.pipeline import Pipeline

        result = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler("bernoulli", rate=0.5)
            .with_sampler("sample-and-hold", rate=0.1)
            .with_runs(1)
            .with_seed(0)
            .run()
        )
        for label in result.labels:
            name, kwargs = parse_spec(label)
            assert SAMPLERS.create(name, **kwargs).spec == label


class TestBuiltinSamplers:
    @pytest.mark.parametrize("name", SAMPLERS.names())
    def test_round_trip_every_builtin_sampler(self, name):
        """Every registered sampler is constructible from name + rate."""
        sampler = SAMPLERS.create(name, rate=0.1)
        assert isinstance(sampler, PacketSampler)
        assert sampler.effective_rate == pytest.approx(0.1, rel=0.01)

    def test_periodic_by_period(self):
        sampler = SAMPLERS.create("periodic", period=20)
        assert sampler.effective_rate == pytest.approx(0.05)

    def test_periodic_needs_exactly_one_of_rate_and_period(self):
        with pytest.raises((TypeError, ValueError)):
            SAMPLERS.create("periodic")
        with pytest.raises((TypeError, ValueError)):
            SAMPLERS.create("periodic", rate=0.1, period=10)

    def test_aliases_resolve(self):
        assert SAMPLERS.create("random", rate=0.2).effective_rate == pytest.approx(0.2)
        assert SAMPLERS.create("hash", rate=0.2).effective_rate == pytest.approx(0.2)


class TestBuiltinKeyPolicies:
    @pytest.mark.parametrize("name", KEY_POLICIES.names())
    def test_round_trip_every_builtin_key_policy(self, name):
        policy = KEY_POLICIES.create(name)
        assert isinstance(policy, FlowKeyPolicy)
        assert policy.name

    def test_five_tuple_aliases(self):
        for alias in ("five-tuple", "5-tuple", "5tuple"):
            assert isinstance(KEY_POLICIES.create(alias), FiveTupleKeyPolicy)

    def test_prefix_kwargs(self):
        policy = KEY_POLICIES.create("prefix", prefix_length=16)
        assert isinstance(policy, DestinationPrefixKeyPolicy)
        assert policy.prefix_length == 16
        assert "/16" in policy.name


class TestBuiltinDistributionsAndTraces:
    @pytest.mark.parametrize("name", DISTRIBUTIONS.names())
    def test_distributions_constructible_with_defaults(self, name):
        distribution = DISTRIBUTIONS.create(name)
        assert distribution.mean > 0

    def test_pareto_kwargs(self):
        distribution = DISTRIBUTIONS.create("pareto", mean=20.0, shape=1.2)
        assert distribution.mean == pytest.approx(20.0)

    @pytest.mark.parametrize("name", TRACES.names())
    def test_traces_generate(self, name):
        generator = TRACES.create(name, scale=0.001, duration=60.0)
        assert isinstance(generator, SyntheticTraceGenerator)
        trace = generator.generate(rng=5)
        assert trace.num_flows >= 2
