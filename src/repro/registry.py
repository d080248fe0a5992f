"""String-keyed component registries.

Every pluggable component of the library — packet samplers, flow-key
policies, flow size distributions and trace generators — is registered
here under a short name, so that experiments can be described entirely
with strings (configuration files, CLI flags, saved experiment specs)
instead of hand-wired Python objects:

>>> from repro.registry import SAMPLERS
>>> sampler = SAMPLERS.create("bernoulli", rate=0.01)
>>> sampler.effective_rate
0.01

Component specs can also be written as a single string in the form
``name:key=value,key=value`` (the syntax of the ``repro run --sampler``
CLI flag) and parsed with :func:`parse_spec`:

>>> parse_spec("bernoulli:rate=0.01")
('bernoulli', {'rate': 0.01})

Nameless option lists (the value of flags such as ``repro run
--monitor max_flows=4096``) use the same syntax without the leading
name and are parsed with :func:`parse_kwargs`:

>>> parse_kwargs("max_flows=4096")
{'max_flows': 4096}

Spec round-tripping is exact: samplers echo their canonical spec in
their ``spec`` attribute (which is also their report ``name``), so the
labels printed by ``repro run`` can be pasted straight back into a
``--sampler`` flag and rebuild the same component:

>>> sampler.spec
'bernoulli:rate=0.01'
>>> name, kwargs = parse_spec(sampler.spec)
>>> SAMPLERS.create(name, **kwargs).spec == sampler.spec
True

The built-in registries are populated at import time; third-party code
can add components with :meth:`Registry.register`, either called
directly or used as a decorator.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from .distributions.exponential import ExponentialFlowSizes
from .distributions.lognormal import LognormalFlowSizes
from .distributions.pareto import ParetoFlowSizes
from .distributions.weibull import WeibullFlowSizes
from .flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from .sampling.bernoulli import BernoulliSampler
from .sampling.periodic import PeriodicSampler
from .sampling.sample_and_hold import SampleAndHoldSampler
from .sampling.stratified import HashFlowSampler
from .spec import canonical_spec, format_spec, parse_kwargs, parse_spec
from .traces.synthetic import SyntheticTraceGenerator, abilene_like_config, sprint_like_config


class UnknownComponentError(KeyError):
    """Raised when a registry is asked for a name it does not know.

    The message lists the available names so that a typo in a config
    file or CLI flag is immediately actionable.
    """

    def __init__(self, kind: str, name: str, available: tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.available = available
        super().__init__(name)

    def __str__(self) -> str:
        choices = ", ".join(self.available) if self.available else "<none registered>"
        return f"unknown {self.kind} {self.name!r}; available: {choices}"


class Registry:
    """A string-keyed registry of component factories.

    Parameters
    ----------
    kind:
        Human-readable component kind ("sampler", "key policy", ...)
        used in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable] = {}
        self._aliases: dict[str, str] = {}
        #: Whether each factory takes ``rng``, decided once at registration.
        self._takes_rng: dict[str, bool] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable | None = None,
        *,
        aliases: tuple[str, ...] = (),
    ) -> Callable:
        """Register a factory under ``name`` (directly or as a decorator).

        >>> registry = Registry("demo")
        >>> @registry.register("always")
        ... def make_always():
        ...     return "always-sampler"
        >>> registry.create("always")
        'always-sampler'
        """

        def _add(func: Callable) -> Callable:
            for key in (name, *aliases):
                if key in self._factories or key in self._aliases:
                    raise ValueError(f"{self.kind} {key!r} is already registered")
            self._takes_rng[name] = accepts_rng(func)
            self._factories[name] = func
            for alias in aliases:
                self._aliases[alias] = name
            return func

        if factory is not None:
            return _add(factory)
        return _add

    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> str:
        canonical = self._aliases.get(name, name)
        if canonical not in self._factories:
            raise UnknownComponentError(self.kind, name, self.names())
        return canonical

    def get(self, name: str) -> Callable:
        """Return the factory registered under ``name`` (or an alias)."""
        return self._factories[self._resolve(name)]

    def create(self, name: str, /, **kwargs: object) -> Any:
        """Instantiate the component registered under ``name``."""
        factory = self.get(name)
        try:
            return factory(**kwargs)
        except TypeError as exc:
            raise TypeError(
                f"cannot build {self.kind} {name!r} with arguments {kwargs!r}: {exc}"
            ) from exc

    def names(self) -> tuple[str, ...]:
        """Canonical registered names, sorted."""
        return tuple(sorted(self._factories))

    def aliases(self) -> dict[str, str]:
        """Mapping of alias to canonical name (a copy).

        Returns
        -------
        dict[str, str]
            Every registered alias and the name it resolves to; used by
            the documentation cross-checks.
        """
        return dict(self._aliases)

    def accepts_rng(self, name: str) -> bool:
        """Whether the factory takes an ``rng`` keyword (per-run randomisation).

        Decided once, when the factory was registered: building a
        sampler per cell inspects no signature.
        """
        return self._takes_rng[self._resolve(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._factories or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, names={list(self.names())})"


def accepts_rng(factory: Callable) -> bool:
    """Whether a component factory takes an ``rng`` keyword argument."""
    parameters = inspect.signature(factory).parameters
    return "rng" in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


# ----------------------------------------------------------------------
# Built-in registries
# ----------------------------------------------------------------------
SAMPLERS = Registry("sampler")
KEY_POLICIES = Registry("flow-key policy")
DISTRIBUTIONS = Registry("flow size distribution")
TRACES = Registry("trace generator")


def _seed_from(rng: np.random.Generator | None) -> int | None:
    if rng is None:
        return None
    return int(rng.integers(0, 2**31 - 1))


@SAMPLERS.register("bernoulli", aliases=("random",))
def _make_bernoulli(rate: float, rng: np.random.Generator | int | None = None) -> BernoulliSampler:
    """Independent random sampling at probability ``rate``."""
    return BernoulliSampler(rate, rng=rng)


@SAMPLERS.register("periodic", aliases=("1-in-n",))
def _make_periodic(
    rate: float | None = None,
    period: int | None = None,
    phase: int | None = None,
    rng: np.random.Generator | None = None,
) -> PeriodicSampler:
    """Deterministic 1-in-N sampling; give either ``rate`` or ``period``.

    When ``phase`` is omitted and an ``rng`` is available the phase is
    randomised, which removes synchronisation artefacts across runs.
    """
    if (rate is None) == (period is None):
        raise ValueError("periodic sampler needs exactly one of rate= or period=")
    if period is None:
        period = PeriodicSampler.from_rate(rate).period
    if phase is None:
        phase = int(rng.integers(0, period)) if rng is not None else 0
    return PeriodicSampler(period=int(period), phase=int(phase) % int(period))


@SAMPLERS.register("flow-hash", aliases=("hash",))
def _make_flow_hash(
    rate: float,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> HashFlowSampler:
    """Hash-based flow sampling: keep every packet of a subset of flows."""
    if seed is None:
        seed = _seed_from(rng) or 0
    return HashFlowSampler(rate, seed=int(seed))


@SAMPLERS.register("sample-and-hold", aliases=("hold",))
def _make_sample_and_hold(
    rate: float, rng: np.random.Generator | int | None = None
) -> SampleAndHoldSampler:
    """Sample-and-hold: admit a flow with probability ``rate``, then keep it all."""
    return SampleAndHoldSampler(rate, rng=rng)


@KEY_POLICIES.register("five-tuple", aliases=("5-tuple", "5tuple"))
def _make_five_tuple() -> FiveTupleKeyPolicy:
    return FiveTupleKeyPolicy()


@KEY_POLICIES.register("prefix", aliases=("dst-prefix", "/24"))
def _make_prefix(prefix_length: int = 24) -> DestinationPrefixKeyPolicy:
    return DestinationPrefixKeyPolicy(int(prefix_length))


@DISTRIBUTIONS.register("pareto")
def _make_pareto(mean: float = 9.6, shape: float = 1.5) -> ParetoFlowSizes:
    return ParetoFlowSizes.from_mean(mean=mean, shape=shape)


@DISTRIBUTIONS.register("lognormal")
def _make_lognormal(mean: float = 9.6, sigma: float = 1.0) -> LognormalFlowSizes:
    return LognormalFlowSizes.from_mean_sigma(mean=mean, sigma=sigma)


@DISTRIBUTIONS.register("exponential")
def _make_exponential(mean: float = 9.6) -> ExponentialFlowSizes:
    return ExponentialFlowSizes(mean=mean)


@DISTRIBUTIONS.register("weibull")
def _make_weibull(shape: float = 0.7, scale: float = 5.0) -> WeibullFlowSizes:
    return WeibullFlowSizes(shape=shape, scale=scale)


@TRACES.register("sprint")
def _make_sprint(
    scale: float = 1.0,
    duration: float = 1800.0,
    shape: float = 1.5,
) -> SyntheticTraceGenerator:
    """Sprint-like backbone trace generator (Section 8.1 of the paper)."""
    return SyntheticTraceGenerator(sprint_like_config(shape=shape, scale=scale, duration=duration))


@TRACES.register("abilene")
def _make_abilene(
    scale: float = 1.0,
    duration: float = 1800.0,
    sigma: float = 1.0,
) -> SyntheticTraceGenerator:
    """Abilene-like short-tailed trace generator (Section 8.3 of the paper)."""
    return SyntheticTraceGenerator(abilene_like_config(sigma=sigma, scale=scale, duration=duration))


__all__ = [
    "Registry",
    "UnknownComponentError",
    "accepts_rng",
    "parse_spec",
    "parse_kwargs",
    "format_spec",
    "canonical_spec",
    "SAMPLERS",
    "KEY_POLICIES",
    "DISTRIBUTIONS",
    "TRACES",
]
