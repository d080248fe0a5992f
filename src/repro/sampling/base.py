"""Packet sampler interface.

A packet sampler decides, for every packet crossing the monitored link,
whether the packet is kept ("sampled") or dropped.  The paper's analysis
assumes independent random sampling with a constant probability; other
strategies (periodic, hash-based flow sampling) are provided for the
comparisons the paper discusses in its introduction and related work.

A sampler decides in one place, :meth:`PacketSampler.sample_mask`: a
boolean keep/drop mask for a whole
:class:`~repro.flows.packets.PacketBatch` of the stream at once, with
any state (counters, held flows) carried from one batch to the next.
:meth:`PacketSampler.sample_batch` is that mask applied as a select.
A subclass defines :meth:`~PacketSampler.sample_mask` and
:attr:`~PacketSampler.effective_rate`; everything else has a default.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

from ..flows.packets import PacketBatch


class PacketSampler(abc.ABC):
    """Decides which packets of a stream are kept."""

    #: Human-readable name used in reports.  Built-in samplers set this
    #: to their canonical registry spec (see :attr:`spec`), so the
    #: labels printed by ``repro run`` are valid ``--sampler`` flags.
    name: str = "abstract"

    #: Canonical ``name:key=value,...`` registry spec that rebuilds this
    #: sampler (``None`` for samplers without a registry entry).  For
    #: built-in samplers the round-trip ``spec -> sampler -> spec`` is
    #: exact: ``SAMPLERS.create(*parse) .spec == spec``.
    spec: str | None = None

    @abc.abstractmethod
    def sample_mask(self, batch: PacketBatch) -> np.ndarray:
        """Boolean keep-mask for every packet of the batch."""

    @property
    @abc.abstractmethod
    def effective_rate(self) -> float:
        """Long-run fraction of packets kept by the sampler."""

    def sample_batch(self, batch: PacketBatch) -> PacketBatch:
        """Return a new batch containing only the sampled packets.

        Parameters
        ----------
        batch:
            The packets to filter.

        Returns
        -------
        PacketBatch
            The kept packets, in their original order.
        """
        return batch.select(self.sample_mask(batch))

    def reset(self) -> None:
        """Clear any per-stream state (default: stateless)."""

    def spawn(self, rng: np.random.Generator | None = None) -> "PacketSampler":
        """Return an independent copy of this sampler for a fresh run.

        The pipeline executor uses one sampler clone per independent
        sampling realisation, so that stateful samplers (periodic
        counters, flow tables) never leak state between runs or rates.
        The clone starts from a clean :meth:`reset` state; when ``rng``
        is given, a randomised sampler's generator is replaced so that
        different runs draw independent decisions.

        Parameters
        ----------
        rng:
            Replacement generator for the clone's ``_rng`` attribute
            (ignored by non-randomised samplers).

        Returns
        -------
        PacketSampler
            An independent, reset copy of this sampler.
        """
        clone = copy.deepcopy(self)
        clone.reset()
        if rng is not None and isinstance(getattr(clone, "_rng", None), np.random.Generator):
            clone._rng = rng
        return clone

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rate={self.effective_rate:.4g})"


__all__ = ["PacketSampler"]
