"""Independent random (Bernoulli) packet sampling.

This is the sampling model analysed throughout the paper: every packet
is kept with a constant probability ``p``, independently of every other
packet.  The sampled size of a flow of ``S`` packets is then
binomially distributed — the starting point of the misranking analysis
in Section 3.
"""

from __future__ import annotations

import numpy as np

from ..flows.packets import PacketBatch
from ..spec import format_spec
from .base import PacketSampler


class BernoulliSampler(PacketSampler):
    """Keep each packet independently with probability ``rate``.

    Parameters
    ----------
    rate:
        Packet sampling probability ``p`` in ``(0, 1]``.
    rng:
        NumPy random generator (or seed) driving the sampling decisions.
        Passing a seed makes a simulation run reproducible.
    """

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.spec = format_spec("bernoulli", {"rate": self.rate})
        self.name = self.spec

    @property
    def effective_rate(self) -> float:
        """Long-run fraction of packets kept; equals ``rate``."""
        return self.rate

    def sample_mask(self, batch: PacketBatch) -> np.ndarray:
        """Independent keep/drop decisions for a whole batch.

        Parameters
        ----------
        batch:
            The packets to decide on, in stream order.

        Returns
        -------
        numpy.ndarray
            Boolean keep-mask with one entry per packet; exactly one
            uniform draw is consumed per packet, so the mask sequence is
            invariant to how the stream is chunked.
        """
        return self._rng.random(len(batch)) < self.rate


__all__ = ["BernoulliSampler"]
