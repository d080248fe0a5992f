"""Hash-based flow sampling.

Flow sampling (keep *all* packets of a sampled flow) is the alternative
the paper contrasts with packet sampling in its introduction: it
preserves flow sizes perfectly but requires flow-state lookups at line
rate.  The usual stateless realisation hashes the flow key and keeps the
flow when the hash falls below a threshold.

Including it lets users quantify how much ranking accuracy is lost by
packet sampling compared to flow sampling at the same average packet
budget — the trade-off that motivates the whole paper.
"""

from __future__ import annotations

import numpy as np

from ..flows.packets import PacketBatch
from ..spec import format_spec
from .base import PacketSampler

_HASH_MODULUS = np.uint64(2**61 - 1)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _hash_ids(flow_ids: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic pseudo-random value in [0, 1) per flow id."""
    ids = flow_ids.astype(np.uint64)
    with np.errstate(over="ignore"):
        # Unsigned 64-bit wrap-around is intentional (splitmix64-style mixing).
        mixed = (ids + np.uint64(seed) * np.uint64(0x632BE59BD9B4E019)) * _HASH_MULTIPLIER
        mixed ^= mixed >> np.uint64(29)
        mixed *= np.uint64(0xBF58476D1CE4E5B9)
        mixed ^= mixed >> np.uint64(32)
    return (mixed % _HASH_MODULUS).astype(np.float64) / float(_HASH_MODULUS)


class HashFlowSampler(PacketSampler):
    """Keep every packet of a pseudo-randomly selected subset of flows.

    Parameters
    ----------
    rate:
        Fraction of flows to keep.
    seed:
        Seed of the flow hash; changing it selects a different subset.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        kwargs: dict[str, object] = {"rate": self.rate}
        if self.seed:
            kwargs["seed"] = self.seed
        self.spec = format_spec("flow-hash", kwargs)
        self.name = self.spec

    @property
    def effective_rate(self) -> float:
        """Expected fraction of flows (and, on average, packets) kept."""
        return self.rate

    def sample_mask(self, batch: PacketBatch) -> np.ndarray:
        """Keep-mask for a batch, keyed on the batch's integer flow ids.

        Parameters
        ----------
        batch:
            The packets to decide on.

        Returns
        -------
        numpy.ndarray
            Boolean keep-mask; all packets of a flow share one decision,
            which is a pure function of (flow id, seed) and therefore
            invariant to chunking and stream order.
        """
        return _hash_ids(batch.flow_ids, self.seed) < self.rate


__all__ = ["HashFlowSampler"]
