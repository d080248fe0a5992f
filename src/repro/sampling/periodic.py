"""Periodic (deterministic 1-in-N) packet sampling.

Routers commonly implement sampling by keeping one packet every ``N``
(e.g. Sampled NetFlow).  The paper argues, citing Duffield et al., that
periodic and random sampling behave almost identically on high-speed
links because the traffic mixes many independent flows; the periodic
sampler is provided so that claim can be checked empirically with the
simulation harness.
"""

from __future__ import annotations

import numpy as np

from ..flows.packets import PacketBatch
from ..spec import format_spec
from .base import PacketSampler


class PeriodicSampler(PacketSampler):
    """Keep one packet every ``period`` packets.

    Parameters
    ----------
    period:
        Sampling period ``N``; the effective sampling rate is ``1/N``.
    phase:
        Index (in ``[0, period)``) of the packet kept within each period.
        Randomising the phase across runs removes synchronisation
        artefacts.
    """

    def __init__(self, period: int, phase: int = 0) -> None:
        if period < 1:
            raise ValueError(f"period must be at least 1, got {period}")
        if not 0 <= phase < period:
            raise ValueError(f"phase must be in [0, period), got {phase}")
        self.period = int(period)
        self.phase = int(phase)
        self._counter = 0
        kwargs: dict[str, object] = {"period": self.period}
        if self.phase:
            kwargs["phase"] = self.phase
        self.spec = format_spec("periodic", kwargs)
        self.name = self.spec

    @classmethod
    def from_rate(cls, rate: float, phase: int = 0) -> "PeriodicSampler":
        """Build a periodic sampler approximating a target sampling rate."""
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        period = max(1, int(round(1.0 / rate)))
        return cls(period=period, phase=phase % period)

    @property
    def effective_rate(self) -> float:
        """Long-run fraction of packets kept: ``1 / period``."""
        return 1.0 / self.period

    def sample_mask(self, batch: PacketBatch) -> np.ndarray:
        """Keep-mask for a batch, continuing the period across batches.

        Parameters
        ----------
        batch:
            The packets to decide on, in stream order.

        Returns
        -------
        numpy.ndarray
            Boolean keep-mask with one entry per packet.  The internal
            counter advances by the batch length, so concatenated
            batches see exactly the 1-in-N pattern of the whole stream.
        """
        indices = self._counter + np.arange(len(batch), dtype=np.int64)
        self._counter += len(batch)
        return (indices % self.period) == self.phase

    def reset(self) -> None:
        """Rewind the period counter to the start of the stream."""
        self._counter = 0


__all__ = ["PeriodicSampler"]
