"""Tests for packet samplers (Bernoulli, periodic, hash-based flow sampling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows.packets import PacketBatch
from repro.pipeline import Pipeline
from repro.sampling import BernoulliSampler, HashFlowSampler, PeriodicSampler
from repro.sampling.base import PacketSampler


def make_batch(num_packets: int = 10_000, num_flows: int = 50) -> PacketBatch:
    rng = np.random.default_rng(0)
    timestamps = np.sort(rng.uniform(0, 100, num_packets))
    flow_ids = rng.integers(0, num_flows, num_packets)
    return PacketBatch(timestamps, flow_ids)


class TestSamplerInterface:
    def test_a_mask_and_a_rate_make_a_sampler(self, small_trace):
        class _EveryOther(PacketSampler):
            name = "every-other"

            def sample_mask(self, batch) -> np.ndarray:
                return np.arange(len(batch)) % 2 == 0

            @property
            def effective_rate(self) -> float:
                return 0.5

        result = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(_EveryOther())
            .with_runs(2)
            .with_seed(0)
            .run(parallel="serial")
        )
        assert result.labels == ["every-other"]
        assert result.samplers[0].effective_rate == 0.5  # reprolint: disable=float-eq -- returned literal


class TestBernoulliSampler:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BernoulliSampler(0.0)
        with pytest.raises(ValueError):
            BernoulliSampler(1.5)

    def test_effective_rate(self):
        assert BernoulliSampler(0.05).effective_rate == 0.05  # reprolint: disable=float-eq -- stored literal round-trips exactly

    def test_mask_fraction_close_to_rate(self):
        sampler = BernoulliSampler(0.1, rng=3)
        batch = make_batch(50_000)
        mask = sampler.sample_mask(batch)
        assert mask.mean() == pytest.approx(0.1, abs=0.01)

    def test_rate_one_keeps_everything(self):
        sampler = BernoulliSampler(1.0, rng=3)
        batch = make_batch(1_000)
        assert sampler.sample_mask(batch).all()

    def test_reproducible_with_seed(self):
        batch = make_batch(1_000)
        mask_a = BernoulliSampler(0.2, rng=42).sample_mask(batch)
        mask_b = BernoulliSampler(0.2, rng=42).sample_mask(batch)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_sample_batch_returns_subset(self):
        sampler = BernoulliSampler(0.3, rng=1)
        batch = make_batch(5_000)
        sampled = sampler.sample_batch(batch)
        assert 0 < len(sampled) < len(batch)


class TestPeriodicSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PeriodicSampler(period=0)
        with pytest.raises(ValueError):
            PeriodicSampler(period=4, phase=4)

    def test_from_rate(self):
        sampler = PeriodicSampler.from_rate(0.01)
        assert sampler.period == 100
        assert sampler.effective_rate == pytest.approx(0.01)

    def test_exactly_one_in_n(self):
        sampler = PeriodicSampler(period=10)
        batch = make_batch(1_000)
        mask = sampler.sample_mask(batch)
        assert mask.sum() == 100

    def test_counter_persists_across_batches(self):
        sampler = PeriodicSampler(period=7)
        first = sampler.sample_mask(make_batch(10))
        second = sampler.sample_mask(make_batch(11))
        combined = np.concatenate([first, second])
        assert combined.sum() == 3  # 21 packets -> positions 0, 7, 14

    def test_reset_restarts_counter(self):
        sampler = PeriodicSampler(period=5)
        sampler.sample_mask(make_batch(3))
        sampler.reset()
        mask = sampler.sample_mask(make_batch(5))
        assert mask[0]

    def test_phase_carries_across_batches(self):
        sampler = PeriodicSampler(period=4, phase=1)
        decisions = np.concatenate(
            [sampler.sample_mask(make_batch(3)), sampler.sample_mask(make_batch(5))]
        )
        assert decisions.tolist() == [False, True, False, False, False, True, False, False]


class TestHashFlowSampler:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            HashFlowSampler(0.0)

    def test_all_or_nothing_per_flow(self):
        sampler = HashFlowSampler(0.5, seed=1)
        batch = make_batch(20_000, num_flows=200)
        mask = sampler.sample_mask(batch)
        for flow_id in np.unique(batch.flow_ids):
            flow_mask = mask[batch.flow_ids == flow_id]
            assert flow_mask.all() or not flow_mask.any()

    def test_fraction_of_flows_close_to_rate(self):
        sampler = HashFlowSampler(0.3, seed=2)
        batch = make_batch(50_000, num_flows=2_000)
        mask = sampler.sample_mask(batch)
        kept_flows = np.unique(batch.flow_ids[mask]).size
        assert kept_flows / 2_000 == pytest.approx(0.3, abs=0.05)

    def test_deterministic_for_fixed_seed(self):
        batch = make_batch(1_000, num_flows=30)
        mask_a = HashFlowSampler(0.5, seed=9).sample_mask(batch)
        mask_b = HashFlowSampler(0.5, seed=9).sample_mask(batch)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_different_seeds_select_different_flows(self):
        batch = make_batch(5_000, num_flows=500)
        mask_a = HashFlowSampler(0.5, seed=1).sample_mask(batch)
        mask_b = HashFlowSampler(0.5, seed=2).sample_mask(batch)
        assert not np.array_equal(mask_a, mask_b)

    def test_flow_sampling_preserves_flow_sizes(self):
        """Kept flows keep their exact size — the property packet sampling lacks."""
        sampler = HashFlowSampler(0.5, seed=4)
        batch = make_batch(10_000, num_flows=100)
        sampled = sampler.sample_batch(batch)
        original_counts = batch.flow_packet_counts()
        for flow_id, count in sampled.flow_packet_counts().items():
            assert count == original_counts[flow_id]


class TestSampleAndHoldSampler:
    def _sampler(self, rate=0.01, seed=0):
        from repro.sampling import SampleAndHoldSampler

        return SampleAndHoldSampler(rate, rng=np.random.default_rng(seed))

    def test_rejects_bad_rate(self):
        from repro.sampling import SampleAndHoldSampler

        with pytest.raises(ValueError):
            SampleAndHoldSampler(0.0)
        with pytest.raises(ValueError):
            SampleAndHoldSampler(1.5)

    def test_rate_one_keeps_everything(self):
        sampler = self._sampler(rate=1.0)
        batch = make_batch(2_000, num_flows=40)
        assert sampler.sample_mask(batch).all()

    def test_holds_every_packet_after_admission(self):
        """Once a flow is tracked, all its later packets are kept."""
        sampler = self._sampler(rate=0.05, seed=3)
        batch = make_batch(20_000, num_flows=100)
        mask = sampler.sample_mask(batch)
        for flow_id in np.unique(batch.flow_ids):
            flow_mask = mask[batch.flow_ids == flow_id]
            kept = np.flatnonzero(flow_mask)
            if kept.size:
                # Contiguous tail: nothing is dropped after the first keep.
                assert flow_mask[kept[0]:].all()

    def test_mask_is_chunk_size_invariant(self):
        """Same decisions whether the stream arrives whole or in pieces."""
        batch = make_batch(15_000, num_flows=150)
        whole = self._sampler(rate=0.01, seed=7).sample_mask(batch)
        chunked_sampler = self._sampler(rate=0.01, seed=7)
        pieces = [
            chunked_sampler.sample_mask(batch.select(np.arange(len(batch)) // 997 == i))
            for i in range((len(batch) + 996) // 997)
        ]
        np.testing.assert_array_equal(whole, np.concatenate(pieces))

    def test_matches_per_packet_reference(self):
        """The vectorised mask equals naive one-packet-at-a-time processing."""
        batch = make_batch(5_000, num_flows=60)
        mask = self._sampler(rate=0.02, seed=5).sample_mask(batch)
        rng = np.random.default_rng(5)
        tracked: set[int] = set()
        reference = []
        for flow_id in batch.flow_ids:
            draw = rng.random()
            if int(flow_id) in tracked:
                reference.append(True)
            elif draw < 0.02:
                tracked.add(int(flow_id))
                reference.append(True)
            else:
                reference.append(False)
        np.testing.assert_array_equal(mask, np.asarray(reference))

    def test_reset_forgets_tracked_flows(self):
        sampler = self._sampler(rate=1.0)
        batch = make_batch(100, num_flows=5)
        sampler.sample_mask(batch)
        assert sampler.tracked_flows > 0
        sampler.reset()
        assert sampler.tracked_flows == 0

    def test_spawn_gives_independent_clean_clone(self):
        sampler = self._sampler(rate=0.5, seed=1)
        batch = make_batch(1_000, num_flows=20)
        sampler.sample_mask(batch)
        clone = sampler.spawn(np.random.default_rng(2))
        assert clone.tracked_flows == 0
        assert sampler.tracked_flows > 0

    def test_effective_rate_is_admission_probability(self):
        assert self._sampler(rate=0.25).effective_rate == 0.25  # reprolint: disable=float-eq -- stored literal round-trips exactly
