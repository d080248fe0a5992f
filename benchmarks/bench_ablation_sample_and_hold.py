"""Ablation — plain packet sampling vs sample-and-hold for top-t detection.

The paper's future work asks how packet sampling interacts with the
memory-bounded heavy-hitter mechanisms of Estan & Varghese.  This
ablation compares, at the same nominal sampling rate, how many of the
true top-t flows are recovered by (a) ranking the packet-sampled counts
and (b) sample-and-hold, which counts every packet of a flow once the
flow has been sampled.  Sample-and-hold should recover noticeably more.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import top_set_overlap
from repro.sampling import BernoulliSampler, SampleAndHoldSampler
from repro.traces import SyntheticTraceGenerator, expand_to_packets, sprint_like_config

RATE = 0.02
TOP_T = 10


def test_ablation_sample_and_hold(run_once):
    config = sprint_like_config(scale=0.004, duration=300.0)
    trace = SyntheticTraceGenerator(config).generate(rng=111)
    batch = expand_to_packets(trace, rng=112)
    original_counts = np.bincount(batch.flow_ids, minlength=trace.num_flows)

    def evaluate() -> dict[str, float]:
        # (a) plain packet sampling: rank flows by sampled packet count.
        sampler = BernoulliSampler(RATE, rng=113)
        mask = sampler.sample_mask(batch)
        sampled_counts = np.bincount(batch.flow_ids[mask], minlength=trace.num_flows)
        packet_sampling_overlap = top_set_overlap(original_counts, sampled_counts, TOP_T)

        # (b) sample-and-hold at the same admission rate: rank flows by
        # the packets counted from their admission on.
        hold = SampleAndHoldSampler(RATE, rng=114)
        held_counts = np.bincount(
            batch.flow_ids[hold.sample_mask(batch)], minlength=trace.num_flows
        )
        hold_overlap = top_set_overlap(original_counts, held_counts, TOP_T)
        return {"packet-sampling": packet_sampling_overlap, "sample-and-hold": hold_overlap}

    overlaps = run_once(evaluate)
    print()
    print(f"ablation: top-{TOP_T} set overlap at a {RATE:.0%} sampling rate")
    for name, value in overlaps.items():
        print(f"  {name:>16}: {value:.2f}")

    assert overlaps["sample-and-hold"] >= overlaps["packet-sampling"]
    assert overlaps["sample-and-hold"] >= 0.8
