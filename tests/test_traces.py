"""Tests for flow-level traces, synthetic generators, expansion and IO."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.keys import five_tuple_of

from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from repro.traces import (
    FlowLevelTrace,
    SyntheticTraceGenerator,
    abilene_like_config,
    expand_to_packets,
    expected_link_utilisation_bps,
    iter_expanded_chunks,
    read_flow_trace_csv,
    sprint_like_config,
    summarize_trace,
    write_flow_trace_csv,
)
from repro.traces.stats import aggregate_sizes


def tiny_trace() -> FlowLevelTrace:
    return FlowLevelTrace(
        start_times=[0.0, 1.0, 2.0],
        durations=[10.0, 0.0, 5.0],
        sizes_packets=[20, 1, 5],
        src_ips=[0x01010101, 0x02020202, 0x03030303],
        dst_ips=[0x0A000001, 0x0A000002, 0x0A000102],
        src_ports=[1000, 2000, 3000],
        dst_ports=[80, 80, 443],
        protocols=[6, 6, 17],
    )


class TestFlowLevelTrace:
    def test_basic_properties(self):
        trace = tiny_trace()
        assert trace.num_flows == 3
        assert trace.total_packets == 26
        assert trace.mean_flow_size == pytest.approx(26 / 3)
        assert trace.duration == pytest.approx(10.0)

    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            FlowLevelTrace(
                start_times=[0.0],
                durations=[1.0, 2.0],
                sizes_packets=[1],
                src_ips=[1],
                dst_ips=[1],
                src_ports=[1],
                dst_ports=[1],
                protocols=[6],
            )

    @pytest.mark.parametrize("column", ["start_times", "durations"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, column, bad):
        times = {"start_times": [0.0, 1.0], "durations": [1.0, 2.0]}
        times[column][1] = bad
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            FlowLevelTrace(
                **times,
                sizes_packets=[1, 2],
                src_ips=[1, 2],
                dst_ips=[1, 2],
                src_ports=[1, 2],
                dst_ports=[1, 2],
                protocols=[6, 6],
            )

    def test_rejects_zero_size_flows(self):
        with pytest.raises(ValueError):
            FlowLevelTrace(
                start_times=[0.0],
                durations=[1.0],
                sizes_packets=[0],
                src_ips=[1],
                dst_ips=[1],
                src_ports=[1],
                dst_ports=[1],
                protocols=[6],
            )

    def test_group_ids_five_tuple_are_distinct(self):
        trace = tiny_trace()
        groups = trace.group_ids(FiveTupleKeyPolicy())
        assert np.unique(groups).size == 3

    def test_group_ids_prefix_aggregate(self):
        trace = tiny_trace()
        groups = trace.group_ids(DestinationPrefixKeyPolicy(24))
        # Flows 0 and 1 share 10.0.0.0/24; flow 2 is in 10.0.1.0/24.
        assert groups[0] == groups[1]
        assert groups[0] != groups[2]

    def test_select_and_time_window(self):
        trace = tiny_trace()
        window = trace.time_window(0.5, 2.5)
        assert window.num_flows == 2

    def test_five_tuple_view(self):
        trace = tiny_trace()
        ft = five_tuple_of(trace, 0)
        assert ft.dst_port == 80


class TestSyntheticGenerators:
    def test_sprint_like_flow_count_matches_rate(self):
        config = sprint_like_config(scale=0.01, duration=300.0)
        trace = SyntheticTraceGenerator(config).generate(rng=0)
        assert trace.num_flows == pytest.approx(config.expected_flows, rel=0.1)

    def test_sprint_like_mean_size_close_to_paper_value(self):
        config = sprint_like_config(scale=0.02, duration=600.0)
        trace = SyntheticTraceGenerator(config).generate(rng=1)
        # 4.8 KB / 500 B = 9.6 packets on average.
        assert trace.mean_flow_size == pytest.approx(9.6, rel=0.35)

    def test_prefix_aggregation_reduces_flow_count(self):
        config = sprint_like_config(scale=0.02, duration=300.0)
        trace = SyntheticTraceGenerator(config).generate(rng=2)
        five_tuple_flows = np.unique(trace.group_ids(FiveTupleKeyPolicy())).size
        prefix_flows = np.unique(trace.group_ids(DestinationPrefixKeyPolicy(24))).size
        assert prefix_flows < five_tuple_flows

    def test_abilene_has_more_flows_and_shorter_tail(self):
        sprint = SyntheticTraceGenerator(sprint_like_config(scale=0.01, duration=300.0)).generate(rng=3)
        abilene = SyntheticTraceGenerator(abilene_like_config(scale=0.01, duration=300.0)).generate(rng=3)
        assert abilene.num_flows > sprint.num_flows
        assert abilene.sizes_packets.max() < sprint.sizes_packets.max()

    def test_reproducible_with_seed(self):
        config = sprint_like_config(scale=0.005, duration=100.0)
        a = SyntheticTraceGenerator(config).generate(rng=5)
        b = SyntheticTraceGenerator(config).generate(rng=5)
        np.testing.assert_array_equal(a.sizes_packets, b.sizes_packets)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sprint_like_config(scale=0.0)
        config = sprint_like_config()
        assert config.expected_flows == pytest.approx(2360.0 * 1800.0)


class TestExpansion:
    def test_packet_count_matches_flow_sizes(self, rng):
        trace = tiny_trace()
        batch = expand_to_packets(trace, rng=rng)
        assert len(batch) == trace.total_packets

    def test_packets_within_flow_lifetimes(self, rng):
        trace = tiny_trace()
        batch = expand_to_packets(trace, rng=rng)
        for flow_index in range(trace.num_flows):
            mask = batch.flow_ids == flow_index
            times = batch.timestamps[mask]
            start = trace.start_times[flow_index]
            end = start + trace.durations[flow_index]
            assert times.min() >= start
            assert times.max() <= end + 1e-9

    def test_timestamps_sorted(self, rng):
        batch = expand_to_packets(tiny_trace(), rng=rng)
        assert np.all(np.diff(batch.timestamps) >= 0)

    def test_clip_to_duration_truncates(self, rng):
        trace = tiny_trace()
        batch = expand_to_packets(trace, rng=rng, clip_to_duration=1.5)
        assert batch.timestamps.max() < 1.5
        assert len(batch) < trace.total_packets

    @pytest.mark.parametrize("clip", [None, 4.0])
    def test_rows_out_of_start_order_draw_in_start_order(self, clip):
        # Placements are drawn in flow start order, as every pipeline
        # draws them: reversing the rows renames the flow ids and moves
        # no packet.
        forward = tiny_trace()
        rows = np.arange(forward.num_flows)[::-1]
        backward = FlowLevelTrace(
            start_times=forward.start_times[rows],
            durations=forward.durations[rows],
            sizes_packets=forward.sizes_packets[rows],
            src_ips=forward.src_ips[rows],
            dst_ips=forward.dst_ips[rows],
            src_ports=forward.src_ports[rows],
            dst_ports=forward.dst_ports[rows],
            protocols=forward.protocols[rows],
        )
        a = expand_to_packets(forward, rng=3, clip_to_duration=clip)
        b = expand_to_packets(backward, rng=3, clip_to_duration=clip)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(rows[a.flow_ids], b.flow_ids)
        (streamed,) = iter_expanded_chunks(
            backward, np.random.default_rng(3), chunk_packets=None, clip_to_duration=clip
        )
        for column in ("timestamps", "flow_ids"):
            np.testing.assert_array_equal(getattr(b, column), getattr(streamed, column))

    def test_utilisation_estimate_positive(self):
        trace = tiny_trace()
        assert expected_link_utilisation_bps(trace) > 0
        # Every packet counts at the paper's 500 bytes.
        assert expected_link_utilisation_bps(trace) == pytest.approx(
            trace.total_packets * 500 * 8 / trace.duration
        )

    def test_a_packet_size_argument_is_rejected(self):
        # Packets carry no size: a size passed where it used to go fails
        # instead of clipping the expansion at 500 s.
        with pytest.raises(TypeError):
            expand_to_packets(tiny_trace(), 3, 500)


class TestTraceIO:
    def test_roundtrip(self, tmp_path, rng):
        trace = SyntheticTraceGenerator(sprint_like_config(scale=0.002, duration=60.0)).generate(rng=4)
        path = tmp_path / "trace.csv"
        write_flow_trace_csv(trace, path)
        loaded = read_flow_trace_csv(path)
        assert loaded.num_flows == trace.num_flows
        np.testing.assert_array_equal(loaded.sizes_packets, trace.sizes_packets)
        np.testing.assert_allclose(loaded.start_times, trace.start_times, atol=1e-5)
        np.testing.assert_array_equal(loaded.dst_ips, trace.dst_ips)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(ValueError):
            read_flow_trace_csv(path)

    @pytest.mark.parametrize("fields", [7, 9])
    def test_read_rejects_a_row_of_the_wrong_length(self, tmp_path, fields):
        good = "0.0,1.0,3,10.0.0.1,10.0.0.2,1000,80,6"
        row = ",".join((good.split(",") + ["17"])[:fields])
        path = tmp_path / "rows.csv"
        path.write_text(
            "start_time,duration,packets,src_ip,dst_ip,src_port,dst_port,protocol\n"
            f"{good}\n{row}\n"
        )
        match = rf"rows\.csv, line 3: expected 8 fields .*got {fields}"
        with pytest.raises(ValueError, match=match):
            read_flow_trace_csv(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "start_time,duration,packets,src_ip,dst_ip,src_port,dst_port,protocol\n"
        )
        with pytest.raises(ValueError):
            read_flow_trace_csv(path)


class TestTraceStats:
    def test_summary_fields(self, small_trace):
        summary = summarize_trace(small_trace, FiveTupleKeyPolicy(), intervals=(60.0,))
        assert summary.num_flows == small_trace.num_flows
        assert summary.mean_flow_size_packets > 1.0
        # Bytes are packets at the paper's 500-byte packet size.
        assert summary.mean_flow_size_bytes == pytest.approx(500 * summary.mean_flow_size_packets)
        assert 60.0 in summary.mean_flows_per_interval

    def test_prefix_summary_has_fewer_larger_flows(self, small_trace):
        five_tuple = summarize_trace(small_trace, FiveTupleKeyPolicy(), intervals=(60.0,))
        prefix = summarize_trace(small_trace, DestinationPrefixKeyPolicy(24), intervals=(60.0,))
        assert prefix.num_flows < five_tuple.num_flows
        assert prefix.mean_flow_size_packets > five_tuple.mean_flow_size_packets

    def test_aggregate_sizes_conserve_packets(self, small_trace):
        sizes = aggregate_sizes(small_trace, DestinationPrefixKeyPolicy(24))
        assert sizes.sum() == small_trace.total_packets

    def test_summary_rejects_bad_interval(self, small_trace):
        with pytest.raises(ValueError):
            summarize_trace(small_trace, FiveTupleKeyPolicy(), intervals=(0.0,))
