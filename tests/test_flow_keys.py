"""Tests for flow keys, prefix aggregation and key policies.

A key policy's one method is ``group_ids``; the object view of a key
(``FiveTuple``, ``prefix_of``, ``key_of``) is the reference monitor's,
in ``tests/oracles/keys.py``, and is tested here beside the policies.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.keys import FiveTuple, key_of, prefix_of, trace_of

from repro.flows.keys import (
    DestinationPrefixKeyPolicy,
    FiveTupleKeyPolicy,
    FlowKeyPolicy,
    int_to_ip,
    ip_to_int,
)
from repro.pipeline import Pipeline
from repro.registry import KEY_POLICIES, TRACES


class TestAddressConversion:
    def test_roundtrip(self):
        for address in ("0.0.0.0", "10.0.0.1", "192.168.255.4", "255.255.255.255"):
            assert int_to_ip(ip_to_int(address)) == address

    def test_known_value(self):
        assert ip_to_int("1.2.3.4") == (1 << 24) + (2 << 16) + (3 << 8) + 4

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.300")
        with pytest.raises(ValueError):
            int_to_ip(-1)


class TestPrefix:
    def test_prefix_24(self):
        assert int_to_ip(prefix_of(ip_to_int("192.168.17.33"), 24)) == "192.168.17.0"

    def test_prefix_16(self):
        assert int_to_ip(prefix_of(ip_to_int("192.168.17.33"), 16)) == "192.168.0.0"

    def test_prefix_0_and_32(self):
        addr = ip_to_int("10.1.2.3")
        assert prefix_of(addr, 0) == 0
        assert prefix_of(addr, 32) == addr

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            prefix_of(0, 33)


class TestFiveTuple:
    def test_from_strings(self, sample_five_tuple):
        assert int_to_ip(sample_five_tuple.src_ip) == "192.168.1.10"
        assert sample_five_tuple.dst_port == 443

    def test_is_hashable_and_comparable(self, sample_five_tuple):
        clone = FiveTuple.from_strings("192.168.1.10", "10.20.30.40", 40000, 443)
        assert clone == sample_five_tuple
        assert hash(clone) == hash(sample_five_tuple)
        assert len({clone, sample_five_tuple}) == 1

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError):
            FiveTuple(src_ip=-1, dst_ip=0, src_port=0, dst_port=0)
        with pytest.raises(ValueError):
            FiveTuple(src_ip=0, dst_ip=0, src_port=70000, dst_port=0)

    def test_destination_prefix(self, sample_five_tuple):
        assert int_to_ip(sample_five_tuple.destination_prefix(24)) == "10.20.30.0"

    def test_reversed(self, sample_five_tuple):
        reverse = sample_five_tuple.reversed()
        assert reverse.src_ip == sample_five_tuple.dst_ip
        assert reverse.dst_port == sample_five_tuple.src_port
        assert reverse.reversed() == sample_five_tuple

    def test_str_contains_addresses(self, sample_five_tuple):
        text = str(sample_five_tuple)
        assert "192.168.1.10" in text and "443" in text


class TestKeyPolicies:
    def test_five_tuple_policy_identity(self, sample_five_tuple):
        policy = FiveTupleKeyPolicy()
        assert key_of(policy, sample_five_tuple) == sample_five_tuple

    def test_prefix_policy_aggregates(self):
        policy = DestinationPrefixKeyPolicy(24)
        a = FiveTuple.from_strings("1.1.1.1", "10.20.30.40", 1, 80)
        b = FiveTuple.from_strings("2.2.2.2", "10.20.30.99", 2, 443)
        c = FiveTuple.from_strings("3.3.3.3", "10.20.31.99", 3, 443)
        assert key_of(policy, a) == key_of(policy, b)
        assert key_of(policy, a) != key_of(policy, c)

    def test_prefix_policy_name(self):
        assert DestinationPrefixKeyPolicy(24).name == "/24 destination prefix"

    def test_prefix_policy_rejects_bad_length(self):
        with pytest.raises(ValueError):
            DestinationPrefixKeyPolicy(40)
        # A fraction is no longer rounded down to /24.
        with pytest.raises(TypeError, match="prefix_length must be an integer"):
            DestinationPrefixKeyPolicy(24.5)
        with pytest.raises(TypeError, match="prefix_length must be an integer"):
            KEY_POLICIES.create("prefix", prefix_length=24.9)
        assert DestinationPrefixKeyPolicy(np.int64(16)).prefix_length == 16

    def test_prefix_group_ids_mask_the_prefix(self):
        """The group id is the prefix's significant bits, so ids order like prefixes."""
        five_tuples = [
            FiveTuple.from_strings("1.1.1.1", "192.168.17.1", 1, 1),
            FiveTuple.from_strings("2.2.2.2", "192.168.17.254", 2, 2),
            FiveTuple.from_strings("3.3.3.3", "192.168.18.1", 3, 3),
            FiveTuple.from_strings("4.4.4.4", "255.255.255.255", 4, 4),
        ]
        trace = trace_of(five_tuples)
        for length in (0, 1, 8, 23, 24, 25, 31, 32):
            groups = DestinationPrefixKeyPolicy(length).group_ids(trace)
            assert groups.dtype == np.int64
            expected = [key_of(DestinationPrefixKeyPolicy(length), ft) for ft in five_tuples]
            assert groups.tolist() == [key >> (32 - length) for key in expected]
        assert DestinationPrefixKeyPolicy(24).group_ids(trace).tolist() == [
            0xC0A811,
            0xC0A811,
            0xC0A812,
            0xFFFFFF,
        ]

    def test_five_tuple_group_ids_are_record_indices(self):
        """Each flow record is its own group, even one repeating a 5-tuple."""
        five_tuple = FiveTuple.from_strings("1.1.1.1", "10.0.0.1", 1, 80)
        other = FiveTuple.from_strings("2.2.2.2", "10.0.0.1", 2, 80)
        trace = trace_of([five_tuple, five_tuple, other])
        groups = FiveTupleKeyPolicy().group_ids(trace)
        assert groups.dtype == np.int64
        assert groups.tolist() == [0, 1, 2]
        assert trace.group_ids(FiveTupleKeyPolicy()).tolist() == [0, 1, 2]

    def test_group_ids_is_the_one_abstract_method(self):
        assert FlowKeyPolicy.__abstractmethods__ == frozenset({"group_ids"})


#: The traces perfbench and the benchmark harness run under the 5-tuple key.
BENCHMARK_TRACES = [
    ("sprint", 0.05, 900.0),
    ("sprint", 0.06, 600.0),
    ("sprint", 0.01, 600.0),
    ("abilene", 0.05, 900.0),
]


def _distinct_five_tuples(trace) -> int:
    packed = np.empty(
        trace.num_flows,
        dtype=[("src", "u4"), ("dst", "u4"), ("sport", "u2"), ("dport", "u2"), ("proto", "u1")],
    )
    packed["src"], packed["dst"] = trace.src_ips, trace.dst_ips
    packed["sport"], packed["dport"] = trace.src_ports, trace.dst_ports
    packed["proto"] = trace.protocols
    return int(np.unique(packed).size)


class TestFiveTupleSemantics:
    """The 5-tuple policy makes each flow record a flow; on the traces the
    benchmarks run, that is each distinct 5-tuple too."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name, scale, duration", BENCHMARK_TRACES)
    def test_benchmark_traces_have_one_record_per_five_tuple(self, name, scale, duration, seed):
        generator = TRACES.create(name, scale=scale, duration=duration)
        trace = generator.generate(rng=np.random.default_rng(seed))
        assert _distinct_five_tuples(trace) == trace.num_flows

    @pytest.mark.parametrize("name, scale, duration", BENCHMARK_TRACES)
    def test_pipeline_traces_have_one_record_per_five_tuple(self, name, scale, duration):
        """The source a seeded pipeline resolves (perfbench streams seed 0's)."""
        plan = (
            Pipeline()
            .with_trace(name, scale=scale, duration=duration)
            .with_sampler("bernoulli", rate=0.1)
            .with_seed(0)
            .plan()
        )
        assert _distinct_five_tuples(plan.source.trace) == plan.source.trace.num_flows


class SlashTwentyFour(FlowKeyPolicy):
    """A custom flow definition with nothing but ``group_ids``."""

    name = "/24 destination prefix"

    def group_ids(self, trace):
        return (trace.dst_ips // 256).astype(np.int64)


class TestCustomPolicy:
    @staticmethod
    def _run(key):
        return (
            Pipeline()
            .with_trace("sprint", scale=0.002, duration=120.0)
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(2)
            .with_key_policy(key)
            .with_seed(4)
            .run(parallel="serial")
            .to_dict()
        )

    def test_runs_as_an_object_and_as_a_registered_name(self, monkeypatch):
        monkeypatch.setattr(KEY_POLICIES, "_factories", dict(KEY_POLICIES._factories))
        monkeypatch.setattr(KEY_POLICIES, "_takes_rng", dict(KEY_POLICIES._takes_rng))
        KEY_POLICIES.register("slash-24", SlashTwentyFour)
        expected = self._run("prefix")
        assert self._run(SlashTwentyFour()) == expected
        assert self._run("slash-24") == expected
