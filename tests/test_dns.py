"""DNS records, caches, traces, resolvers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.records import ClientCache, DNSRecord, RecursiveResolver
from repro.dns.resolvers import ResolverAssignment, ResolverConfig
from repro.dns.trace import (
    CLOUD_PROFILES,
    bytes_yet_to_be_sent_curve,
    extant_vs_cached_ratio,
    generate_trace,
    stale_traffic_fraction,
)


class TestRecords:
    def test_validity_window(self):
        record = DNSRecord(hostname="x", address="1.2.3.4", ttl_s=60, issued_at_s=100)
        assert record.expires_at_s == 160
        assert not record.is_valid_at(99)
        assert record.is_valid_at(100)
        assert record.is_valid_at(159.9)
        assert not record.is_valid_at(160)

    def test_positive_ttl_required(self):
        with pytest.raises(ValueError):
            DNSRecord(hostname="x", address="1.2.3.4", ttl_s=0, issued_at_s=0)


class TestClientCache:
    def test_respecting_cache_expires(self):
        cache = ClientCache(respect_ttl=True)
        cache.insert(DNSRecord(hostname="x", address="1.2.3.4", ttl_s=60, issued_at_s=0))
        assert cache.lookup("x", 30) is not None
        assert cache.lookup("x", 61) is None

    def test_violating_cache_returns_stale(self):
        cache = ClientCache(respect_ttl=False)
        cache.insert(DNSRecord(hostname="x", address="1.2.3.4", ttl_s=60, issued_at_s=0))
        assert cache.lookup("x", 3600) is not None

    def test_lookup_before_issue_is_none(self):
        cache = ClientCache(respect_ttl=False)
        cache.insert(DNSRecord(hostname="x", address="1.2.3.4", ttl_s=60, issued_at_s=50))
        assert cache.lookup("x", 10) is None

class TestTrace:
    def test_curve_monotone_decreasing(self):
        flows = generate_trace(CLOUD_PROFILES[0], n_flows=1500, seed=2)
        offsets = [-60, 0, 60, 300, 3600]
        curve = bytes_yet_to_be_sent_curve(flows, offsets)
        fractions = [fraction for _o, fraction in curve]
        assert fractions == sorted(fractions, reverse=True)
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions)

    def test_cloud_a_mostly_stale_at_five_minutes(self):
        flows = generate_trace(CLOUD_PROFILES[0], n_flows=3000, seed=1)
        assert stale_traffic_fraction(flows, 300.0) > 0.6

    def test_other_clouds_less_stale(self):
        a = stale_traffic_fraction(generate_trace(CLOUD_PROFILES[0], 3000, seed=1), 300)
        b = stale_traffic_fraction(generate_trace(CLOUD_PROFILES[1], 3000, seed=1), 300)
        c = stale_traffic_fraction(generate_trace(CLOUD_PROFILES[2], 3000, seed=1), 300)
        assert a > b and a > c

    def test_extant_cached_ratio_near_two_for_cloud_a(self):
        flows = generate_trace(CLOUD_PROFILES[0], n_flows=4000, seed=1)
        assert 1.2 <= extant_vs_cached_ratio(flows) <= 3.5

    def test_flow_bytes_after(self):
        from repro.dns.trace import TraceFlow

        record = DNSRecord(hostname="x", address="1.2.3.4", ttl_s=60, issued_at_s=0)
        flow = TraceFlow(cloud="c", record=record, start_s=30, duration_s=90, bytes_total=900)
        # Record expires at 60; flow runs 30..120 at 10 bytes/s.
        assert flow.bytes_after(0) == pytest.approx(600)
        assert flow.bytes_after(-100) == pytest.approx(900)
        assert flow.bytes_after(1000) == 0.0

    def test_trace_deterministic(self):
        a = generate_trace(CLOUD_PROFILES[1], 200, seed=5)
        b = generate_trace(CLOUD_PROFILES[1], 200, seed=5)
        assert [(f.start_s, f.bytes_total) for f in a] == [
            (f.start_s, f.bytes_total) for f in b
        ]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(CLOUD_PROFILES[0], n_flows=0)

    @given(st.floats(min_value=-600, max_value=7200, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_fraction_always_valid(self, offset):
        flows = generate_trace(CLOUD_PROFILES[2], 300, seed=9)
        fraction = stale_traffic_fraction(flows, offset)
        assert 0.0 <= fraction <= 1.0


class TestResolvers:
    def test_every_ug_assigned(self, scenario):
        assignment = ResolverAssignment(scenario, ResolverConfig(seed=1))
        for ug in scenario.user_groups:
            resolver = assignment.resolver_for(ug)
            assert resolver.serves(ug.ug_id)

    def test_partition(self, scenario):
        assignment = ResolverAssignment(scenario, ResolverConfig(seed=1))
        seen = []
        for resolver in assignment.resolvers:
            seen.extend(resolver.ug_ids)
        assert sorted(seen) == sorted(ug.ug_id for ug in scenario.user_groups)

    def test_ecs_resolver_present(self, scenario):
        assignment = ResolverAssignment(scenario, ResolverConfig(seed=1))
        ecs = [r for r in assignment.resolvers if r.supports_ecs]
        assert len(ecs) == 1
        assert ecs[0].population > 0

    def test_volume_accounting(self, scenario):
        assignment = ResolverAssignment(scenario, ResolverConfig(seed=1))
        volumes = {ug.ug_id: ug.volume for ug in scenario.user_groups}
        total = sum(volumes[u] for r in assignment.resolvers for u in r.ug_ids)
        assert total == pytest.approx(sum(ug.volume for ug in scenario.user_groups))

    def test_deterministic(self, scenario):
        a = ResolverAssignment(scenario, ResolverConfig(seed=4))
        b = ResolverAssignment(scenario, ResolverConfig(seed=4))
        for ug in scenario.user_groups:
            assert a.resolver_for(ug).name == b.resolver_for(ug).name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResolverConfig(public_resolver_fraction=2.0)
        with pytest.raises(ValueError):
            ResolverConfig(disparate_assignment_prob=-0.1)
