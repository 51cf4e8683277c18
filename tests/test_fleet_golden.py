"""Golden regressions for the fleet layer.

Three pins:

- **Delegation byte-identity** — a single-region fleet under inert
  policies replays byte-identical to the bare
  :class:`~repro.serving.cluster.ClusterSimulator`: every latency,
  queue wait, counter, fault dictionary and trace record, with
  fast-forward on and off, under fault plans and under a resilience
  policy.
- **General-path equivalence** — both non-delegated paths reproduce
  the cluster stepping arithmetic exactly: a single-region fleet forced
  off delegation equals ``ClusterSimulator(fast_forward=False)`` on the
  per-region static replay (``fast_forward=True``) and on the
  per-arrival loop (``fast_forward=False``).
- **Frontier report claims** — the checked-in
  ``benchmarks/fleet_frontier_report.json`` passes and shows the
  frontier shift (``tests/test_reports.py`` pins it byte-for-byte
  against a fresh regeneration; run ``scripts/make_reports.py`` after
  deliberate changes).
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.fleet import (FleetConfig, FleetSimulator, FleetTrace,
                         RegionConfig, RoutingPolicy, merge_traces)
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import burst_trace, poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

_SERVER = InferenceServer("MI100")
_REPORT = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                       "fleet_frontier_report.json")


def _cluster_stats(trace, **cluster_kwargs):
    return ClusterSimulator(_SERVER, ClusterConfig(
        scheme=Scheme.PASK, max_instances=2, keep_alive_s=0.5,
        **cluster_kwargs)).run(trace)


def _fleet_stats(trace, fleet_kwargs=None, **region_kwargs):
    config = FleetConfig(
        regions=(RegionConfig("r0", device="MI100", scheme=Scheme.PASK,
                              max_instances=2, keep_alive_s=0.5,
                              **region_kwargs),),
        **(fleet_kwargs or {}))
    return FleetSimulator(config, servers={"MI100": _SERVER}).run(trace)


def _assert_region_equals_cluster(region, cluster):
    assert region.latencies == cluster.latencies
    assert region.queue_waits == cluster.queue_waits
    assert region.cold_starts == cluster.cold_starts
    assert region.warm_hits == cluster.warm_hits
    assert region.failed == cluster.failed
    assert region.faults.as_dict() == cluster.faults.as_dict()


class TestDelegationByteIdentity:
    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_plain_replay(self, fast_forward):
        trace = poisson_trace("res", 5.0, 10.0, seed=4)
        cluster = _cluster_stats(trace, fast_forward=fast_forward)
        fleet = _fleet_stats(trace,
                             fleet_kwargs={"fast_forward": fast_forward})
        assert fleet.delegated
        region = fleet.regions["r0"]
        _assert_region_equals_cluster(region, cluster)
        assert region.fast_forwarded == cluster.fast_forwarded
        if fast_forward:
            assert region.fast_forwarded > 0

    def test_under_fault_plan(self):
        plan = FaultPlan(seed=11, crash_rate=0.08)
        trace = poisson_trace("res", 6.0, 8.0, seed=5)
        cluster = _cluster_stats(trace, faults=plan)
        fleet = _fleet_stats(trace, faults=plan)
        assert fleet.delegated
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_under_resilience_policy(self):
        policy = ResiliencePolicy()
        plan = FaultPlan(seed=3, crash_rate=0.05)
        trace = poisson_trace("res", 6.0, 8.0, seed=6)
        cluster = _cluster_stats(trace, faults=plan, resilience=policy)
        fleet = _fleet_stats(trace, faults=plan,
                             fleet_kwargs={"resilience": policy})
        assert fleet.delegated
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_trace_records_identical(self):
        trace = poisson_trace("res", 5.0, 6.0, seed=7)
        cluster = _cluster_stats(trace, trace_retention="full")
        fleet = _fleet_stats(
            trace, fleet_kwargs={"trace_retention": "full"})
        assert fleet.delegated
        recorder = fleet.regions["r0"].trace
        assert recorder is not None
        assert list(recorder.records) == list(cluster.trace.records)

    @given(seed=st.integers(0, 300), rate=st.floats(0.5, 12.0),
           fast_forward=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_over_seeds(self, seed, rate, fast_forward):
        trace = poisson_trace("res", rate, 5.0, seed=seed)
        cluster = _cluster_stats(trace, fast_forward=fast_forward)
        fleet = _fleet_stats(trace,
                             fleet_kwargs={"fast_forward": fast_forward})
        assert fleet.delegated
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)


class TestGeneralPathEquivalence:
    def _general(self, fleet_trace, **region_kwargs):
        # Non-inert routing forces a non-delegated path even for one
        # region; fast_forward picks the per-region static replay (True)
        # or the per-arrival loop (False).  One replay per leg.
        legs = []
        for fast_forward in (True, False):
            stats = _fleet_stats(
                fleet_trace,
                fleet_kwargs={"routing": RoutingPolicy("round-robin"),
                              "fast_forward": fast_forward},
                **region_kwargs)
            assert not stats.delegated
            legs.append(stats)
        return legs

    def test_single_region_matches_slow_cluster(self):
        trace = poisson_trace("res", 6.0, 10.0, seed=8)
        cluster = _cluster_stats(trace, fast_forward=False)
        for fleet in self._general(FleetTrace.from_request_trace(trace)):
            _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_multi_tenant_merge_matches_slow_cluster(self):
        merged = merge_traces(
            [("a", poisson_trace("res", 3.0, 8.0, seed=9)),
             ("b", poisson_trace("res", 3.0, 8.0, seed=10))])
        cluster = _cluster_stats(merged.to_request_trace(),
                                 fast_forward=False)
        for fleet in self._general(merged):
            _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_under_fault_plan(self):
        plan = FaultPlan(seed=13, crash_rate=0.1)
        trace = poisson_trace("res", 6.0, 8.0, seed=11)
        cluster = _cluster_stats(trace, faults=plan, fast_forward=False)
        for fleet in self._general(FleetTrace.from_request_trace(trace),
                                   faults=plan):
            _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_simultaneous_burst_arrivals(self):
        trace = burst_trace("res", 16, spacing_s=0.0)
        cluster = _cluster_stats(trace, fast_forward=False)
        for fleet in self._general(FleetTrace.from_request_trace(trace)):
            _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    @given(seed=st.integers(0, 300), rate=st.floats(0.5, 12.0),
           crash=st.floats(0.0, 0.15))
    @settings(max_examples=30, deadline=None)
    def test_property_over_seeds(self, seed, rate, crash):
        plan = FaultPlan(seed=seed, crash_rate=crash) if crash else None
        trace = poisson_trace("res", rate, 5.0, seed=seed)
        cluster = _cluster_stats(trace, faults=plan, fast_forward=False)
        for fleet in self._general(FleetTrace.from_request_trace(trace),
                                   faults=plan):
            _assert_region_equals_cluster(fleet.regions["r0"], cluster)


class TestFrontierReportGolden:
    def test_checked_in_report_passes_and_validates(self):
        from repro.runner import validate_report
        with open(_REPORT, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_report(payload) == []
        frontier = payload["fleet_frontier"]
        assert frontier["pass"] is True
        # The paper's economic claim, pinned: proactive loading shifts
        # the scale-to-zero frontier below reactive loading.
        assert (frontier["frontiers"]["pask"]
                < frontier["frontiers"]["baseline"])
        assert (frontier["frontiers"]["pask+restore"]
                <= frontier["frontiers"]["pask"])
