"""Config dataclasses reject NaN and non-integer counts at construction.

A NaN keep-alive used to be accepted and then split the two replay
modes (every ``now - last_used <= nan`` comparison is false, so the
stepping loop reclaims every idle instance while the analytic window
reclaims none).  Every non-negativity check is therefore written so
that NaN fails it, count fields must be integers, and an infinite
keep-alive or timeout stays legal (it means "never reclaim").
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import AutoscalePolicy, FleetConfig, RegionConfig
from repro.obs import SLOPolicy
from repro.packs import PackPolicy, TierPolicy
from repro.serving.cluster import ClusterConfig
from repro.serving.resilience import ResiliencePolicy
from repro.sim.faults import FaultPlan

NAN = float("nan")
INF = float("inf")


def _fleet(**kwargs):
    return FleetConfig(regions=(RegionConfig("r0"),), **kwargs)


def _tier(**kwargs):
    fields = dict(bandwidth_bps=1e9, latency_s=1e-3, timeout_s=0.25)
    fields.update(kwargs)
    return TierPolicy(**fields)


@pytest.mark.parametrize("build", [
    lambda: ClusterConfig(keep_alive_s=NAN),
    lambda: ClusterConfig(max_instances=2.5),
    lambda: RegionConfig("r0", keep_alive_s=NAN),
    lambda: RegionConfig("r0", max_instances=2.5),
    lambda: RegionConfig("r0", drain_windows=((0.0, NAN),)),
    lambda: AutoscalePolicy(idle_timeout_s=NAN),
    lambda: AutoscalePolicy(restore_overhead_s=NAN),
    lambda: AutoscalePolicy(scale_down_idle_s=NAN),
    lambda: AutoscalePolicy(prewarm_headroom=NAN),
    lambda: AutoscalePolicy(restore_speedup=NAN),
    lambda: AutoscalePolicy(min_instances=0.5),
    lambda: FaultPlan(restart_delay_s=NAN),
    lambda: FaultPlan(load_timeout_s=NAN),
    lambda: FaultPlan(max_reroutes=1.5),
    lambda: FaultPlan(registry_outage_windows=((NAN, 1.0),)),
    lambda: _fleet(shed_wait_s=NAN),
    lambda: ResiliencePolicy(checkpoint_interval_s=NAN),
    lambda: ResiliencePolicy(restore_overhead_s=NAN),
    lambda: ResiliencePolicy(restart_backoff=NAN),
    lambda: ResiliencePolicy(shed_wait_s=NAN),
    lambda: ResiliencePolicy(checkpoint_retention=1.5),
    lambda: PackPolicy(verify_bps=NAN),
    lambda: PackPolicy(apply_overhead_s=NAN),
    lambda: PackPolicy(apply_bps=NAN),
    lambda: PackPolicy(cross_region_penalty=NAN),
    lambda: _tier(bandwidth_bps=NAN),
    lambda: _tier(max_attempts=1.5),
    lambda: SLOPolicy(window_s=NAN),
    lambda: SLOPolicy(p99_target_s=NAN),
    lambda: ClusterConfig(trace_ring=0.5),
    lambda: _fleet(trace_ring=0.5),
    lambda: FaultPlan(max_load_attempts=2.5),
], ids=["cluster-keep-alive-nan", "cluster-max-instances-2.5",
        "region-keep-alive-nan", "region-max-instances-2.5",
        "region-drain-window-nan", "autoscale-idle-timeout-nan",
        "autoscale-restore-overhead-nan", "autoscale-scale-down-idle-nan",
        "autoscale-headroom-nan", "autoscale-restore-speedup-nan",
        "autoscale-min-instances-0.5", "faults-restart-delay-nan",
        "faults-load-timeout-nan", "faults-max-reroutes-1.5",
        "faults-outage-window-nan", "fleet-shed-wait-nan",
        "resilience-checkpoint-interval-nan",
        "resilience-restore-overhead-nan", "resilience-backoff-nan",
        "resilience-shed-wait-nan", "resilience-retention-1.5",
        "packs-verify-bps-nan", "packs-apply-overhead-nan",
        "packs-apply-bps-nan", "packs-cross-region-nan",
        "tier-bandwidth-nan", "tier-max-attempts-1.5", "slo-window-nan",
        "slo-p99-target-nan", "cluster-trace-ring-0.5",
        "fleet-trace-ring-0.5", "faults-max-load-attempts-2.5"])
def test_constructor_rejects(build):
    with pytest.raises(ValueError):
        build()


def test_infinite_keep_alive_and_timeouts_stay_legal():
    assert ClusterConfig(keep_alive_s=INF).keep_alive_s == INF
    assert RegionConfig("r0", keep_alive_s=INF).keep_alive_s == INF
    policy = AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=INF)
    assert policy.idle_timeout_s == INF
    assert _fleet(shed_wait_s=INF).shed_wait_s == INF
    assert FaultPlan(load_timeout_s=INF).load_timeout_s == INF


# (constructor, field, lower bound, bound is strict)
_FLOAT_FIELDS = [
    (lambda v: ClusterConfig(keep_alive_s=v), "keep_alive_s", 0.0, False),
    (lambda v: RegionConfig("r0", keep_alive_s=v), "keep_alive_s", 0.0,
     False),
    (lambda v: AutoscalePolicy(idle_timeout_s=v), "idle_timeout_s", 0.0,
     False),
    (lambda v: AutoscalePolicy(restore_overhead_s=v), "restore_overhead_s",
     0.0, False),
    (lambda v: AutoscalePolicy(prewarm_cooldown_s=v), "prewarm_cooldown_s",
     0.0, False),
    (lambda v: AutoscalePolicy(prewarm_headroom=v), "prewarm_headroom", 0.0,
     True),
    (lambda v: AutoscalePolicy(restore_speedup=v), "restore_speedup", 1.0,
     False),
    (lambda v: FaultPlan(restart_delay_s=v), "restart_delay_s", 0.0, False),
    (lambda v: _fleet(shed_wait_s=v), "shed_wait_s", 0.0, False),
    (lambda v: ResiliencePolicy(breaker_window_s=v), "breaker_window_s", 0.0,
     False),
    (lambda v: _tier(bandwidth_bps=v), "bandwidth_bps", 0.0, True),
    (lambda v: _tier(latency_s=v), "latency_s", 0.0, False),
    (lambda v: _tier(timeout_s=v), "timeout_s", 0.0, False),
    (lambda v: _tier(backoff_base_s=v), "backoff_base_s", 0.0, False),
    (lambda v: PackPolicy(verify_bps=v), "verify_bps", 0.0, True),
    (lambda v: PackPolicy(apply_overhead_s=v), "apply_overhead_s", 0.0,
     False),
    (lambda v: PackPolicy(apply_bps=v), "apply_bps", 0.0, True),
    (lambda v: PackPolicy(cross_region_penalty=v), "cross_region_penalty",
     1.0, False),
    (lambda v: SLOPolicy(p99_target_s=v), "p99_target_s", 0.0, True),
    (lambda v: SLOPolicy(window_s=v), "window_s", 0.0, True),
    (lambda v: SLOPolicy(burn_threshold=v), "burn_threshold", 0.0, True),
]

_COUNT_FIELDS = [
    (lambda v: ClusterConfig(max_instances=v), "max_instances", 1),
    (lambda v: RegionConfig("r0", max_instances=v), "max_instances", 1),
    (lambda v: AutoscalePolicy(min_instances=v), "min_instances", 0),
    (lambda v: FaultPlan(max_reroutes=v), "max_reroutes", 0),
    (lambda v: FaultPlan(max_load_attempts=v), "max_load_attempts", 1),
    (lambda v: ClusterConfig(trace_ring=v), "trace_ring", 1),
    (lambda v: _fleet(trace_ring=v), "trace_ring", 1),
    (lambda v: ResiliencePolicy(checkpoint_retention=v),
     "checkpoint_retention", 1),
    (lambda v: _tier(max_attempts=v), "max_attempts", 1),
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_FLOAT_FIELDS), value=st.floats())
def test_float_fields_fuzz(case, value):
    build, name, lower, strict = case
    valid = value > lower if strict else value >= lower
    try:
        config = build(value)
    except ValueError:
        assert not valid, (name, value)
        return
    assert valid, (name, value)
    assert not math.isnan(getattr(config, name))


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_COUNT_FIELDS),
       value=st.one_of(st.integers(-3, 9), st.floats(-3.0, 9.0)))
def test_count_fields_fuzz(case, value):
    build, name, lower = case
    valid = isinstance(value, int) and value >= lower
    try:
        config = build(value)
    except ValueError:
        assert not valid, (name, value)
        return
    assert valid, (name, value)
    assert isinstance(getattr(config, name), int)
