"""Sharded fleet replay: byte-identity with the serial simulator.

Sharding must be invisible in every result — region counters,
latencies, queue waits, fault dictionaries, trace records and tenant
accounting all equal the serial ``FleetSimulator.run`` output bit for
bit, across every execution mode (delegated, static, serial fallback),
at ``jobs=1`` (in-process shards) and across a real process pool, on a
golden grid of configs and on hypothesis-generated fleets.  The serial
static path shares its per-region replay with the shards, so the grid
is also checked against the per-arrival loop (``fast_forward=False``),
which shares none of it.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         FleetTrace, RegionConfig, RoutingPolicy, TraceSpec,
                         equivalence_problems, merge_traces,
                         run_fleet_sharded)
from repro.runner.engine import run_shards
from repro.serving.requests import bursty_trace, poisson_trace
from repro.sim.faults import FaultPlan
from tests.test_fleet_properties import _fleet_configs, _fleet_traces


def _trace(rate=6.0, duration=8.0, seed=3):
    return FleetTrace.from_request_trace(
        poisson_trace("res", rate, duration, seed=seed))


def _check(config, trace, jobs=1, **kwargs):
    serial = FleetSimulator(config).run(trace)
    sharded, report = run_fleet_sharded(config, trace, jobs=jobs, **kwargs)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
    assert sharded.conserved
    # Independent oracle: the per-arrival loop steps every request, so
    # only ``fast_forwarded`` may differ from the static replay.
    stepped = FleetSimulator(
        dataclasses.replace(config, fast_forward=False)).run(trace)
    problems = [p for p in equivalence_problems(stepped, sharded)
                if ".fast_forwarded:" not in p]
    assert not problems, "\n".join(problems)
    return sharded, report


def _regions(n=2, **overrides):
    devices = ("MI100", "A100", "6900XT")
    return tuple(
        RegionConfig(name=f"r{i}", device=devices[i % len(devices)],
                     scheme=Scheme.PASK, max_instances=2, **overrides)
        for i in range(n))


# ----------------------------------------------------------------------
# Golden grid: one config per interesting mode/policy combination
# ----------------------------------------------------------------------

_GRID = {
    "round-robin-full": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("round-robin"),
        trace_retention="full"),
    "round-robin-analytic": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("round-robin")),
    "single-drains": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2,
                              drain_windows=((2.0, 4.0),)),
                 RegionConfig(name="b", device="A100", scheme=Scheme.PASK,
                              max_instances=2)),
        routing=RoutingPolicy("round-robin"), trace_retention="full"),
    "warm-first-reactive-shed": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2),
                 RegionConfig(name="b", device="A100",
                              scheme=Scheme.BASELINE, max_instances=3),
                 RegionConfig(name="c", device="6900XT", scheme=Scheme.PASK,
                              max_instances=1)),
        routing=RoutingPolicy("warm-first"),
        autoscale=AutoscalePolicy(kind="reactive", min_instances=1,
                                  scale_up_wait_s=0.01),
        shed_wait_s=0.3, trace_retention="full"),
    "least-queue-faults-restore": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2,
                              faults=FaultPlan(seed=11, crash_rate=0.05),
                              drain_windows=((2.0, 4.0),)),
                 RegionConfig(name="b", device="A100", scheme=Scheme.PASK,
                              max_instances=2)),
        routing=RoutingPolicy("least-queue"),
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.25,
                                  checkpoint_restore=True),
        trace_retention="full"),
    "predictive-prewarm": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("warm-first"),
        autoscale=AutoscalePolicy(kind="predictive", prewarm_headroom=1.5),
        trace_retention="full"),
    "scale-to-zero-analytic": FleetConfig(
        regions=_regions(3), routing=RoutingPolicy("round-robin"),
        autoscale=AutoscalePolicy(kind="scale-to-zero",
                                  idle_timeout_s=0.1)),
    # State-free copies of the warm-first / least-queue rows above:
    # those replay serially, these shard through the reactive stepping
    # branch and the prewarm / restore / fault billing.  They replay the
    # bursty trace below, which makes every one of those dynamics fire.
    # Region b drains right after a burst grew its reactive cap: only
    # idle ticks at other regions' arrivals shrink it before the next.
    "round-robin-reactive-shed": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2),
                 RegionConfig(name="b", device="A100",
                              scheme=Scheme.BASELINE, max_instances=3,
                              drain_windows=((2.3, 3.95),)),
                 RegionConfig(name="c", device="6900XT", scheme=Scheme.PASK,
                              max_instances=1)),
        routing=RoutingPolicy("round-robin"),
        autoscale=AutoscalePolicy(kind="reactive", min_instances=1,
                                  scale_down_idle_s=0.2),
        shed_wait_s=0.005, trace_retention="full"),
    "round-robin-predictive-prewarm": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("round-robin"),
        autoscale=AutoscalePolicy(kind="predictive", prewarm_headroom=20.0,
                                  idle_timeout_s=0.05,
                                  prewarm_cooldown_s=0.2,
                                  checkpoint_restore=True),
        trace_retention="full"),
    "round-robin-faults-restore": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2,
                              faults=FaultPlan(seed=11, crash_rate=0.05),
                              drain_windows=((2.0, 4.0),)),
                 RegionConfig(name="b", device="A100", scheme=Scheme.PASK,
                              max_instances=2)),
        routing=RoutingPolicy("round-robin"),
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.25,
                                  checkpoint_restore=True),
        trace_retention="full"),
}


_BURSTY_ROWS = ("round-robin-reactive-shed", "round-robin-predictive-prewarm",
                "round-robin-faults-restore")


def _grid_trace(name):
    if name in _BURSTY_ROWS:
        # 3 kHz bursts every 2 s over a 4 Hz base: queueing grows the
        # reactive cap and sheds, quiet shrinks it, the rate spikes
        # prewarm, and crashes land on busy instances.
        return FleetTrace.from_request_trace(
            bursty_trace("res", 4.0, 3000.0, 2.0, 0.05, 8.0, seed=3))
    return _trace()


@pytest.mark.parametrize("name", sorted(_GRID))
def test_sharded_matches_serial_golden_grid(name):
    _check(_GRID[name], _grid_trace(name))


@pytest.mark.parametrize("name", ("round-robin-full",
                                  "warm-first-reactive-shed",
                                  "least-queue-faults-restore",
                                  "round-robin-reactive-shed",
                                  "round-robin-faults-restore"))
def test_sharded_matches_serial_process_pool(name):
    # The same grid rows across a real ProcessPoolExecutor: pickling
    # jobs out and stats/recorder state back must not perturb a bit.
    _check(_GRID[name], _grid_trace(name), jobs=2)


def test_delegated_single_cluster_passthrough():
    config = FleetConfig(regions=_regions(1))
    _, report = _check(config, _trace())
    assert report.mode == "delegated"
    assert report.shards == 0


def test_static_mode_round_robin_no_rollbacks():
    _, report = _check(_GRID["round-robin-full"], _trace())
    assert report.mode == "static"
    assert report.shards == 2


def test_analytic_fast_path_serves_everything():
    # No retention, no faults, inert/scale-to-zero autoscaling: every
    # shard rides the heap-analytic fast path.
    stats, report = _check(_GRID["round-robin-analytic"], _trace())
    assert report.mode == "static"
    assert report.analytic_total == stats.offered
    stats, report = _check(_GRID["scale-to-zero-analytic"], _trace())
    assert report.analytic_total == stats.offered


def test_analytic_fast_path_with_shedding():
    # A 1-instance region at high load sheds on the analytic path too.
    config = FleetConfig(
        regions=tuple(
            RegionConfig(name=f"r{i}", device="MI100", scheme=Scheme.PASK,
                         max_instances=1) for i in range(2)),
        routing=RoutingPolicy("round-robin"), shed_wait_s=0.001)
    stats, report = _check(config, _trace(rate=400.0, duration=2.0))
    assert report.analytic_total > 0
    assert sum(r.shed for r in stats.regions.values()) > 0


def test_state_coupled_routing_falls_back_to_serial():
    # Warm-first / least-queue routing reads region state, so no region
    # can replay ahead of the others: the serial loop runs unsharded.
    trace = _trace()
    for name in ("warm-first-reactive-shed", "least-queue-faults-restore",
                 "predictive-prewarm"):
        config = _GRID[name]
        serial = FleetSimulator(config).run(trace)
        for jobs in (1, 2):
            sharded, report = run_fleet_sharded(config, trace, jobs=jobs)
            assert (report.mode, report.shards) == ("serial", 0), name
            problems = equivalence_problems(serial, sharded)
            assert not problems, "\n".join(problems)


def test_multi_tenant_merge_order():
    trace = merge_traces([("t0", poisson_trace("res", 3.0, 6.0, seed=1)),
                          ("t1", poisson_trace("res", 4.0, 6.0, seed=2))])
    _check(_GRID["predictive-prewarm"], trace)
    _check(_GRID["round-robin-predictive-prewarm"], trace)


def test_trace_spec_regenerates_identically():
    spec = TraceSpec(model="res", rate_hz=6.0, duration_s=8.0, seed=3)
    config = _GRID["round-robin-reactive-shed"]
    serial = FleetSimulator(config).run(spec.materialize())
    sharded, report = run_fleet_sharded(config, jobs=2, trace_spec=spec)
    assert not equivalence_problems(serial, sharded)
    assert report.mode == "static"


def test_trace_spec_validates():
    with pytest.raises(ValueError):
        TraceSpec(rate_hz=0.0)
    with pytest.raises(ValueError):
        TraceSpec(duration_s=-1.0)
    with pytest.raises(ValueError):
        run_fleet_sharded(_GRID["round-robin-full"])  # no trace, no spec


def _square(x):
    return x * x


def test_run_shards_preserves_order():
    items = list(range(7))
    assert run_shards(_square, items) == [x * x for x in items]
    assert run_shards(_square, items, jobs=3) == [x * x for x in items]
    assert run_shards(_square, []) == []


# ----------------------------------------------------------------------
# Property: sharded == serial for arbitrary fleets
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property(config, trace):
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
    assert sharded.conserved


@settings(max_examples=25, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property_full_retention(config, trace):
    config = dataclasses.replace(config, trace_retention="full")
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
