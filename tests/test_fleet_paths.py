"""Which replay path a serial fleet takes, and that the paths agree.

``FleetSimulator.run`` has three paths: delegation to the bare
cluster, the per-region static replay (state-free routing; each region
replays its own sub-stream, heap-analytic where eligible) and the
per-arrival loop.  ``RegionStats.fast_forwarded`` counts the requests a
region served analytically, so it pins the path selection exactly:

- a fault-free round-robin fleet is served analytically end to end;
- a crash fault plan drops only its own region back to stepping;
- state-coupled routing (``warm-first``) keeps the per-arrival loop.

The property below keeps an oracle independent of the static replay:
``fast_forward=False`` forces the per-arrival loop, which must agree
with the default run on every audited field except ``fast_forwarded``.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         RegionConfig, RoutingPolicy, equivalence_problems)
from repro.serving.requests import poisson_trace
from repro.sim.faults import FaultPlan
from tests.test_fleet_properties import _fleet_configs, _fleet_traces


def _steady_regions(faults=None, faulty="r1"):
    # The steady-fleet benchmark shape: 4 MI100 PaSK regions with 4
    # instances and a 0.5 s keep-alive each; ``faults`` goes to one.
    return [RegionConfig(name=f"r{i}", device="MI100", scheme=Scheme.PASK,
                         max_instances=4, keep_alive_s=0.5,
                         faults=faults if f"r{i}" == faulty else None)
            for i in range(4)]


def _trace():
    return poisson_trace("res", 200.0, 5.0, seed=2)


def test_round_robin_fleet_is_served_analytically():
    config = FleetConfig(regions=tuple(_steady_regions()),
                         routing=RoutingPolicy("round-robin"))
    stats = FleetSimulator(config).run(_trace())
    assert not stats.delegated
    assert stats.fast_forwarded == stats.offered
    for region in stats.regions.values():
        assert region.fast_forwarded == region.requests > 0


def test_fault_plan_steps_only_its_own_region():
    plan = FaultPlan(seed=5, crash_rate=0.05)
    config = FleetConfig(regions=tuple(_steady_regions(faults=plan)),
                         routing=RoutingPolicy("round-robin"))
    stats = FleetSimulator(config).run(_trace())
    assert stats.conserved
    for name, region in stats.regions.items():
        assert region.requests > 0
        expected = 0 if name == "r1" else region.requests
        assert region.fast_forwarded == expected, name


def test_state_coupled_routing_keeps_the_per_arrival_loop():
    config = FleetConfig(regions=tuple(_steady_regions()[:2]),
                         routing=RoutingPolicy("warm-first"))
    stats = FleetSimulator(config).run(_trace())
    assert stats.completed == stats.offered
    assert stats.fast_forwarded == 0


def test_fast_forward_off_forces_the_per_arrival_loop():
    config = FleetConfig(regions=tuple(_steady_regions()),
                         routing=RoutingPolicy("round-robin"),
                         fast_forward=False)
    assert FleetSimulator(config).run(_trace()).fast_forwarded == 0


@given(config=_fleet_configs(), trace=_fleet_traces())
@settings(max_examples=40, deadline=None)
def test_static_replay_equals_per_arrival_loop(config, trace):
    fast = FleetSimulator(config).run(trace)
    stepped = FleetSimulator(
        dataclasses.replace(config, fast_forward=False)).run(trace)
    assert stepped.fast_forwarded == 0
    problems = [p for p in equivalence_problems(stepped, fast)
                if ".fast_forwarded:" not in p]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("autoscale", (
    None,
    AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.001,
                    min_instances=1, checkpoint_restore=True)),
    ids=("fixed", "scale-to-zero-floor-restore"))
@pytest.mark.parametrize("shed_wait", (None, 0.002), ids=("no-shed", "shed"))
def test_queueing_at_capacity_equals_per_arrival_loop(autoscale, shed_wait):
    # Dense traffic on two-instance regions queues many requests at
    # capacity, so the analytic window's queue arithmetic, reclaims to
    # the warm floor, restore billing and shed predicate are all live.
    regions = tuple(RegionConfig(name=f"r{i}", device="MI100",
                                 scheme=Scheme.PASK, max_instances=2,
                                 keep_alive_s=0.01) for i in range(2))
    config = FleetConfig(regions=regions,
                         routing=RoutingPolicy("round-robin"),
                         autoscale=autoscale, shed_wait_s=shed_wait)
    trace = poisson_trace("res", 2000.0, 0.5, seed=4)
    fast = FleetSimulator(config).run(trace)
    stepped = FleetSimulator(
        dataclasses.replace(config, fast_forward=False)).run(trace)
    assert fast.fast_forwarded == fast.completed > 0
    assert any(wait > 0 for wait in fast.regions["r0"].queue_waits)
    problems = [p for p in equivalence_problems(stepped, fast)
                if ".fast_forwarded:" not in p]
    assert not problems, "\n".join(problems)
