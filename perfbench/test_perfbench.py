"""Self-tests of the benchmark's checks and tracer.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Small variants of the workloads keep the tests fast; the checks against
recorded values use the full default-seed replays where they are cheap.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from layertrace import LayerTracer  # noqa: E402
from workloads import (DEFAULT_SEED, ChurnFleet, SteadyCluster,  # noqa: E402
                       SteadyFleet, ZooCold, load_repro)

SMALL = {
    "zoo-cold": ZooCold(models=["alex", "res"]),
    "steady-cluster": SteadyCluster(duration_s=30.0),
    "steady-fleet": SteadyFleet(duration_s=30.0),
    "churn-fleet": ChurnFleet(duration_s=30.0),
}
SINKLESS = ("zoo-cold", "steady-cluster", "steady-fleet")
COUNTS = ("sim.trace.records", "sim.core.events", "core.reused_layers",
          "core.skipped_loads", "gpu.module_loads", "gpu.loaded_mb",
          "primitive.find_calls", "graph.nodes", "engine.instructions",
          "serving.fast_forwarded", "serving.stepped", "serving.ff_ratio",
          "fleet.fast_forwarded", "fleet.stepped", "fleet.cold_starts",
          "fleet.scale_ups", "fleet.scale_downs", "packs.restores",
          "packs.fetched_mb", "packs.verified_ratio", "packs.retries",
          "sim.faults.crashes", "obs.spans")


def recorded(name):
    return bench.load_recorded()["workloads"][name]


def one_op(workload, seed=DEFAULT_SEED):
    fx = workload.setup(load_repro(), seed)
    return fx, workload.summarize(fx, 0, workload.op(fx, 0))


def test_recorded_cell_matches_and_perturbed_cell_fails():
    workload = SMALL["zoo-cold"]
    fx, summary = one_op(workload)
    pinned = recorded("zoo-cold")
    assert workload.check(fx, summary, pinned) == []
    cells = dict(pinned["cells"])
    cell = summary["cell"]
    cells[cell] = math.nextafter(cells[cell], math.inf)
    problems = workload.check(fx, summary, {**pinned, "cells": cells})
    assert problems and cell in problems[0]


@pytest.mark.parametrize("name", ["steady-cluster", "churn-fleet"])
@pytest.mark.parametrize("key", ["sim_p99_ms", "cold_starts"])
def test_perturbed_recorded_replay_value_fails(name, key):
    workload = {"steady-cluster": SteadyCluster(),
                "churn-fleet": ChurnFleet()}[name]
    fx, summary = one_op(workload)
    pinned = recorded(name)
    assert workload.check(fx, summary, pinned) == []
    value = pinned[key]
    bent = (math.nextafter(value, math.inf) if isinstance(value, float)
            else value + 1)
    fx.first = None
    problems = workload.check(fx, summary, {**pinned, key: bent})
    assert any(key in problem for problem in problems)


def test_conservation_and_repeat_checks_fail_on_bad_output():
    workload = SMALL["churn-fleet"]
    fx, summary = one_op(workload, seed=3)
    assert workload.check(fx, summary, None) == []
    lost = {**summary, "completed": summary["completed"] - 1}
    problems = workload.check(fx, lost, None)
    assert "offered != completed + failed + shed" in problems
    assert any("first replay" in problem for problem in problems)
    ledger = dict(summary["packs"]["mi100"])
    ledger["bytes_verified"] += 1
    leaky = {**summary, "packs": {**summary["packs"], "mi100": ledger}}
    assert any("pack bytes" in p for p in workload.check(fx, leaky, None))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_counts_repeat_and_outputs_match(name):
    workload = SMALL[name]
    first, outcome = bench.traced_run(workload, 5, None)
    second, again = bench.traced_run(workload, 5, None)
    assert outcome.failed == 0 and not outcome.problems
    assert again.failed == 0 and not again.problems
    for key in COUNTS:
        assert first[key] == second[key], key
    assert first["trace.self_sum_error"]["value"] <= \
        bench.SELF_TIME_TOLERANCE
    if name in SINKLESS:
        assert first["obs.spans"]["value"] == 0
    else:
        assert first["obs.spans"]["value"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_second_seed_runs_every_invariant(name):
    metrics, outcome, _, _ = bench.measure(SMALL[name], 11, 0.0, None)
    assert outcome.failed == 0 and outcome.attempted >= 2
    assert all(value["value"] > 0 for value in metrics.values())


def test_timed_generator_forwards_values_and_exceptions():
    tracer = LayerTracer()

    def child():
        got = yield "a"
        try:
            yield got
        except KeyError:
            return "caught"

    def body():
        gen = tracer._timed_generator("core", "child", child())
        assert next(gen) == "a"
        assert gen.send(7) == 7
        with pytest.raises(StopIteration) as stop:
            gen.throw(KeyError("x"))
        return stop.value.value

    result, _ = tracer.run_root(body)
    assert result == "caught"
    assert tracer.self_s["core"] > 0
    assert [span[3] for span in tracer.spans] == ["child"] * 3


def test_calibrated_times_scale_by_the_loops_around_them(monkeypatch):
    loops = iter([0.020, 0.030, 0.010])
    monkeypatch.setattr(hostspeed, "time_calibration", lambda: next(loops))
    calibrated = hostspeed.Calibrated()
    calibrated.add("a", 0.05)
    calibrated.add("b", 0.06)     # 0.11 s buffered: a loop is timed
    calibrated.add("a", 0.04)
    calibrated.flush()
    scale = hostspeed.CALIBRATION_S
    assert calibrated.scaled["a"] == pytest.approx(
        [0.05 * scale / 0.025, 0.04 * scale / 0.020])
    assert calibrated.scaled["b"] == pytest.approx([0.06 * scale / 0.025])
    calibrated.flush()            # nothing buffered: no loop
    assert calibrated.loops == [0.020, 0.030, 0.010]
