#!/usr/bin/env python3
"""Measure the time-warp sharded fleet replay the benchmark leaves out.

The churn-fleet traffic (two bursty tenants over an MI100 and an A100
region, warm-first routing, scale-to-zero, seeded crash faults) without
kernel packs and telemetry (sharded runs with packs fall back to the
serial loop) and with a higher crash rate.  Warm-first routing depends
on region state, so ``run_fleet_sharded`` picks its time-warp mode.
The script replays the same trace serially and sharded (``jobs=1``,
in-process), checks that the two agree, and prints both wall times and
the rollback work::

    python3 perfbench/timewarp.py --duration 15

``--duration`` is the simulated length of the trace in seconds; the
arrival count grows with it (about 80 per simulated second).  The
rollback work grows with ``--crash-rate`` (crashes change which
region is warm, which is what the optimistic guesses get wrong).
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crash-rate", type=float, default=0.2)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.schemes import Scheme
    from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                             RegionConfig, RoutingPolicy, merge_traces,
                             run_fleet_sharded)
    from repro.serving.requests import bursty_trace
    from repro.sim.faults import FaultPlan

    seed = args.seed
    rate = args.crash_rate
    trace = merge_traces([
        ("tenant-a", bursty_trace("res", 15.0, 200.0, 10.0, 1.5,
                                  args.duration, seed=2 * seed + 1)),
        ("tenant-b", bursty_trace("res", 10.0, 150.0, 7.0, 1.0,
                                  args.duration, seed=2 * seed + 2))])
    config = FleetConfig(
        regions=(RegionConfig(name="mi100", device="MI100",
                              scheme=Scheme.PASK, max_instances=4,
                              faults=FaultPlan(seed=7 * seed + 3,
                                               crash_rate=rate)),
                 RegionConfig(name="a100", device="A100",
                              scheme=Scheme.PASK, max_instances=4,
                              faults=FaultPlan(seed=7 * seed + 4,
                                               crash_rate=rate))),
        routing=RoutingPolicy("warm-first"),
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.25))
    FleetSimulator(config).run(trace)   # fill the service-time memo
    began = perf_counter()
    serial = FleetSimulator(config).run(trace)
    serial_s = perf_counter() - began
    began = perf_counter()
    sharded, report = run_fleet_sharded(config, trace, jobs=1)
    sharded_s = perf_counter() - began
    same = (serial.latencies == sharded.latencies
            and serial.cold_starts == sharded.cold_starts
            and serial.failed == sharded.failed)
    print(f"requests {len(trace)}  mode {report.mode}  rounds "
          f"{report.rounds}  rollbacks {report.rollbacks}  resimulated "
          f"{report.resimulated}  max rollback depth "
          f"{report.max_rollback_depth}")
    print(f"serial {serial_s:.3f} s  sharded {sharded_s:.3f} s  "
          f"(sharded/serial {sharded_s / serial_s:.0f}x)  "
          f"outputs {'agree' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
