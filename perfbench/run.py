#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload zoo-cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the traced run: the same set-up and a fixed number
of operations, once untraced and once under the layer tracer, and
reports per-layer self time and exact work counts.  Human-readable
lines start with ``#``; the last line of standard output is the JSON
result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDED = os.path.join(HERE, "recorded.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

# Largest |sum of layer self times - traced wall| / traced wall accepted.
SELF_TIME_TOLERANCE = 0.01

Metrics = Dict[str, Dict[str, Any]]


def _metric(metrics: Metrics, name: str, value: Any, unit: str) -> None:
    metrics[name] = {"value": value, "unit": unit}


def load_recorded() -> Dict[str, Any]:
    with open(RECORDED) as handle:
        return json.load(handle)


def recorded_for(workload, seed: int,
                 recorded: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The pinned outputs that apply to this run, if any."""
    from workloads import DEFAULT_SEED
    if seed != DEFAULT_SEED and not workload.seed_independent:
        return None
    return recorded["workloads"].get(workload.name)


class Outcome:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, issues: List[str]) -> None:
        self.attempted += 1
        if issues:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(issues[:2])


def settle() -> None:
    """Freeze the set-up heap before timing operations: full collections
    then scan only what the operations allocate, so whether a few serves
    catch a collection of the whole set-up heap no longer decides
    ``serve_ms_p99``."""
    gc.collect()
    gc.freeze()


def run_op(workload, fx, index: int, recorded, outcome: Outcome
           ) -> Tuple[Optional[float], Optional[Dict[str, Any]]]:
    """One timed operation and its output check."""
    try:
        began = perf_counter()
        raw = workload.op(fx, index)
        wall = perf_counter() - began
        summary = workload.summarize(fx, index, raw)
        del raw
        issues = workload.check(fx, summary, recorded)
    except Exception as error:  # an exception fails the operation
        outcome.add([f"op {index}: {type(error).__name__}: {error}"])
        return None, None
    outcome.add(issues)
    return wall, summary


def measure(workload, seed: int, seconds: float, recorded
            ) -> Tuple[Metrics, Outcome, Any, List[Dict[str, Any]]]:
    """The untraced run: set-ups, then operations for ``seconds``.

    Host-time metrics are calibrated (hostspeed.py) and use each
    distinct operation's median scaled time over the run."""
    from hostspeed import Calibrated
    from workloads import load_repro, nearest_rank
    setups = Calibrated()
    setup_walls = []
    fx = None
    for _ in range(workload.setup_repeats):
        fx = None
        gc.collect()
        began = perf_counter()
        fx = workload.setup(load_repro(), seed)
        setup_walls.append(perf_counter() - began)
        setups.add("setup", setup_walls[-1])
        setups.flush()
    settle()
    outcome = Outcome()
    ops = Calibrated()
    walls: List[float] = []
    requests: Dict[Any, Tuple[int, int]] = {}
    summaries: List[Dict[str, Any]] = []
    began = perf_counter()
    index = 0
    while index < workload.min_ops or perf_counter() - began < seconds:
        key = workload.op_key(fx, index)
        wall, summary = run_op(workload, fx, index, recorded, outcome)
        index += 1
        if summary is None:
            continue
        ops.add(key, wall)
        walls.append(wall)
        requests.setdefault(key, workload.requests(summary))
        summaries.append(summary)
    ops.flush()
    elapsed = perf_counter() - began
    per_op = [statistics.median(times) for times in ops.scaled.values()]
    busy = sum(per_op)
    offered = sum(pair[0] for pair in requests.values())
    completed = sum(pair[1] for pair in requests.values())
    repeats = [len(times) for times in ops.scaled.values()]
    metrics: Metrics = {}
    _metric(metrics, "setup_s", statistics.median(setups.scaled["setup"]),
            "s")
    _metric(metrics, "serves_per_s", completed / busy, "1/s")
    _metric(metrics, "serve_ms_p50", nearest_rank(per_op, 0.5) * 1e3, "ms")
    _metric(metrics, "serve_ms_p99", nearest_rank(per_op, 0.99) * 1e3, "ms")
    _metric(metrics, "replay_req_per_s", offered / busy, "1/s")
    _metric(metrics, "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    sims = workload.sim_metrics(fx, summaries)
    _metric(metrics, "sim_pask_speedup", sims["sim_pask_speedup"], "x")
    _metric(metrics, "sim_p99_ms", sims["sim_p99_ms"], "sim_ms")
    print(f"# {workload.name} seed={seed}: {len(walls)} operations in "
          f"{elapsed:.3f} s (median wall "
          f"{statistics.median(walls) * 1e3:.3f} ms); set-up walls "
          f"{[round(t, 3) for t in setup_walls]} s; serve_ms percentiles "
          f"over n={len(per_op)} distinct operations, each the median of "
          f"{min(repeats)}-{max(repeats)} samples")
    print(f"# calibration loop: median {statistics.median(ops.loops) * 1e3:.2f}"
          f" ms over {len(ops.loops)} loops (min "
          f"{min(ops.loops) * 1e3:.2f}, max {max(ops.loops) * 1e3:.2f})")
    return metrics, outcome, fx, summaries


def traced_run(workload, seed: int, recorded) -> Tuple[Metrics, Outcome]:
    """The same set-up and operations, untraced and then traced."""
    from layertrace import LAYERS, LayerTracer
    from workloads import load_repro
    ops = workload.traced_ops
    outcome = Outcome()

    def body(tracer=None):
        fx = workload.setup(load_repro(tracer), seed)
        settle()
        return fx, [workload.summarize(fx, i, workload.op(fx, i))
                    for i in range(ops)]

    gc.collect()
    began = perf_counter()
    fx, untraced = body()
    untraced_wall = perf_counter() - began
    for summary in untraced:
        outcome.add(workload.check(fx, summary, recorded))
    fx = None
    gc.unfreeze()
    gc.collect()
    tracer = LayerTracer()
    (fx, traced), traced_wall = tracer.run_root(lambda: body(tracer))
    tracer.finish_counts()
    for index, (plain, seen) in enumerate(zip(untraced, traced)):
        issues = workload.check(fx, seen, recorded)
        if plain != seen:
            issues.append(f"op {index}: traced output differs from the "
                          "untraced run")
        outcome.add(issues)
    error = tracer.self_time_error()
    if error > SELF_TIME_TOLERANCE:
        outcome.problems.append(
            f"layer self times miss the traced wall by {error:.2%} "
            f"(tolerance {SELF_TIME_TOLERANCE:.0%})")

    counts = tracer.counts
    metrics: Metrics = {}
    for layer in LAYERS:
        _metric(metrics, f"{layer}.self_s", tracer.self_s[layer], "s")
    _metric(metrics, "harness.self_s", tracer.self_s["harness"], "s")

    def count(name: str) -> int:
        return int(counts.get(name, 0))

    for name in ("sim.trace.records", "sim.core.events",
                 "core.reused_layers", "core.skipped_loads",
                 "gpu.module_loads", "primitive.find_calls", "graph.nodes",
                 "engine.instructions", "serving.fast_forwarded",
                 "serving.stepped", "fleet.fast_forwarded", "fleet.stepped",
                 "fleet.cold_starts", "fleet.scale_ups", "fleet.scale_downs",
                 "packs.restores", "packs.retries", "sim.faults.crashes",
                 "obs.spans"):
        _metric(metrics, name, count(name), "count")
    _metric(metrics, "gpu.loaded_mb", count("gpu.loaded_bytes") / 1e6, "MB")
    replayed = count("serving.fast_forwarded") + count("serving.stepped")
    _metric(metrics, "serving.ff_ratio",
            count("serving.fast_forwarded") / replayed if replayed else 0.0,
            "ratio")
    fetched = count("packs.fetched_bytes")
    _metric(metrics, "packs.fetched_mb", fetched / 1e6, "MB")
    _metric(metrics, "packs.verified_ratio",
            count("packs.verified_bytes") / fetched if fetched else 0.0,
            "ratio")
    _metric(metrics, "trace.overhead", traced_wall / untraced_wall, "x")
    _metric(metrics, "trace.wall_s", traced_wall, "s")
    _metric(metrics, "trace.self_sum_error", error, "ratio")
    path = os.path.join(SPANS_DIR, f"spans-{workload.name}-seed{seed}.json")
    tracer.write_spans(path)
    print(f"# {workload.name} seed={seed}: traced {ops} operations; wall "
          f"{untraced_wall:.3f} s untraced, {traced_wall:.3f} s traced; "
          f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    return metrics, outcome


def write_record(workload, fx, summaries) -> None:
    """Pin the default seed's simulated outputs in recorded.json."""
    recorded = load_recorded()
    recorded["workloads"][workload.name] = workload.record(fx, summaries)
    recorded["workloads"] = dict(sorted(recorded["workloads"].items()))
    with open(RECORDED, "w") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-pin the default seed's simulated outputs "
                             "in recorded.json instead of checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import DEFAULT_SEED, WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.record and (seed != DEFAULT_SEED or args.trace):
        print("perfbench: --record needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    recorded = None if args.record else \
        recorded_for(workload, seed, load_recorded())
    if args.trace:
        metrics, outcome = traced_run(workload, seed, recorded)
    else:
        metrics, outcome, fx, summaries = measure(workload, seed,
                                                  args.seconds, recorded)
        if args.record:
            write_record(workload, fx, summaries)
    for name, metric in metrics.items():
        print(f"# {name:24s} {metric['value']!r} {metric['unit']}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    result = {"correct": outcome.failed == 0 and not outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # set-up failed: no result line
        traceback.print_exc()
        sys.exit(1)
