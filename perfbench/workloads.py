"""The benchmark's four workloads, their set-up and their output checks.

Every workload calls ``repro`` only through its public entry points.
``load_repro`` imports the package from scratch (dropping any earlier
import), which is what makes each set-up a full "process start to
ready" measurement and keeps every traced import separate from the
untraced ones.

A workload is a closed loop with one caller: the benchmark issues one
operation (one cold serve, or one whole replay), waits for it, checks
its output and issues the next.  Inside a replay, arrivals follow an
open-loop schedule in simulated time, fixed by the workload seed.
README.md records why each workload was chosen.
"""

from __future__ import annotations

import gc
import importlib
import math
import random
import sys
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_SEED = 0

# (module, names) imported by ``load_repro``.
_IMPORTS = (
    ("repro.core.schemes", ("Scheme",)),
    ("repro.models", ("list_models",)),
    ("repro.serving.server", ("InferenceServer",)),
    ("repro.serving.cluster", ("ClusterConfig", "ClusterSimulator")),
    ("repro.serving.requests", ("RequestTrace", "bursty_trace",
                                "poisson_trace")),
    ("repro.fleet", ("AutoscalePolicy", "FleetConfig", "FleetSimulator",
                     "RegionConfig", "RoutingPolicy", "merge_traces")),
    ("repro.packs", ("PackPolicy",)),
    ("repro.sim.faults", ("FaultPlan",)),
    ("repro.obs", ("MetricsRegistry", "SLOPolicy", "SpanRecorder")),
)


def load_repro(tracer=None) -> SimpleNamespace:
    """Import ``repro`` afresh: no module, memo or cache survives from an
    earlier import.  A ``tracer`` is installed before any name is bound."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    gc.collect()
    modules = [(importlib.import_module(module_name), symbols)
               for module_name, symbols in _IMPORTS]
    if tracer is not None:
        tracer.install()
    return SimpleNamespace(**{symbol: getattr(module, symbol)
                              for module, symbols in modules
                              for symbol in symbols})


def nearest_rank(values: List[float], q: float) -> float:
    """The q-quantile of ``values`` by nearest rank (an element of it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Workload:
    """One named workload: set-up, one operation, and its checks."""

    name = ""
    setup_repeats = 5   # set-ups per run; setup_s is their median
    min_ops = 2         # operations a run makes however short it is
    traced_ops = 1      # operations the traced run makes
    # Whether the recorded outputs hold for every seed (else only for
    # DEFAULT_SEED).
    seed_independent = False

    def setup(self, rp: SimpleNamespace, seed: int) -> Any:
        raise NotImplementedError

    def op(self, fx: Any, index: int) -> Any:
        """One operation: the only code the timings cover."""
        raise NotImplementedError

    def op_key(self, fx: Any, index: int) -> Any:
        """Which distinct operation ``op(fx, index)`` is; operations with
        one key do the same work and share one median time."""
        return self.name

    def summarize(self, fx: Any, index: int, raw: Any) -> Dict[str, Any]:
        """The simulated outputs of one operation, compared exactly."""
        raise NotImplementedError

    def requests(self, summary: Dict[str, Any]) -> Tuple[int, int]:
        """Simulated requests (offered, completed) in one operation."""
        return summary["offered"], summary["completed"]

    def check(self, fx: Any, summary: Dict[str, Any],
              recorded: Optional[Dict[str, Any]]) -> List[str]:
        """Problems with one operation's output (empty when correct)."""
        raise NotImplementedError

    def sim_metrics(self, fx: Any,
                    summaries: List[Dict[str, Any]]) -> Dict[str, float]:
        """``sim_pask_speedup`` and ``sim_p99_ms`` of the run."""
        raise NotImplementedError

    def record(self, fx: Any,
               summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
        """The values pinned in ``recorded.json`` for the default seed."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# zoo-cold: the paper's experiment, one fresh runtime per serve
# ----------------------------------------------------------------------

class ZooCold(Workload):
    name = "zoo-cold"
    batches = (1, 64)
    # The seed only orders the cells; every cell's output is fixed.
    seed_independent = True

    def __init__(self, models: Optional[List[str]] = None) -> None:
        self.models = models   # None: the whole zoo (12 models)
        # A run, traced or not, makes at least one full pass: 6 schemes
        # per model and batch.
        cells = (len(models) if models else 12) * 6 * len(self.batches)
        self.min_ops = self.traced_ops = cells

    def setup(self, rp: SimpleNamespace, seed: int) -> SimpleNamespace:
        models = self.models or rp.list_models()
        server = rp.InferenceServer("MI100")
        # Build every graph and lower every program the cells serve (one
        # per model, lowering policy and batch) through the serve path.
        for model in models:
            for batch in self.batches:
                for scheme in (rp.Scheme.BASELINE, rp.Scheme.NNV12):
                    server.serve_cold(model, scheme, batch)
        cells = [(model, scheme, batch) for model in models
                 for scheme in rp.Scheme for batch in self.batches]
        return SimpleNamespace(rp=rp, server=server, cells=cells,
                               rng=random.Random(seed), order=[],
                               seen={})

    def _cell(self, fx: SimpleNamespace, index: int):
        while index >= len(fx.order):   # a fresh seeded order per pass
            block = list(fx.cells)
            fx.rng.shuffle(block)
            fx.order.extend(block)
        return fx.order[index]

    def op_key(self, fx: SimpleNamespace, index: int):
        return self._cell(fx, index)

    def op(self, fx: SimpleNamespace, index: int):
        model, scheme, batch = self._cell(fx, index)
        return fx.server.serve_cold(model, scheme, batch)

    def summarize(self, fx, index, raw) -> Dict[str, Any]:
        model, scheme, batch = self._cell(fx, index)
        return {"cell": f"{model}/{scheme.label}/b{batch}",
                "total_time": raw.total_time, "failed": raw.failed,
                "loads": raw.loads, "loaded_bytes": raw.loaded_bytes,
                "reused_layers": raw.reused_layers,
                "skipped_loads": raw.skipped_loads,
                "records": raw.trace.record_count}

    def requests(self, summary) -> Tuple[int, int]:
        return 1, 0 if summary["failed"] else 1

    def check(self, fx, summary, recorded) -> List[str]:
        problems = []
        cell = summary["cell"]
        if summary["failed"]:
            problems.append(f"{cell}: serve failed")
        if not summary["total_time"] > 0:
            problems.append(f"{cell}: non-positive cold time")
        first = fx.seen.setdefault(cell, summary)
        if first != summary:
            problems.append(f"{cell}: output differs from its first serve")
        if recorded is not None:
            expected = recorded["cells"].get(cell)
            if expected is None:
                problems.append(f"{cell}: no recorded cold time")
            elif summary["total_time"] != expected:
                problems.append(f"{cell}: cold time {summary['total_time']!r}"
                                f" != recorded {expected!r}")
        return problems

    def _times(self, summaries) -> Dict[str, float]:
        return {s["cell"]: s["total_time"] for s in summaries}

    def sim_metrics(self, fx, summaries) -> Dict[str, float]:
        times = self._times(summaries)
        models = sorted({cell.split("/")[0] for cell in times})
        speedup = geomean([times[f"{m}/Baseline/b1"] / times[f"{m}/PaSK/b1"]
                           for m in models])
        return {"sim_pask_speedup": speedup,
                "sim_p99_ms": nearest_rank(list(times.values()), 0.99) * 1e3}

    def record(self, fx, summaries) -> Dict[str, Any]:
        times = self._times(summaries)
        return {"cells": dict(sorted(times.items())),
                **self.sim_metrics(fx, summaries)}


# ----------------------------------------------------------------------
# Replays: one operation is one whole trace replay
# ----------------------------------------------------------------------

class Replay(Workload):
    """A trace replay; every operation replays the same seeded trace."""

    model = "res"
    devices = ("MI100",)
    duration_s = 0.0   # simulated length of the trace

    def __init__(self, duration_s: Optional[float] = None) -> None:
        if duration_s is not None:   # shorter variants for the self-tests
            self.duration_s = duration_s

    def setup(self, rp, seed) -> SimpleNamespace:
        fx = SimpleNamespace(rp=rp, seed=seed, first=None)
        fx.trace = self.make_trace(rp, seed)
        self.prepare(fx)
        # First memo fill (service times, packs) on the first arrivals.
        head = rp.RequestTrace(self.model, fx.trace.arrivals[:64])
        self.replay(fx, head)
        return fx

    def make_trace(self, rp, seed):
        raise NotImplementedError

    def prepare(self, fx) -> None:
        """Build what every replay of the run shares."""

    def replay(self, fx, trace):
        raise NotImplementedError

    def op(self, fx, index):
        return self.replay(fx, fx.trace)

    def summarize(self, fx, index, raw) -> Dict[str, Any]:
        stats = raw
        return {"offered": len(fx.trace), "completed": stats.completed,
                "failed": stats.failed, "shed": stats.shed,
                "cold_starts": stats.cold_starts,
                "warm_hits": stats.warm_hits,
                "fast_forwarded": stats.fast_forwarded,
                "p50": stats.percentile(0.5), "p99": stats.percentile(0.99),
                "latency_sum": math.fsum(stats.latencies),
                **self.extra_summary(stats)}

    def extra_summary(self, stats) -> Dict[str, Any]:
        return {}

    def check(self, fx, summary, recorded) -> List[str]:
        problems = []
        if summary["offered"] != (summary["completed"] + summary["failed"]
                                  + summary["shed"]):
            problems.append("offered != completed + failed + shed")
        if fx.first is None:
            fx.first = summary
        elif summary != fx.first:
            problems.append("replay differs from the run's first replay "
                            "of the same seed")
        if recorded is not None:
            for key, value in (("sim_p99_ms", summary["p99"] * 1e3),
                               ("cold_starts", summary["cold_starts"]),
                               ("offered", summary["offered"])):
                if recorded[key] != value:
                    problems.append(f"{key} {value!r} != recorded "
                                    f"{recorded[key]!r}")
        return problems

    def sim_metrics(self, fx, summaries) -> Dict[str, float]:
        rp = fx.rp
        ratios = []
        for device in self.devices:
            server = rp.InferenceServer(device)
            baseline = server.serve_cold(self.model, rp.Scheme.BASELINE)
            pask = server.serve_cold(self.model, rp.Scheme.PASK)
            ratios.append(baseline.total_time / pask.total_time)
        return {"sim_pask_speedup": geomean(ratios),
                "sim_p99_ms": summaries[0]["p99"] * 1e3}

    def record(self, fx, summaries) -> Dict[str, Any]:
        first = summaries[0]
        return {"sim_p99_ms": first["p99"] * 1e3,
                "cold_starts": first["cold_starts"],
                "offered": first["offered"]}


class SteadyCluster(Replay):
    name = "steady-cluster"
    # ~5e4 arrivals at 200 req/s, ~50 ms a replay: short replays keep
    # the heap small and give a run hundreds of samples.
    duration_s = 250.0

    def make_trace(self, rp, seed):
        return rp.poisson_trace(self.model, 200.0, self.duration_s,
                                seed=seed)

    def replay(self, fx, trace):
        rp = fx.rp
        config = rp.ClusterConfig(scheme=rp.Scheme.PASK, max_instances=4,
                                  keep_alive_s=0.5,
                                  trace_retention="aggregate")
        return rp.ClusterSimulator(fx.server, config).run(trace)

    def prepare(self, fx) -> None:
        fx.server = fx.rp.InferenceServer("MI100")

    def extra_summary(self, stats) -> Dict[str, Any]:
        return {"records": stats.trace.record_count}


class SteadyFleet(Replay):
    name = "steady-fleet"
    # The steady-cluster trace: the same traffic through the fleet loop,
    # which steps every request (~0.3 s a replay).
    duration_s = SteadyCluster.duration_s
    make_trace = SteadyCluster.make_trace

    def replay(self, fx, trace):
        rp = fx.rp
        config = rp.FleetConfig(
            regions=tuple(rp.RegionConfig(name=f"r{i}", device="MI100",
                                          scheme=rp.Scheme.PASK,
                                          max_instances=4, keep_alive_s=0.5)
                          for i in range(4)),
            routing=rp.RoutingPolicy("round-robin"))
        return rp.FleetSimulator(config).run(trace)


class ChurnFleet(Replay):
    name = "churn-fleet"
    devices = ("MI100", "A100")
    duration_s = 120.0   # ~9k arrivals, ~0.3 s a replay

    def make_trace(self, rp, seed):
        duration = self.duration_s
        tenant_a = rp.bursty_trace(self.model, 15.0, 200.0, 10.0, 1.5,
                                   duration, seed=2 * seed + 1)
        tenant_b = rp.bursty_trace(self.model, 10.0, 150.0, 7.0, 1.0,
                                   duration, seed=2 * seed + 2)
        return rp.merge_traces([("tenant-a", tenant_a),
                                ("tenant-b", tenant_b)])

    def config(self, rp, seed):
        duration = self.duration_s
        pack_faults = dict(pack_local_failure_rate=0.2,
                           pack_peer_failure_rate=0.1,
                           pack_origin_failure_rate=0.05,
                           pack_corruption_rate=0.05)
        mi100 = rp.FaultPlan(seed=7 * seed + 3, crash_rate=0.01,
                             registry_outage_windows=(
                                 (0.3 * duration, 0.5 * duration),),
                             **pack_faults)
        a100 = rp.FaultPlan(seed=7 * seed + 4, crash_rate=0.01,
                            **pack_faults)
        return rp.FleetConfig(
            regions=(rp.RegionConfig(name="mi100", device="MI100",
                                     scheme=rp.Scheme.PASK, max_instances=4,
                                     faults=mi100),
                     rp.RegionConfig(name="a100", device="A100",
                                     scheme=rp.Scheme.PASK, max_instances=4,
                                     faults=a100)),
            routing=rp.RoutingPolicy("warm-first"),
            autoscale=rp.AutoscalePolicy(kind="scale-to-zero",
                                         idle_timeout_s=0.25),
            packs=rp.PackPolicy(), trace_retention="aggregate")

    def prepare(self, fx) -> None:
        fx.config = self.config(fx.rp, fx.seed)

    def replay(self, fx, trace):
        rp = fx.rp
        fx.spans = rp.SpanRecorder()
        fx.metrics = rp.MetricsRegistry()
        slo = rp.SLOPolicy(p99_target_s=0.05, cold_rate_target=0.5)
        return rp.FleetSimulator(fx.config, metrics=fx.metrics,
                                 spans=fx.spans, slo=slo).run(trace)

    def summarize(self, fx, index, raw) -> Dict[str, Any]:
        summary = super().summarize(fx, index, raw)
        summary["spans"] = len(fx.spans)
        summary["metric_families"] = len(fx.metrics)
        return summary

    def extra_summary(self, stats) -> Dict[str, Any]:
        ledgers = {name: region.packs.as_dict()
                   for name, region in stats.regions.items()}
        return {"pack_restores": stats.pack_restores,
                "crashes": sum(r.faults.crashes
                               for r in stats.regions.values()),
                "records": sum(r.trace.record_count
                               for r in stats.regions.values()),
                "packs": ledgers, "monitors": stats.monitors}

    def check(self, fx, summary, recorded) -> List[str]:
        problems = super().check(fx, summary, recorded)
        for name, ledger in summary["packs"].items():
            fetched = (ledger["local_bytes"] + ledger["peer_bytes"]
                       + ledger["origin_bytes"])
            kept = (ledger["bytes_verified"] + ledger["bytes_discarded"]
                    + ledger["bytes_abandoned"])
            if fetched != kept:
                problems.append(f"{name}: pack bytes fetched {fetched} != "
                                f"verified + discarded + abandoned {kept}")
        if summary["spans"] == 0:
            problems.append("telemetry sinks recorded no spans")
        return problems


WORKLOADS = {w.name: w for w in (ZooCold(), SteadyCluster(), SteadyFleet(),
                                 ChurnFleet())}
