"""Per-layer host-time tracing, installed from outside the program.

A :class:`LayerTracer` wraps the public entry points each ``repro`` layer
offers the others (``ENTRY_POINTS``) and keeps a stack of open spans.
Every call through a wrapper is one span; a generator-based entry point
(the event-kernel processes, the scheme executors, the runtime's
``yield from`` helpers) is timed per resume, so the time a suspended
generator spends waiting in the event queue is never billed to it.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  The tracer runs under a root ``harness`` span, so
the self times of all layers plus the harness add up to the traced wall
time; :meth:`LayerTracer.self_time_error` reports how far they miss.

The tracer also takes exact work counts at the boundaries it wraps
(``post`` hooks read the public result objects: ``ExecutionResult``,
``ClusterStats``/``FleetStats``, ``TraceRecorder.record_count``,
``Environment.events_scheduled`` and the pack ledger).

Wrappers are installed by patching module and class attributes of an
imported ``repro``.  The benchmark re-imports ``repro`` from scratch for
each set-up, so an untraced run never sees a wrapper.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

LAYERS = ("graph", "engine", "primitive", "core", "gpu", "sim.core",
          "sim.trace", "sim.faults", "serving", "fleet", "packs", "obs")
HARNESS = "harness"

# Module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYERS = (
    ("repro.models", "graph"),
    ("repro.graph", "graph"),
    ("repro.engine", "engine"),
    ("repro.primitive", "primitive"),
    ("repro.core", "core"),
    ("repro.gpu", "gpu"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim.faults", "sim.faults"),
    ("repro.sim", "sim.core"),
    ("repro.serving", "serving"),
    ("repro.fleet", "fleet"),
    ("repro.packs", "packs"),
    ("repro.obs", "obs"),
)

# The public functions and methods through which one layer calls
# another.  Calls that stay inside a layer are not wrapped: they cannot
# move time between layers and would only add overhead.
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    # graph: model zoo builders
    ("repro.models.zoo", "build_model"),
    # engine: passes, lowering, registry
    ("repro.engine.passes", "run_passes"),
    ("repro.engine.lowering", "lower"),
    ("repro.engine.registry", "ModelRegistry.compile_and_register"),
    ("repro.engine.registry", "ModelRegistry.load"),
    # primitive: solver library, find-db, applicability checks
    ("repro.primitive.find_db", "FindDb.query"),
    ("repro.primitive.library", "MIOpenLibrary.find_best"),
    ("repro.primitive.library", "MIOpenLibrary.solution_by_name"),
    ("repro.primitive.library", "MIOpenLibrary.run_solution"),
    ("repro.primitive.blas", "BlasLibrary.find_best"),
    ("repro.primitive.blas", "BlasLibrary.run_gemm"),
    ("repro.primitive.solution", "Solution.is_applicable"),
    ("repro.primitive.solution", "Solution.tuning_compatible"),
    ("repro.primitive.solution", "Solution.efficiency"),
    ("repro.primitive.solution", "Solution.code_object_for"),
    ("repro.primitive.solution", "Solution.transform_code_objects"),
    # core: PASK middleware, solution caches, scheme executors
    ("repro.core.schemes", "build_executor"),
    ("repro.core.schemes", "program_code_objects"),
    ("repro.core.middleware", "PaskMiddleware.execute"),
    ("repro.core.cache", "CategoricalSolutionCache.get_sub_solution"),
    ("repro.core.cache", "CategoricalSolutionCache.insert"),
    ("repro.core.cache", "NaiveSolutionCache.get_sub_solution"),
    ("repro.core.cache", "NaiveSolutionCache.insert"),
    # gpu: HIP runtime, stream, loader
    ("repro.gpu.runtime", "HipRuntime.__init__"),
    ("repro.gpu.runtime", "HipRuntime.is_loaded"),
    ("repro.gpu.runtime", "HipRuntime.module_load"),
    ("repro.gpu.runtime", "HipRuntime.get_function"),
    ("repro.gpu.runtime", "HipRuntime.launch_kernel"),
    ("repro.gpu.runtime", "HipRuntime.synchronize"),
    ("repro.gpu.runtime", "HipRuntime.preload"),
    ("repro.gpu.runtime", "HipRuntime.snapshot"),
    ("repro.gpu.stream", "Stream.enqueue"),
    # sim.core: event kernel and channels
    ("repro.sim.core", "Environment.run"),
    ("repro.sim.core", "Environment.process"),
    ("repro.sim.core", "Environment.timeout"),
    ("repro.sim.core", "Environment.event"),
    ("repro.sim.core", "Environment.all_of"),
    ("repro.sim.channel", "Channel.put"),
    ("repro.sim.channel", "Channel.get"),
    ("repro.sim.channel", "Channel.close"),
    # sim.trace: TraceRecorder ingest
    ("repro.sim.trace", "TraceRecorder.record"),
    ("repro.sim.trace", "TraceRecorder.ingest"),
    ("repro.sim.trace", "TraceRecorder.ingest_stream"),
    # sim.faults: injection sites
    ("repro.sim.faults", "FaultPlan.injector"),
    ("repro.sim.faults", "FaultInjector.crash_point"),
    ("repro.sim.faults", "FaultInjector.pack_fetch_fails"),
    ("repro.sim.faults", "FaultInjector.pack_verify_fails"),
    # serving: server and cluster
    ("repro.serving.server", "InferenceServer.serve_cold"),
    ("repro.serving.server", "InferenceServer.serve_hot"),
    ("repro.serving.server", "InferenceServer.capture_snapshot"),
    ("repro.serving.cluster", "ClusterSimulator.run"),
    ("repro.serving.requests", "poisson_trace"),
    ("repro.serving.requests", "bursty_trace"),
    # fleet: fleet loop (routing and autoscaling run inside it)
    ("repro.fleet.fleet", "FleetSimulator.run"),
    ("repro.fleet.fleet", "merge_traces"),
    # packs: artifact and fetch ladder
    ("repro.packs.artifact", "pack_for"),
    ("repro.packs.store", "PackStoreState.fetch"),
    # obs: span recorders (real and the null one telemetry-off code
    # calls), metrics, SLO monitors
    ("repro.obs.spans", "SpanRecorder.__init__"),
    ("repro.obs.spans", "SpanRecorder.bind"),
    ("repro.obs.spans", "SpanRecorder.observe"),
    ("repro.obs.spans", "SpanRecorder.event"),
    ("repro.obs.spans", "NullRecorder.request"),
    ("repro.obs.spans", "NullRecorder.stage_exec_links"),
    ("repro.obs.metrics", "MetricsRegistry.counter"),
    ("repro.obs.metrics", "MetricsRegistry.gauge"),
    ("repro.obs.metrics", "MetricsRegistry.histogram"),
    ("repro.obs.monitors", "SLOMonitorSet.observe_completed"),
    ("repro.obs.monitors", "SLOMonitorSet.observe_failed"),
    ("repro.obs.monitors", "SLOMonitorSet.summary"),
    ("repro.obs.monitors", "emit_alert_spans"),
)

# Spans kept in memory for the written trace file; self times and counts
# cover every span regardless.
SPAN_LIMIT = 50_000


def layer_of_module(module: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to (``None`` outside them)."""
    best: Optional[Tuple[str, str]] = None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class LayerTracer:
    """Span stack, per-layer self time and work counts for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[HARNESS] = 0.0
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.wall_s = 0.0
        # Open spans: [layer, child seconds, span id].
        self._stack: List[list] = []
        self._next_id = 0
        self._file_layers: Dict[str, str] = {}
        self._events_seen: "WeakKeyDictionary[Any, int]" = \
            WeakKeyDictionary()
        self.span_recorders: List[Any] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float,
               end: float) -> None:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        self.self_s[frame[0]] += elapsed - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((frame[2], parent[2], frame[0], name,
                                   start, end))

    def run_root(self, body: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``body`` under the root ``harness`` span; returns its
        result and the traced wall time."""
        began = perf_counter()
        frame = self._open(HARNESS)
        start = perf_counter()
        try:
            result = body()
        finally:
            self._close(frame, HARNESS, start, perf_counter())
            self.wall_s = perf_counter() - began
        return result, self.wall_s

    def self_time_error(self) -> float:
        """|sum of self times - traced wall| as a share of the wall."""
        if self.wall_s <= 0:
            return 0.0
        return abs(sum(self.self_s.values()) - self.wall_s) / self.wall_s

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _timed_generator(self, layer: str, name: str, generator):
        """Drive ``generator`` like ``yield from``, one span per resume."""
        clock = perf_counter
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = self._open(layer)
            start = clock()
            try:
                if error is None:
                    item = generator.send(value)
                else:
                    pending, error = error, None
                    item = generator.throw(pending)
            except StopIteration as stop:
                self._close(frame, name, start, clock())
                return stop.value
            except BaseException:
                self._close(frame, name, start, clock())
                raise
            self._close(frame, name, start, clock())
            try:
                value = yield item
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # delivered into the child
                error = thrown
                value = None

    def _is_timed(self, generator) -> bool:
        return getattr(generator, "gi_code", None) is \
            LayerTracer._timed_generator.__code__

    def _wrap(self, layer: str, name: str, fn: Callable,
              post: Optional[Callable[[Any, tuple], None]]) -> Callable:
        calls = self.calls
        calls.setdefault(name, 0)
        stack = self._stack
        clock = perf_counter
        tracer = self
        # ``build_executor`` returns the scheme executor, a generator
        # function whose generators must be timed per resume as well.
        factory = name == "build_executor"

        def wrapper(*args, **kwargs):
            if not stack:  # outside the traced section
                return fn(*args, **kwargs)
            calls[name] += 1
            frame = tracer._open(layer)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name, start, clock())
                if post is not None:  # also when ``fn`` raised
                    post(result, args)
            if factory:
                return tracer._wrap_executor(layer, name, result)
            if hasattr(result, "gi_code") and not tracer._is_timed(result):
                return tracer._timed_generator(layer, name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_executor(self, layer: str, name: str, executor: Callable):
        def executor_wrapper(*args, **kwargs):
            return self._timed_generator(layer, name, executor(*args,
                                                               **kwargs))
        return executor_wrapper

    def _process_wrapper(self, fn: Callable) -> Callable:
        """``Environment.process``: time the new process's generator per
        resume, billed to the layer whose module defines it."""
        tracer = self
        base = self._wrap("sim.core", "Environment.process", fn, None)

        def process(env, generator, name=None):
            if tracer._stack and not tracer._is_timed(generator):
                layer = tracer._layer_of_code(generator)
                if layer is not None:
                    generator = tracer._timed_generator(
                        layer, f"process:{generator.__name__}", generator)
            return base(env, generator, name)

        process.__wrapped__ = fn
        return process

    def _layer_of_code(self, generator) -> Optional[str]:
        code = getattr(generator, "gi_code", None)
        if code is None:
            return None
        return self._file_layers.get(os.path.realpath(code.co_filename))

    # -- post hooks: exact work counts read from public results ------------

    def _count_serve(self, result, _args) -> None:
        if result is None:
            return
        if isinstance(result, tuple):  # capture_snapshot: (result, snapshot)
            result = result[0]
        self.add("sim.trace.records", result.trace.record_count)
        self.add("gpu.module_loads", result.loads)
        self.add("gpu.loaded_bytes", result.loaded_bytes)
        self.add("core.reused_layers", result.reused_layers)
        self.add("core.skipped_loads", result.skipped_loads)

    def _count_run(self, _result, args) -> None:
        env = args[0]
        total = env.events_scheduled
        self.add("sim.core.events", total - self._events_seen.get(env, 0))
        self._events_seen[env] = total

    def _count_packs(self, packs) -> None:
        if packs is None:
            return
        self.add("packs.restores", packs.pack_restores)
        self.add("packs.fetched_bytes", packs.bytes_fetched)
        self.add("packs.verified_bytes", packs.bytes_verified)
        self.add("packs.retries", packs.retries)

    def _count_cluster(self, stats, _args) -> None:
        if stats is None:
            return
        self.add("serving.fast_forwarded", stats.fast_forwarded)
        self.add("serving.stepped", stats.requests - stats.fast_forwarded)
        self.add("sim.faults.crashes", stats.faults.crashes)
        if stats.trace is not None:
            self.add("sim.trace.records", stats.trace.record_count)
        self._count_packs(stats.packs)

    def _count_fleet(self, stats, _args) -> None:
        if stats is None:
            return
        if stats.delegated:  # counted at the ClusterSimulator.run boundary
            return
        self.add("fleet.fast_forwarded", stats.fast_forwarded)
        self.add("fleet.stepped", stats.offered - stats.fast_forwarded)
        self.add("fleet.cold_starts", stats.cold_starts)
        for region in stats.regions.values():
            self.add("fleet.scale_ups", region.scale_ups)
            self.add("fleet.scale_downs", region.scale_downs)
            self.add("sim.faults.crashes", region.faults.crashes)
            if region.trace is not None:
                self.add("sim.trace.records", region.trace.record_count)
            self._count_packs(region.packs)

    def _count_graph(self, graph, _args) -> None:
        if graph is None:
            return
        self.add("graph.nodes", len(graph))

    def _count_program(self, program, _args) -> None:
        if program is None:
            return
        self.add("engine.instructions", len(program))

    def _keep_span_recorder(self, _result, args) -> None:
        self.span_recorders.append(args[0])

    _POST = {
        "InferenceServer.serve_cold": "_count_serve",
        "InferenceServer.serve_hot": "_count_serve",
        "InferenceServer.capture_snapshot": "_count_serve",
        "Environment.run": "_count_run",
        "ClusterSimulator.run": "_count_cluster",
        "FleetSimulator.run": "_count_fleet",
        "build_model": "_count_graph",
        "lower": "_count_program",
        "SpanRecorder.__init__": "_keep_span_recorder",
    }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point of the currently imported ``repro``."""
        modules = {name: module for name, module in sys.modules.items()
                   if (name == "repro" or name.startswith("repro."))
                   and module is not None}
        for name, module in modules.items():
            path = getattr(module, "__file__", None)
            layer = layer_of_module(name)
            if path and layer:
                self._file_layers[os.path.realpath(path)] = layer
        for module_name, qualname in ENTRY_POINTS:
            layer = layer_of_module(module_name)
            module = modules.get(module_name)
            if module is None:
                raise RuntimeError(f"tracer: {module_name} is not imported")
            post_name = self._POST.get(qualname)
            post = getattr(self, post_name) if post_name else None
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                if qualname == "Environment.process":
                    wrapper = self._process_wrapper(original)
                else:
                    wrapper = self._wrap(layer, qualname, original, post)
                setattr(owner, attr, wrapper)
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, qualname, original, post)
                # Rebind every ``from module import name`` copy too.
                for other in modules.values():
                    if getattr(other, qualname, None) is original:
                        setattr(other, qualname, wrapper)

    # -- reporting ---------------------------------------------------------

    def finish_counts(self) -> None:
        """Counts that are read once the traced section has ended."""
        self.add("obs.spans", sum(len(r) for r in self.span_recorders))
        self.add("primitive.find_calls",
                 self.calls.get("FindDb.query", 0))

    def write_spans(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto)."""
        origin = self.spans[0][4] if self.spans else 0.0
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"id": span_id, "parent": parent}}
                  for span_id, parent, layer, name, start, end
                  in self.spans]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
