"""The fleet observability plane: control-plane spans and SLO monitors.

Two contracts are pinned here:

- **Byte-inertness** — attaching any combination of telemetry sinks
  (spans, metrics, monitors) to a fleet replay leaves every stat
  byte-identical to the telemetry-off run, serial and sharded alike
  (hypothesis-pinned across configs).
- **Serial/sharded telemetry identity** — a telemetry-on sharded
  replay produces byte-identical span lists, metrics dumps and monitor
  summaries to the telemetry-on serial replay and to the per-arrival
  loop, in static mode and in the serial fallback, in-process and
  across worker processes.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         RegionConfig, RoutingPolicy, equivalence_problems,
                         merge_traces, run_fleet_sharded)
from repro.fleet.fleet import _QueueDepthTracker
from repro.fleet.parallel import _static_assignment
from repro.obs import (MetricsRegistry, SLOMonitorSet, SLOPolicy,
                       SpanRecorder, validate_dump, validate_monitors)
from repro.packs import PackPolicy
from repro.serving.requests import RequestTrace, poisson_trace
from repro.sim.faults import FaultPlan

_SLO = SLOPolicy(availability_target=0.999, p99_target_s=1.0,
                 cold_rate_target=0.5, window_s=2.0)


def _config(autoscale=None, routing="warm-first", shed_wait_s=None):
    return FleetConfig(
        regions=(RegionConfig(name="us-east", device="MI100",
                              scheme=Scheme.PASK, max_instances=4),
                 RegionConfig(name="eu-west", device="A100",
                              scheme=Scheme.BASELINE, max_instances=2)),
        routing=RoutingPolicy(routing),
        autoscale=autoscale,
        shed_wait_s=shed_wait_s)


def _trace(rate=60.0, duration=2.0, seed=0):
    return poisson_trace("res", rate, duration, seed=seed)


class TestControlPlaneSpans:
    def test_decision_spans_are_zero_duration(self):
        spans = SpanRecorder()
        # A burst (queueing raises the reactive cap) followed by a
        # quiet period (idle shrinks it) so both scale directions emit.
        trace = RequestTrace("res", tuple([i * 0.001 for i in range(12)]
                                          + [10.0]))
        FleetSimulator(_config(AutoscalePolicy(kind="reactive",
                                               min_instances=1,
                                               scale_up_wait_s=0.0005,
                                               scale_down_idle_s=1.0)),
                       spans=spans).run(trace)
        recorded = list(spans)
        assert recorded
        assert all(s.category == "decision" for s in recorded)
        assert all(s.end == s.start for s in recorded)
        names = {s.name for s in recorded}
        assert "fleet:route" in names
        assert "fleet:scale-up" in names
        assert "fleet:scale-down" in names

    def test_route_spans_carry_region_and_policy(self):
        spans = SpanRecorder()
        FleetSimulator(_config(), spans=spans).run(_trace())
        routes = [s for s in spans if s.name == "fleet:route"]
        assert routes
        for span in routes:
            attrs = dict(span.attrs)
            assert span.actor in ("region:us-east", "region:eu-west")
            assert attrs["policy"] == "warm-first"
            assert attrs["tenant"]

    def test_telemetry_leaves_stats_byte_identical(self):
        config = _config(AutoscalePolicy(kind="reactive", min_instances=1,
                                         scale_up_wait_s=0.01))
        trace = _trace()
        plain = FleetSimulator(config).run(trace)
        loud = FleetSimulator(config, metrics=MetricsRegistry(),
                              spans=SpanRecorder()).run(trace)
        loud.monitors = None  # the only field telemetry may add
        assert equivalence_problems(plain, loud) == []

    def test_fleet_metrics_families_and_labels(self):
        metrics = MetricsRegistry()
        FleetSimulator(_config(), metrics=metrics).run(_trace())
        dump = metrics.to_json()
        assert validate_dump(dump) == []
        for family in ("fleet_routed_total", "fleet_queue_depth"):
            assert family in dump
        series = dump["fleet_routed_total"]["series"]
        assert series
        assert {s["labels"]["region"] for s in series} <= {"us-east",
                                                           "eu-west"}
        assert all(s["labels"]["policy"] == "warm-first" for s in series)
        routed = sum(s["value"] for s in series)
        assert routed > 0


class TestShardedTelemetryIdentity:
    @pytest.mark.parametrize("autoscale,routing,shed_wait_s", [
        pytest.param(None, "round-robin", None, id="None-round-robin"),
        pytest.param(AutoscalePolicy(kind="scale-to-zero",
                                     idle_timeout_s=0.2),
                     "warm-first", None, id="autoscale1-warm-first"),
        # Reactive stepping: idle ticks at every fleet arrival, and the
        # scale-down / scale-up / shed events the merge replays.
        pytest.param(AutoscalePolicy(kind="reactive", min_instances=1,
                                     scale_up_wait_s=0.0005,
                                     scale_down_idle_s=0.05),
                     "round-robin", 0.005, id="reactive-round-robin-shed"),
        pytest.param(AutoscalePolicy(kind="predictive",
                                     prewarm_headroom=20.0,
                                     idle_timeout_s=0.05,
                                     prewarm_cooldown_s=0.2),
                     "round-robin", None, id="predictive-round-robin"),
    ])
    def test_spans_metrics_monitors_match_serial(self, autoscale, routing,
                                                 shed_wait_s):
        config = _config(autoscale, routing=routing, shed_wait_s=shed_wait_s)
        trace = _trace()
        serial_spans, serial_metrics = SpanRecorder(), MetricsRegistry()
        serial = FleetSimulator(config, metrics=serial_metrics,
                                spans=serial_spans, slo=_SLO).run(trace)
        shard_spans, shard_metrics = SpanRecorder(), MetricsRegistry()
        sharded, report = run_fleet_sharded(
            config, trace, metrics=shard_metrics, spans=shard_spans,
            slo=_SLO)
        assert report.mode == ("static" if routing == "round-robin"
                               else "serial")
        assert equivalence_problems(serial, sharded) == []
        assert list(serial_spans) == list(shard_spans)
        assert serial_metrics.to_json() == shard_metrics.to_json()
        assert serial.monitors == sharded.monitors
        assert validate_monitors(sharded.monitors) == []
        # Independent oracle: the serial per-arrival loop shares no
        # replay code with the static path the two runs above take.
        step_spans, step_metrics = SpanRecorder(), MetricsRegistry()
        stepped = FleetSimulator(
            dataclasses.replace(config, fast_forward=False),
            metrics=step_metrics, spans=step_spans, slo=_SLO).run(trace)
        assert stepped.fast_forwarded == 0
        assert [p for p in equivalence_problems(stepped, sharded)
                if ".fast_forwarded:" not in p] == []
        assert list(step_spans) == list(shard_spans)
        assert step_metrics.to_json() == shard_metrics.to_json()
        assert stepped.monitors == sharded.monitors

    def test_identity_holds_across_worker_processes(self):
        config = _config(AutoscalePolicy(kind="scale-to-zero",
                                         idle_timeout_s=0.2))
        trace = _trace(rate=40.0)
        serial_metrics = MetricsRegistry()
        serial = FleetSimulator(config, metrics=serial_metrics,
                                slo=_SLO).run(trace)
        shard_metrics = MetricsRegistry()
        sharded, _ = run_fleet_sharded(config, trace, jobs=2,
                                       metrics=shard_metrics, slo=_SLO)
        assert equivalence_problems(serial, sharded) == []
        assert serial_metrics.to_json() == shard_metrics.to_json()

    def test_span_capture_with_trace_retention_falls_back_to_serial(self):
        # Retained request traces bind to the span recorder in-region,
        # so this combination replays on the serial loop, unsharded.
        config = FleetConfig(
            regions=(RegionConfig(name="us-east", device="MI100",
                                  scheme=Scheme.PASK, max_instances=2),
                     RegionConfig(name="eu-west", device="A100",
                                  scheme=Scheme.PASK, max_instances=2)),
            routing=RoutingPolicy("round-robin"),
            trace_retention="aggregate")
        serial_spans = SpanRecorder()
        serial = FleetSimulator(config, spans=serial_spans).run(_trace())
        shard_spans = SpanRecorder()
        sharded, report = run_fleet_sharded(config, _trace(), jobs=2,
                                            spans=shard_spans)
        assert (report.mode, report.shards) == ("serial", 0)
        assert equivalence_problems(serial, sharded) == []
        assert list(serial_spans) == list(shard_spans)


@st.composite
def _obs_fleet_cases(draw):
    autoscale = draw(st.one_of(
        st.none(),
        st.just(AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.2)),
        st.just(AutoscalePolicy(kind="reactive", min_instances=1,
                                scale_up_wait_s=0.01)),
        st.just(AutoscalePolicy(kind="predictive", prewarm_headroom=1.5))))
    routing = draw(st.sampled_from(("round-robin", "least-queue",
                                    "warm-first")))
    shed = draw(st.one_of(st.none(), st.just(0.05)))
    trace = _trace(rate=draw(st.floats(10.0, 80.0)),
                   duration=draw(st.floats(0.5, 2.0)),
                   seed=draw(st.integers(0, 99)))
    return _config(autoscale, routing=routing, shed_wait_s=shed), trace


class TestNoPerturbationProperty:
    @given(case=_obs_fleet_cases())
    @settings(max_examples=15, deadline=None)
    def test_full_telemetry_never_perturbs_replay(self, case):
        config, trace = case
        plain = FleetSimulator(config).run(trace)
        serial = FleetSimulator(config, metrics=MetricsRegistry(),
                                spans=SpanRecorder(), slo=_SLO).run(trace)
        sharded, _ = run_fleet_sharded(
            config, trace, metrics=MetricsRegistry(), spans=SpanRecorder(),
            slo=_SLO)
        # Monitors are the one field only telemetry-on runs carry.
        assert serial.monitors is not None
        assert serial.monitors == sharded.monitors
        serial.monitors = sharded.monitors = None
        assert equivalence_problems(plain, serial) == []
        assert equivalence_problems(plain, sharded) == []


_STATIC_AUTOSCALE = (
    None,
    AutoscalePolicy(kind="fixed", min_instances=1),
    AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.05),
    AutoscalePolicy(kind="reactive", min_instances=1,
                    scale_up_wait_s=0.0005, scale_down_idle_s=0.02),
    AutoscalePolicy(kind="predictive", prewarm_headroom=50.0,
                    idle_timeout_s=0.05, prewarm_cooldown_s=0.1),
)


@st.composite
def _static_fleet_cases(draw, autoscale=None):
    """State-free fleets: round-robin over 2-3 regions, each with
    optional drains and crashes, under ``autoscale``, with optional
    shedding and 1-2 tenants."""
    regions = []
    for i in range(draw(st.integers(2, 3))):
        drains = draw(st.sampled_from(((), ((0.3, 0.8),), ((0.0, 0.4),))))
        faults = draw(st.one_of(
            st.none(), st.builds(FaultPlan, seed=st.integers(0, 9),
                                 crash_rate=st.just(0.2),
                                 max_reroutes=st.just(0))))
        regions.append(RegionConfig(name=f"r{i}", device="MI100",
                                    scheme=Scheme.PASK,
                                    max_instances=draw(st.integers(1, 4)),
                                    keep_alive_s=0.1, faults=faults,
                                    drain_windows=drains))
    config = FleetConfig(
        regions=tuple(regions), routing=RoutingPolicy("round-robin"),
        autoscale=autoscale,
        shed_wait_s=draw(st.sampled_from((None, 0.002, 0.02))))
    named = [(f"tenant-{i}", _trace(rate=draw(st.floats(20.0, 120.0)),
                                    duration=1.0,
                                    seed=draw(st.integers(0, 99))))
             for i in range(draw(st.integers(1, 2)))]
    return config, merge_traces(named)


def _replay_all_sinks(config, trace):
    spans, metrics = SpanRecorder(), MetricsRegistry()
    stats = FleetSimulator(config, metrics=metrics, spans=spans,
                           slo=_SLO).run(trace)
    return stats, list(spans), metrics.to_json()


class TestStaticPathMatchesPerArrivalOracle:
    @pytest.mark.parametrize("autoscale", _STATIC_AUTOSCALE,
                             ids=["none", "fixed", "scale-to-zero",
                                  "reactive", "predictive"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_spans_metrics_monitors_match_oracle(self, autoscale, data):
        config, trace = data.draw(_static_fleet_cases(autoscale))
        assert _static_assignment(config, trace) is not None
        static, static_spans, static_metrics = _replay_all_sinks(config,
                                                                 trace)
        oracle, oracle_spans, oracle_metrics = _replay_all_sinks(
            dataclasses.replace(config, fast_forward=False), trace)
        assert oracle.fast_forwarded == 0
        assert [p for p in equivalence_problems(oracle, static)
                if ".fast_forwarded:" not in p] == []
        assert static_spans == oracle_spans
        assert static_metrics == oracle_metrics
        assert static.monitors == oracle.monitors

    def test_per_arrival_spans_interleave_with_trace_records(self):
        # Spans plus trace retention keep the per-arrival loop, where
        # each decision span must sit between the trace records its
        # arrival produces: route, then the prewarm loads and their
        # decision span, then the serve, then any alert.
        config = FleetConfig(
            regions=(RegionConfig(name="a", device="MI100",
                                  scheme=Scheme.PASK, max_instances=4),
                     RegionConfig(name="b", device="A100",
                                  scheme=Scheme.PASK, max_instances=4)),
            routing=RoutingPolicy("round-robin"),
            autoscale=AutoscalePolicy(kind="predictive",
                                      prewarm_headroom=20.0,
                                      idle_timeout_s=0.05,
                                      prewarm_cooldown_s=0.2),
            trace_retention="full")
        spans = SpanRecorder()
        slo = SLOPolicy(p99_target_s=0.005, cold_rate_target=0.2,
                        window_s=0.5)
        FleetSimulator(config, spans=spans, slo=slo).run(_trace())
        recorded = list(spans)
        assert [s.span_id for s in recorded] == list(
            range(1, len(recorded) + 1))
        tokens = []
        for span in recorded:
            if span.name == "fleet:route":
                tokens.append("R")
            elif span.name == "fleet:prewarm":
                tokens.append("P")
            elif span.category == "alert":
                tokens.append("A")
            elif span.name == "prewarm":
                tokens.append("L")
            else:
                assert span.category in ("load", "exec"), span
                tokens.append("S")
        assert "P" in tokens and "A" in tokens
        starts = [i for i, token in enumerate(tokens) if token == "R"]
        assert starts[0] == 0
        for begin, end in zip(starts, starts[1:] + [len(tokens)]):
            segment = "".join(tokens[begin:end])
            match = re.fullmatch(r"R(?:(L+)P)?S+A*", segment)
            assert match, segment
            route = recorded[begin]
            body = len(segment.rstrip("A"))
            for span in recorded[begin + 1:begin + body]:
                assert span.actor == route.actor
                assert span.start >= route.start
            if match.group(1):
                loads = len(match.group(1))
                for span in recorded[begin + 1:begin + 2 + loads]:
                    assert span.start == route.start
                prewarm = recorded[begin + 1 + loads]
                assert dict(prewarm.attrs)["spawned"] == loads


class TestSLOMonitors:
    def test_cold_rate_ignores_pack_restores_on_every_path(self):
        # A lone-region fleet without shedding delegates to the cluster
        # loop; a shed bound that never fires keeps the fleet's own
        # per-arrival loop.  Both must count only full cold starts.
        def replay(**kwargs):
            config = FleetConfig(
                regions=(RegionConfig("r0", device="MI100",
                                      scheme=Scheme.PASK, max_instances=2,
                                      keep_alive_s=0.05),),
                packs=PackPolicy(), **kwargs)
            return FleetSimulator(
                config, slo=SLOPolicy(cold_rate_target=0.05)).run(
                    poisson_trace("res", 25, 8, seed=3))
        delegated = replay()
        stepped = replay(shed_wait_s=1e9)
        assert delegated.delegated and not stepped.delegated
        assert delegated.cold_starts == 0
        assert delegated.pack_restores > 0
        assert delegated.monitors == stepped.monitors
        assert delegated.monitors["monitors"]["cold-rate"]["fired"] == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(availability_target=1.5)
        with pytest.raises(ValueError):
            SLOPolicy(window_s=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(p99_target_s=-1.0)

    def test_availability_monitor_fires_on_burn(self):
        monitors = SLOMonitorSet(SLOPolicy(availability_target=0.99,
                                           window_s=1.0))
        fresh = []
        for i in range(20):
            fresh += monitors.observe_completed(i * 0.01, 0.001, False)
            fresh += monitors.observe_failed(i * 0.01 + 0.005)
        assert any(a.monitor == "availability" and a.state == "firing"
                   for a in fresh)
        summary = monitors.summary()
        assert summary["monitors"]["availability"]["fired"] >= 1
        assert validate_monitors(summary) == []

    def test_quiet_stream_never_alerts(self):
        monitors = SLOMonitorSet(_SLO)
        for i in range(50):
            assert monitors.observe_completed(i * 0.05, 0.002, False) == []
        summary = monitors.summary()
        assert summary["alerts"] == []
        assert all(not m["fired"] for m in summary["monitors"].values())

    def test_alerts_are_deterministic(self):
        def burn():
            monitors = SLOMonitorSet(SLOPolicy(cold_rate_target=0.1,
                                               window_s=1.0))
            for i in range(30):
                monitors.observe_completed(i * 0.02, 0.01, cold=i % 2 == 0)
            return monitors.summary()
        assert burn() == burn()

    def test_validate_monitors_rejects_junk(self):
        assert validate_monitors(None)
        assert validate_monitors({"monitors": {}})
        good = SLOMonitorSet(_SLO).summary()
        bad = dict(good)
        bad["alerts"] = [{"monitor": "availability", "state": "meh",
                          "t": 0.0, "value": 1.0, "threshold": 1.0}]
        assert validate_monitors(bad)


class TestQueueDepthTracker:
    def test_tracks_peak_concurrent_waiters(self):
        tracker = _QueueDepthTracker()
        tracker.observe(0.0, 1.0)
        tracker.observe(0.1, 1.5)
        tracker.observe(0.2, 2.0)
        assert tracker.peak == 3
        tracker.observe(1.6, 1.7)
        assert tracker.peak == 3

    def test_immediate_starts_never_queue(self):
        tracker = _QueueDepthTracker()
        for t in (0.0, 0.5, 1.0):
            tracker.observe(t, t)
        assert tracker.peak == 0


class TestCLISurface:
    def test_fleet_telemetry_flag(self, capsys):
        assert main(["fleet", "res", "--duration", "1", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "decision span(s)" in out
        assert "slo availability" in out

    def test_fleet_metrics_export(self, capsys):
        assert main(["fleet", "res", "--duration", "1",
                     "--metrics", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE fleet_routed_total counter" in out

    def test_bench_slo_requires_fleet(self, capsys):
        assert main(["bench", "--quick", "--slo", "--no-report",
                     "--no-cache"]) == 2
        assert "--slo needs --fleet" in capsys.readouterr().out

    def test_profile_fleet_reports_mode(self, capsys):
        assert main(["profile", "--fleet", "--scale", "2000",
                     "--telemetry-requests", "0"]) == 0
        out = capsys.readouterr().out
        assert "fleet replay" in out
        assert "(static mode)" in out
        assert "rounds" not in out

    @pytest.mark.parametrize("argv,message", [
        (["--scale", "0"], "requests must be positive"),
        (["--regions", "0"], "regions must be positive"),
        (["nosuch"], "unknown model 'nosuch'"),
    ])
    def test_profile_fleet_bad_input_is_one_line_error(self, capsys, argv,
                                                       message):
        assert main(["profile", "--fleet", "--scale", "100",
                     "--telemetry-requests", "0"] + argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert message in out
        assert out.count("\n") == 1
