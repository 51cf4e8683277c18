"""Trace aggregation: retention policies, lazy folding, byte-identity.

The aggregates must be a pure acceleration structure: every
aggregate metric under ``retention="aggregate"`` (bounded memory) equals
the ``retention="full"`` value bit-for-bit, including on the real traces
the golden-regression model × scheme grid produces.
"""

import json

import pytest

from repro.core.schemes import Scheme
from repro.models import list_models
from repro.serving.server import InferenceServer
from repro.sim.trace import (RETENTION_POLICIES, Phase, TraceRecord,
                             TraceRecorder, merge_intervals)

_SCHEMES = (Scheme.BASELINE, Scheme.NNV12, Scheme.PASK, Scheme.IDEAL)
_SERVER = InferenceServer("MI100")


def _reingest(trace, retention, ring_size=64):
    clone = TraceRecorder(retention=retention, ring_size=ring_size)
    for rec in trace.records:
        clone.ingest(rec)
    return clone


def _assert_metrics_identical(a, b):
    phases = list(Phase) + [None]
    actors = {None}
    for rec in b.filtered() if b.retention == "full" else []:
        actors.add(rec.actor)
    for phase in phases:
        assert a.total(phase) == b.total(phase)
        assert a.busy_time(phase) == b.busy_time(phase)
    for actor in actors:
        assert a.total(actor=actor) == b.total(actor=actor)
        assert a.busy_time(actor=actor) == b.busy_time(actor=actor)
    assert a.span() == b.span()
    assert a.breakdown(list(Phase)) == b.breakdown(list(Phase))
    assert (a.exclusive_fractions(list(Phase))
            == b.exclusive_fractions(list(Phase)))
    assert a.utilization("gpu") == b.utilization("gpu")
    assert a.record_count == b.record_count


# ----------------------------------------------------------------------
# Byte identity across the golden model x scheme grid
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.value)
def test_aggregate_metrics_bit_identical_on_real_traces(model, scheme):
    trace = _SERVER.serve_cold(model, scheme).trace
    aggregate = _reingest(trace, "aggregate")
    _assert_metrics_identical(aggregate, trace)
    # The ring genuinely bounds memory on these traces.
    assert aggregate.retained_records <= 64
    assert aggregate.record_count == len(trace.records)


def test_streaming_metrics_match_full_rescan():
    # The accumulators must agree with a brute-force re-merge of the
    # record history, not just with each other.
    trace = _SERVER.serve_cold("res", Scheme.PASK).trace
    for phase in (Phase.EXEC, Phase.LOAD, Phase.CHECK, None):
        records = [r for r in trace.records
                   if phase is None or r.phase is phase]
        assert trace.total(phase) == sum(r.duration for r in records)
        merged = merge_intervals((r.start, r.end) for r in records)
        assert trace.busy_time(phase) == sum(e - s for s, e in merged)


# ----------------------------------------------------------------------
# Retention policy behavior
# ----------------------------------------------------------------------

def test_retention_policies_are_validated():
    assert set(RETENTION_POLICIES) == {"full", "aggregate"}
    with pytest.raises(ValueError):
        TraceRecorder(retention="bogus")
    with pytest.raises(ValueError):
        TraceRecorder(retention="aggregate", ring_size=0)


def test_aggregate_ring_is_bounded():
    recorder = TraceRecorder(retention="aggregate", ring_size=8)
    for i in range(100):
        recorder.record(float(i), float(i) + 0.5, "gpu", Phase.EXEC)
    assert recorder.record_count == 100
    assert recorder.retained_records == 8
    # The ring holds the most recent records.
    assert [r.start for r in recorder.filtered()] == [
        float(i) for i in range(92, 100)]
    # Aggregates cover the full history, not just the ring.
    assert recorder.total(Phase.EXEC) == pytest.approx(50.0)
    assert recorder.span() == (0.0, 99.5)


def test_aggregate_filtered_sees_only_the_ring():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    for i in range(10):
        recorder.record(float(i), float(i) + 1.0, "gpu", Phase.EXEC)
    assert len(recorder.filtered(phase=Phase.EXEC)) == 4
    assert len(recorder.filtered(actor="gpu")) == 4


def test_full_retention_filtered_no_copy():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    assert recorder.filtered() is recorder.records


def test_clear_resets_aggregates():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.clear()
    assert recorder.record_count == 0
    assert recorder.retained_records == 0
    assert recorder.total() == 0.0
    assert recorder.span() == (0.0, 0.0)


def test_legacy_direct_append_is_folded_lazily():
    # Pre-streaming callers append TraceRecords straight onto .records;
    # metrics must still see them (full retention only).
    recorder = TraceRecorder()
    recorder.records.append(TraceRecord(0.0, 2.0, "gpu", Phase.EXEC))
    recorder.records.append(TraceRecord(1.0, 3.0, "gpu", Phase.EXEC))
    assert recorder.total(Phase.EXEC) == pytest.approx(4.0)
    assert recorder.busy_time(Phase.EXEC) == pytest.approx(3.0)
    assert recorder.record_count == 2
    assert recorder.span() == (0.0, 3.0)


def test_external_truncation_rebuilds_aggregates():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.record(5.0, 6.0, "gpu", Phase.EXEC)
    del recorder.records[1:]
    assert recorder.record_count == 1
    assert recorder.total(Phase.EXEC) == pytest.approx(1.0)
    assert recorder.span() == (0.0, 1.0)


def test_truncation_then_ingest_refolds_before_the_next_query():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.record(5.0, 6.0, "gpu", Phase.EXEC)
    recorder.total()
    del recorder.records[1:]
    # The list is back at the folded length before any query runs.
    recorder.record(2.0, 3.0, "gpu", Phase.EXEC)
    assert recorder.total(Phase.EXEC) == 2.0
    assert recorder.span() == (0.0, 3.0)


def test_out_of_order_records_merge_correctly():
    # The online union must match merge_intervals even when starts
    # arrive out of order (the bisect fallback path).
    recorder = TraceRecorder(retention="aggregate", ring_size=2)
    spans = [(5.0, 6.0), (0.0, 1.0), (0.5, 2.0), (4.0, 5.5), (3.0, 3.0)]
    for start, end in spans:
        recorder.record(start, end, "gpu", Phase.EXEC)
    merged = merge_intervals(spans)
    assert recorder.busy_time(Phase.EXEC) == sum(e - s for s, e in merged)
    assert recorder.total(Phase.EXEC) == sum(e - s for s, e in spans)


# ----------------------------------------------------------------------
# State round-trip (what the runner payloads use)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("retention", RETENTION_POLICIES)
def test_state_dict_round_trips_through_json(retention):
    recorder = TraceRecorder(retention=retention, ring_size=4)
    for i in range(12):
        recorder.record(i * 0.1, i * 0.1 + 0.05, "gpu", Phase.EXEC, "k",
                        layer=i)
    state = json.loads(json.dumps(recorder.state_dict()))
    clone = TraceRecorder.from_state(state)
    assert clone.retention == recorder.retention
    assert list(clone.records) == list(recorder.records)
    _assert_metrics_identical(clone, recorder)


# ----------------------------------------------------------------------
# Lazy batched fold: exact work counts
# ----------------------------------------------------------------------

def test_serve_folds_nothing_until_queried():
    trace = _SERVER.serve_cold("res", Scheme.PASK).trace
    assert trace.records_folded == 0
    count = trace.record_count
    assert count > 0
    trace.breakdown(list(Phase))
    assert trace.records_folded == count
    # Repeat queries of every kind fold nothing more.
    trace.breakdown(list(Phase))
    trace.exclusive_fractions(list(Phase))
    trace.utilization("gpu")
    trace.state_dict()
    assert trace.records_folded == count


def test_aggregate_pending_list_is_bounded_by_the_ring():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    for i in range(1, 11):
        recorder.record(float(i), float(i) + 0.5, "gpu", Phase.EXEC)
        # Every fourth record folds the whole pending list in one batch.
        assert recorder.records_folded == i // 4 * 4
    assert recorder.record_count == 10
    assert recorder.total(Phase.EXEC) == 5.0
    assert recorder.records_folded == 10
