"""Tier-2 tests for the tracing subsystem (tracer, histogram, export)."""

import json

import pytest

from repro.system import MobileSystem
from repro.trace.export import (
    chrome_trace_document,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.trace.histogram import Histogram
from repro.trace.tracer import KERNEL_PID, Tracer


# ----------------------------------------------------------------------
# Disabled-by-default
# ----------------------------------------------------------------------
def test_tracing_disabled_by_default():
    system = MobileSystem()
    assert system.tracer is None
    assert system.mm.tracer is None
    assert system.kswapd.tracer is None
    assert system.fault_handler.tracer is None
    assert system.freezer.tracer is None
    assert system.sched.tracer is None


def test_untraced_run_emits_nothing():
    # A tracer constructed but never attached must stay empty after a
    # simulated workload: no hidden global registration anywhere.
    tracer = Tracer()
    baseline = len(tracer.events)
    system = MobileSystem()
    system.run(seconds=2.0)
    assert len(tracer.events) == baseline == 0
    assert system.sim.events_executed > 0


def test_traced_system_wires_all_hooks():
    tracer = Tracer()
    system = MobileSystem(tracer=tracer)
    assert system.mm.tracer is tracer
    assert system.kswapd.tracer is tracer
    assert system.fault_handler.tracer is tracer
    assert system.freezer.tracer is tracer
    assert system.sched.tracer is tracer
    # The clock is bound to simulated time.
    system.run(seconds=1.0)
    assert tracer.clock() == system.sim.now


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------
def test_ring_buffer_drops_oldest_beyond_capacity():
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.instant(f"e{index}")
    assert len(tracer.events) == 4
    assert tracer.events_emitted == 10
    assert tracer.dropped_events == 6
    assert [event.name for event in tracer.events] == ["e6", "e7", "e8", "e9"]


def test_ring_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


# ----------------------------------------------------------------------
# Span nesting / B-E pairing
# ----------------------------------------------------------------------
def test_span_nesting_matches_begin_end_pairing():
    tracer = Tracer()
    with tracer.span("outer", pid=5, tid=1):
        with tracer.span("inner", pid=5, tid=1):
            tracer.instant("leaf", pid=5, tid=1)
    sequence = [(event.ph, event.name) for event in tracer.events]
    assert sequence == [
        ("B", "outer"), ("B", "inner"), ("i", "leaf"),
        ("E", "inner"), ("E", "outer"),
    ]


def test_span_closes_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("guarded", pid=1, tid=1):
            raise RuntimeError("boom")
    assert [event.ph for event in tracer.events] == ["B", "E"]


def test_clock_drives_timestamps():
    now = {"t": 10.0}
    tracer = Tracer(clock=lambda: now["t"])
    tracer.begin("work", pid=1, tid=1)
    now["t"] = 25.0
    tracer.end("work", pid=1, tid=1)
    begin, end = tracer.events
    assert begin.ts == 10.0 and end.ts == 25.0


# ----------------------------------------------------------------------
# Typed tracepoints
# ----------------------------------------------------------------------
def test_counter_accepts_scalar_and_dict():
    tracer = Tracer()
    tracer.counter("fps", 58.0)
    tracer.counter("mem", {"free": 100, "used": 50})
    scalar, multi = tracer.events
    assert scalar.args == {"fps": 58.0}
    assert multi.args == {"free": 100, "used": 50}


def test_complete_carries_duration():
    tracer = Tracer()
    tracer.complete("reclaim", KERNEL_PID, 1, start_ms=5.0, dur_ms=3.5,
                    args={"reclaimed": 64})
    event = tracer.events[0]
    assert event.ph == "X" and event.ts == 5.0 and event.dur == 3.5


def test_flow_ids_are_unique():
    tracer = Tracer()
    first, second = tracer.new_flow_id(), tracer.new_flow_id()
    assert first != second
    tracer.flow_start("handoff", first, 1, 1)
    tracer.flow_end("handoff", first, 2, 1)
    start, end = tracer.events
    assert start.flow_id == end.flow_id == first


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_log_buckets():
    hist = Histogram(min_value=1.0, growth=2.0)
    for value in (0.5, 1.5, 3.0, 6.0, 100.0):
        hist.add(value)
    buckets = hist.buckets()
    assert hist.count == 5
    # 0.5 → bucket 0 [0,1); 1.5 → [1,2); 3 → [2,4); 6 → [4,8); 100 → [64,128)
    lows = [lo for lo, _hi, _count in buckets]
    assert lows == [0.0, 1.0, 2.0, 4.0, 64.0]


def test_histogram_percentiles_monotonic():
    hist = Histogram()
    for value in range(1, 101):
        hist.add(float(value))
    p50, p90, p99 = hist.percentile(50), hist.percentile(90), hist.percentile(99)
    assert p50 <= p90 <= p99 <= hist.max
    assert hist.percentile(0) == hist.min
    assert hist.percentile(100) == hist.max


def test_histogram_empty_and_validation():
    hist = Histogram()
    assert hist.percentile(50) == 0.0
    assert hist.summary()["p99"] == 0.0
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        Histogram(min_value=0.0)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def test_export_round_trips_through_json(tmp_path):
    tracer = Tracer()
    tracer.register_process(1000, "com.example.app")
    tracer.register_thread(1000, 7, "RenderThread")
    with tracer.span("frame", pid=1000, tid=7):
        tracer.instant("refault", pid=1000, tid=0, args={"fg": True})
    tracer.counter("fps", 60)
    tracer.histogram("frame_ms").add(12.0)

    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), tracer, extra_metadata={"seed": 1})
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == count
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["seed"] == 1
    assert "frame_ms" in document["otherData"]["histograms"]


def test_export_metadata_maps_tracks():
    tracer = Tracer()
    tracer.register_process(1000, "com.example.app")
    tracer.register_thread(1000, 7, "RenderThread")
    events = chrome_trace_events(tracer)
    process_names = {
        event["pid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    thread_names = {
        (event["pid"], event["tid"]): event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert process_names[0] == "kernel"
    assert process_names[1000] == "com.example.app"
    assert thread_names[(1000, 7)] == "RenderThread"


def test_export_converts_ms_to_us():
    now = {"t": 2.5}
    tracer = Tracer(clock=lambda: now["t"])
    tracer.complete("slice", 1, 1, start_ms=2.5, dur_ms=1.25)
    document = chrome_trace_document(tracer)
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert slices[0]["ts"] == 2500.0
    assert slices[0]["dur"] == 1250.0


def test_export_is_json_serializable_after_real_run():
    tracer = Tracer(capacity=50_000)
    system = MobileSystem(tracer=tracer)
    from repro.apps.catalog import catalog_apps

    system.install_apps(catalog_apps())
    record = system.launch("WhatsApp")
    system.run_until_complete(record, timeout_s=60.0)
    system.run(seconds=3.0)
    document = chrome_trace_document(tracer)
    parsed = json.loads(json.dumps(document))
    phases = {event["ph"] for event in parsed["traceEvents"]}
    # Scheduler slices, launch async pair, and metadata must all be there.
    assert {"M", "X", "b", "e"} <= phases
