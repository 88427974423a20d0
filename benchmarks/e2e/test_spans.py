"""Fast checks of the self-time recorder, instrumentation and trace export."""

import time

import pytest

from spans import (
    Recorder,
    chrome_trace,
    coverage,
    instrument,
    layer_of,
    layer_table,
)


class Widget:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def helper(value):
    return value * 2


def test_self_time_subtracts_nested_spans():
    recorder = Recorder()
    with recorder.span("bench.op"):
        with recorder.span("core.scoring.build"):
            time.sleep(0.02)
        with recorder.span("core.astar.match"):
            with recorder.span("core.scoring.h"):
                time.sleep(0.02)
            time.sleep(0.01)
    total = recorder.total("bench.op")
    owns = sum(recorder.self_time(name) for name in recorder.totals)
    # Self times of one thread partition its outermost spans exactly.
    assert owns == pytest.approx(total, abs=1e-9)
    assert recorder.self_time("core.astar.match") == pytest.approx(
        recorder.total("core.astar.match") - recorder.total("core.scoring.h"),
        abs=1e-9,
    )
    assert recorder.under("core.astar.match", "core.scoring.h") == pytest.approx(
        recorder.total("core.scoring.h"))
    assert coverage(recorder, "bench.op") == pytest.approx(
        1 - recorder.self_time("bench.op") / total)


def test_recursive_calls_count_self_time_once():
    recorder = Recorder()
    with recorder.span("log.read_csv"):
        with recorder.span("log.read_csv"):
            time.sleep(0.01)
    assert recorder.calls("log.read_csv") == 2
    assert recorder.self_time("log.read_csv") == pytest.approx(
        recorder.total("log.read_csv") / 2, rel=0.2)


def test_layer_table_groups_by_module_and_names_the_root():
    recorder = Recorder()
    with recorder.span("bench.op"):
        with recorder.span("core.scoring.h"):
            time.sleep(0.01)
        with recorder.span("core.scoring.g_increment"):
            pass
    rows = {layer: calls for layer, _own, calls in layer_table(recorder, "bench.op")}
    assert rows == {"core.scoring": 2, "(unattributed)": 1}
    assert layer_of("core.scoring.h") == "core.scoring"
    assert layer_of("bench") == "bench"


def test_instrument_wraps_and_restores_methods_and_functions():
    original_method = Widget.__dict__["work"]
    original_function = helper
    targets = (
        (__name__, "Widget", "work", "demo.widget.work"),
        (__name__, None, "helper", "demo.helper"),
    )
    recorder = Recorder()
    with instrument(recorder, targets):
        assert Widget().work(0.0) == 0.0
        assert globals()["helper"](3) == 6
    assert Widget.__dict__["work"] is original_method
    assert globals()["helper"] is original_function
    assert recorder.calls("demo.widget.work") == 1
    assert recorder.calls("demo.helper") == 1


def test_instrument_restores_after_an_exception():
    original = Widget.__dict__["work"]
    with pytest.raises(RuntimeError):
        with instrument(Recorder(), ((__name__, "Widget", "work", "demo.work"),)):
            raise RuntimeError("boom")
    assert Widget.__dict__["work"] is original


def test_span_cap_keeps_aggregates_and_counts_drops():
    recorder = Recorder(span_cap=2)
    for _ in range(5):
        with recorder.span("patterns.mapped_frequency"):
            pass
    assert recorder.calls("patterns.mapped_frequency") == 5
    assert len(recorder.spans) == 2
    assert recorder.dropped == 3


def test_merge_combines_threads_on_one_timeline():
    first = Recorder(tid=1)
    second = Recorder(tid=2, epoch=first.epoch)
    with first.span("service.http_submit"):
        pass
    with second.span("service.http_submit"):
        pass
    first.merge(second)
    assert first.calls("service.http_submit") == 2
    assert {span[4] for span in first.spans} == {1, 2}


def test_chrome_trace_has_complete_events_in_microseconds():
    recorder = Recorder()
    with recorder.span("bench.op"):
        time.sleep(0.001)
    document = chrome_trace(recorder, pid=7, metadata={"workload": "demo"})
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["pid"] == 7 and spans[0]["cat"] == "bench"
    assert spans[0]["dur"] >= 1000.0
    assert document["otherData"] == {"workload": "demo", "spans_dropped": 0}
