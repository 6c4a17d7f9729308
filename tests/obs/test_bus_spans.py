"""Wall-clock spans on the event bus and the Chrome trace built from them.

``EventBus.span`` brackets a block with ``<kind>.start`` /
``<kind>.finish``; :class:`~repro.obs.ChromeTraceRecorder`, subscribed
by every enabled ``Observability()``, turns those pairs into ``B``/``E``
spans (one track per emitting thread) and every other event into an
instant.
"""

import json
import sys
import threading

import pytest

import repro
from repro.cluster import single_server
from repro.core import FastTConfig, SearchOptions
from repro.hardware import PerfModel
from repro.obs import (
    NULL_EVENTS,
    ChromeTraceRecorder,
    EventBus,
    Observability,
    read_event_log,
    trace_document,
    validate_trace,
)
from repro.sim import ExecutionSimulator, SimulationError

from tests.util import chain_graph

#: Every layer the search pipeline times, as span names in the trace.
PIPELINE_SPANS = {
    "calculator.run", "calculator.profile", "calculator.search", "round",
    "search", "search.op", "search.dpos", "sim.step",
}


def recording_bus():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    return bus, seen, bus.subscribe(ChromeTraceRecorder())


def balanced_spans(events):
    """Span name -> number of B/E pairs; asserts every B has its E."""
    begins, ends = {}, {}
    for event in events:
        if event["ph"] == "B":
            begins[event["name"]] = begins.get(event["name"], 0) + 1
        elif event["ph"] == "E":
            ends[event["name"]] = ends.get(event["name"], 0) + 1
    assert begins == ends
    return begins


class TestBusSpan:
    def test_span_emits_start_and_finish(self):
        bus, seen, _ = recording_bus()
        with bus.span("work", graph="g") as finish:
            finish["makespan"] = 1.5
        start, end = seen
        assert (start.kind, start.data) == ("work.start", {"graph": "g"})
        assert end.kind == "work.finish"
        assert end.data["makespan"] == 1.5
        assert end.data["seconds"] >= 0.0
        assert "error" not in end.data

    def test_nested_spans(self):
        bus, seen, recorder = recording_bus()
        with bus.span("outer"):
            with bus.span("inner"):
                pass
        assert [e.kind for e in seen] == [
            "outer.start", "inner.start", "inner.finish", "outer.finish",
        ]
        spans = [(e["ph"], e["name"]) for e in recorder.events
                 if e["ph"] in ("B", "E")]
        assert spans == [
            ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
        ]
        assert validate_trace(trace_document(recorder.events))["spans"] == 2

    def test_raising_body_still_emits_finish_with_error(self):
        bus, seen, recorder = recording_bus()
        with pytest.raises(KeyError):
            with bus.span("outer"):
                with bus.span("inner") as finish:
                    finish["op"] = "conv1"
                    raise KeyError("boom")
        inner, outer = seen[2], seen[3]
        assert inner.kind == "inner.finish"
        assert inner.data["error"] == "KeyError"
        assert inner.data["op"] == "conv1"
        assert outer.data["error"] == "KeyError"
        assert validate_trace(trace_document(recorder.events))["spans"] == 2

    def test_timestamps_monotonic_per_track(self):
        bus, _, recorder = recording_bus()
        for index in range(20):
            with bus.span("s", index=index):
                bus.emit("mark")
        last = {}
        for event in recorder.events:
            if event["ph"] == "M":
                continue
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, 0.0)
            last[track] = event["ts"]

    def test_threads_sharing_one_bus_give_a_valid_trace(self):
        bus, _, recorder = recording_bus()
        workers, rounds = 4, 200
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for index in range(rounds):
                with bus.span("outer", index=index):
                    with bus.span("inner"):
                        bus.emit("mark")
            bus.emit("open.start")  # never finished: exported as instant

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        events = recorder.events
        tracks = {e["tid"] for e in events if e["ph"] == "B"}
        assert len(tracks) == workers  # one track per emitting thread
        counts = validate_trace(trace_document(events))
        assert counts["spans"] == workers * 2 * rounds
        assert counts["instants"] == workers * (rounds + 1)

    def test_null_bus_shares_one_noop_span(self):
        first = NULL_EVENTS.span("a", x=1)
        assert first is NULL_EVENTS.span("b")
        with first as finish:
            finish["verdict"] = "ignored"
            finish.update(makespan=1.0)
        assert dict(finish) == {}
        with pytest.raises(ValueError):
            with NULL_EVENTS.span("c"):
                raise ValueError("propagates")


class TestChromeTraceRecorder:
    def test_non_span_events_become_instants_and_progress_is_skipped(self):
        bus, _, recorder = recording_bus()
        bus.emit("round.activate", round=0)
        bus.emit("dpos.progress", placed=1, total=2)
        instants = [e for e in recorder.events if e["ph"] == "i"]
        assert [(e["name"], e["args"]) for e in instants] == [
            ("round.activate", {"round": 0}),
        ]

    def test_unpaired_start_and_finish_export_as_instants(self):
        bus, _, recorder = recording_bus()
        bus.emit("coarsen.finish", coarse_ops=3)   # never started
        bus.emit("run.start", model="lenet")       # never finished
        with bus.span("search"):
            pass
        events = recorder.events
        assert [e["name"] for e in events if e["ph"] == "i"] == [
            "coarsen.finish", "run.start",
        ]
        assert balanced_spans(events) == {"search": 1}
        validate_trace(trace_document(events))


class TestOptimizeTrace:
    def test_every_timed_layer_is_a_balanced_span(self, tmp_path):
        obs = Observability()
        repro.optimize("lenet", "pcie:2", obs=obs)
        events = obs.trace.events
        assert PIPELINE_SPANS <= set(balanced_spans(events))
        path = obs.export_chrome_trace(str(tmp_path / "run.trace.json"))
        validate_trace(path)

    def test_recorded_run_trace_balances_and_validates(self, tmp_path):
        result = repro.optimize("lenet", "pcie:2", run_dir=str(tmp_path))
        path = f"{result.run_dir}/trace.json"
        validate_trace(path)
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        assert PIPELINE_SPANS | {"run"} <= set(balanced_spans(events))

    def test_search_raising_mid_span_still_gives_a_valid_trace(
        self, monkeypatch
    ):
        from repro.core.os_dpos import OSDPOS

        def broken(self, *args, **kwargs):
            raise RuntimeError("search broke")

        monkeypatch.setattr(OSDPOS, "_run_incremental", broken)
        obs = Observability()
        seen = []
        obs.events.subscribe(seen.append)
        with pytest.raises(RuntimeError, match="search broke"):
            repro.optimize("lenet", "pcie:2", obs=obs)
        finish = [e for e in seen if e.kind == "search.finish"]
        assert finish and finish[-1].data["error"] == "RuntimeError"
        validate_trace(trace_document(obs.trace.events))

    def test_deadlocked_step_finish_keeps_its_payload(self):
        graph = chain_graph(3)
        topo = single_server(2)
        obs = Observability()
        seen = []
        obs.events.subscribe(seen.append)
        sim = ExecutionSimulator(graph, topo, PerfModel(topo), obs=obs)
        # Rewired after construction (which rejects cycles): op1 <-> op2
        # wait on each other, so only op0 ever runs.
        graph.replace_input(
            graph.get_op("op1"), 0, graph.get_op("op2").outputs[0]
        )
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_step({op.name: topo.device_names[0] for op in graph.ops})
        finish = [e for e in seen if e.kind == "sim.step.finish"]
        assert len(finish) == 1
        data = finish[0].data
        assert data["error"] == "SimulationError"
        assert (data["graph"], data["ops"]) == ("chain", 1)
        assert data["makespan"] > 0.0
        validate_trace(trace_document(obs.trace.events))

    def test_disabled_hook_records_no_trace(self, tmp_path):
        obs = Observability(enabled=False)
        assert obs.events is NULL_EVENTS
        assert obs.export_chrome_trace(str(tmp_path / "x.json")) is None


def test_recorded_run_with_process_workers(tmp_path):
    """Workers get a hook-free engine, so a recorded workers=2 run works."""

    def config(workers):
        return FastTConfig(
            search=SearchOptions(workers=workers, max_candidate_ops=4)
        )

    parallel = repro.optimize(
        "lenet", single_server(2), run_dir=str(tmp_path), config=config(2)
    )
    serial = repro.optimize("lenet", single_server(2), config=config(1))
    for attribute in ("placement", "order", "split_list"):
        assert getattr(parallel.strategy, attribute) == getattr(
            serial.strategy, attribute
        )
    events = read_event_log(f"{parallel.run_dir}/events.jsonl")
    assert events[0].kind == "run.start" and events[-1].kind == "run.finish"
    validate_trace(f"{parallel.run_dir}/trace.json")
