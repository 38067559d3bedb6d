"""Exporters: Chrome-trace schema, JSON-lines round-trip, run report."""

import json

from repro import obs
from repro.sim import simulate


def _validate_chrome_schema(trace):
    """Assert the minimal Chrome-tracing/Perfetto JSON contract."""
    assert isinstance(trace["traceEvents"], list)
    for event in trace["traceEvents"]:
        assert "name" in event and "ph" in event and "pid" in event
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert "tid" in event
        elif event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
    json.dumps(trace)  # must be serializable as-is


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        obs.enable()
        with obs.span("outer", role="test"):
            with obs.span("inner"):
                pass
        trace = obs.build_chrome_trace()
        _validate_chrome_schema(trace)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"outer", "inner"}
        assert all(e["cat"] == "span" for e in slices)
        outer = next(e for e in slices if e["name"] == "outer")
        assert outer["args"]["role"] == "test"

    def test_combined_trace_has_spans_and_sim_phases(
        self, pipe_design, tmp_path
    ):
        obs.enable()
        with obs.span("dse.fake"):
            simulate(pipe_design)
        path = obs.export_chrome_trace(tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        _validate_chrome_schema(trace)
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert "span" in cats
        assert "kernel-phase" in cats
        # Simulator events live in their own Chrome process.
        span_pids = {
            e["pid"]
            for e in trace["traceEvents"]
            if e.get("cat") == "span"
        }
        phase_pids = {
            e["pid"]
            for e in trace["traceEvents"]
            if e.get("cat") == "kernel-phase"
        }
        assert span_pids.isdisjoint(phase_pids)

    def test_standalone_sim_trace_unchanged(self, pipe_design):
        """`to_chrome_trace` keeps its historical schema, obs off."""
        from repro.sim.trace import to_chrome_trace

        result = simulate(pipe_design)
        trace = to_chrome_trace(result)
        _validate_chrome_schema(trace)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["num_blocks"] == result.num_blocks
        assert obs.recorder.events() == []  # nothing recorded globally

    def test_event_capture_can_be_disabled(self, pipe_design):
        obs.enable(capture_events=False)
        simulate(pipe_design)
        assert obs.recorder.events() == []
        # Metrics still flow in metrics-only mode.
        counters = obs.get_registry().report()["counters"]
        assert counters["sim.runs"] == 1


class TestJsonLines:
    def test_round_trip(self, tmp_path):
        obs.enable()
        with obs.span("work", k=3):
            obs.inc("jobs", 2)
            obs.observe("latency", 0.25)
        obs.set_gauge("depth", 4)
        path = obs.export_jsonl(tmp_path / "events.jsonl")
        records = obs.read_jsonl(path)
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        (span_rec,) = by_type["span"]
        assert span_rec["name"] == "work"
        assert span_rec["attrs"] == {"k": 3}
        assert span_rec["duration_s"] >= 0
        metric_names = {r["name"] for r in by_type["metric"]}
        assert {"jobs", "depth", "latency", "work"} <= metric_names
        hist = next(
            r
            for r in by_type["metric"]
            if r["kind"] == "histogram" and r["name"] == "latency"
        )
        assert hist["summary"]["count"] == 1


class TestRunReport:
    def test_derived_rates(self):
        obs.enable()
        obs.inc("dse.candidates", 10)
        obs.inc("dse.cache_hits", 3)
        obs.inc("dse.infeasible", 1)
        report = obs.run_report()
        assert report["schema"] == obs.REPORT_SCHEMA
        assert report["derived"]["dse.cache_hit_rate"] == 0.3
        assert report["derived"]["dse.infeasible_rate"] == 0.1

    def test_span_aggregates(self):
        obs.enable()
        for _ in range(3):
            with obs.span("phase.a"):
                pass
        report = obs.run_report()
        assert report["spans"]["count"] == 3
        assert report["spans"]["by_name"]["phase.a"]["count"] == 3
        assert report["spans"]["dropped"] == {"spans": 0, "events": 0}

    def test_export_is_valid_json(self, tmp_path):
        obs.enable()
        with obs.span("s"):
            pass
        path = obs.export_run_report(tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == obs.REPORT_SCHEMA

    def test_markdown_rendering(self):
        obs.enable()
        obs.inc("dse.candidates", 4)
        obs.inc("dse.cache_hits", 2)
        with obs.span("model.predict"):
            pass
        text = obs.render_report_markdown()
        assert "# Run report" in text
        assert "dse.cache_hit_rate: 50.0%" in text
        assert "model.predict" in text


class TestRecorderBounds:
    def test_span_drops_are_counted(self, monkeypatch):
        obs.enable()
        monkeypatch.setattr(obs.recorder, "max_spans", 2)
        for _ in range(5):
            with obs.span("s"):
                pass
        assert len(obs.recorder.spans()) == 2
        assert obs.recorder.drop_counts()["spans"] == 3
        assert obs.run_report()["spans"]["dropped"]["spans"] == 3

    def test_event_drops_are_counted(self, monkeypatch):
        obs.enable()
        monkeypatch.setattr(obs.recorder, "max_events", 3)
        obs.record_chrome_events(
            [{"name": str(i), "ph": "M", "pid": 0} for i in range(5)]
        )
        assert len(obs.recorder.events()) == 3
        assert obs.recorder.drop_counts()["events"] == 2
