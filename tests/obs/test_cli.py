"""End-to-end: CLI flags produce a merged trace and a run report."""

import json
import logging

import pytest

from repro.experiments.runner import main
from repro.obs.log import ROOT_LOGGER, _HANDLER_TAG


@pytest.fixture(autouse=True)
def clean_repro_logger():
    yield
    root = logging.getLogger(ROOT_LOGGER)
    for handler in list(root.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True


class TestTraceOut:
    def test_simulate_writes_merged_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "jacobi-1d",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "Wrote trace" in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        cats = {e.get("cat") for e in events}
        # One file, both worlds: DSE/CLI spans and simulator phases.
        assert "span" in cats
        assert "kernel-phase" in cats
        names = {e["name"] for e in events if e.get("cat") == "span"}
        assert "cli.simulate" in names
        assert "sim.run" in names


class TestMetricsOut:
    def test_optimize_reports_rates_and_latency(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "optimize",
                    "--benchmark",
                    "jacobi-1d",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        assert "Wrote metrics report" in capsys.readouterr().out
        report = json.loads(metrics_path.read_text())
        derived = report["derived"]
        assert 0.0 <= derived["dse.cache_hit_rate"] <= 1.0
        assert 0.0 <= derived["dse.infeasible_rate"] <= 1.0
        predict = report["metrics"]["histograms"]["model.predict"]
        assert predict["count"] > 0
        assert predict["p50"] <= predict["p90"] <= predict["p99"]

    def test_both_artifacts_from_one_run(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "jacobi-1d",
                    "--trace-out",
                    str(trace_path),
                    "--metrics-out",
                    str(metrics_path),
                    "--log-level",
                    "warning",
                ]
            )
            == 0
        )
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        report = json.loads(metrics_path.read_text())
        assert trace["traceEvents"]
        assert report["metrics"]["counters"]["sim.runs"] >= 1
        assert report["spans"]["count"] >= 1


class TestObservabilityOff:
    def test_plain_run_records_nothing(self, capsys):
        from repro import obs

        assert main(["simulate", "--benchmark", "jacobi-1d"]) == 0
        capsys.readouterr()
        assert not obs.enabled()
        assert obs.recorder.spans() == []
        assert obs.recorder.events() == []
