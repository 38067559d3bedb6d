"""Exporters: Chrome trace, JSON-lines event stream, run report.

Three views over one recording:

- :func:`build_chrome_trace` / :func:`export_chrome_trace` — the
  recorded spans (pid 0, one Chrome thread per Python thread) merged
  with every pre-encoded event block the simulator recorded (one
  Chrome process per simulation), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
- :func:`export_jsonl` / :func:`read_jsonl` — an append-friendly
  JSON-lines stream of spans, raw events, and metric summaries.
- :func:`run_report` / :func:`render_report_markdown` — a structured
  summary dict (metrics, derived rates such as the evaluator's cache
  hit-rate, per-span-name aggregates) and its human-readable
  rendering.

:class:`ChromeTraceBuilder` is the one event-encoding path shared with
:mod:`repro.sim.trace`; nothing here imports the rest of the framework.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs import core
from repro.obs.metrics import default_registry
from repro.obs.spans import SpanRecord

PathLike = Union[str, pathlib.Path]

#: Version tag for the run-report schema.
REPORT_SCHEMA = "repro.run_report/1"


class ChromeTraceBuilder:
    """Incremental encoder for Chrome-tracing JSON events.

    Produces the event dicts the ``chrome://tracing`` / Perfetto JSON
    format expects: ``M`` (metadata) events naming processes and
    threads, and ``X`` (complete) events for timed slices.  Timestamps
    and durations are microseconds.
    """

    def __init__(self):
        self.events: List[dict] = []

    def process_name(self, pid: int, name: str) -> None:
        self.events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": name},
            }
        )

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        self.events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    def complete(
        self,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        ts_us: float,
        dur_us: float,
        args: Optional[dict] = None,
        cname: Optional[str] = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": ts_us,
            "dur": dur_us,
        }
        if cname is not None:
            event["cname"] = cname
        if args is not None:
            event["args"] = args
        self.events.append(event)


def spans_to_chrome_events(
    spans: Sequence[SpanRecord], pid: int = 0
) -> List[dict]:
    """Encode span records as Chrome events (one tid per thread)."""
    builder = ChromeTraceBuilder()
    builder.process_name(pid, "repro (spans)")
    tids: Dict[str, int] = {}
    for record in spans:
        tid = tids.get(record.thread)
        if tid is None:
            tid = tids[record.thread] = len(tids)
            builder.thread_name(pid, tid, record.thread)
        args = {"seq": record.seq}
        if record.parent_seq is not None:
            args["parent_seq"] = record.parent_seq
        if record.trace_id is not None:
            args["trace_id"] = record.trace_id
        args.update(record.attrs)
        builder.complete(
            record.name,
            "span",
            pid,
            tid,
            record.start_s * 1e6,
            record.duration_s * 1e6,
            args=args,
        )
    return builder.events


def build_chrome_trace(trace_id: Optional[str] = None) -> dict:
    """The full recording as one Chrome-tracing JSON object.

    With ``trace_id``, only the spans stamped with that request's trace
    context are included — the merged per-job trace the service serves
    from ``GET /jobs/<id>/trace``.  Raw simulator events carry no trace
    ids and are omitted from a filtered trace.
    """
    spans = core.recorder.spans()
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
        events = spans_to_chrome_events(spans)
    else:
        events = spans_to_chrome_events(spans) + core.recorder.events()
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(spans),
            "dropped": core.recorder.drop_counts(),
        },
    }
    if trace_id is not None:
        trace["otherData"]["trace_id"] = trace_id
    return trace


def export_chrome_trace(
    path: PathLike, trace_id: Optional[str] = None
) -> pathlib.Path:
    """Write the merged Chrome trace to ``path`` and return it."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(build_chrome_trace(trace_id), indent=1))
    return target


# -- JSON-lines event stream -----------------------------------------------


def export_jsonl(path: PathLike) -> pathlib.Path:
    """Write spans, raw events, and metric summaries as JSON lines.

    Each line is ``{"type": "span" | "event" | "metric", ...}``; the
    stream round-trips through :func:`read_jsonl`.
    """
    target = pathlib.Path(path)
    report = default_registry.report()
    with target.open("w") as stream:
        for record in core.recorder.spans():
            stream.write(
                json.dumps({"type": "span", **record.as_dict()}) + "\n"
            )
        for event in core.recorder.events():
            stream.write(
                json.dumps({"type": "event", "data": event}) + "\n"
            )
        for kind in ("counters", "gauges"):
            for name, value in report[kind].items():
                stream.write(
                    json.dumps(
                        {
                            "type": "metric",
                            "kind": kind[:-1],
                            "name": name,
                            "value": value,
                        }
                    )
                    + "\n"
                )
        for name, summary in report["histograms"].items():
            stream.write(
                json.dumps(
                    {
                        "type": "metric",
                        "kind": "histogram",
                        "name": name,
                        "summary": summary,
                    }
                )
                + "\n"
            )
    return target


def read_jsonl(path: PathLike) -> List[dict]:
    """Parse a JSON-lines stream back into a list of dicts."""
    lines = pathlib.Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# -- run report -------------------------------------------------------------


def _derived_rates(counters: Dict[str, float]) -> Dict[str, float]:
    """Headline ratios computed from the raw counters."""
    derived: Dict[str, float] = {}
    candidates = counters.get("dse.candidates", 0)
    if candidates:
        for rate, source in (
            ("dse.cache_hit_rate", "dse.cache_hits"),
            ("dse.infeasible_rate", "dse.infeasible"),
        ):
            derived[rate] = counters.get(source, 0) / candidates
    store_probes = counters.get("store.hits", 0) + counters.get(
        "store.misses", 0
    )
    if store_probes:
        derived["store.hit_rate"] = (
            counters.get("store.hits", 0) / store_probes
        )
    jit_probes = counters.get("sim.jit.cache_hits", 0) + counters.get(
        "sim.jit.cache_misses", 0
    )
    if jit_probes:
        derived["sim.jit.cache_hit_rate"] = (
            counters.get("sim.jit.cache_hits", 0) / jit_probes
        )
    screened = counters.get("search.screened", 0)
    promoted = counters.get("search.promoted", 0)
    if screened or promoted:
        derived["search.promotion_rate"] = promoted / (
            screened + promoted
        )
    requests = counters.get("service.requests", 0)
    if requests:
        derived["service.dedup_rate"] = (
            counters.get("service.dedup", 0) / requests
        )
        derived["service.reject_rate"] = (
            counters.get("service.rejected", 0) / requests
        )
    return derived


def _span_aggregates(spans: Iterable[SpanRecord]) -> Dict[str, dict]:
    by_name: Dict[str, dict] = {}
    for record in spans:
        agg = by_name.setdefault(
            record.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += record.duration_s
        agg["max_s"] = max(agg["max_s"], record.duration_s)
    return dict(sorted(by_name.items()))


def run_report() -> dict:
    """Structured summary of the whole recording (JSON-serializable)."""
    spans = core.recorder.spans()
    metrics = default_registry.report()
    return {
        "schema": REPORT_SCHEMA,
        "metrics": metrics,
        "derived": _derived_rates(metrics["counters"]),
        "spans": {
            "count": len(spans),
            "dropped": core.recorder.drop_counts(),
            "by_name": _span_aggregates(spans),
        },
    }


def export_run_report(path: PathLike) -> pathlib.Path:
    """Write :func:`run_report` as JSON to ``path`` and return it."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(run_report(), indent=1, sort_keys=True))
    return target


def render_report_markdown(report: Optional[dict] = None) -> str:
    """Markdown rendering of a run report (for terminals and logs)."""
    report = report if report is not None else run_report()
    lines: List[str] = ["# Run report", ""]
    derived = report.get("derived", {})
    if derived:
        lines.append("## Derived rates")
        for name, value in sorted(derived.items()):
            lines.append(f"- {name}: {value:.1%}")
        lines.append("")
    counters = report["metrics"]["counters"]
    if counters:
        lines.append("## Counters")
        for name, value in counters.items():
            lines.append(f"- {name}: {value:g}")
        lines.append("")
    gauges = report["metrics"]["gauges"]
    if gauges:
        lines.append("## Gauges")
        for name, value in gauges.items():
            lines.append(f"- {name}: {value:g}")
        lines.append("")
    histograms = report["metrics"]["histograms"]
    if histograms:
        lines.append("## Histograms")
        for name, summary in histograms.items():
            if not summary.get("count"):
                continue
            lines.append(
                f"- {name}: n={summary['count']} "
                f"mean={summary['mean']:.3e} p50={summary['p50']:.3e} "
                f"p99={summary['p99']:.3e} max={summary['max']:.3e}"
            )
        lines.append("")
    spans = report["spans"]["by_name"]
    if spans:
        lines.append("## Spans")
        for name, agg in spans.items():
            lines.append(
                f"- {name}: {agg['count']}x, total {agg['total_s']:.3f}s"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
